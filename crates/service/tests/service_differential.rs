//! Service-vs-batch differential suite: the live service, fed the same
//! events through [`ServiceCore::ingest_all`], must end in
//! **bit-identical** state to the batch replay — the same `SimResult`
//! and the same serialized per-proxy cache contents — after a rejected
//! ingest and across content churn. That it does so for every strategy
//! (inline, on worker threads, one event at a time, in content mode,
//! with and without invalidation) is a row of the variant table
//! (`crates/spec/tests/variants.rs`), checked there against the spec
//! loop.
//!
//! The second half is the crash-recovery property: a service killed (its
//! core dropped, inline shard and worker threads alike) at a
//! proptest-chosen journal offset and rebuilt via
//! [`ServiceCore::recover`] must converge to the *uncrashed* run (and
//! hence, transitively, to the batch replay).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_service::{ServiceConfig, ServiceCore, ServiceOutcome};
use pscd_sim::{CompiledTrace, SimOptions, SimResult, Simulation};
use pscd_spec::LINEUP;
use pscd_topology::FetchCosts;
use pscd_types::{LiveEvent, PageMeta, ServerId};
use pscd_workload::{Workload, WorkloadConfig};

struct Fixture {
    trace: CompiledTrace,
    costs: FetchCosts,
    events: Vec<LiveEvent>,
    pages: Arc<[PageMeta]>,
    subs: pscd_types::SubscriptionTable,
}

/// The shared workload, compiled once: the batch replay consumes the
/// compiled trace, the service consumes the *same* facts as a flat event
/// stream (subscriptions first, then the publish/request timeline).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let events = w.live_events(&subs);
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        let pages: Arc<[PageMeta]> = trace.pages().iter().copied().collect();
        Fixture {
            trace,
            costs,
            events,
            pages,
            subs,
        }
    })
}

const CAPACITY_FRACTION: f64 = 0.05;

/// The batch reference: a sequential compiled replay, with every proxy's
/// cache state serialized just before the result is finalized.
fn batch_run(kind: StrategyKind, invalidate: bool) -> (SimResult, Vec<Vec<u8>>) {
    let f = fixture();
    let mut options = SimOptions::at_capacity(kind, CAPACITY_FRACTION).with_threads(1);
    if invalidate {
        options = options.with_invalidation();
    }
    let mut sim = Simulation::from_compiled(&f.trace, &f.costs, &options).unwrap();
    while sim.step().is_some() {}
    let engine = sim.engine();
    let proxies = (0..f.trace.meta().server_count())
        .map(|s| {
            let mut blob = Vec::new();
            engine.strategy(ServerId::new(s)).encode_snapshot(&mut blob);
            blob
        })
        .collect();
    (sim.finish(), proxies)
}

fn service_config(kind: StrategyKind, invalidate: bool) -> ServiceConfig {
    let f = fixture();
    let mut config = ServiceConfig::new(
        kind,
        f.trace.capacities(CAPACITY_FRACTION),
        f.costs.iter().collect(),
        PushScheme::Always,
        Arc::clone(&f.pages),
        f.trace.hours(),
    );
    if invalidate {
        config = config.with_invalidation();
    }
    config
}

fn assert_equivalent(kind: StrategyKind, outcome: &ServiceOutcome, invalidate: bool, label: &str) {
    let (reference, proxies) = batch_run(kind, invalidate);
    assert_eq!(
        outcome.result, reference,
        "service accounting diverged from batch replay for {} ({label})",
        reference.strategy
    );
    assert_eq!(outcome.result.hourly, reference.hourly);
    assert_eq!(
        outcome.proxies, proxies,
        "per-proxy cache state diverged from batch replay for {} ({label})",
        reference.strategy
    );
}

#[test]
fn invalid_events_are_rejected_without_side_effects() {
    let f = fixture();
    let kind = StrategyKind::Lru;
    let mut core = ServiceCore::new(service_config(kind, false)).unwrap();
    let bad = LiveEvent::Request {
        time: pscd_types::SimTime::ZERO,
        server: ServerId::new(f.trace.meta().server_count()),
        page: pscd_types::PageId::new(0),
    };
    // A slice with a bad event is rejected whole; the good prefix must
    // not have been applied.
    assert!(core.ingest_all(&[f.events[0], bad]).is_err());
    assert_eq!(core.events_applied(), 0);
    core.ingest_all(&f.events).unwrap();
    let outcome = core.shutdown().unwrap();
    assert_equivalent(kind, &outcome, false, "after rejected ingest");
}

/// The worker counts the content tests run at: the inline service, and a
/// worker or two beside shard 0.
const WORKERS: [usize; 3] = [1, 2, 3];

/// Dynamic churn through the content front door: a subscribe or an
/// unsubscribe takes effect at once and the frozen kernel answers on (no
/// rebuild before the next resolve), and a round trip of a subscription
/// that matches nothing leaves the outcome bit-identical, at every worker
/// count.
#[test]
fn content_churn_keeps_the_kernel_frozen_and_stays_identical() {
    use pscd_matching::{Predicate, Subscription, Value};

    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    for workers in WORKERS {
        let config = service_config(kind, false).with_workers(workers);
        let mut core = ServiceCore::new(config).unwrap();
        core.attach_matcher(pscd_workload::matcher_from_table(
            &f.subs,
            f.trace.meta().server_count(),
        ))
        .unwrap();

        let mid = f.events.len() / 2;
        core.ingest_all(&f.events[..mid]).unwrap();

        // A predicate no registered page satisfies: page ids are dense
        // from zero, so `page = -1` never matches and the outcome is
        // unaffected.
        let ghost = Subscription::new(vec![Predicate::eq("page", Value::int(-1))]);
        let id = core.subscribe_content(ServerId::new(0), ghost).unwrap();
        assert!(core.matcher_frozen(), "the kernel absorbs a subscribe");
        core.ingest_all(&f.events[mid..mid + 1]).unwrap();
        assert!(core.matcher_frozen());

        core.unsubscribe_content(ServerId::new(0), id).unwrap();
        assert!(core.matcher_frozen(), "the kernel absorbs an unsubscribe");
        core.ingest_all(&f.events[mid + 1..]).unwrap();
        assert!(core.matcher_frozen());

        let outcome = core.shutdown().unwrap();
        let label = format!("content churn, {workers} workers");
        assert_equivalent(kind, &outcome, false, &label);
    }
}

/// A matcher attached mid-stream, after count-row batches went to every
/// shard, takes over from the next event: each shard's first resolved
/// batch starts where the count-row ones stopped, and a matcher that
/// reproduces the table leaves the outcome bit-identical, at every worker
/// count and whether the attach lands on a batch seam or inside a batch.
#[test]
fn content_mode_attached_mid_stream_stays_identical() {
    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    let servers = f.trace.meta().server_count();
    for (workers, cut) in WORKERS.into_iter().flat_map(|w| [(w, 1), (w, 2)]) {
        let config = service_config(kind, false)
            .with_workers(workers)
            .with_batch_size(64);
        let mut core = ServiceCore::new(config).unwrap();
        let timeline = f
            .events
            .iter()
            .position(|ev| !matches!(ev, LiveEvent::Subscribe { .. }));
        let at = timeline.unwrap() + 64 * 5 * cut + cut - 1;
        core.ingest_all(&f.events[..at]).unwrap();
        core.attach_matcher(pscd_workload::matcher_from_table(&f.subs, servers))
            .unwrap();
        core.ingest_all(&f.events[at..]).unwrap();
        let outcome = core.shutdown().unwrap();
        let label = format!("attached after {at} events, {workers} workers");
        assert_equivalent(kind, &outcome, false, &label);
    }
}

/// Churn that does change the outcome — subscriptions to pages published
/// later in the stream join, frozen ones to such pages leave, some of the
/// joined leave again; and the same for pages published *before* the call
/// and requested after it, whose fan-out the service has kept — resolves
/// the same whichever way the matcher takes it, at every worker count.
/// One service absorbs every call into its frozen kernel. A second is
/// first given a burst of never-matching subscriptions that overflows the
/// kernel, so the same calls land in the thawed matcher's rows and the next
/// resolve answers from a full rebuild; the burst is withdrawn afterwards.
/// A third has no matcher at all: it is told the resulting counts as
/// `Subscribe` rows. Result and every proxy's cache state must agree.
#[test]
fn content_churn_through_the_delta_equals_churn_through_a_refreeze() {
    use std::collections::HashMap;

    use pscd_matching::{Predicate, Subscription, SubscriptionId, Value};
    use pscd_types::PageId;

    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    let servers = f.trace.meta().server_count();
    // The stream opens with the table's subscribe rows; both cuts lie in
    // the publish/request timeline behind them.
    let is_row = |ev: &LiveEvent| matches!(ev, LiveEvent::Subscribe { .. });
    let timeline = f.events.iter().position(|ev| !is_row(ev)).unwrap();
    let third = (f.events.len() - timeline) / 3;
    let cuts = [timeline + third, timeline + 2 * third];
    let published = |events: &[LiveEvent]| -> Vec<PageId> {
        let pages = events.iter().filter_map(|ev| match ev {
            LiveEvent::Publish { page, .. } => Some(*page),
            _ => None,
        });
        pages.collect()
    };

    // The script: per cut, the (server, page) subscriptions that leave and
    // the ones that join. The first cut's leavers are frozen ones; the
    // second's are half of the first's joiners, then more frozen ones.
    let later = [
        published(&f.events[cuts[0]..]),
        published(&f.events[cuts[1]..]),
    ];
    let frozen_leavers = |pages: &[PageId], skip: usize| -> Vec<(ServerId, PageId)> {
        let rows = f.subs.iter().filter(|(page, ..)| pages.contains(page));
        let keys = rows.map(|(page, server, _)| (server, page));
        keys.skip(skip).step_by(3).take(24).collect()
    };
    let joiners = |pages: &[PageId], stride: u16| -> Vec<(ServerId, PageId)> {
        let at = |k: usize| ServerId::new((k as u16 * stride) % servers);
        (0..20).map(|k| (at(k), pages[k % pages.len()])).collect()
    };
    let first_join = joiners(&later[0], 7);
    let mut second_leave: Vec<_> = first_join.iter().copied().step_by(2).collect();
    second_leave.extend(frozen_leavers(&later[1], 1));
    let mut script = [
        (frozen_leavers(&later[0], 0), first_join),
        (second_leave, joiners(&later[1], 3)),
    ];
    assert!(script.iter().all(|(leave, _)| leave.len() >= 24));

    // The pages whose publish lies before a cut and a request behind it,
    // with that request's proxy: the count the publish found there is the
    // one a call at the cut makes stale. Frozen subscriptions leave at the
    // asking proxy; others join there and at its neighbour, whose own
    // requests for the page may still read what the publish found (few
    // of them: every joiner of both cuts has to fit the kernel's delta).
    let mut gone: Vec<(ServerId, PageId)> = Vec::new();
    for (&cut, (leave, join)) in cuts.iter().zip(&mut script) {
        let earlier = published(&f.events[..cut]);
        let mut aged: Vec<(ServerId, PageId)> = f.events[cut..]
            .iter()
            .filter_map(|ev| match *ev {
                LiveEvent::Request { server, page, .. } => Some((server, page)),
                _ => None,
            })
            .filter(|(server, page)| earlier.contains(page) && f.subs.count(*page, *server) > 0)
            .collect();
        aged.sort_unstable();
        aged.dedup();
        let leavers = aged.iter().filter(|key| !gone.contains(key));
        let leavers: Vec<_> = leavers.copied().step_by(2).collect();
        let joiners: Vec<_> = aged
            .iter()
            .skip(1)
            .step_by(2)
            .take(4)
            .flat_map(|&(server, page)| {
                let neighbour = ServerId::new((server.index() + 1) % servers);
                [(server, page), (neighbour, page)]
            })
            .collect();
        assert!(leavers.len() >= 8 && joiners.len() == 8, "cut {cut}");
        leave.extend(leavers);
        join.extend(joiners);
        gone.extend(leave.iter());
    }

    let page_sub = |page: PageId| {
        Subscription::new(vec![Predicate::eq("page", Value::int(page.index() as i64))])
    };
    let content_service = |burst: bool, workers: usize| {
        let config = service_config(kind, false).with_workers(workers);
        let mut core = ServiceCore::new(config).unwrap();
        let matcher = pscd_workload::matcher_from_table(&f.subs, servers);
        // The live subscriptions of each (server, page), newest last:
        // `matcher_from_table` subscribes `count` to each row's page, in
        // the table's order, and a proxy numbers its ids from 0.
        let mut live: HashMap<(ServerId, PageId), Vec<SubscriptionId>> = HashMap::new();
        let mut next = vec![0; usize::from(servers)];
        for (page, server, count) in f.subs.iter() {
            let ids = &mut next[server.as_usize()];
            let new = (*ids..*ids + u64::from(count)).map(SubscriptionId::new);
            live.entry((server, page)).or_default().extend(new);
            *ids += u64::from(count);
        }
        core.attach_matcher(matcher).unwrap();
        let mut from = 0;
        for (&cut, (leave, join)) in cuts.iter().zip(&script) {
            core.ingest_all(&f.events[from..cut]).unwrap();
            let ghosts: Vec<_> = (0..if burst { 100 } else { 0 })
                .map(|k| {
                    let ghost = Subscription::new(vec![Predicate::eq("page", Value::int(-1 - k))]);
                    core.subscribe_content(ServerId::new(0), ghost).unwrap()
                })
                .collect();
            for key in leave {
                let id = live.get_mut(key).and_then(Vec::pop).expect("a live one");
                core.unsubscribe_content(key.0, id).unwrap();
            }
            for &(server, page) in join {
                let id = core.subscribe_content(server, page_sub(page)).unwrap();
                live.entry((server, page)).or_default().push(id);
            }
            assert_eq!(core.matcher_frozen(), !burst, "only the burst thaws");
            // The next event resolves through the kernel the calls were
            // absorbed into, or through one rebuilt from everything.
            core.ingest_all(&f.events[cut..cut + 1]).unwrap();
            assert!(core.matcher_frozen());
            for id in ghosts {
                core.unsubscribe_content(ServerId::new(0), id).unwrap();
            }
            assert!(core.matcher_frozen());
            from = cut + 1;
        }
        core.ingest_all(&f.events[from..]).unwrap();
        core.shutdown().unwrap()
    };
    let absorbed = content_service(false, 1);
    let assert_same = |other: &ServiceOutcome, label: &str| {
        assert_eq!(absorbed.result, other.result, "result vs. {label}");
        assert_eq!(absorbed.proxies, other.proxies, "cache state vs. {label}");
    };
    for workers in WORKERS {
        let label = format!("full rebuilds, {workers} workers");
        assert_same(&content_service(true, workers), &label);
        if workers > 1 {
            let label = format!("the delta, {workers} workers");
            assert_same(&content_service(false, workers), &label);
        }
    }

    // Count-row mode: the same churn as the counts it leaves.
    let mut counts: HashMap<(ServerId, PageId), u32> = HashMap::new();
    counts.extend(f.subs.iter().map(|(page, server, n)| ((server, page), n)));
    let mut core = ServiceCore::new(service_config(kind, false)).unwrap();
    let mut from = 0;
    for (&cut, (leave, join)) in cuts.iter().zip(&script) {
        core.ingest_all(&f.events[from..cut]).unwrap();
        let steps = leave
            .iter()
            .map(|key| (key, -1))
            .chain(join.iter().map(|key| (key, 1)));
        for (&(server, page), step) in steps {
            let count = counts.entry((server, page)).or_default();
            *count = count.checked_add_signed(step).expect("a live one");
            let count = *count;
            core.ingest(LiveEvent::Subscribe {
                page,
                server,
                count,
            })
            .unwrap();
        }
        from = cut;
    }
    core.ingest_all(&f.events[from..]).unwrap();
    let rows = core.shutdown().unwrap();
    assert_same(&rows, "count rows");
    let (unchurned, _) = batch_run(kind, false);
    assert_ne!(absorbed.result, unchurned, "the churn must matter");
}

/// A rejected content call changes no subscription, so it must not thaw
/// the kernel: the next resolved event would pay a whole refreeze for
/// nothing.
#[test]
fn content_rejected_churn_keeps_the_kernel_frozen() {
    use pscd_matching::{Subscription, SubscriptionId};

    let f = fixture();
    let servers = f.trace.meta().server_count();
    for workers in WORKERS {
        let config = service_config(StrategyKind::Lru, false).with_workers(workers);
        let mut core = ServiceCore::new(config).unwrap();
        core.attach_matcher(pscd_workload::matcher_from_table(&f.subs, servers))
            .unwrap();
        assert!(core.matcher_frozen());

        let unknown = SubscriptionId::new(u64::MAX);
        assert!(core.unsubscribe_content(ServerId::new(0), unknown).is_err());
        assert!(core.matcher_frozen(), "unknown subscription id");
        assert!(core
            .unsubscribe_content(ServerId::new(servers), unknown)
            .is_err());
        assert!(core.matcher_frozen(), "unknown server on unsubscribe");
        assert!(core
            .subscribe_content(ServerId::new(servers), Subscription::wildcard())
            .is_err());
        assert!(core.matcher_frozen(), "unknown server on subscribe");
    }
}

/// Misconfigured matchers are rejected up front, and the content
/// subscribe front door requires an attached matcher.
#[test]
fn content_mode_rejects_mismatched_matchers() {
    use pscd_matching::{EngineMatcher, Predicate, Subscription, Value};

    let f = fixture();
    let kind = StrategyKind::Lru;
    let mut core = ServiceCore::new(service_config(kind, false)).unwrap();
    // Wrong fleet size and an empty page universe.
    assert!(core.attach_matcher(EngineMatcher::new(1)).is_err());
    // No matcher attached: the content front door is closed.
    let sub = Subscription::new(vec![Predicate::eq("page", Value::int(0))]);
    assert!(core.subscribe_content(ServerId::new(0), sub).is_err());
    core.ingest_all(&f.events).unwrap();
    let outcome = core.shutdown().unwrap();
    assert_equivalent(kind, &outcome, false, "after rejected matcher");
}

/// The right *number* of pages over the wrong ids is no cover: page 0
/// would fan out to nobody and count 0 without an error.
#[test]
fn content_mode_rejects_a_matcher_over_shifted_ids() {
    use pscd_matching::{Content, EngineMatcher};
    use pscd_types::PageId;

    let f = fixture();
    let mut core = ServiceCore::new(service_config(StrategyKind::Lru, false)).unwrap();
    let mut shifted = EngineMatcher::new(f.trace.meta().server_count());
    for id in 1..=f.pages.len() as u32 {
        shifted.register_page(PageId::new(id), Content::new());
    }
    assert_eq!(shifted.page_count(), f.pages.len());
    let err = core.attach_matcher(shifted).unwrap_err();
    assert!(err.to_string().contains("page universe"), "{err}");
}

/// A convergence-relevant subset of the lineup: one representative per
/// state shape (list-backed, heap-backed, subscription-aware, dual, and
/// the adaptive pair), keeping the proptest affordable.
fn recovery_strategies() -> [StrategyKind; 6] {
    [
        StrategyKind::Lru,
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::Dm { beta: 2.0 },
        StrategyKind::DcAp { beta: 2.0 },
        StrategyKind::dc_fp(2.0),
    ]
}

fn temp_service_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pscd-service-recovery-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// 64-bit FNV-1a, with the constants `pscd_workload::scenario` uses.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The persisted formats, byte for byte: the fixture stream (invalidation
/// on) through a journaled service that is told to snapshot three times.
/// One digest per strategy over the three `snapshot.bin` files, the final
/// `journal.bin` and the shutdown blobs in server order — captured at
/// PR 22 and to be left alone by any change that claims the formats did
/// not move.
#[test]
fn persisted_bytes_are_pinned() {
    const PINNED: [u64; 12] = [
        0xfade_4648_6b41_ee5b,
        0x0f76_5ab2_68d0_c618,
        0xf207_59b5_8552_cd8e,
        0x3ca8_ee2e_10d1_9da2,
        0xd629_39a4_a218_d8c5,
        0x042f_3ce7_abdd_74b0,
        0xfca2_1810_364c_a83b,
        0x0c38_1b3b_41d5_4d43,
        0x0eef_640c_0a6f_ddae,
        0x922e_30ea_de91_7785,
        0x97ef_6842_0e8e_4d73,
        0x6b0a_dd68_a7ba_5eda,
    ];
    let f = fixture();
    let quarter = f.events.len() / 4;
    let digests = LINEUP.map(|kind| {
        let dir = temp_service_dir(&format!("pinned-{}", kind.name()));
        let mut core =
            ServiceCore::new(service_config(kind, true).with_persistence(dir.clone(), 0)).unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for stretch in f.events.chunks(quarter).take(3) {
            for chunk in stretch.chunks(256) {
                core.ingest_all(chunk).unwrap();
            }
            core.snapshot_now().unwrap();
            digest = fnv1a(digest, &std::fs::read(dir.join("snapshot.bin")).unwrap());
        }
        core.ingest_all(&f.events[3 * quarter..]).unwrap();
        let outcome = core.shutdown().unwrap();
        digest = fnv1a(digest, &std::fs::read(dir.join("journal.bin")).unwrap());
        for blob in &outcome.proxies {
            digest = fnv1a(digest, blob);
        }
        std::fs::remove_dir_all(&dir).ok();
        digest
    });
    assert_eq!(digests, PINNED, "persisted bytes moved: {digests:#018x?}");
}

/// The digest [`persisted_bytes_are_pinned`] pins does not depend on how
/// the fleet is split: the inline fleet, the ingesting thread beside one
/// worker, and beside two write the same bytes.
#[test]
fn persisted_bytes_do_not_depend_on_the_thread_count() {
    let f = fixture();
    let quarter = f.events.len() / 4;
    for kind in LINEUP {
        let digests = [1, 2, 3].map(|workers| {
            let dir = temp_service_dir(&format!("threads-{}-{workers}", kind.name()));
            let config = service_config(kind, true)
                .with_workers(workers)
                .with_persistence(dir.clone(), 0);
            let mut core = ServiceCore::new(config).unwrap();
            let mut digest = 0xcbf2_9ce4_8422_2325;
            for stretch in f.events.chunks(quarter).take(3) {
                for chunk in stretch.chunks(256) {
                    core.ingest_all(chunk).unwrap();
                }
                core.snapshot_now().unwrap();
                digest = fnv1a(digest, &std::fs::read(dir.join("snapshot.bin")).unwrap());
            }
            core.ingest_all(&f.events[3 * quarter..]).unwrap();
            let outcome = core.shutdown().unwrap();
            digest = fnv1a(digest, &std::fs::read(dir.join("journal.bin")).unwrap());
            for blob in &outcome.proxies {
                digest = fnv1a(digest, blob);
            }
            std::fs::remove_dir_all(&dir).ok();
            digest
        });
        assert_eq!(
            digests,
            [digests[0]; 3],
            "{}: {digests:#018x?}",
            kind.name()
        );
    }
}

/// Recovery walks the journal records a snapshot covers and replays the
/// rest: wherever the snapshot was taken — before the first event, after
/// it, inside a dispatch batch, after the last event — and whether the
/// inline fleet, the ingesting thread beside one worker or beside two
/// wrote it and restore from it, that must
/// end where replaying the whole journal does, which is where the batch
/// replay does.
#[test]
fn recover_with_a_snapshot_equals_recover_without_one() {
    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    let mid_batch = f.events.len() / 2 / 256 * 256 + 100;
    let points = [0, 1, mid_batch, f.events.len()];
    for (workers, k) in [1, 2, 3].into_iter().flat_map(|w| points.map(|k| (w, k))) {
        let dir = temp_service_dir(&format!("snapshot-at-{k}-{workers}"));
        let config = service_config(kind, true)
            .with_workers(workers)
            .with_persistence(dir.clone(), 0);
        let mut core = ServiceCore::new(config.clone()).unwrap();
        core.ingest_all(&f.events[..k]).unwrap();
        core.snapshot_now().unwrap();
        core.ingest_all(&f.events[k..]).unwrap();
        drop(core);

        let finish = |core: ServiceCore| {
            assert_eq!(core.events_applied(), f.events.len() as u64);
            core.shutdown().unwrap()
        };
        let with = finish(ServiceCore::recover(config.clone()).unwrap());
        std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
        let without = finish(ServiceCore::recover(config.clone()).unwrap());
        assert_eq!(
            with.result, without.result,
            "snapshot at {k}, {workers} workers"
        );
        assert_eq!(
            with.proxies, without.proxies,
            "snapshot at {k}, {workers} workers"
        );
        assert_equivalent(kind, &with, true, "recovered from a snapshot");

        // A journal that ends before the snapshot does is refused.
        if k > 0 {
            let mut core = ServiceCore::new(config.clone()).unwrap();
            core.ingest_all(&f.events[..k]).unwrap();
            core.snapshot_now().unwrap();
            drop(core);
            let journal = dir.join("journal.bin");
            let len = std::fs::metadata(&journal).unwrap().len();
            let cut = std::fs::OpenOptions::new().write(true).open(&journal);
            cut.unwrap().set_len(len - 1).unwrap();
            let err = ServiceCore::recover(config).unwrap_err();
            assert!(err.to_string().contains("shorter than snapshot"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot keeps the last one's subscription rows only until a
/// subscribe changes them. Service A snapshots mid-stream, takes a live
/// subscribe and more events, and snapshots again; service B takes the
/// same events and snapshots once. The two last files must be the same
/// bytes, on the inline fleet and beside a worker.
#[test]
fn a_subscribe_between_snapshots_rewrites_the_row_section() {
    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    let k = f.events.len() / 2;
    let subscribe = LiveEvent::Subscribe {
        page: pscd_types::PageId::new(0),
        server: ServerId::new(0),
        count: 1_234,
    };
    let after: Vec<LiveEvent> = std::iter::once(subscribe)
        .chain(f.events[k..].iter().copied().take(1_000))
        .collect();
    for workers in [1, 2] {
        let snapshot = |tag: &str, twice: bool| {
            let dir = temp_service_dir(&format!("rows-{tag}-{workers}"));
            let config = service_config(kind, true)
                .with_workers(workers)
                .with_persistence(dir.clone(), 0);
            let mut core = ServiceCore::new(config).unwrap();
            core.ingest_all(&f.events[..k]).unwrap();
            if twice {
                core.snapshot_now().unwrap();
            }
            core.ingest_all(&after).unwrap();
            core.snapshot_now().unwrap();
            let bytes = std::fs::read(dir.join("snapshot.bin")).unwrap();
            drop(core);
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        assert!(
            snapshot("twice", true) == snapshot("once", false),
            "{workers} workers: the second snapshot kept rows a subscribe changed"
        );
    }
}

/// Regression: recovering a persistence directory with neither a journal
/// nor a snapshot failed to open the journal it had found missing. It
/// starts a fresh service, journaled as a new one is: the same outcome
/// and the same journal bytes, whether the directory is empty or absent.
#[test]
fn recovering_an_empty_directory_starts_a_fresh_service() {
    let f = fixture();
    let kind = StrategyKind::GdStar { beta: 2.0 };
    let run = |tag: &str, start: fn(ServiceConfig) -> Result<ServiceCore, _>, make: bool| {
        let dir = temp_service_dir(&format!("empty-{tag}"));
        if make {
            std::fs::create_dir_all(&dir).unwrap();
        }
        let config = service_config(kind, false).with_persistence(dir.clone(), 0);
        let mut core = start(config).unwrap();
        for chunk in f.events.chunks(256) {
            core.ingest_all(chunk).unwrap();
        }
        let outcome = core.shutdown().unwrap();
        let journal = std::fs::read(dir.join("journal.bin")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (outcome, journal)
    };
    let (new, new_journal) = run("new", ServiceCore::new, false);
    for (tag, make) in [("recovered", true), ("absent", false)] {
        let (recovered, journal) = run(tag, ServiceCore::recover, make);
        assert_eq!(recovered.result, new.result, "{tag}");
        assert_eq!(recovered.proxies, new.proxies, "{tag}");
        assert!(journal == new_journal, "{tag}: the journals differ");
    }
    assert_equivalent(kind, &new, false, "a new journaled service");
}

/// Regression: recovery dropped a torn final record, but the records
/// appended after it followed the torn bytes, and the next recovery
/// misread them. A crash cuts the last record short, recovery drops it,
/// the rest of the stream (that record again included) is ingested, a
/// second crash and a second recovery follow: the run must end where the
/// batch replay does.
#[test]
fn a_torn_tail_is_cut_before_the_journal_grows() {
    let f = fixture();
    let kind = StrategyKind::Sg2 { beta: 2.0 };
    let k = f.events.len() / 2;
    let dir = temp_service_dir("torn-tail");
    let config = service_config(kind, false).with_persistence(dir.clone(), 0);
    let mut core = ServiceCore::new(config.clone()).unwrap();
    core.ingest_all(&f.events[..k]).unwrap();
    drop(core);
    let journal = dir.join("journal.bin");
    let len = std::fs::metadata(&journal).unwrap().len();
    let torn = std::fs::OpenOptions::new().write(true).open(&journal);
    torn.unwrap().set_len(len - 3).unwrap();

    let mut recovered = ServiceCore::recover(config.clone()).unwrap();
    assert_eq!(recovered.events_applied(), k as u64 - 1);
    recovered.ingest_all(&f.events[k - 1..]).unwrap();
    drop(recovered);
    let recovered = ServiceCore::recover(config).unwrap();
    assert_eq!(recovered.events_applied(), f.events.len() as u64);
    let outcome = recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_equivalent(kind, &outcome, false, "recovered across a torn tail");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Kill-and-recover: ingest a prefix of the stream, crash (drop the
    /// core without flushing or snapshotting), recover from the journal +
    /// last snapshot, ingest the rest — the final state must be
    /// bit-identical to the batch replay of the whole stream. With
    /// `invalidate` the recovered engine must still find every restored
    /// copy of a superseded page; with two or three shards the killed
    /// fleet's worker threads go down with it and the restored servers
    /// are dealt back across new ones. A `chunk` of `usize::MAX` sends the prefix as one
    /// call.
    #[test]
    fn recovery_converges_to_the_uncrashed_run(
        strategy_idx in 0usize..6,
        invalidate in proptest::bool::ANY,
        kill_at in 0.0f64..1.0,
        snapshot_every in proptest::sample::select(vec![0u64, 64, 256, 512, 1024]),
        chunk in proptest::sample::select(vec![1usize, 7, 50, usize::MAX]),
        workers in proptest::sample::select(vec![1usize, 2, 3]),
    ) {
        let f = fixture();
        let kind = recovery_strategies()[strategy_idx];
        let k = (kill_at * f.events.len() as f64) as usize;
        let dir = temp_service_dir(&format!("{strategy_idx}-{snapshot_every}-{chunk}-{workers}"));
        let config = service_config(kind, invalidate)
            .with_workers(workers)
            .with_persistence(dir.clone(), snapshot_every);

        let mut core = ServiceCore::new(config.clone()).unwrap();
        for c in f.events[..k].chunks(chunk) {
            core.ingest_all(c).unwrap();
        }
        prop_assert_eq!(core.events_applied(), k as u64);
        // Crash: drop without flush or snapshot. Buffered (undispatched)
        // events are in the journal, so recovery replays them.
        drop(core);

        let mut recovered = ServiceCore::recover(config).unwrap();
        prop_assert_eq!(recovered.events_applied(), k as u64);
        recovered.ingest_all(&f.events[k..]).unwrap();
        let outcome = recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let (reference, proxies) = batch_run(kind, invalidate);
        prop_assert_eq!(&outcome.result, &reference);
        prop_assert_eq!(&outcome.proxies, &proxies);
    }

}

/// One run of the re-plan script through a journaled service at
/// `workers`: ingest to `at`, re-plan with shard 0 owning servers
/// `0..cut`, request a third of the table's (page, proxy) rows whose page
/// was published before the cut, ingest on, snapshot, ingest on, kill,
/// recover, ingest the rest. In
/// content mode a matcher that reproduces the table is attached first,
/// and content subscribes and unsubscribes land on both sides of the
/// re-plan, at the proxies and pages of the requests that follow it.
/// Returns the outcome and a digest of every persisted byte, as
/// [`persisted_bytes_are_pinned`] takes it.
fn replanned_run(
    kind: StrategyKind,
    workers: usize,
    content: bool,
    at: usize,
    cut: u16,
) -> (ServiceOutcome, u64) {
    use pscd_matching::{Predicate, Subscription, Value};

    let f = fixture();
    let servers = f.trace.meta().server_count();
    let tag = format!("replan-{}-{workers}-{content}-{at}-{cut}", kind.name());
    let dir = temp_service_dir(&tag);
    let config = service_config(kind, true)
        .with_workers(workers)
        .with_batch_size(64)
        .with_persistence(dir.clone(), 0);
    let mut core = ServiceCore::new(config.clone()).unwrap();
    let page_sub = |page: pscd_types::PageId| {
        Subscription::new(vec![Predicate::eq("page", Value::int(page.index() as i64))])
    };
    // The proxies and pages of the first requests after the re-plan.
    let targets: Vec<(ServerId, pscd_types::PageId)> = f.events[at..]
        .iter()
        .filter_map(|ev| match *ev {
            LiveEvent::Request { server, page, .. } => Some((server, page)),
            _ => None,
        })
        .take(4)
        .collect();
    if content {
        core.attach_matcher(pscd_workload::matcher_from_table(&f.subs, servers))
            .unwrap();
    }
    let timeline = f
        .events
        .iter()
        .position(|ev| !matches!(ev, LiveEvent::Subscribe { .. }));
    let before = at - (at - timeline.unwrap()) / 2;
    core.ingest_all(&f.events[..before]).unwrap();
    let mut joined = Vec::new();
    if content {
        for &(server, page) in &targets[..2] {
            joined.push((
                server,
                core.subscribe_content(server, page_sub(page)).unwrap(),
            ));
        }
    }
    core.ingest_all(&f.events[before..at]).unwrap();
    core.replan_at(cut).unwrap();
    // Requests, right after the re-plan, for pages published before it at
    // proxies that subscribe to them: a moved proxy's count must not come
    // from a row the shard it joined computed without it.
    let time = f.events[..at].iter().rev().find_map(|ev| match *ev {
        LiveEvent::Publish { time, .. } | LiveEvent::Request { time, .. } => Some(time),
        LiveEvent::Subscribe { .. } => None,
    });
    let published = |page| {
        let publish =
            |ev: &LiveEvent| matches!(*ev, LiveEvent::Publish { page: p, .. } if p == page);
        f.events[..at].iter().any(publish)
    };
    let burst: Vec<LiveEvent> = f
        .subs
        .iter()
        .filter(|&(page, ..)| published(page))
        .step_by(3)
        .map(|(page, server, _)| LiveEvent::Request {
            time: time.unwrap(),
            server,
            page,
        })
        .collect();
    core.ingest_all(&burst).unwrap();
    if content {
        let (server, id) = joined.pop().unwrap();
        core.unsubscribe_content(server, id).unwrap();
        for &(server, page) in &targets[2..] {
            core.subscribe_content(server, page_sub(page)).unwrap();
        }
    }
    let snapshot_at = at + (f.events.len() - at) / 3;
    let kill_at = at + 2 * (f.events.len() - at) / 3;
    core.ingest_all(&f.events[at..snapshot_at]).unwrap();
    core.snapshot_now().unwrap();
    let mut digest = fnv1a(
        0xcbf2_9ce4_8422_2325,
        &std::fs::read(dir.join("snapshot.bin")).unwrap(),
    );
    core.ingest_all(&f.events[snapshot_at..kill_at]).unwrap();
    drop(core);
    let mut core = ServiceCore::recover(config).unwrap();
    core.ingest_all(&f.events[kill_at..]).unwrap();
    let outcome = core.shutdown().unwrap();
    digest = fnv1a(digest, &std::fs::read(dir.join("journal.bin")).unwrap());
    for blob in &outcome.proxies {
        digest = fnv1a(digest, blob);
    }
    std::fs::remove_dir_all(&dir).ok();
    (outcome, digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No cut and no re-plan changes the answer: a service at two or three
    /// shards whose fleet is cut anew mid-stream — shard 0 anywhere from
    /// one proxy to all but one per later shard, the proxies that move
    /// carried over as snapshot records — with invalidation on, in
    /// count-row mode or in content mode with churn on both sides of the
    /// re-plan, then snapshotted, killed and recovered, ends with the
    /// outcome and the persisted bytes of the inline service.
    #[test]
    fn no_cut_and_no_replan_changes_the_answer(
        strategy_idx in 0usize..6,
        workers in proptest::sample::select(vec![2usize, 3]),
        content in proptest::bool::ANY,
        at in 0.25f64..0.75,
        cut in 0.0f64..1.0,
    ) {
        let f = fixture();
        let kind = recovery_strategies()[strategy_idx];
        let servers = f.trace.meta().server_count();
        let timeline = f.events.iter().position(|ev| !matches!(ev, LiveEvent::Subscribe { .. }));
        let timeline = timeline.unwrap();
        let at = timeline + (at * (f.events.len() - timeline) as f64) as usize;
        let cut = 1 + (cut * f64::from(servers - workers as u16)) as u16;
        let (inline, inline_digest) = replanned_run(kind, 1, content, at, cut);
        let (sharded, digest) = replanned_run(kind, workers, content, at, cut);
        prop_assert_eq!(&sharded.result, &inline.result);
        prop_assert_eq!(&sharded.proxies, &inline.proxies);
        prop_assert_eq!(digest, inline_digest);
    }
}
