//! Differential equivalence suite: every replay path must be
//! **bit-identical** to every other — same `SimResult`, same
//! `HourlySeries`, same per-proxy stats — for every strategy the paper
//! evaluates, with and without fault injection, under both pushing
//! schemes, at any shard count. Correctness of the parallel path and of
//! the compiled-trace layer is established here, not by inspection.
//!
//! The anchor is [`reference_simulate`]: the pre-refactor per-event loop,
//! re-derived from the raw workload streams with no `CompiledTrace`
//! anywhere, kept alive as an executable specification. The sequential
//! compiled replay and the sharded replay at every thread count are both
//! proven against it.
//!
//! The two sides also differ in how proxies are built: the reference loop
//! builds proxies whose page tables grow on demand
//! (`StrategyKind::build` with page count 0) while the production replay
//! preallocates every table for the trace's page universe. Every
//! reference test is therefore simultaneously a loop-vs-compiled and a
//! grown-vs-preallocated differential;
//! `every_strategy_matches_the_reference_*` below sweeps the remaining
//! option axes.

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::sample::select;

use pscd_broker::{DeliveryEngine, PushScheme};
use pscd_cache::PageUniverse;
use pscd_core::StrategyKind;
use pscd_obs::{ObsHandle, SharedObserver, StatsObserver, TraceSink};
use pscd_sim::{
    simulate_compiled, simulate_observed_sharded, CompiledTrace, CrashPlan, HourlySeries,
    SimOptions, SimResult, Simulation,
};
use pscd_topology::FetchCosts;
use pscd_types::{PageId, ServerId, SimTime, SubscriptionTable};
use pscd_workload::{Workload, WorkloadConfig};

/// Every strategy the paper evaluates (§5), plus the classic baselines.
fn all_strategies() -> [StrategyKind; 12] {
    [
        StrategyKind::Lru,
        StrategyKind::Gds,
        StrategyKind::LfuDa,
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sub,
        StrategyKind::Sg1 { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::Sr,
        StrategyKind::Dm { beta: 2.0 },
        StrategyKind::dc_fp(2.0),
        StrategyKind::DcAp { beta: 2.0 },
        StrategyKind::dc_lap(2.0),
    ]
}

/// One shared fixture (with its compilation), built once per process —
/// the reference loop is the slow path here, so the inputs are reused
/// across tests and proptest cases.
fn fixture() -> &'static (Workload, SubscriptionTable, FetchCosts, CompiledTrace) {
    static FIX: OnceLock<(Workload, SubscriptionTable, FetchCosts, CompiledTrace)> =
        OnceLock::new();
    FIX.get_or_init(|| {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let subs = w.subscriptions(0.8).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        (w, subs, costs, trace)
    })
}

/// Asserts `threads = 4` reproduces `threads = 1` bit for bit. The whole
/// `SimResult` is compared — hits, requests, traffic, the full
/// `HourlySeries`, and per-server stats.
fn assert_bit_identical(trace: &CompiledTrace, costs: &FetchCosts, options: SimOptions) {
    let sequential = simulate_compiled(trace, costs, &options.with_threads(1)).unwrap();
    let sharded = simulate_compiled(trace, costs, &options.with_threads(4)).unwrap();
    assert_eq!(
        sequential, sharded,
        "threads=4 diverged from threads=1 for {}",
        sequential.strategy
    );
    assert_eq!(sequential.hourly, sharded.hourly);
}

#[test]
fn every_strategy_is_bit_identical_sharded() {
    let (_, _, costs, trace) = fixture();
    for kind in all_strategies() {
        assert_bit_identical(trace, costs, SimOptions::at_capacity(kind, 0.05));
    }
}

#[test]
fn every_strategy_is_bit_identical_sharded_with_crash() {
    let (_, _, costs, trace) = fixture();
    let crash = CrashPlan {
        time: SimTime::from_days(2),
        fraction: 0.5,
        seed: 42,
    };
    for kind in all_strategies() {
        assert_bit_identical(
            trace,
            costs,
            SimOptions::at_capacity(kind, 0.05).with_crash(crash),
        );
    }
}

#[test]
fn when_necessary_scheme_is_bit_identical_sharded() {
    let (_, _, costs, trace) = fixture();
    for kind in [
        StrategyKind::Sub,
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::dc_lap(2.0),
    ] {
        let mut options = SimOptions::at_capacity(kind, 0.05);
        options.scheme = PushScheme::WhenNecessary;
        assert_bit_identical(trace, costs, options);
    }
}

#[test]
fn invalidation_is_bit_identical_sharded() {
    let (_, _, costs, trace) = fixture();
    for kind in [
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::GdStar { beta: 2.0 },
    ] {
        assert_bit_identical(
            trace,
            costs,
            SimOptions::at_capacity(kind, 0.10).with_invalidation(),
        );
    }
}

#[test]
fn totals_are_independent_of_shard_count() {
    let (_, _, costs, trace) = fixture();
    let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    let sequential = simulate_compiled(trace, costs, &base).unwrap();
    // 0 = auto (machine parallelism); large counts clamp to the fleet.
    for threads in [0, 2, 3, 4, 7, 64] {
        let sharded = simulate_compiled(trace, costs, &base.with_threads(threads)).unwrap();
        assert_eq!(sequential, sharded, "threads={threads}");
    }
}

#[test]
fn crash_with_full_fleet_and_edge_fractions_shards_cleanly() {
    let (_, _, costs, trace) = fixture();
    let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    for fraction in [0.0, 0.3, 1.0] {
        let crash = CrashPlan {
            time: SimTime::from_days(3),
            fraction,
            seed: 7,
        };
        assert_bit_identical(trace, costs, base.with_crash(crash));
    }
    // A crash instant past the last event never fires anywhere.
    let late = CrashPlan::new(SimTime::from_days(100_000), 1.0);
    assert_bit_identical(trace, costs, base.with_crash(late));
}

#[test]
fn sharded_observer_totals_match_simresult_and_sequential_observer() {
    let (_, _, costs, trace) = fixture();
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05).with_threads(4);
    let (result, merged): (_, StatsObserver) =
        simulate_observed_sharded(trace, costs, &options, &TraceSink::disabled()).unwrap();
    // The merged shard registries must agree with the simulator's own
    // accounting exactly — this is what `repro --obs-dir` hard-checks.
    assert_eq!(merged.requests(), result.requests);
    assert_eq!(merged.hits(), result.hits);
    assert_eq!(merged.push_transfers(), result.traffic.pushed_pages);
    assert_eq!(
        merged.registry().bytes("bytes.pushed"),
        result.traffic.pushed_bytes.as_u64()
    );
    assert_eq!(
        merged.registry().bytes("bytes.fetched"),
        result.traffic.fetched_bytes.as_u64()
    );
    // And with a sequential observed run on every additive counter that
    // is not inherently per-run (crash/invalidate event occurrences may
    // split across shards; everything below must merge exactly).
    let shared = SharedObserver::new(StatsObserver::new());
    let seq_result =
        Simulation::from_compiled_observed(trace, costs, &options.with_threads(1), shared.clone())
            .unwrap()
            .run();
    let seq = shared.try_unwrap().unwrap();
    assert_eq!(result, seq_result);
    for key in [
        "request.hits",
        "request.misses",
        "push.offers",
        "push.transfers",
        "push.stored",
        "publish.events",
        "notify.events",
        "notify.matches",
        "admit.push",
        "admit.access",
    ] {
        assert_eq!(
            merged.registry().counter(key),
            seq.registry().counter(key),
            "counter {key} diverged"
        );
    }
    for key in ["bytes.pushed", "bytes.fetched", "bytes.evicted"] {
        assert_eq!(
            merged.registry().bytes(key),
            seq.registry().bytes(key),
            "byte counter {key} diverged"
        );
    }
}

#[test]
fn sharded_observer_crash_totals_merge_exactly() {
    let (w, _, costs, trace) = fixture();
    let crash = CrashPlan {
        time: SimTime::from_days(2),
        fraction: 0.5,
        seed: 42,
    };
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05)
        .with_crash(crash)
        .with_threads(4);
    let (result, merged): (_, StatsObserver) =
        simulate_observed_sharded(trace, costs, &options, &TraceSink::disabled()).unwrap();
    assert_eq!(merged.requests(), result.requests);
    assert_eq!(merged.hits(), result.hits);
    // Victim and restart totals are additive across shards.
    let victims = crash.victims(w.server_count()).len() as u64;
    assert_eq!(merged.registry().counter("crash.victims"), victims);
    assert_eq!(merged.registry().counter("restart.events"), victims);
}

#[test]
fn stepped_then_run_still_matches() {
    // A simulation that already stepped must keep draining sequentially
    // (the shards would otherwise replay consumed events) and still end
    // at the sequential answer.
    let (_, _, costs, trace) = fixture();
    let options = SimOptions::at_capacity(StrategyKind::Sub, 0.05).with_threads(4);
    let sequential = simulate_compiled(trace, costs, &options.with_threads(1)).unwrap();
    let mut sim = Simulation::from_compiled(trace, costs, &options).unwrap();
    for _ in 0..10 {
        sim.step();
    }
    assert_eq!(sim.run(), sequential);
}

// ---------------------------------------------------------------------------
// The reference loop: an independent reimplementation of the simulator as
// it existed before the compiled-trace layer.
// ---------------------------------------------------------------------------

/// The pre-refactor per-event replay, rebuilt here from the raw workload
/// streams and the public broker/subscription APIs only — no
/// [`CompiledTrace`] anywhere. Timeline order is merged on the fly
/// (publishes first at equal timestamps), each publish re-resolves its
/// fan-out from the subscription table, each request re-looks-up its
/// subscription count, the invalidation lineage is tracked in a live map,
/// and the crash instant is re-compared per event. This is the executable
/// specification the compiled replay is proven bit-identical against.
fn reference_simulate(
    w: &Workload,
    subs: &SubscriptionTable,
    costs: &FetchCosts,
    options: &SimOptions,
) -> SimResult {
    let servers = w.server_count();
    let capacities = w.cache_capacities(options.capacity_fraction);
    // Page count 0: every table grows on demand.
    let build = |c| {
        options
            .strategy
            .build(c, &PageUniverse::default(), ObsHandle::disabled())
    };
    let strategies = capacities.iter().map(|&c| build(c)).collect();
    let cost_vec = (0..servers).map(|s| costs.cost(ServerId::new(s))).collect();
    let mut engine = DeliveryEngine::new(
        strategies,
        cost_vec,
        options.scheme,
        SharedObserver::disabled(),
        ServerId::new(0),
    )
    .unwrap();
    let mut push_records = Vec::new();
    let mut hourly = HourlySeries::new((w.horizon().as_hours_f64().ceil() as usize).max(1));
    let mut latest_version: HashMap<PageId, PageId> = HashMap::new();
    let mut crash = options.crash;
    let victims = options
        .crash
        .map(|plan| plan.victims(servers))
        .unwrap_or_default();
    let publishes = w.publishing().events();
    let requests = w.requests().events();
    let pages = w.pages();
    let (mut pi, mut ri) = (0usize, 0usize);
    while pi < publishes.len() || ri < requests.len() {
        // Publishes before requests at equal timestamps: a notification
        // must precede the requests it triggers.
        let publish_next = match (publishes.get(pi), requests.get(ri)) {
            (Some(p), Some(r)) => p.time <= r.time,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let next_time = if publish_next {
            publishes[pi].time
        } else {
            requests[ri].time
        };
        // Fault injection fires before the first event at/after its
        // instant and consumes no event.
        if let Some(plan) = crash {
            if next_time >= plan.time {
                crash = None;
                for &server in &victims {
                    engine
                        .replace_strategy(server, build(capacities[server.as_usize()]))
                        .unwrap();
                }
            }
        }
        if publish_next {
            let ev = publishes[pi];
            pi += 1;
            let meta = &pages[ev.page.as_usize()];
            let origin = meta.kind().origin().unwrap_or(ev.page);
            let stale = latest_version.insert(origin, ev.page);
            if options.invalidate_stale {
                if let Some(stale) = stale {
                    engine.invalidate_everywhere(stale);
                }
            }
            engine.publish(meta, subs.matched_servers(ev.page), &mut push_records);
            for record in &push_records {
                if record.transferred {
                    hourly.record_push(ev.time, meta.size());
                }
            }
        } else {
            let ev = requests[ri];
            ri += 1;
            let meta = &pages[ev.page.as_usize()];
            let record = engine
                .request(ev.server, meta, subs.count(ev.page, ev.server))
                .unwrap();
            hourly.record_request(ev.time, record.hit, meta.size());
        }
    }
    let per_server: Vec<(u64, u64)> = (0..servers)
        .map(|s| engine.hit_stats(ServerId::new(s)))
        .collect();
    SimResult {
        strategy: options.strategy.name().to_owned(),
        hits: per_server.iter().map(|&(h, _)| h).sum(),
        requests: per_server.iter().map(|&(_, r)| r).sum(),
        traffic: engine.total_traffic(),
        hourly,
        per_server,
    }
}

#[test]
fn compiled_replay_matches_the_reference_loop_for_every_strategy() {
    let (w, subs, costs, trace) = fixture();
    for kind in all_strategies() {
        let options = SimOptions::at_capacity(kind, 0.05);
        let reference = reference_simulate(w, subs, costs, &options);
        // Sequential compiled replay and the sharded replay both land on
        // the reference answer bit for bit.
        let compiled = simulate_compiled(trace, costs, &options).unwrap();
        assert_eq!(reference, compiled, "compiled diverged for {}", kind.name());
        let sharded = simulate_compiled(trace, costs, &options.with_threads(4)).unwrap();
        assert_eq!(reference, sharded, "shards diverged for {}", kind.name());
    }
}

#[test]
fn reference_agrees_under_crash_invalidation_and_when_necessary() {
    let (w, subs, costs, trace) = fixture();
    let crash = CrashPlan {
        time: SimTime::from_days(2),
        fraction: 0.5,
        seed: 42,
    };
    for kind in [
        StrategyKind::Sub,
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::dc_lap(2.0),
    ] {
        // Pile every option on at once: crash + stale invalidation +
        // When-Necessary pushing.
        let mut options = SimOptions::at_capacity(kind, 0.05)
            .with_crash(crash)
            .with_invalidation();
        options.scheme = PushScheme::WhenNecessary;
        let reference = reference_simulate(w, subs, costs, &options);
        for threads in [1usize, 3, 4] {
            let got = simulate_compiled(trace, costs, &options.with_threads(threads)).unwrap();
            assert_eq!(
                reference,
                got,
                "{} diverged at threads={threads}",
                kind.name()
            );
        }
    }
}

/// Every strategy against the dyn reference loop, rotating through the
/// option axes so the twelve runs jointly cover both schemes, crash and
/// crash-free plans, invalidation on/off, and shard counts 1/2/4 without
/// paying the full cross product (the 16-case proptest below samples the
/// cross product itself).
#[test]
fn every_strategy_matches_the_reference_rotating_axes() {
    let (w, subs, costs, trace) = fixture();
    let crash = CrashPlan {
        time: SimTime::from_days(2),
        fraction: 0.5,
        seed: 42,
    };
    let schemes = [PushScheme::Always, PushScheme::WhenNecessary];
    let threads = [1usize, 2, 4];
    for (i, kind) in all_strategies().into_iter().enumerate() {
        let mut options = SimOptions::at_capacity(kind, 0.05);
        options.scheme = schemes[i % 2];
        options.crash = (i % 3 == 1).then_some(crash);
        options.invalidate_stale = i % 2 == 1;
        options.threads = threads[i % 3];
        let reference = reference_simulate(w, subs, costs, &options);
        let compiled = simulate_compiled(trace, costs, &options).unwrap();
        assert_eq!(
            reference,
            compiled,
            "compiled replay diverged from the reference for {} (axes {i})",
            kind.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The satellite guarantee, sampled across the whole option space:
    /// strategy × capacity × scheme × crash plan × invalidation × shard
    /// count, every combination bit-identical to the reference loop.
    #[test]
    fn compiled_replay_is_bit_identical_to_the_reference_loop(
        kind in select(all_strategies().to_vec()),
        capacity in select(vec![0.01, 0.05, 0.10]),
        scheme in select(vec![PushScheme::Always, PushScheme::WhenNecessary]),
        crash in select(vec![
            None,
            Some(CrashPlan { time: SimTime::from_days(2), fraction: 0.5, seed: 42 }),
            Some(CrashPlan { time: SimTime::from_days(1), fraction: 1.0, seed: 7 }),
        ]),
        invalidate in select(vec![false, true]),
        threads in select(vec![1usize, 2, 4, 7]),
    ) {
        let (w, subs, costs, trace) = fixture();
        let mut options = SimOptions::at_capacity(kind, capacity);
        options.scheme = scheme;
        options.crash = crash;
        options.invalidate_stale = invalidate;
        let reference = reference_simulate(w, subs, costs, &options);
        let compiled =
            simulate_compiled(trace, costs, &options.with_threads(threads)).unwrap();
        prop_assert_eq!(&reference, &compiled);
    }
}
