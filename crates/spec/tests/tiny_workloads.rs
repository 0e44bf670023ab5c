//! The compiled replay against the spec loop on tiny random workloads:
//! at most 8 proxies, 64 pages and 2 000 events, every `SimResult` field
//! compared, for all twelve strategies × both pushing schemes × {no
//! crash, crash} × invalidation off/on, sequential and on three shards.
//!
//! Each case is one `u64` seed; everything else is drawn from a private
//! generator seeded with it, so a failing case is reproduced by its seed
//! alone. Page sizes come from {10, 20, 30, 40} and fetch costs from
//! {1, 3}, so value ties are common; a clock of 10-minute steps makes
//! publishes, requests and the crash instant share timestamps; and half
//! the pages are modified versions of earlier ones, so invalidation has
//! stale copies to drop. The second test checks that the generator really
//! produces those cases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pscd_broker::PushScheme;
use pscd_sim::{CompiledTrace, CrashPlan, Replay, SimOptions};
use pscd_spec::{spec_replay, SpecInput, LINEUP};
use pscd_topology::FetchCosts;
use pscd_types::{
    Bytes, PageId, PageKind, PageMeta, PublishEvent, PublishingStream, RequestEvent, RequestTrace,
    ServerId, SimTime, SubscriptionTable, SubscriptionTableBuilder,
};
use pscd_workload::{Workload, WorkloadConfig};

const SIZES: [u64; 4] = [10, 20, 30, 40];
const COSTS: [f64; 2] = [1.0, 3.0];
/// One tick of the clock: 10 minutes.
const TICK_MS: u64 = 10 * 60 * 1000;

struct Tiny {
    workload: Workload,
    subs: SubscriptionTable,
    costs: FetchCosts,
    capacity: f64,
    crash: CrashPlan,
}

fn at(tick: u64) -> SimTime {
    SimTime::from_millis(tick * TICK_MS)
}

/// The tiny workload of `seed`.
fn tiny(seed: u64) -> Tiny {
    let mut rng = StdRng::seed_from_u64(seed);
    let servers = rng.random_range(1..=8u16);
    let ticks = rng.random_range(4..=36u64);
    let page_count = rng.random_range(2..=64u32);

    // Pages in publish order, each an original or a new version of an
    // earlier original.
    let (mut pages, mut publishes, mut versions) = (Vec::new(), Vec::new(), Vec::new());
    let mut tick = 0u64;
    for id in 0..page_count {
        tick = (tick + rng.random_range(0..=2u64)).min(ticks - 1);
        let kind = if versions.is_empty() || rng.random_bool(0.5) {
            versions.push((PageId::new(id), 0));
            PageKind::Original
        } else {
            let at = rng.random_range(0..versions.len());
            let (origin, version) = &mut versions[at];
            *version += 1;
            PageKind::Modified {
                origin: *origin,
                version: *version,
            }
        };
        let size = Bytes::new(SIZES[rng.random_range(0..SIZES.len())]);
        pages.push(PageMeta::new(PageId::new(id), size, at(tick), kind));
        publishes.push(PublishEvent::new(at(tick), PageId::new(id)));
    }

    // Requests from the publish tick up to six ticks later, early pages
    // drawn more often.
    let request_count = rng.random_range(1..=2_000 - page_count as usize);
    let requests = (0..request_count).map(|_| {
        let id = rng
            .random_range(0..page_count)
            .min(rng.random_range(0..page_count));
        let published = pages[id as usize].publish_time().as_millis() / TICK_MS;
        let tick = (published + rng.random_range(0..=6u64)).min(ticks - 1);
        let server = ServerId::new(rng.random_range(0..servers));
        RequestEvent::new(at(tick), server, PageId::new(id))
    });
    let requests = RequestTrace::from_unsorted(requests.collect());

    let density = [0.3, 0.7][rng.random_range(0..2usize)];
    let mut subs = SubscriptionTableBuilder::new(page_count as usize);
    for page in 0..page_count {
        for server in 0..servers {
            if rng.random_bool(density) {
                let count = rng.random_range(1..=3u32);
                subs.add(PageId::new(page), ServerId::new(server), count);
            }
        }
    }
    let costs = (0..servers)
        .map(|_| COSTS[rng.random_range(0..2usize)])
        .collect();

    let mut config = WorkloadConfig::news_scaled(0.001);
    config.seed = seed;
    config.publishing.horizon = at(ticks);
    config.publishing.max_page_bytes = SIZES[3];
    config.requests.horizon = at(ticks);
    config.requests.servers = servers;
    let publishing = PublishingStream::new(publishes).unwrap();
    Tiny {
        workload: Workload::from_parts(config, pages, publishing, requests).unwrap(),
        subs: subs.build(),
        costs: FetchCosts::from_values(costs).unwrap(),
        capacity: [0.05, 0.1, 0.2, 0.4][rng.random_range(0..4usize)],
        // Past the last tick the crash never fires; at 0 % it fires on no
        // proxy.
        crash: CrashPlan {
            time: at(rng.random_range(0..=ticks)),
            fraction: [0.0, 0.3, 0.5, 1.0][rng.random_range(0..4usize)],
            seed: rng.random(),
        },
    }
}

impl Tiny {
    fn input(&self) -> SpecInput {
        SpecInput::from_workload(&self.workload, &self.subs, &self.costs)
    }

    /// Every strategy × scheme × {no crash, crash} × invalidation.
    fn runs(&self) -> Vec<SimOptions> {
        let mut runs = Vec::new();
        for kind in LINEUP {
            for scheme in [PushScheme::Always, PushScheme::WhenNecessary] {
                for crash in [None, Some(self.crash)] {
                    for invalidate_stale in [false, true] {
                        let base = SimOptions::at_capacity(kind, self.capacity);
                        runs.push(SimOptions {
                            scheme,
                            crash,
                            invalidate_stale,
                            ..base
                        });
                    }
                }
            }
        }
        runs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_replay_equals_the_spec_on_tiny_workloads(seed in 0u64..u64::MAX) {
        let tiny = tiny(seed);
        let trace = CompiledTrace::compile(&tiny.workload, &tiny.subs).unwrap();
        let input = tiny.input();
        for options in tiny.runs() {
            let spec = spec_replay(&input, &options).result;
            for threads in [1, 3] {
                let replay = Replay::compiled(&trace, &tiny.costs).run(&[options.with_threads(threads)]);
                prop_assert_eq!(&replay.unwrap()[0], &spec, "seed {}, {:?}, threads {}", seed, options, threads);
            }
        }
    }
}

/// Guards the proptest above against passing vacuously. The generator
/// gives a seed's value no meaning, so a fixed batch of seeds samples
/// what the proptest draws. With everything on (When Necessary, the
/// crash, invalidation), at least half the seeds drop stale copies, fire
/// a crash with victims and decline offers, and for every strategy a
/// value tie (the age rule choosing the victim) decides some eviction in
/// at least a quarter of them.
#[test]
fn the_tiny_generator_exercises_ties_stale_copies_crashes_and_declines() {
    const SEEDS: u64 = 64;
    let (mut seen, mut ties) = ([0; 3], [0; 12]);
    for seed in 0..SEEDS {
        let tiny = tiny(seed);
        let input = tiny.input();
        for (kind, ties) in LINEUP.into_iter().zip(&mut ties) {
            let options = SimOptions {
                scheme: PushScheme::WhenNecessary,
                ..SimOptions::at_capacity(kind, tiny.capacity)
                    .with_crash(tiny.crash)
                    .with_invalidation()
            };
            let run = spec_replay(&input, &options);
            *ties += u64::from(run.ties > 0);
            if kind == LINEUP[11] {
                let cases = [run.dropped > 0, run.victims > 0, run.declined > 0];
                for (seen, case) in seen.iter_mut().zip(cases) {
                    *seen += u64::from(case);
                }
            }
        }
    }
    eprintln!("of {SEEDS} seeds: {seen:?} drop, crash, decline; ties by strategy {ties:?}");
    let what = ["dropped stale copies", "crashes", "declined offers"];
    for (count, what) in seen.into_iter().zip(what) {
        assert!(
            2 * count >= SEEDS,
            "only {count} of {SEEDS} seeds have {what}"
        );
    }
    for (kind, count) in LINEUP.into_iter().zip(ties) {
        assert!(
            4 * count >= SEEDS,
            "ties decide evictions in only {count} seeds for {}",
            kind.name()
        );
    }
}
