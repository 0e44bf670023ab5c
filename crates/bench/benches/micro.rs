//! Microbenchmarks of the substrates: cache replacement throughput,
//! observer overhead, workload sampling, topology generation. The match
//! kernel is priced in `cold_path.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use pscd_cache::PageRef;
use pscd_core::{Strategy, StrategyImpl, StrategyKind};
use pscd_obs::{ObsHandle, SharedObserver, StatsObserver};
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions, Simulation};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::{Bytes, PageId, ServerId};
use pscd_workload::{generate_publishing, PublishingConfig, Workload, WorkloadConfig, Zipf};

fn page_ref(i: u32) -> PageRef {
    PageRef::new(
        PageId::new(i),
        Bytes::new(512 + (i as u64 * 197) % 8192),
        1.0 + (i % 7) as f64,
    )
}

/// An unobserved strategy at 256 KiB whose page tables grow on demand.
fn build(kind: StrategyKind) -> StrategyImpl {
    kind.build(Bytes::from_kib(256), 0, ObsHandle::disabled())
}

/// Every third step a push, the rest accesses, over `accesses`.
fn run_mixed(s: &mut impl Strategy, accesses: &[u32]) -> usize {
    let mut evicted = Vec::new();
    for (k, &i) in accesses.iter().enumerate() {
        if k % 3 == 0 {
            let _ = s.on_push(&page_ref(i), (i % 13) + 1, &mut evicted);
        } else {
            let _ = s.on_access(&page_ref(i), (i % 13) + 1, &mut evicted);
        }
    }
    s.len()
}

fn cache_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    // GD* under a skewed access stream (10k accesses, 1k pages).
    let zipf = Zipf::new(1_000, 1.0).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(1);
    let accesses: Vec<u32> = (0..10_000).map(|_| zipf.sample(&mut rng) as u32).collect();
    group.bench_function("gdstar_10k_accesses", |b| {
        b.iter_batched(
            || build(StrategyKind::GdStar { beta: 2.0 }),
            |mut cache| {
                let mut evicted = Vec::new();
                for &i in &accesses {
                    let _ = cache.on_access(&page_ref(i), 0, &mut evicted);
                }
                cache.len()
            },
            BatchSize::SmallInput,
        )
    });
    // The paper's richest strategy under mixed push/access load.
    group.bench_function("dclap_10k_mixed", |b| {
        b.iter_batched(
            || build(StrategyKind::dc_lap(2.0)),
            |mut s| run_mixed(&mut s, &accesses),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Observer overhead: the same work with the zero-cost [`NullObserver`]
/// default (fire sites compiled out via `O::ENABLED`), with an attached
/// [`StatsObserver`], and end-to-end through the simulation loop. The
/// `*_null` numbers must stay within noise (<2%) of the plain ones.
fn observer_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer");
    let zipf = Zipf::new(1_000, 1.0).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(1);
    let accesses: Vec<u32> = (0..10_000).map(|_| zipf.sample(&mut rng) as u32).collect();
    group.bench_function("dclap_10k_mixed_null", |b| {
        b.iter_batched(
            || build(StrategyKind::dc_lap(2.0)),
            |mut s| run_mixed(&mut s, &accesses),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("dclap_10k_mixed_stats", |b| {
        b.iter_batched(
            || {
                let obs = SharedObserver::new(StatsObserver::new());
                let s = StrategyKind::dc_lap(2.0).build(
                    Bytes::from_kib(256),
                    0,
                    obs.handle(ServerId::new(0)),
                );
                (s, obs)
            },
            |(mut s, _obs)| run_mixed(&mut s, &accesses),
            BatchSize::SmallInput,
        )
    });

    // End-to-end simulation loop over a tiny compiled trace.
    group.sample_size(20);
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).expect("generates");
    let subs = w.subscriptions(1.0).expect("valid quality");
    let trace = CompiledTrace::compile(&w, &subs).expect("compiles");
    let costs = FetchCosts::uniform(w.server_count());
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    group.bench_function("sim_loop_null", |b| {
        b.iter(|| {
            simulate_compiled(&trace, &costs, &options)
                .expect("runs")
                .hits
        })
    });
    group.bench_function("sim_loop_stats", |b| {
        b.iter(|| {
            let obs = SharedObserver::new(StatsObserver::new());
            Simulation::from_compiled_observed(&trace, &costs, &options, obs)
                .expect("runs")
                .run()
                .hits
        })
    });
    group.finish();
}

fn generation_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.bench_function("publishing_stream_10pct", |b| {
        b.iter(|| generate_publishing(&PublishingConfig::scaled(0.1), 7, 1).expect("generates"))
    });
    group.bench_function("waxman_topology_101_nodes", |b| {
        b.iter(|| TopologyBuilder::new(101).seed(7).build().expect("builds"))
    });
    group.finish();
}

criterion_group!(benches, cache_benches, observer_benches, generation_benches);
criterion_main!(benches);
