//! Shard-scaling microbenchmark: one simulation run at 1 shard vs N
//! shards. The sharded runner is proven bit-identical by the
//! differential suite (`crates/sim/tests/differential.rs`); this bench
//! measures what that parallelism buys in wall-clock. On a single-core
//! box the `threads_*` numbers also expose the sharding overhead
//! (partitioning + merge) relative to `threads_1`.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_core::StrategyKind;
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

fn shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.02)).expect("generates");
    let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0).expect("valid quality"))
        .expect("compiles");
    let costs = FetchCosts::uniform(w.server_count());
    let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    // 0 = auto (machine parallelism); explicit counts show the curve.
    for threads in [1usize, 2, 4, 0] {
        let name = if threads == 0 {
            "threads_auto".to_owned()
        } else {
            format!("threads_{threads}")
        };
        let options = base.with_threads(threads);
        group.bench_function(&name, |b| {
            b.iter(|| {
                simulate_compiled(&trace, &costs, &options)
                    .expect("runs")
                    .hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, shard_scaling);
criterion_main!(benches);
