//! Regenerates Figure 6 (hourly hit ratio over 7 days) and benchmarks one
//! full 168-hour simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use pscd_bench::bench_context;
use pscd_core::StrategyKind;
use pscd_experiments::{Fig6, Trace};
use pscd_sim::{simulate_compiled, SimOptions};

fn bench(c: &mut Criterion) {
    let ctx = bench_context();
    let fig = Fig6::run(&ctx).expect("figure 6 runs");
    println!("\n{fig}");
    let trace = ctx.compiled(Trace::News, 1.0).expect("compiles");
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("sg2_full_week", |b| {
        b.iter(|| {
            simulate_compiled(
                &trace,
                ctx.costs(),
                &SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05),
            )
            .expect("simulation runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
