//! Compiled-trace benchmarks: what one compilation costs, and what
//! compile-once-replay-N buys a grid over recompiling per cell.
//!
//! `trace_compile` prices [`CompiledTrace::compile`] itself — the one-time
//! cost a grid pays per workload. `grid_reuse` replays the same N-cell
//! strategy × capacity grid twice: once against a shared pre-compiled
//! trace (`compiled_once`, the `run_grid` path since the compiled-trace
//! refactor) and once compiling a fresh trace per cell, re-deriving the
//! timeline, fan-outs and lineage each time (`cold_per_cell`, the old
//! behavior). The gap between them is the refactor's per-cell win, and is
//! what EXPERIMENTS.md reports.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_core::StrategyKind;
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

/// The grid both arms replay: 3 strategies × 2 capacities = 6 cells.
fn grid_cells() -> Vec<SimOptions> {
    let mut cells = Vec::new();
    for kind in [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sub,
        StrategyKind::Sg2 { beta: 2.0 },
    ] {
        for capacity in [0.01, 0.05] {
            cells.push(SimOptions::at_capacity(kind, capacity));
        }
    }
    cells
}

fn trace_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_compile");
    group.sample_size(20);
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.02)).expect("generates");
    let subs = w.subscriptions(1.0).expect("valid quality");
    group.bench_function("compile_news_2pct", |b| {
        b.iter(|| CompiledTrace::compile(&w, &subs).expect("compiles").len())
    });
    group.finish();
}

fn grid_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_reuse");
    group.sample_size(10);
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.02)).expect("generates");
    let subs = w.subscriptions(1.0).expect("valid quality");
    let costs = FetchCosts::uniform(w.server_count());
    let cells = grid_cells();
    let trace = CompiledTrace::compile(&w, &subs).expect("compiles");
    group.bench_function("compiled_once_6_cells", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|opt| simulate_compiled(&trace, &costs, opt).expect("runs").hits)
                .sum::<u64>()
        })
    });
    group.bench_function("cold_per_cell_6_cells", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|opt| {
                    let fresh = CompiledTrace::compile(&w, &subs).expect("compiles");
                    simulate_compiled(&fresh, &costs, opt).expect("runs").hits
                })
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, trace_compile, grid_reuse);
criterion_main!(benches);
