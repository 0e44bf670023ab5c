//! Asserts the tentpole guarantee of the compiled-trace layer: a grid
//! compiles each workload's trace exactly once, no matter how many cells,
//! exhibits, or repeat runs replay it.
//!
//! This lives in its own integration-test binary on purpose: the compile
//! counter is process-global, and a dedicated process is the only way to
//! observe exact deltas without racing other tests.

use std::sync::Arc;

use pscd_core::StrategyKind;
use pscd_experiments::{ExperimentContext, Fig3, Fig4, Trace, CAPACITIES};
use pscd_obs::TraceSink;
use pscd_sim::{CompiledTrace, Replay, SimOptions};

fn compile_count() -> u64 {
    CompiledTrace::compile_count()
}

#[test]
fn grids_compile_each_workload_exactly_once() {
    let ctx = ExperimentContext::scaled(0.003, 2, TraceSink::disabled()).unwrap();
    let before = compile_count();

    // A grid over one compiled trace: many cells, one compilation.
    let compiled = ctx.compiled(Trace::News, 1.0).unwrap();
    assert_eq!(compile_count() - before, 1, "first use compiles once");
    let lineup = [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sub,
        StrategyKind::Sg2 { beta: 2.0 },
    ];
    let mut cells = Vec::new();
    for &kind in &lineup {
        for &capacity in &CAPACITIES {
            cells.push(SimOptions::at_capacity(kind, capacity).with_threads(ctx.threads()));
        }
    }
    let first = Replay::compiled(&compiled, ctx.costs())
        .run(&cells)
        .unwrap();
    let second = Replay::compiled(&compiled, ctx.costs())
        .run(&cells)
        .unwrap();
    assert_eq!(first, second, "replays of one compiled trace agree");
    assert_eq!(
        compile_count() - before,
        1,
        "grid cells and repeat grids replay, never recompile"
    );

    // The context cache returns the same compilation to later callers.
    let again = ctx.compiled(Trace::News, 1.0).unwrap();
    assert!(Arc::ptr_eq(&compiled, &again));
    assert_eq!(compile_count() - before, 1);

    // A full exhibit touches News and Alternative at SQ = 1: exactly one
    // *new* compilation (Alternative; News is already cached).
    let fig3 = Fig3::run(&ctx).unwrap();
    assert!(!fig3.rows.is_empty());
    assert_eq!(
        compile_count() - before,
        2,
        "Fig3 adds only the Alternative trace"
    );

    // A second exhibit over the same (trace, quality) pairs compiles
    // nothing at all.
    let fig4 = Fig4::run(&ctx).unwrap();
    assert!(!fig4.rows.is_empty());
    assert_eq!(
        compile_count() - before,
        2,
        "Fig4 replays the cached compilations"
    );
}
