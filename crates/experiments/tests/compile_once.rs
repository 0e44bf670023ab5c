//! Asserts the guarantee of the compiled-trace layer and the plan: a
//! grid compiles each source exactly once, no matter how many cells,
//! exhibits, or repeat runs replay it, and the plan reuses a source only
//! where the reused one is equal to what it stands in for.
//!
//! This lives in its own integration-test binary on purpose: the compile
//! counter is process-global, so only a dedicated process, whose tests
//! take turns, observes exact deltas.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pscd_core::StrategyKind;
use pscd_experiments::{Exhibit, ExperimentContext, Plan, Trace, CAPACITIES};
use pscd_obs::TraceSink;
use pscd_sim::{CompiledTrace, Replay, SimOptions};
use pscd_workload::{Workload, WorkloadConfig};

fn compile_count() -> u64 {
    CompiledTrace::compile_count()
}

/// Holds the compile counter for one test at a time.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A digest of a value's every field, through its `Debug` rendering.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
}

#[test]
fn grids_compile_each_workload_exactly_once() {
    let _turn = turn();
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
    let fig3 = Exhibit::fig3().run(&ctx).unwrap();
    assert!(!fig3.rows.is_empty());
    assert_eq!(
        compile_count() - before,
        2,
        "Fig3 adds only the Alternative trace"
    );

    // A second exhibit over the same (trace, quality) pairs compiles
    // nothing at all.
    let fig4 = Exhibit::fig4().run(&ctx).unwrap();
    assert!(!fig4.rows.is_empty());
    assert_eq!(
        compile_count() - before,
        2,
        "Fig4 replays the cached compilations"
    );
}

/// The sources the plan folds into the base ones, built as the seed and
/// shift studies and the coverage exhibit built them before the plan:
/// seed 0 and shift 100 by regenerating the workload, coverage 1 through
/// `subscriptions_partial`. Each workload, subscription table and
/// compiled trace has the base source's digest.
#[test]
fn coverage_one_seed_zero_and_shift_one_hundred_are_the_base_sources() {
    let _turn = turn();
    let scale = 0.003;
    let ctx = ExperimentContext::scaled(scale, 2, TraceSink::disabled()).unwrap();
    let parts = |w: &Workload, subs| {
        let compiled = CompiledTrace::compile(w, &subs).unwrap();
        [digest(w), digest(&subs), digest(&compiled)]
    };
    for (trace, config) in [
        (Trace::News, WorkloadConfig::news_scaled(scale)),
        (
            Trace::Alternative,
            WorkloadConfig::alternative_scaled(scale),
        ),
    ] {
        let own = ctx.workload(trace);
        let base = parts(own, ctx.generate(&ctx.base(trace)).unwrap().1);
        assert_eq!(base[2], digest(&*ctx.compiled(trace, 1.0).unwrap()));
        let covered = own.subscriptions_partial(1.0, 1.0).unwrap();
        assert_eq!(parts(own, covered), base, "coverage 1 on {}", trace.name());
        let seeded = Workload::generate(&config.clone().with_seed(0)).unwrap();
        let subs = seeded.subscriptions(1.0).unwrap();
        assert_eq!(parts(&seeded, subs), base, "seed 0 on {}", trace.name());
        let mut shifted = config;
        shifted.requests.zipf_shift = 100.0;
        let shifted = Workload::generate(&shifted).unwrap();
        let subs = shifted.subscriptions(1.0).unwrap();
        assert_eq!(parts(&shifted, subs), base, "shift 100 on {}", trace.name());
        // So the plan names the base source for each of them...
        let base_key = ctx.base(trace);
        assert_eq!((base_key.seed, base_key.shift), (0, 100.0));
        for name in ["coverage", "variance", "shift"] {
            let plan = Plan::run(Exhibit::selected(name), &ctx).unwrap();
            let keys: Vec<_> = plan.sources().map(|(key, _)| *key).collect();
            assert!(keys.contains(&base_key) || trace == Trace::Alternative && name == "shift");
        }
    }
    // ...and a source that differs is not folded: seed 1 is another
    // workload.
    let seeded = Workload::generate(&WorkloadConfig::news_scaled(scale).with_seed(1)).unwrap();
    assert_ne!(digest(&seeded), digest(ctx.workload(Trace::News)));
}

/// `repro all` as one plan: each distinct source is compiled once, the
/// two base sources included, and only the distinct cells replay.
#[test]
fn the_repro_all_plan_compiles_each_source_once() {
    let _turn = turn();
    let ctx = ExperimentContext::scaled(0.003, 2, TraceSink::disabled()).unwrap();
    let before = compile_count();
    let plan = Plan::run(Exhibit::selected("all"), &ctx).unwrap();
    let sources = plan.sources().count();
    assert_eq!(compile_count() - before, sources as u64);
    assert_eq!(plan.requested(), 402, "{plan}");
    assert_eq!(plan.unique(), 300, "{plan}");
    assert_eq!(sources, 26, "{plan}");
    // The tables read the results; the base sources stay cached.
    let tables = plan.tables(&ctx);
    assert_eq!(tables.len(), 15);
    ctx.compiled(Trace::News, 1.0).unwrap();
    ctx.compiled(Trace::Alternative, 1.0).unwrap();
    assert_eq!(compile_count() - before, sources as u64);
}
