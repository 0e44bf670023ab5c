//! Frozen-kernel end-to-end differential: a trace compiled through the
//! frozen content-matching engine ([`CompiledTrace::compile_from_matcher`],
//! with the count table encoded as exact-match `page = <id>` content
//! subscriptions) must replay to the **same** `SimResult` bit for bit as
//! the table-compiled trace, for every strategy the paper evaluates and
//! at every thread count. This is the `SimResult` half of the kernel
//! differential; `crates/matching/tests/match_differential.rs` proves
//! the per-call half (frozen vs. brute force on arbitrary content).

use pscd_core::StrategyKind;
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions};
use pscd_topology::FetchCosts;
use pscd_workload::{matcher_from_table, Workload, WorkloadConfig};

/// Every strategy the paper evaluates (§5), plus the classic baselines —
/// the same twelve-strategy lineup as the replay differential suite.
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

fn fixture() -> (FetchCosts, CompiledTrace, CompiledTrace) {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
    let subs = w.subscriptions(0.8).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let table_trace = CompiledTrace::compile(&w, &subs).unwrap();
    let mut matcher = matcher_from_table(&subs, w.server_count());
    let frozen_trace = CompiledTrace::compile_from_matcher(&w, &mut matcher).unwrap();
    (costs, table_trace, frozen_trace)
}

/// The two compilation paths agree on the trace itself, so any replay
/// divergence below would be the replay's fault — and the fixture must
/// not be vacuous.
#[test]
fn compiled_traces_are_identical_and_substantial() {
    let (_costs, table_trace, frozen_trace) = fixture();
    assert_eq!(table_trace, frozen_trace);
    assert!(table_trace.events().len() > 500);
    assert!(table_trace.events().iter().any(|ev| {
        matches!(
            ev.kind,
            pscd_sim::CompiledEventKind::Publish { ordinal, .. }
                if !table_trace.matched(ordinal).is_empty()
        )
    }));
}

#[test]
fn frozen_compiled_replay_is_bit_identical_for_every_strategy() {
    let (costs, table_trace, frozen_trace) = fixture();
    for kind in all_strategies() {
        for threads in [1usize, 4] {
            let options = SimOptions::at_capacity(kind, 0.05).with_threads(threads);
            let reference = simulate_compiled(&table_trace, &costs, &options).unwrap();
            let frozen = simulate_compiled(&frozen_trace, &costs, &options).unwrap();
            assert_eq!(
                reference,
                frozen,
                "{} diverged on the frozen-compiled trace at threads={threads}",
                kind.name()
            );
            assert_eq!(reference.hourly, frozen.hourly);
            assert!(reference.requests > 0, "vacuous run for {}", kind.name());
        }
    }
}
