//! Tracing must be an observer, never a participant. That a traced
//! replay equals the spec loop for every strategy, with one track per
//! shard and spans labelled by strategy, is a row of the variant table
//! (`crates/spec/tests/variants.rs`); here a disabled sink must record
//! nothing and change nothing.

use pscd_core::StrategyKind;
use pscd_obs::{NullObserver, TraceSink};
use pscd_sim::{simulate_compiled, simulate_observed_sharded, CompiledTrace, SimOptions};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

fn fixture() -> (Workload, FetchCosts, CompiledTrace) {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
    let subs = w.subscriptions(0.8).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    (w, costs, trace)
}

#[test]
fn disabled_sink_records_nothing_and_changes_nothing() {
    let (_w, costs, trace) = fixture();
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05).with_threads(2);
    let untraced = simulate_compiled(&trace, &costs, &options).unwrap();
    let sink = TraceSink::disabled();
    let (result, _obs): (_, NullObserver) =
        simulate_observed_sharded(&trace, &costs, &options, &sink).unwrap();
    assert_eq!(untraced, result);
    assert!(sink.drain().is_empty(), "disabled sink must stay empty");
}
