//! Tracing must be an observer, never a participant: replaying with an
//! enabled [`TraceSink`] has to produce the same `SimResult` bit for bit
//! as replaying with tracing compiled out of the path. The traced replay
//! chunks the hot loop to place span boundaries, so this differential
//! also proves the chunking itself is invisible — same event order, same
//! shard cuts, same totals — for every strategy the paper evaluates.

use pscd_core::StrategyKind;
use pscd_obs::{NullObserver, TraceSink};
use pscd_sim::{simulate_compiled, simulate_observed_sharded, CompiledTrace, SimOptions};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

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

fn fixture() -> (Workload, FetchCosts, CompiledTrace) {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
    let subs = w.subscriptions(0.8).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    (w, costs, trace)
}

#[test]
fn traced_replay_is_bit_identical_to_untraced_for_every_strategy() {
    let (_w, costs, trace) = fixture();
    for kind in all_strategies() {
        for threads in [1usize, 2, 4] {
            let options = SimOptions::at_capacity(kind, 0.05).with_threads(threads);
            let untraced = simulate_compiled(&trace, &costs, &options).unwrap();

            let sink = TraceSink::enabled();
            let (traced, _obs): (_, NullObserver) =
                simulate_observed_sharded(&trace, &costs, &options, &sink).unwrap();
            assert_eq!(
                untraced,
                traced,
                "{} diverged with tracing on at threads={threads}",
                kind.name()
            );
            assert_eq!(untraced.hourly, traced.hourly);

            // The sink recorded the replay it observed: one track per
            // shard worker, chunked replay spans labelled by strategy.
            let log = sink.drain();
            let shard_tracks: Vec<&str> = log
                .tracks()
                .iter()
                .map(|t| t.name.as_str())
                .filter(|n| n.starts_with("shard "))
                .collect();
            assert_eq!(
                shard_tracks.len(),
                threads,
                "expected one replay track per shard, got {shard_tracks:?}"
            );
            let label = format!("replay.{}", kind.name());
            assert!(
                log.tracks()
                    .iter()
                    .flat_map(|t| &t.events)
                    .any(|e| e.label == label),
                "no {label} span recorded"
            );
        }
    }
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
