//! What sharding must keep beyond the `SimResult` — which the variant
//! table in `crates/spec/tests/variants.rs` checks against the spec loop
//! for every strategy, axes set and thread count: the merged shard
//! observers agree with the result and with a sequential observed run,
//! a disabled trace sink records nothing, crash totals merge exactly,
//! and a simulation that already stepped drains sequentially to the same
//! answer. (That a traced replay equals the spec, with one track per
//! shard, is the variant table's `traced` row.)

use std::sync::OnceLock;

use pscd_core::StrategyKind;
use pscd_obs::{SharedObserver, StatsObserver, TraceSink};
use pscd_sim::{CompiledTrace, CrashPlan, Replay, SimOptions, Simulation};
use pscd_topology::FetchCosts;
use pscd_types::SimTime;
use pscd_workload::{Workload, WorkloadConfig};

/// One shared fixture (with its compilation), built once per process.
fn fixture() -> &'static (u16, FetchCosts, CompiledTrace) {
    static FIX: OnceLock<(u16, FetchCosts, CompiledTrace)> = OnceLock::new();
    FIX.get_or_init(|| {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let subs = w.subscriptions(0.8).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        (w.server_count(), costs, trace)
    })
}

#[test]
fn sharded_observer_totals_match_simresult_and_sequential_observer() {
    let (_, costs, trace) = fixture();
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05).with_threads(4);
    let sink = TraceSink::disabled();
    let replay = Replay::compiled(trace, costs).traced(&sink);
    let (result, merged) = replay
        .run_observed::<StatsObserver>(&[options])
        .unwrap()
        .remove(0);
    assert!(sink.drain().is_empty(), "disabled sink must stay empty");
    // The merged shard registries must agree with the simulator's own
    // accounting exactly — this is what `repro --obs-dir` hard-checks.
    assert_eq!(merged.requests(), result.requests);
    assert_eq!(merged.hits(), result.hits);
    assert_eq!(merged.push_transfers(), result.traffic.pushed_pages);
    assert_eq!(
        merged.registry().bytes("bytes.pushed"),
        result.traffic.pushed_bytes.as_u64()
    );
    assert_eq!(
        merged.registry().bytes("bytes.fetched"),
        result.traffic.fetched_bytes.as_u64()
    );
    // And with a sequential observed run on every additive counter that
    // is not inherently per-run (crash/invalidate event occurrences may
    // split across shards; everything below must merge exactly).
    let shared = SharedObserver::new(StatsObserver::new());
    let seq_result =
        Simulation::from_compiled_observed(trace, costs, &options.with_threads(1), shared.clone())
            .unwrap()
            .run();
    let seq = shared.try_unwrap().unwrap();
    assert_eq!(result, seq_result);
    for key in [
        "request.hits",
        "request.misses",
        "push.offers",
        "push.transfers",
        "push.stored",
        "publish.events",
        "notify.events",
        "notify.matches",
        "admit.push",
        "admit.access",
    ] {
        assert_eq!(
            merged.registry().counter(key),
            seq.registry().counter(key),
            "counter {key} diverged"
        );
    }
    for key in ["bytes.pushed", "bytes.fetched", "bytes.evicted"] {
        assert_eq!(
            merged.registry().bytes(key),
            seq.registry().bytes(key),
            "byte counter {key} diverged"
        );
    }
}

#[test]
fn sharded_observer_crash_totals_merge_exactly() {
    let (servers, costs, trace) = fixture();
    let crash = CrashPlan {
        time: SimTime::from_days(2),
        fraction: 0.5,
        seed: 42,
    };
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05)
        .with_crash(crash)
        .with_threads(4);
    let replay = Replay::compiled(trace, costs);
    let (result, merged) = replay
        .run_observed::<StatsObserver>(&[options])
        .unwrap()
        .remove(0);
    assert_eq!(merged.requests(), result.requests);
    assert_eq!(merged.hits(), result.hits);
    // Victim and restart totals are additive across shards.
    let victims = crash.victims(*servers).len() as u64;
    assert_eq!(merged.registry().counter("crash.victims"), victims);
    assert_eq!(merged.registry().counter("restart.events"), victims);
}

#[test]
fn stepped_then_run_still_matches() {
    // A simulation that already stepped must keep draining sequentially
    // (the shards would otherwise replay consumed events) and still end
    // at the sequential answer.
    let (_, costs, trace) = fixture();
    let options = SimOptions::at_capacity(StrategyKind::Sub, 0.05).with_threads(4);
    let replay = Replay::compiled(trace, costs);
    let sequential = replay.run(&[options.with_threads(1)]).unwrap().remove(0);
    let mut sim = Simulation::from_compiled(trace, costs, &options).unwrap();
    for _ in 0..10 {
        sim.step();
    }
    assert_eq!(sim.run(), sequential);
}
