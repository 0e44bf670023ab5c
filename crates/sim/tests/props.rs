//! End-to-end properties: global totals must equal the per-server sums,
//! and a [`StatsObserver`] riding along must agree with the [`SimResult`]
//! without perturbing the simulation — on the sequential path and the
//! sharded one alike.

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::sample::select;

use pscd_obs::{SharedObserver, StatsObserver};
use pscd_sim::{CompiledTrace, Replay, SimOptions, Simulation};
use pscd_spec::LINEUP;
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

fn fixture() -> &'static (FetchCosts, CompiledTrace) {
    static FIX: OnceLock<(FetchCosts, CompiledTrace)> = OnceLock::new();
    FIX.get_or_init(|| {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.003)).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        (costs, trace)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_path_keeps_the_accounting_invariants(
        kind in select(LINEUP.to_vec()),
        capacity in select(vec![0.01, 0.05, 0.10]),
        threads in select(vec![2usize, 3, 4]),
    ) {
        let (costs, trace) = fixture();
        let options = SimOptions::at_capacity(kind, capacity).with_threads(1);
        let replay = Replay::compiled(trace, costs);
        let sequential = replay.run(&[options]).unwrap().remove(0);
        let sharded = replay.run(&[options.with_threads(threads)]).unwrap().remove(0);
        // Bit-identical to the sequential run...
        prop_assert_eq!(&sharded, &sequential);

        // ...and internally consistent on its own terms: hits + misses
        // equal requests, per-server sums equal globals, and every miss
        // fetches exactly one page (bytes conservation).
        let hits: u64 = sharded.per_server.iter().map(|&(h, _)| h).sum();
        let requests: u64 = sharded.per_server.iter().map(|&(_, r)| r).sum();
        prop_assert_eq!(sharded.hits, hits);
        prop_assert_eq!(sharded.requests, requests);
        prop_assert_eq!(sharded.traffic.fetched_pages, sharded.requests - sharded.hits);
        prop_assert_eq!(
            sharded.hourly.fetched_bytes.iter().sum::<u64>(),
            sharded.traffic.fetched_bytes.as_u64()
        );
        prop_assert_eq!(
            sharded.hourly.pushed_bytes.iter().sum::<u64>(),
            sharded.traffic.pushed_bytes.as_u64()
        );
        prop_assert_eq!(sharded.hourly.requests.iter().sum::<u64>(), sharded.requests);
        prop_assert_eq!(sharded.hourly.hits.iter().sum::<u64>(), sharded.hits);

        // A sequential observed run and merged shard observers leave the
        // result bit-identical and agree with it exactly.
        let obs = SharedObserver::new(StatsObserver::new());
        let observed = Simulation::from_compiled_observed(trace, costs, &options, obs.clone())
            .unwrap()
            .run();
        prop_assert_eq!(&observed, &sequential);
        let stats = obs.try_unwrap().expect("run kept an observer clone");
        prop_assert_eq!(stats.requests(), observed.requests);
        prop_assert_eq!(stats.hits(), observed.hits);
        prop_assert_eq!(stats.push_transfers(), observed.traffic.pushed_pages);
        let (observed, stats) = replay
            .run_observed::<StatsObserver>(&[options.with_threads(threads)])
            .unwrap()
            .remove(0);
        prop_assert_eq!(&observed, &sequential);
        prop_assert_eq!(stats.requests(), observed.requests);
        prop_assert_eq!(stats.hits(), observed.hits);
        prop_assert_eq!(stats.push_transfers(), observed.traffic.pushed_pages);
        prop_assert_eq!(
            stats.registry().bytes("bytes.fetched"),
            observed.traffic.fetched_bytes.as_u64()
        );
    }
}
