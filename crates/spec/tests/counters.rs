//! The work counters are a property of the replay, not of how it is
//! scheduled: one small workload's replay, sequential and on two shards,
//! counts the same work for every strategy of the lineup. The one
//! exception is the residency index: each shard indexes only its own
//! proxies, so the words it writes follow the shard layout.
//!
//! Built only with the `counters` feature
//! (`cargo test -p pscd-spec --features counters --test counters`). The
//! counters are process-wide, so this file holds one test and is its own
//! test binary: nothing else counts while it measures.
#![cfg(feature = "counters")]

use pscd_broker::PushScheme;
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions};
use pscd_spec::LINEUP;
use pscd_topology::FetchCosts;
use pscd_types::counters::{self, Counter, Counts};
use pscd_workload::{Workload, WorkloadConfig};

/// The counts of one replay.
fn counted(trace: &CompiledTrace, costs: &FetchCosts, options: &SimOptions) -> Counts {
    counters::reset();
    simulate_compiled(trace, costs, options).expect("valid options");
    counters::snapshot()
}

#[test]
fn replay_counters_are_equal_on_one_thread_and_two() {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.005)).unwrap();
    let subs = workload.subscriptions(1.0).unwrap();
    let trace = CompiledTrace::compile(&workload, &subs).unwrap();
    let costs = FetchCosts::uniform(workload.server_count());
    for kind in LINEUP {
        for scheme in [PushScheme::Always, PushScheme::WhenNecessary] {
            let mut options = SimOptions::at_capacity(kind, 0.05).with_invalidation();
            options.scheme = scheme;
            let one = counted(&trace, &costs, &options.with_threads(1));
            let two = counted(&trace, &costs, &options.with_threads(2));
            for (counter, n) in one.iter() {
                if counter == Counter::ResidencyWords {
                    continue;
                }
                assert_eq!(
                    n,
                    two.get(counter),
                    "{} under {scheme:?}: {} differs",
                    kind.name(),
                    counter.label()
                );
            }
            assert!(one.get(Counter::IndexProbes) > 0, "{}", kind.name());
        }
    }
}
