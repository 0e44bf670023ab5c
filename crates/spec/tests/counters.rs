//! The work counters are a property of the replay, not of how it is
//! scheduled: one small workload's replay, sequential and on two shards,
//! counts the same work for every strategy of the lineup. The one
//! exception is the residency index: each shard indexes only its own
//! proxies, so the words it writes follow the shard layout. And a lineup
//! over a prefetched stream is one production: it compiles each slice
//! and draws each page once, not once per member, while its members'
//! replays count what their solo replays count.
//!
//! Built only with the `counters` feature
//! (`cargo test -p pscd-spec --features counters --test counters`). The
//! counters are process-wide, so this file holds one test and is its own
//! test binary: nothing else counts while it measures.
#![cfg(feature = "counters")]

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_sim::{
    CompiledEventKind, CompiledTrace, PrefetchOptions, Replay, SimOptions, StreamingTrace,
};
use pscd_spec::LINEUP;
use pscd_topology::FetchCosts;
use pscd_types::counters::{self, Counter, Counts};
use pscd_types::SimTime;
use pscd_workload::{Workload, WorkloadConfig};

/// The counts of one replay.
fn counted(replay: &Replay<'_>, lineup: &[SimOptions]) -> Counts {
    counters::reset();
    replay.run(lineup).expect("valid options");
    counters::snapshot()
}

/// The generator's and the streaming compiler's counters: the work of
/// producing the stream, as opposed to replaying it.
const PRODUCTION: [Counter; 5] = [
    Counter::WindowsCompiled,
    Counter::PagesDrawn,
    Counter::RequestsDrawn,
    Counter::GeneratorPow,
    Counter::PoolRolls,
];

#[test]
fn replay_counters_are_equal_on_one_thread_and_two_and_a_lineup_is_one_production() {
    let config = WorkloadConfig::news_scaled(0.005);
    let workload = Workload::generate(&config).unwrap();
    let subs = workload.subscriptions(1.0).unwrap();
    let trace = CompiledTrace::compile(&workload, &subs).unwrap();
    let costs = FetchCosts::uniform(workload.server_count());
    let replay = Replay::compiled(&trace, &costs);
    for kind in LINEUP {
        for scheme in [PushScheme::Always, PushScheme::WhenNecessary] {
            let mut options = SimOptions::at_capacity(kind, 0.05).with_invalidation();
            options.scheme = scheme;
            let one = counted(&replay, &[options.with_threads(1)]);
            let two = counted(&replay, &[options.with_threads(2)]);
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

    // Six members at one thread each (one shard, so the residency words
    // compare too) over one prefetched stream.
    let stream = StreamingTrace::new(&config, 1.0, SimTime::from_hours(6), 1).unwrap();
    let prefetched = Replay::prefetched(&stream, PrefetchOptions::default(), &costs);
    let six: Vec<SimOptions> = (StrategyKind::figure4_lineup(2.0).into_iter())
        .map(|kind| SimOptions::at_capacity(kind, 0.05).with_threads(1))
        .collect();
    let lineup = counted(&prefetched, &six);
    let solos: Vec<Counts> = six.iter().map(|o| counted(&prefetched, &[*o])).collect();
    assert_eq!(
        lineup.get(Counter::WindowsCompiled),
        stream.window_count() as u64
    );
    // The generator draws each requested page once.
    let mut requested: Vec<_> = (trace.events().iter())
        .filter(|ev| matches!(ev.kind, CompiledEventKind::Request { .. }))
        .map(|ev| ev.page)
        .collect();
    requested.sort_unstable();
    requested.dedup();
    assert_eq!(lineup.get(Counter::PagesDrawn), requested.len() as u64);
    assert_eq!(
        lineup.get(Counter::RequestsDrawn),
        stream.meta().request_count() as u64
    );
    for counter in PRODUCTION {
        assert_eq!(
            lineup.get(counter),
            solos[0].get(counter),
            "{}: the lineup produces once",
            counter.label()
        );
    }
    for (counter, n) in lineup.iter() {
        if !PRODUCTION.contains(&counter) {
            let solo: u64 = solos.iter().map(|counts| counts.get(counter)).sum();
            assert_eq!(n, solo, "{}: the members' solo replays", counter.label());
        }
    }
}
