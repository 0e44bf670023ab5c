//! A traced exhibit records exactly one pool span per replay consumer,
//! and no span on a pool worker's track starts inside another span on
//! that track: a lineup runs its consumers in one fan-out, with no
//! fan-out nested inside a consumer.
//!
//! Pool spans are collected process-wide, so this file holds one test
//! and is its own test binary: nothing else fans out while it records.

use std::collections::BTreeMap;
use std::time::Instant;

use pscd_experiments::{Exhibit, ExperimentContext, Trace};
use pscd_obs::TraceSink;
use pscd_sim::pool::spans;

#[test]
fn a_traced_exhibit_records_one_pool_span_per_consumer() {
    // Two threads over lineups of 18 cells: one shard, so one consumer,
    // per cell.
    let ctx = ExperimentContext::scaled(0.003, 2, TraceSink::disabled()).unwrap();
    // Compile first, so that only the replays fan out while recording.
    for trace in [Trace::News, Trace::Alternative] {
        ctx.compiled(trace, 1.0).unwrap();
    }
    spans::enable(Instant::now());
    let fig4 = Exhibit::fig4().run(&ctx).unwrap();
    let recorded = spans::disable();

    let cells: usize = fig4.rows.iter().map(|(_, _, results)| results.len()).sum();
    assert!(cells > 1, "{cells} cells");
    assert_eq!(recorded.len(), cells, "one pool span per consumer");
    let mut tracks: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in &recorded {
        assert_eq!(span.phase, "replay", "{span:?}");
        tracks
            .entry(span.worker)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    for (worker, mut spans) in tracks {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "pool worker {worker}: a span at {} ns starts inside one ending at {} ns",
                pair[1].0,
                pair[0].1
            );
        }
    }
}
