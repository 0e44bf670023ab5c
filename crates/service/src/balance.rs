//! Shard 0's share of the fleet.
//!
//! The ingesting thread steps shard 0 between the work only it does —
//! checks, journal writes, lineage and count-row resolution, the ring copy
//! and the hand-off — so equal shards leave each worker waiting on it.
//! While it resolves every event (count-row mode) shard 0 counts that
//! work as a head start ([`HEAD_START_TENTHS`]); once a content matcher is
//! attached the shards resolve their own proxies and the ranges are equal
//! ([`cut`]).

use std::ops::Range;

use pscd_sim::ShardPlan;

/// The ingesting thread's own work per batch in count-row mode, in tenths
/// of the whole fleet's step. It is a fixed share of the fleet at any
/// shard count: checks, journal, resolve and the ring copy cost the same
/// per batch however many shards step it. Sized on `serve-durable` at two
/// shards (run logs under `experiments/log/`): the ingesting thread's own
/// work, about 0.11 s a round, against shard 0's step of 0.121 s over 33
/// proxies, is that of about 31 proxies of 100; and lifetimes that
/// measured their balanced cut settled on 34–37 of 100 (median 35), a
/// head start of 30. On two shards shard 0 gets 35 proxies of 100.
const HEAD_START_TENTHS: u64 = 3;

/// The cut a service runs at, `shards` contiguous ranges over `servers`
/// proxies. While the ingesting thread `resolves` every event (count-row
/// mode) shard 0 carries [`HEAD_START_TENTHS`] of the fleet's step on top
/// of its proxies' ([`ShardPlan::with_head_start`]); in content mode the
/// shards resolve their own proxies and the ranges are equal.
pub(crate) fn cut(servers: u16, shards: usize, resolves: bool) -> Vec<Range<u16>> {
    let units = vec![1; usize::from(servers)];
    let head = match resolves {
        true => u64::from(servers) * HEAD_START_TENTHS / 10,
        false => 0,
    };
    ranges(&ShardPlan::with_head_start(&units, shards, head))
}

/// `plan`'s ranges, in shard order.
pub(crate) fn ranges(plan: &ShardPlan) -> Vec<Range<u16>> {
    (0..plan.shards())
        .map(|k| {
            let (start, end) = plan.range(k);
            start..end
        })
        .collect()
}

/// The servers of `a` outside `b`, as the run before `b` and the run
/// after it (either may be empty), in ascending order.
pub(crate) fn outside(a: &Range<u16>, b: &Range<u16>) -> [Range<u16>; 2] {
    let before = a.start..a.end.min(b.start);
    let after = a.start.max(b.end)..a.end;
    [before, after].map(|run| match run.is_empty() {
        true => 0..0,
        false => run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_is_the_runs_before_and_after() {
        assert_eq!(outside(&(0..10), &(3..5)), [0..3, 5..10]);
        assert_eq!(outside(&(0..10), &(0..10)), [0..0, 0..0]);
        assert_eq!(outside(&(0..10), &(12..20)), [0..10, 0..0]);
        assert_eq!(outside(&(10..20), &(0..5)), [0..0, 10..20]);
        assert_eq!(outside(&(4..8), &(0..6)), [0..0, 6..8]);
    }

    #[test]
    fn the_cut_shrinks_shard_0_while_it_resolves() {
        // A head start of 30 of 100: shard 0 plus 30 carries a shard's
        // share of 130.
        assert_eq!(cut(100, 2, true), [0..35, 35..100]);
        assert_eq!(cut(100, 2, false), [0..50, 50..100]);
        assert_eq!(cut(100, 3, true), [0..13, 13..56, 56..100]);
        assert_eq!(cut(100, 4, true), [0..2, 2..35, 35..67, 67..100]);
        // However large the head start, shard 0 keeps a proxy.
        assert_eq!(cut(100, 8, true)[0], 0..1);
        assert_eq!(cut(1, 1, true).len(), 1);
    }
}
