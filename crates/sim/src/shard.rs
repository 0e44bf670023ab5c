//! Intra-run sharding: one simulation, many threads, bit-identical totals.
//!
//! The paper's proxies are independent caches — every request is served by
//! exactly one proxy and a publish fans out to each matched proxy
//! separately — so one run parallelizes along the proxy axis: partition
//! the servers into contiguous ranges ([`ShardPlan`]), replay each shard's
//! sub-timeline (all publishes + the shard's requests) on its own thread,
//! and fold the shard-local [`SimResult`]s together in shard order.
//!
//! This module is the one replay driver: [`drain`] is the only loop that
//! feeds a [`ReplaySource`]'s windows to `ReplayState::step`,
//! [`replay_shard`] the only place a shard's replay is built, and
//! [`merge`] the only fold. Every entry point — monolithic, streamed,
//! prefetched, observed, traced — is a source handed to these; the
//! sequential replay is the one-shard case. Determinism rests on three
//! facts, each enforced structurally:
//!
//! 1. **The push schedule is computed once.** Every publish event's
//!    matched-proxy list is resolved at compile time; shards slice their
//!    server range out of the same table ([`TraceWindow::matched_in`]),
//!    so no shard can see a different fan-out than the sequential run.
//! 2. **Crash victims are a pure function of the seed.**
//!    `CrashPlan::victims` is evaluated over the *full* server count and
//!    filtered per shard, so fault injection hits exactly the proxies it
//!    hits sequentially.
//! 3. **Merging is exact.** Every merged quantity is an unsigned integer
//!    and filtering preserves each proxy's event subsequence, so
//!    component-wise addition reproduces the sequential totals bit for
//!    bit (see `merge.rs`; the sharded rows of
//!    `crates/spec/tests/variants.rs` equal the spec).
//!
//! Observer notes: timeline-wide events are reported once — the shard
//! owning server 0 fires `on_notify`/`on_publish` with the *global*
//! matched count (the `pushed` argument is shard-local) — while per-proxy
//! events (requests, pushes, cache decisions, restarts, shard-local
//! crash/invalidation sets) fire on the owning shard, so additive totals
//! such as `crash.victims`, `invalidate.dropped` and every hit/byte
//! counter merge exactly; only the event-occurrence counters
//! `crash.events` and `invalidate.events` may split across shards.

use pscd_obs::{MergeableObserver, Observer, SharedObserver, TraceRecorder, TraceSink};
use pscd_topology::FetchCosts;

use crate::pool::parallel_indexed;
use crate::runner::{replay_state, ReplayState, SimOptions};
use crate::window::{ReplayMeta, ReplaySource, TraceWindow};
use crate::SimResult;

/// A partition of the proxy fleet into contiguous
/// [`ServerId`](pscd_types::ServerId) ranges, one per shard, balanced by
/// per-server request load so no thread drags the others.
///
/// # Examples
///
/// ```
/// use pscd_sim::ShardPlan;
///
/// let plan = ShardPlan::balanced(&[10, 10, 10, 10], 2);
/// assert_eq!(plan.shards(), 2);
/// assert_eq!(plan.range(0), (0, 2));
/// assert_eq!(plan.range(1), (2, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards + 1` cut points; shard `k` owns servers
    /// `bounds[k]..bounds[k + 1]`.
    bounds: Vec<u16>,
}

impl ShardPlan {
    /// Partitions `load.len()` servers into at most `shards` contiguous
    /// ranges, cutting so each range carries roughly `1/shards` of the
    /// total load (`load[s]` = request count of server `s`). Every shard
    /// owns at least one server, so the plan may have fewer shards than
    /// asked for when servers are scarce. Deterministic in its inputs.
    pub fn balanced(load: &[u64], shards: usize) -> Self {
        let servers = load.len();
        let shards = shards.clamp(1, servers.max(1));
        let total: u64 = load.iter().sum();
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u16);
        let mut acc = 0u64;
        let mut s = 0usize;
        for k in 1..shards {
            // Advance to the first cut where this shard carries its share,
            // always past the previous cut (no empty shards) and leaving
            // at least one server for each remaining shard.
            let target = total * k as u64 / shards as u64;
            let last_allowed = servers - (shards - k);
            let prev = *bounds.last().expect("bounds starts non-empty") as usize;
            while s < last_allowed && (acc < target || s <= prev) {
                acc += load[s];
                s += 1;
            }
            bounds.push(s as u16);
        }
        bounds.push(servers as u16);
        Self { bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The half-open server range `[start, end)` of shard `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn range(&self, k: usize) -> (u16, u16) {
        (self.bounds[k], self.bounds[k + 1])
    }
}

/// How many timeline events a shard replays between trace-span
/// boundaries. Coarse on purpose: per-chunk spans keep the instrumented
/// run within measurement noise (a clock read every ~8k events), and the
/// disabled path never enters the chunked loop at all.
const REPLAY_CHUNK: usize = 8192;

/// Drains one window of `state` in [`REPLAY_CHUNK`]-sized chunks,
/// recording one span per chunk (label `replay.<strategy>`, detail = the
/// cursor range).
fn replay_chunked<O: Observer>(
    state: &mut ReplayState<O>,
    window: &TraceWindow<'_>,
    rec: &mut TraceRecorder,
) {
    let label = format!("replay.{}", state.strategy().name());
    loop {
        let from = state.cursor();
        let span = rec.begin();
        let mut n = 0usize;
        while n < REPLAY_CHUNK && state.step(window).is_some() {
            n += 1;
        }
        let to = state.cursor();
        if n > 0 {
            rec.end_with(span, &label, || format!("events [{from}, {to})"));
        }
        if n < REPLAY_CHUNK {
            return;
        }
    }
}

/// Replays every remaining window of `source` through `state` and
/// finalizes the result — the one place a [`ReplaySource`] meets
/// [`ReplayState::step`]. With a recorder the windows drain in traced
/// chunks; without one this is the bare uninstrumented loop.
pub(crate) fn drain<O: Observer>(
    mut state: ReplayState<O>,
    source: &mut impl ReplaySource,
    mut rec: Option<&mut TraceRecorder>,
) -> SimResult {
    while let Some(window) = source.next_window() {
        match rec.as_deref_mut() {
            Some(rec) => replay_chunked(&mut state, &window, rec),
            None => while state.step(&window).is_some() {},
        }
    }
    state.finish()
}

/// One shard of a run: builds the replay of `plan`'s range `k` over
/// `source.meta()`, drains `source` through it, and returns the shard's
/// result with its own observer. With a live `sink` the shard records one
/// track (`shard <k> [<start>,<end>)`) of per-chunk replay spans. Inputs
/// must already be validated.
pub(crate) fn replay_shard<O: MergeableObserver>(
    source: &mut impl ReplaySource,
    costs: &FetchCosts,
    options: &SimOptions,
    plan: &ShardPlan,
    k: usize,
    sink: &TraceSink,
) -> (SimResult, O) {
    let (start, end) = plan.range(k);
    let obs = SharedObserver::new(O::default());
    let state = replay_state(source.meta(), costs, options, obs.clone(), start..end);
    let mut rec = sink
        .is_enabled()
        .then(|| sink.recorder(format!("shard {k} [{start},{end})")));
    let result = drain(state, source, rec.as_mut());
    let observer = obs
        .try_unwrap()
        .unwrap_or_else(|_| panic!("shard dropped every observer clone"));
    (result, observer)
}

/// Folds shard outputs together in shard order (see `merge.rs` for why
/// that is exact).
pub(crate) fn merge<O: MergeableObserver>(
    meta: &ReplayMeta,
    options: &SimOptions,
    shards: Vec<(SimResult, O)>,
) -> (SimResult, O) {
    let mut result =
        SimResult::identity(options.strategy.name(), meta.hours(), meta.server_count());
    let mut observer = O::default();
    for (shard_result, shard_obs) in shards {
        result.absorb(&shard_result);
        observer.absorb(shard_obs);
    }
    (result, observer)
}

/// Where a replay reads its timeline from: the one fact besides the
/// requested count that decides what auto ([`SimOptions::threads`] `0`)
/// means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySite {
    /// An in-memory [`CompiledTrace`](crate::CompiledTrace): auto takes
    /// the machine's cores, because every shard only reads the one shared
    /// timeline.
    Compiled,
    /// A streamed or prefetched source: auto takes one shard, because
    /// every extra shard either re-draws the stream (serial pass) or waits
    /// on the one producer (prefetched pass).
    Streamed,
    /// One cell of a grid that already runs its cells in parallel
    /// (`pscd_experiments::run_grid`): auto takes one shard.
    GridCell,
}

/// The number of shards a replay at `site` over `servers` proxies takes
/// for a requested thread count — the only place auto is resolved. An
/// explicit count is honoured (oversubscription included); either way
/// the result is clamped to `1..=servers`. Results are bit-identical at
/// every count, so this decides speed only.
///
/// # Examples
///
/// ```
/// use pscd_sim::{shard_count, ReplaySite};
///
/// assert_eq!(shard_count(0, 100, ReplaySite::Streamed), 1);
/// assert_eq!(shard_count(0, 100, ReplaySite::GridCell), 1);
/// assert_eq!(shard_count(3, 100, ReplaySite::Streamed), 3);
/// assert_eq!(shard_count(8, 2, ReplaySite::Compiled), 2);
/// assert!(shard_count(0, 100, ReplaySite::Compiled) >= 1);
/// ```
pub fn shard_count(threads: usize, servers: u16, site: ReplaySite) -> usize {
    let auto = match site {
        ReplaySite::Compiled => 0,
        ReplaySite::Streamed | ReplaySite::GridCell => 1,
    };
    let requested = if threads == 0 { auto } else { threads };
    crate::pool::effective_threads(requested, usize::from(servers))
}

/// The shard plan [`SimOptions::threads`] asks for over `meta`'s fleet.
pub(crate) fn plan_for(meta: &ReplayMeta, options: &SimOptions, site: ReplaySite) -> ShardPlan {
    let shards = shard_count(options.threads, meta.server_count(), site);
    ShardPlan::balanced(meta.request_load(), shards)
}

/// Runs one replay over independently opened sources: every shard worker
/// calls `open()` for its own source and pulls its own window sequence (a
/// window borrows its source and a [`SharedObserver`] is single-threaded,
/// so sharing one source across workers is neither possible nor wanted).
/// The calling thread runs shard 0. Inputs must already be validated
/// against `meta`.
pub(crate) fn run_shards<S, O>(
    meta: &ReplayMeta,
    open: impl Fn() -> S + Sync,
    costs: &FetchCosts,
    options: &SimOptions,
    site: ReplaySite,
    sink: &TraceSink,
) -> (SimResult, O)
where
    S: ReplaySource,
    O: MergeableObserver,
{
    if sink.is_enabled() {
        crate::pool::spans::set_phase("replay.shard");
    }
    let plan = plan_for(meta, options, site);
    let outputs = parallel_indexed(plan.shards(), plan.shards(), |k| {
        let mut source = open();
        debug_assert_eq!(source.meta(), meta, "per-shard source disagrees on meta");
        replay_shard(&mut source, costs, options, &plan, k, sink)
    });
    merge(meta, options, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_plan_covers_all_servers_exactly_once() {
        for shards in 1..=6 {
            let load = [5u64, 0, 0, 20, 1, 1, 30, 2];
            let plan = ShardPlan::balanced(&load, shards);
            assert!(plan.shards() <= shards);
            assert_eq!(plan.range(0).0, 0);
            assert_eq!(plan.range(plan.shards() - 1).1, load.len() as u16);
            for k in 0..plan.shards() {
                let (s, e) = plan.range(k);
                assert!(s < e, "shard {k} is empty: [{s}, {e})");
                if k > 0 {
                    assert_eq!(plan.range(k - 1).1, s, "ranges tile contiguously");
                }
            }
        }
    }

    #[test]
    fn more_shards_than_servers_degrades_gracefully() {
        let plan = ShardPlan::balanced(&[1, 2], 8);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.range(0), (0, 1));
        assert_eq!(plan.range(1), (1, 2));
        let single = ShardPlan::balanced(&[7], 3);
        assert_eq!(single.shards(), 1);
        assert_eq!(single.range(0), (0, 1));
    }

    #[test]
    fn skewed_load_never_produces_an_empty_shard() {
        // One hot server absorbing most of the load used to leave a
        // later cut equal to the previous one.
        for load in [
            vec![1u64, 100, 1, 1],
            vec![100, 1, 1, 1],
            vec![1, 1, 1, 100],
            vec![0, 0, 1_000, 0, 0],
        ] {
            for shards in 1..=load.len() {
                let plan = ShardPlan::balanced(&load, shards);
                for k in 0..plan.shards() {
                    let (s, e) = plan.range(k);
                    assert!(s < e, "load {load:?} shards {shards}: empty shard {k}");
                }
            }
        }
    }

    #[test]
    fn uniform_load_splits_evenly() {
        let plan = ShardPlan::balanced(&[10; 8], 4);
        assert_eq!(plan.shards(), 4);
        for k in 0..4 {
            let (s, e) = plan.range(k);
            assert_eq!(e - s, 2);
        }
    }

    #[test]
    fn auto_resolves_by_site_and_explicit_counts_are_kept() {
        use ReplaySite::{Compiled, GridCell, Streamed};
        let cores = crate::pool::effective_threads(0, usize::MAX);
        // (threads, servers, site, shards)
        let table = [
            (0, 100, Compiled, cores.min(100)),
            (0, 1, Compiled, 1),
            (0, 100, Streamed, 1),
            (0, 100, GridCell, 1),
            (1, 100, Compiled, 1),
            (2, 100, Compiled, 2),
            (2, 100, Streamed, 2),
            (2, 100, GridCell, 2),
            (5, 100, Streamed, 5),
            (5, 3, GridCell, 3),
            (4, 0, Compiled, 1),
        ];
        for (threads, servers, site, shards) in table {
            assert_eq!(
                shard_count(threads, servers, site),
                shards,
                "{threads} threads, {servers} servers, {site:?}"
            );
        }
    }

    #[test]
    fn zero_load_still_partitions() {
        let plan = ShardPlan::balanced(&[0; 5], 2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.range(1).1, 5);
    }
}
