//! Intra-run sharding: one simulation, many threads, bit-identical totals.
//!
//! The paper's proxies are independent caches — every request is served by
//! exactly one proxy and a publish fans out to each matched proxy
//! separately — so one run parallelizes along the proxy axis: partition
//! the servers into contiguous ranges ([`ShardPlan`]), replay each shard's
//! sub-timeline (all publishes + the shard's requests) on its own thread,
//! and fold the shard-local [`SimResult`]s together in shard order.
//!
//! This module is the one replay driver: [`Replay`] is the only entry
//! point that fans consumers out, [`drain`] the only loop that feeds a
//! [`ReplaySource`]'s windows to `ReplayState::step`, [`replay_shard`]
//! the only place a shard's replay is built, and [`merge`] the only
//! fold. Every source — monolithic, streamed, prefetched — and every
//! lineup is handed to these; the sequential replay is the one-shard,
//! one-member case. Determinism rests on three
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

use pscd_obs::{
    MergeableObserver, NullObserver, Observer, SharedObserver, TraceRecorder, TraceSink,
};
use pscd_topology::FetchCosts;

use crate::pool::parallel_indexed;
use crate::prefetch::{pipelined, PrefetchOptions};
use crate::runner::{replay_state, validate_meta, ReplayState, SimOptions};
use crate::window::{ReplayMeta, ReplaySource, TraceWindow};
use crate::{CompiledTrace, SimError, SimResult, StreamingTrace};

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
        Self::with_head_start(load, shards, 0)
    }

    /// [`balanced`](ShardPlan::balanced) for a shard 0 that carries `head`
    /// more load than its servers', in the units of `load`: the cuts share
    /// `head` + the total evenly, so shard 0's range ends where its
    /// servers' load reaches its share less `head`. It never goes empty,
    /// and it ends no later as `head` grows. Head 0 is `balanced`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pscd_sim::ShardPlan;
    ///
    /// // Shard 0's thread spends 20 on work of its own: 20 + 10 = 30 of
    /// // the 60 in all.
    /// let plan = ShardPlan::with_head_start(&[10, 10, 10, 10], 2, 20);
    /// assert_eq!(plan.range(0), (0, 1));
    /// assert_eq!(plan.range(1), (1, 4));
    /// assert_eq!(ShardPlan::with_head_start(&[10; 4], 2, 0), ShardPlan::balanced(&[10; 4], 2));
    /// ```
    pub fn with_head_start(load: &[u64], shards: usize, head: u64) -> Self {
        let servers = load.len();
        let shards = shards.clamp(1, servers.max(1));
        let total: u64 = head + load.iter().sum::<u64>();
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u16);
        let mut acc = head;
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
pub(crate) fn drain<O: Observer, S: ReplaySource + ?Sized>(
    mut state: ReplayState<O>,
    source: &mut S,
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
pub(crate) fn replay_shard<O: MergeableObserver, S: ReplaySource + ?Sized>(
    source: &mut S,
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
/// requested count and the lineup's width that decides what auto
/// ([`SimOptions::threads`] `0`) means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySite {
    /// An in-memory [`CompiledTrace`]: auto takes the machine's cores,
    /// because every shard only reads the one shared timeline.
    Compiled,
    /// A streamed or prefetched source: auto takes one thread, because
    /// every extra shard either re-draws the stream (serial pass) or waits
    /// on the one producer (prefetched pass).
    Streamed,
}

/// The number of shards each member of a `width`-strategy lineup takes
/// at `site` over `servers` proxies for a requested thread count — the
/// only place auto is resolved. The requested count (auto: the machine's
/// cores for a compiled source, one thread for a streamed one; an
/// explicit count is honoured, oversubscription included) is split
/// across the lineup, `max(1, threads / width)` shards per member,
/// clamped to `1..=servers`. Results are bit-identical at every count,
/// so this decides speed only.
///
/// # Examples
///
/// ```
/// use pscd_sim::{shard_count, ReplaySite};
///
/// assert_eq!(shard_count(0, 100, ReplaySite::Streamed, 1), 1);
/// assert_eq!(shard_count(3, 100, ReplaySite::Streamed, 1), 3);
/// assert_eq!(shard_count(8, 2, ReplaySite::Compiled, 1), 2);
/// assert_eq!(shard_count(8, 100, ReplaySite::Compiled, 3), 2);
/// assert_eq!(shard_count(2, 100, ReplaySite::Compiled, 6), 1);
/// assert!(shard_count(0, 100, ReplaySite::Compiled, 1) >= 1);
/// ```
pub fn shard_count(threads: usize, servers: u16, site: ReplaySite, width: usize) -> usize {
    let auto = match site {
        ReplaySite::Compiled => 0,
        ReplaySite::Streamed => 1,
    };
    let requested = if threads == 0 { auto } else { threads };
    let total = crate::pool::effective_threads(requested, usize::MAX);
    let per_member = (total / width.max(1)).max(1);
    crate::pool::effective_threads(per_member, usize::from(servers))
}

/// Where a [`Replay`] reads its timeline from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Compiled(&'a CompiledTrace),
    Streamed(&'a StreamingTrace),
    Prefetched(&'a StreamingTrace, PrefetchOptions),
}

/// One replay: a source of windows × a lineup of strategies, every
/// member offered the same events (the paper's simulator, §4 and
/// figure 2).
///
/// The consumers are lineup members × shards ([`shard_count`] splits the
/// requested threads across the lineup). Over a compiled or serial
/// source they run in one pool fan-out, each opening its own window
/// sequence; over a prefetched source each takes its own cursor through
/// one bounded queue, on a thread of its own. Each member's shards merge
/// in shard order, so a member's result is bit-identical to its solo
/// replay at every thread count and lineup width.
///
/// With a live [`TraceSink`] ([`traced`](Replay::traced)) each consumer
/// records a track of per-chunk replay spans (`shard <k> [<start>,<end>)`)
/// and the prefetcher its `prefetch producer` track; totals are
/// bit-identical either way.
///
/// # Examples
///
/// ```
/// use pscd_core::StrategyKind;
/// use pscd_sim::{CompiledTrace, Replay, SimOptions};
/// use pscd_topology::FetchCosts;
/// use pscd_workload::{Workload, WorkloadConfig};
///
/// let w = Workload::generate(&WorkloadConfig::news_scaled(0.003))?;
/// let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0)?)?;
/// let costs = FetchCosts::uniform(w.server_count());
/// let lineup = [StrategyKind::GdStar { beta: 2.0 }, StrategyKind::Sg2 { beta: 2.0 }]
///     .map(|kind| SimOptions::at_capacity(kind, 0.05));
/// let results = Replay::compiled(&trace, &costs).run(&lineup)?;
/// assert_eq!(results[0].requests, results[1].requests);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    source: Source<'a>,
    costs: &'a FetchCosts,
    sink: TraceSink,
}

impl<'a> Replay<'a> {
    fn new(source: Source<'a>, costs: &'a FetchCosts) -> Self {
        let sink = TraceSink::disabled();
        Self {
            source,
            costs,
            sink,
        }
    }

    /// A replay of a compiled trace, which every consumer reads in place
    /// as one whole-trace window.
    pub fn compiled(trace: &'a CompiledTrace, costs: &'a FetchCosts) -> Self {
        Self::new(Source::Compiled(trace), costs)
    }

    /// A serial streamed replay: every consumer opens its own pass
    /// ([`StreamingTrace::open`]), drawing and compiling the stream slice
    /// by slice in O(slice + live tail) memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use pscd_core::StrategyKind;
    /// use pscd_sim::{Replay, SimOptions, StreamingTrace};
    /// use pscd_topology::FetchCosts;
    /// use pscd_types::SimTime;
    /// use pscd_workload::WorkloadConfig;
    ///
    /// let config = WorkloadConfig::news_scaled(0.003);
    /// let stream = StreamingTrace::new(&config, 1.0, SimTime::from_hours(24), 1)?;
    /// let costs = FetchCosts::uniform(stream.meta().server_count());
    /// let sub = SimOptions::at_capacity(StrategyKind::Sub, 0.05);
    /// let results = Replay::streamed(&stream, &costs).run(&[sub])?;
    /// assert_eq!(results[0].requests as usize, stream.meta().request_count());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn streamed(trace: &'a StreamingTrace, costs: &'a FetchCosts) -> Self {
        Self::new(Source::Streamed(trace), costs)
    }

    /// A pipelined streamed replay: a producer thread generates and
    /// compiles up to `prefetch`'s depth of slices ahead of the slowest
    /// consumer, once for the whole lineup, and every consumer replays
    /// the shared slices through its own cursor. At most depth + 1 slices
    /// are alive at once, whatever the lineup's width.
    ///
    /// # Examples
    ///
    /// ```
    /// use pscd_core::StrategyKind;
    /// use pscd_sim::{PrefetchOptions, Replay, SimOptions, StreamingTrace};
    /// use pscd_topology::FetchCosts;
    /// use pscd_types::SimTime;
    /// use pscd_workload::WorkloadConfig;
    ///
    /// let config = WorkloadConfig::news_scaled(0.003);
    /// let stream = StreamingTrace::new(&config, 1.0, SimTime::from_hours(6), 1)?;
    /// let costs = FetchCosts::uniform(stream.meta().server_count());
    /// let lineup = [StrategyKind::Sub, StrategyKind::Lru]
    ///     .map(|kind| SimOptions::at_capacity(kind, 0.05));
    /// let replay = Replay::prefetched(&stream, PrefetchOptions::default(), &costs);
    /// let results = replay.run(&lineup)?;
    /// assert_eq!(results[0].requests, results[1].requests);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn prefetched(
        trace: &'a StreamingTrace,
        prefetch: PrefetchOptions,
        costs: &'a FetchCosts,
    ) -> Self {
        Self::new(Source::Prefetched(trace, prefetch), costs)
    }

    /// Records the replay's timeline tracks into `sink`.
    #[must_use]
    pub fn traced(mut self, sink: &TraceSink) -> Self {
        self.sink = sink.clone();
        self
    }

    fn meta(&self) -> &'a ReplayMeta {
        match self.source {
            Source::Compiled(trace) => trace.meta(),
            Source::Streamed(trace) | Source::Prefetched(trace, _) => trace.meta(),
        }
    }

    /// Replays every member of `lineup` and returns one result per
    /// member, in lineup order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the fetch-cost vector does not cover the
    /// source's proxies or a member's option is out of range; nothing is
    /// replayed then.
    pub fn run(&self, lineup: &[SimOptions]) -> Result<Vec<SimResult>, SimError> {
        let observed = self.run_observed::<NullObserver>(lineup)?;
        Ok(observed.into_iter().map(|(result, _)| result).collect())
    }

    /// [`run`](Replay::run) with a mergeable observer: each consumer
    /// collects into its own fresh `O` and a member's shard observers fold
    /// together in shard order via [`MergeableObserver::absorb`], so
    /// additive observer totals (hits, misses, transfers, bytes) match the
    /// sequential run exactly. (A [`SharedObserver`] is single-threaded by
    /// design; an observer that knows how to merge can be built per
    /// consumer instead.)
    ///
    /// # Errors
    ///
    /// Same as [`run`](Replay::run).
    pub fn run_observed<O: MergeableObserver>(
        &self,
        lineup: &[SimOptions],
    ) -> Result<Vec<(SimResult, O)>, SimError> {
        let meta = self.meta();
        for options in lineup {
            validate_meta(meta, self.costs, options)?;
        }
        if lineup.is_empty() {
            // A prefetcher would still hand its one consumer a cursor.
            return Ok(Vec::new());
        }
        let site = match self.source {
            Source::Compiled(_) => ReplaySite::Compiled,
            Source::Streamed(_) | Source::Prefetched(..) => ReplaySite::Streamed,
        };
        let servers = meta.server_count();
        let plans: Vec<ShardPlan> = lineup
            .iter()
            .map(|o| {
                let shards = shard_count(o.threads, servers, site, lineup.len());
                ShardPlan::balanced(meta.request_load(), shards)
            })
            .collect();
        // Consumer `c` is shard `k` of member `m`, member-major.
        let consumers: Vec<(usize, usize)> = (plans.iter().enumerate())
            .flat_map(|(m, plan)| (0..plan.shards()).map(move |k| (m, k)))
            .collect();
        let consume = |c: usize, source: &mut dyn ReplaySource| {
            let (m, k) = consumers[c];
            replay_shard(source, self.costs, &lineup[m], &plans[m], k, &self.sink)
        };
        crate::pool::spans::set_phase("replay");
        // The fan-out is as wide as the widest member's own request.
        let threads = (lineup.iter())
            .map(|o| shard_count(o.threads, servers, site, 1))
            .max()
            .unwrap_or(1);
        let jobs = consumers.len();
        let outputs = match self.source {
            Source::Compiled(trace) => {
                parallel_indexed(jobs, threads, |c| consume(c, &mut trace.source()))
            }
            Source::Streamed(trace) => {
                parallel_indexed(jobs, threads, |c| consume(c, &mut trace.open()))
            }
            Source::Prefetched(trace, prefetch) => {
                let sink = &self.sink;
                pipelined(trace, &prefetch, jobs, sink, |c, source| consume(c, source)).0
            }
        };
        let mut outputs = outputs.into_iter();
        let mut member = |(options, plan): (&SimOptions, &ShardPlan)| {
            let shards = outputs.by_ref().take(plan.shards()).collect();
            merge(meta, options, shards)
        };
        Ok(lineup.iter().zip(&plans).map(&mut member).collect())
    }

    /// The one result of a one-member lineup.
    pub(crate) fn solo(&self, options: &SimOptions) -> Result<SimResult, SimError> {
        let mut results = self.run(std::slice::from_ref(options))?;
        Ok(results.pop().expect("one result per member"))
    }
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
    fn auto_resolves_by_site_and_the_lineup_splits_the_threads() {
        use ReplaySite::{Compiled, Streamed};
        let cores = crate::pool::effective_threads(0, usize::MAX);
        // (threads, servers, site, lineup width, shards per member)
        let table = [
            (0, 100, Compiled, 1, cores.min(100)),
            (0, 1, Compiled, 1, 1),
            (0, 100, Compiled, cores, 1),
            (0, 100, Compiled, 2 * cores, 1),
            (0, 100, Streamed, 1, 1),
            (0, 100, Streamed, 6, 1),
            (1, 100, Compiled, 1, 1),
            (2, 100, Compiled, 1, 2),
            (2, 100, Streamed, 1, 2),
            (2, 100, Streamed, 6, 1),
            (5, 100, Streamed, 1, 5),
            (5, 3, Compiled, 1, 3),
            (8, 100, Compiled, 3, 2),
            (12, 100, Streamed, 6, 2),
            (12, 100, Compiled, 0, 12),
            (4, 0, Compiled, 1, 1),
        ];
        for (threads, servers, site, width, shards) in table {
            assert_eq!(
                shard_count(threads, servers, site, width),
                shards,
                "{threads} threads, {servers} servers, {site:?}, width {width}"
            );
        }
    }

    /// The cut rule before the head start existed, kept here as the
    /// reference `balanced` must still equal.
    fn balanced_reference(load: &[u64], shards: usize) -> Vec<(u16, u16)> {
        let servers = load.len();
        let shards = shards.clamp(1, servers.max(1));
        let total: u64 = load.iter().sum();
        let (mut bounds, mut acc, mut s) = (vec![0u16], 0u64, 0usize);
        for k in 1..shards {
            let target = total * k as u64 / shards as u64;
            let prev = *bounds.last().unwrap() as usize;
            while s < servers - (shards - k) && (acc < target || s <= prev) {
                acc += load[s];
                s += 1;
            }
            bounds.push(s as u16);
        }
        bounds.push(servers as u16);
        bounds.windows(2).map(|w| (w[0], w[1])).collect()
    }

    proptest::proptest! {
        /// Over random loads, shard counts and head starts: head 0 is the
        /// reference rule, shard 0 is never empty and ends no later as the
        /// head grows, and the ranges tile the fleet.
        #[test]
        fn a_head_start_only_shrinks_shard_0(
            load in proptest::collection::vec(0u64..1_000, 1..40),
            shards in 1usize..6,
            heads in proptest::collection::vec(0u64..40_000, 1..8),
        ) {
            let ranges = |plan: &ShardPlan| (0..plan.shards()).map(|k| plan.range(k)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                ranges(&ShardPlan::with_head_start(&load, shards, 0)),
                balanced_reference(&load, shards)
            );
            let mut heads = heads;
            heads.sort_unstable();
            let mut end = u16::MAX;
            for head in heads {
                let plan = ShardPlan::with_head_start(&load, shards, head);
                let ranges = ranges(&plan);
                proptest::prop_assert_eq!(ranges.len(), shards.min(load.len()));
                proptest::prop_assert!(ranges[0].1 >= 1 && ranges[0].1 <= end);
                end = ranges[0].1;
                let mut next = 0;
                for (start, stop) in ranges {
                    proptest::prop_assert!(start == next && start < stop);
                    next = stop;
                }
                proptest::prop_assert_eq!(usize::from(next), load.len());
            }
        }
    }

    #[test]
    fn zero_load_still_partitions() {
        let plan = ShardPlan::balanced(&[0; 5], 2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.range(1).1, 5);
    }
}
