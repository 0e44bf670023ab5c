//! Pipelined streaming replay: a compile-ahead prefetcher that overlaps
//! slice generation + compilation with replay.
//!
//! The serial pass ([`StreamingTrace::open`]) interleaves two very
//! different workloads on one thread: generating and compiling slice
//! `N` (cold-path work — RNG substreams, sorting, fan-out resolution) and
//! replaying it (hot-loop work — cache decisions per event). This module
//! splits them: a **producer** runs on a dedicated `pscd-pool` pipeline
//! thread ([`pool::producer_consumers`](crate::pool::producer_consumers)),
//! generating and compiling up to `prefetch_depth` slices ahead, while
//! one or more **consumers** (the replay's shards) pull finished slices as
//! [`Arc<OwnedWindow>`] handles through a bounded [`WindowQueue`]. A
//! slice (see [`crate::stream`]) is bounded by a budget of drawn events
//! as well as by the configured window, so no hand-over keeps the
//! consumer waiting for a whole burst's generation.
//!
//! Two structural decisions carry the determinism proof:
//!
//! * **One producer owns all carried state.** The [`WindowState`] —
//!   version heads, publish cursor/ordinal, event index — advances
//!   strictly in slice order on the producer thread, through the same
//!   `StreamingTrace::gather_batch` +
//!   [`StreamingTrace::compile_window_into`] pair the serial pass uses
//!   (which is the batch of one). Consumers never touch it; overlap
//!   changes *when* a window is compiled, never *from what*.
//! * **Batched generation scatters, it does not reorder.** A pass draws
//!   each page once, in the batch holding its first request, and scatters
//!   the events to their slices — this batch's buckets, or the pending
//!   tail until a later batch takes them. The `(time, page)` sort in
//!   `compile_window_into` makes the draw order irrelevant, so ties land
//!   as in the serial pass and the monolithic compiler at every depth.
//!
//! The memory bound stays explicit: the producer may run at most
//! `prefetch_depth` slices ahead of the **slowest** consumer, so at most
//! `prefetch_depth + 1` slices are ever alive (queued + the one each
//! consumer is replaying), beside the producer's pending tail of
//! already-drawn later requests — O(depth × slice + live tail), never
//! O(trace); the tail peaks at 0.13 MB on the `stream_memory` fixture,
//! under the 0.21 MB its depth-1 queue holds. The queue tracks its own
//! high-water marks, the producer its tail's ([`PrefetchStats`]), and the
//! `stream_memory` suite checks a counting allocator against them.
//!
//! A whole [`Replay`] shares **one** prefetcher: each consumer — every
//! shard of every lineup member — takes the same `Arc`ed slices through
//! its own cursor, so the stream is generated once per run instead of
//! once per shard or strategy (the serial pass's price). With a live
//! [`TraceSink`] the producer records a `prefetch producer` track
//! (`prefetch.generate` / `prefetch.compile` spans) and each consumer its
//! `shard k` replay track, so the chrome trace shows the overlap
//! directly.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use pscd_obs::TraceSink;
use pscd_topology::FetchCosts;
use pscd_types::RequestEvent;

use crate::runner::SimOptions;
use crate::stream::{StreamingTrace, WindowState};
use crate::window::{OwnedWindow, ReplayMeta, ReplaySource, TraceWindow};
use crate::{Replay, SimError, SimResult};

/// Default compile-ahead depth, in slices: one slice in flight behind the
/// one being replayed covers the producer/consumer overlap while holding
/// O(depth × slice + live tail), a few slices' buffers beside the tail.
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// Tuning for the pipelined streaming replay: how many slices the
/// prefetcher may generate and compile ahead of the slowest consumer.
/// Memory is O(depth × slice + live tail): a slice is bounded by a budget
/// of drawn events, so the bound does not grow with the configured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOptions {
    depth: usize,
}

impl Default for PrefetchOptions {
    fn default() -> Self {
        Self {
            depth: DEFAULT_PREFETCH_DEPTH,
        }
    }
}

impl PrefetchOptions {
    /// A prefetcher running at most `depth` slices ahead (clamped to at
    /// least 1 — depth 0 would deadlock a bounded pipeline by definition).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
        }
    }
}

/// High-water marks of one pipelined pass, from the queue's and the
/// producer's own accounting: what "peak stays O(prefetch_depth × slice +
/// live tail)" means concretely. The `stream_memory` suite asserts both
/// these numbers and the allocator agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchStats {
    /// Slices handed over.
    pub windows: usize,
    /// Timeline events across all windows.
    pub events: usize,
    /// Most slices ever alive at once (queued + still replayable by the
    /// slowest consumer). Bounded by `depth + 1`.
    pub peak_windows: usize,
    /// Byte high-water of the alive windows' buffers.
    pub peak_bytes: usize,
    /// Byte high-water of the producer's pending tail: requests drawn
    /// with their page but belonging to slices not yet gathered.
    pub peak_tail_bytes: usize,
    /// Request events the producer drew; `meta.request_count()` when every
    /// page was drawn exactly once.
    pub generated_events: usize,
}

#[derive(Debug)]
struct QueueInner {
    /// Alive windows `(window, bytes)` for seqs `[base, base + len)`.
    /// A window is retired only once every consumer has taken its
    /// *successor* (a consumer may still be replaying the window it took
    /// last), which is exactly the alive set the memory bound talks about.
    buf: VecDeque<(Arc<OwnedWindow>, usize)>,
    /// Sequence number of `buf[0]`.
    base: usize,
    /// Sequence number the producer pushes next.
    pushed: usize,
    /// Per-consumer next-take sequence; `usize::MAX` = retired consumer.
    cursors: Vec<usize>,
    done: bool,
    live_bytes: usize,
    /// The pass's counts and high-water marks so far; the producer adds
    /// its own two when it finishes.
    stats: PrefetchStats,
}

impl QueueInner {
    fn min_cursor(&self) -> usize {
        self.cursors
            .iter()
            .copied()
            .filter(|&c| c != usize::MAX)
            .min()
            .unwrap_or(self.pushed)
    }

    fn retire_passed(&mut self) {
        let min = self.min_cursor();
        while self.base + 1 < min {
            let Some((_, bytes)) = self.buf.pop_front() else {
                break;
            };
            self.live_bytes -= bytes;
            self.base += 1;
        }
    }
}

/// The bounded, multi-consumer handoff between the prefetch producer and
/// the replay shards. Every consumer sees every window (shards filter by
/// server range, not by window); the producer blocks while it is `depth`
/// windows ahead of the slowest cursor — that backpressure *is* the
/// memory bound.
pub(crate) struct WindowQueue {
    depth: usize,
    inner: Mutex<QueueInner>,
    /// Signaled on push and on finish.
    avail: Condvar,
    /// Signaled when a cursor advances or retires.
    space: Condvar,
}

impl WindowQueue {
    fn new(depth: usize, consumers: usize) -> Self {
        Self {
            depth: depth.max(1),
            inner: Mutex::new(QueueInner {
                buf: VecDeque::new(),
                base: 0,
                pushed: 0,
                cursors: vec![0; consumers.max(1)],
                done: false,
                live_bytes: 0,
                stats: PrefetchStats::default(),
            }),
            avail: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Poison-tolerant: every critical section below leaves the counters
    /// consistent at each step, and the guards that finish the stream and
    /// retire cursors lock from `Drop` during an unwind, where a second
    /// panic would abort the process instead of reporting the first.
    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, window: OwnedWindow) {
        let mut g = self.lock();
        while g.pushed - g.min_cursor() >= self.depth {
            g = self.space.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        // With every consumer gone nobody retires windows on take.
        g.retire_passed();
        let bytes = window.bytes();
        g.live_bytes += bytes;
        g.stats.windows += 1;
        g.stats.events += window.len();
        g.buf.push_back((Arc::new(window), bytes));
        g.pushed += 1;
        g.stats.peak_bytes = g.stats.peak_bytes.max(g.live_bytes);
        g.stats.peak_windows = g.stats.peak_windows.max(g.buf.len());
        drop(g);
        self.avail.notify_all();
    }

    fn finish(&self) {
        self.lock().done = true;
        self.avail.notify_all();
    }

    fn take(&self, consumer: usize) -> Option<Arc<OwnedWindow>> {
        let mut g = self.lock();
        loop {
            let seq = g.cursors[consumer];
            debug_assert_ne!(seq, usize::MAX, "take on a retired consumer");
            if seq < g.pushed {
                let window = g.buf[seq - g.base].0.clone();
                g.cursors[consumer] = seq + 1;
                g.retire_passed();
                drop(g);
                self.space.notify_all();
                return Some(window);
            }
            if g.done {
                return None;
            }
            g = self.avail.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes `consumer` from the backpressure set (normal completion or
    /// unwind), so a stuck cursor can never wedge the producer.
    fn retire_consumer(&self, consumer: usize) {
        let mut g = self.lock();
        g.cursors[consumer] = usize::MAX;
        g.retire_passed();
        drop(g);
        self.space.notify_all();
    }

    fn stats(&self) -> PrefetchStats {
        self.lock().stats
    }
}

/// Marks the stream finished even if the producer unwinds, so consumers
/// drain what exists instead of waiting forever.
struct FinishGuard<'q>(&'q WindowQueue);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// One consumer's cursor through the shared queue, as a
/// [`ReplaySource`]: the third source beside the monolithic trace and the
/// serial stream. Dropping it retires the cursor (on unwind too), so the
/// producer's backpressure wait can always make progress.
pub(crate) struct QueueWindows<'q> {
    trace: &'q StreamingTrace,
    queue: &'q WindowQueue,
    consumer: usize,
    /// The window being replayed; the queue keeps it alive until this
    /// cursor has taken its successor.
    current: Option<Arc<OwnedWindow>>,
}

impl ReplaySource for QueueWindows<'_> {
    fn meta(&self) -> &ReplayMeta {
        self.trace.meta()
    }

    fn next_window(&mut self) -> Option<TraceWindow<'_>> {
        // Release before blocking in `take`, so this handle never extends
        // a window's life past the queue's own accounting.
        self.current = None;
        self.current = self.queue.take(self.consumer);
        self.current
            .as_deref()
            .map(|w| w.view(self.trace.meta().pages()))
    }
}

impl Drop for QueueWindows<'_> {
    fn drop(&mut self) {
        self.queue.retire_consumer(self.consumer);
    }
}

/// The producer loop: gather request batches `depth` slices at a time,
/// compile each slice through the shared
/// [`StreamingTrace::compile_window_into`] core, and push. Runs on its
/// own pipeline thread; all carried state is local to this function.
fn produce(trace: &StreamingTrace, queue: &WindowQueue, depth: usize, sink: &TraceSink) {
    let _finish = FinishGuard(queue);
    let mut rec = sink.recorder("prefetch producer");
    let mut state = WindowState::new(trace);
    let mut buckets: Vec<Vec<RequestEvent>> = (0..depth).map(|_| Vec::new()).collect();
    loop {
        let span = rec.begin();
        let Some(slices) = trace.gather_batch(&mut state, &mut buckets) else {
            break;
        };
        rec.end_with(span, "prefetch.generate", || {
            format!("slices [{}, {})", slices.start, slices.end)
        });
        for (k, bucket) in slices.zip(&mut buckets) {
            let span = rec.begin();
            let mut window = OwnedWindow::with_capacity(0, 0);
            trace.compile_window_into(&mut state, bucket, &mut window);
            let n = window.len();
            rec.end_with(span, "prefetch.compile", || {
                format!("slice {k} ({n} events)")
            });
            // Push outside the span: blocked-on-backpressure time shows
            // as a gap in the producer track, not as compile work.
            queue.push(window);
        }
    }
    let mut g = queue.lock();
    g.stats.peak_tail_bytes = state.tail_bytes();
    g.stats.generated_events = state.generated_events;
}

/// Runs one pipelined pass: the producer on its own thread beside
/// `consumers` queue-fed sources, each handed to `consume` with its
/// consumer index. Returns the consumers' outputs in index order and the
/// pass's high-water marks.
pub(crate) fn pipelined<T: Send>(
    trace: &StreamingTrace,
    prefetch: &PrefetchOptions,
    consumers: usize,
    sink: &TraceSink,
    consume: impl Fn(usize, &mut QueueWindows<'_>) -> T + Sync,
) -> (Vec<T>, PrefetchStats) {
    let queue = WindowQueue::new(prefetch.depth, consumers);
    let outputs = {
        let queue = &queue;
        let depth = prefetch.depth;
        crate::pool::producer_consumers(
            move || produce(trace, queue, depth, sink),
            consumers,
            |consumer| {
                let mut source = QueueWindows {
                    trace,
                    queue,
                    consumer,
                    current: None,
                };
                consume(consumer, &mut source)
            },
        )
    };
    (outputs, queue.stats())
}

/// [`Replay::prefetched`] over a one-member lineup; kept only for the
/// benchmark's call sites.
///
/// # Errors
///
/// As [`Replay::run`].
pub fn simulate_streamed_prefetched_traced(
    trace: &StreamingTrace,
    costs: &FetchCosts,
    options: &SimOptions,
    prefetch: &PrefetchOptions,
    sink: &TraceSink,
) -> Result<SimResult, SimError> {
    Replay::prefetched(trace, *prefetch, costs)
        .traced(sink)
        .solo(options)
}

impl StreamingTrace {
    /// Drives one full pipelined pass discarding the windows, returning
    /// the queue's and the producer's counts and high-water marks. This is
    /// the replay-free cost of the pipeline (what `cold.stream.pipelined`
    /// benchmarks against the serial drain) and the accounting the memory
    /// suite asserts on.
    pub fn drain_prefetched(&self, prefetch: &PrefetchOptions) -> PrefetchStats {
        let sink = TraceSink::disabled();
        pipelined(self, prefetch, 1, &sink, |_, source| {
            while source.next_window().is_some() {}
        })
        .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CompiledTrace;
    use pscd_core::StrategyKind;
    use pscd_spec::within_a_minute;
    use pscd_types::SimTime;
    use pscd_workload::{Workload, WorkloadConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn config() -> WorkloadConfig {
        WorkloadConfig::news_scaled(0.004)
    }

    /// The window-level oracle, stronger than equal `SimResult`s: the
    /// windows the producer hands over, concatenated in order, are `==` to
    /// the monolithic compile — events, CSR fan-out tables and meta — at
    /// depths 1, 3 and 64 (past every fixture's window count).
    fn assert_prefetched_windows_concatenate_to(
        stream: &StreamingTrace,
        reference: &CompiledTrace,
    ) {
        for depth in [1, 3, 64] {
            let (mut out, _) = pipelined(
                stream,
                &PrefetchOptions::new(depth),
                1,
                &TraceSink::disabled(),
                |_, source| CompiledTrace::concat(source),
            );
            let piped = out.pop().expect("one consumer");
            assert_eq!(&piped, reference, "depth = {depth}");
        }
    }

    #[test]
    fn prefetched_windows_concatenate_to_the_monolithic_compile() {
        let w = Workload::generate(&config()).unwrap();
        // Quality 0.8 exercises the non-trivial subscription seed too.
        for (quality, hours) in [(1.0, 9), (0.8, 36)] {
            let reference = CompiledTrace::compile(&w, &w.subscriptions(quality).unwrap()).unwrap();
            let stream =
                StreamingTrace::new(&config(), quality, SimTime::from_hours(hours), 1).unwrap();
            assert_prefetched_windows_concatenate_to(&stream, &reference);
        }
    }

    /// Near-flat age decay spreads a page's requests over the whole
    /// horizon, so most of the trace passes through the producer's pending
    /// tail: 1-hour windows over 7 days, and the same trace squeezed into
    /// one hour at 1-minute windows, where equal-time requests for one
    /// page at different servers meet the `(time, page)` sort.
    #[test]
    fn prefetched_windows_of_a_tail_heavy_stream_concatenate_to_the_monolithic_compile() {
        for (horizon, window, volume) in [
            (SimTime::from_days(7), SimTime::from_hours(1), 8),
            (SimTime::from_hours(1), SimTime::from_millis(60_000), 16),
        ] {
            let mut config = config();
            config.publishing.horizon = horizon;
            config.requests.horizon = horizon;
            config.requests.class_gammas = [0.05; 4];
            config.requests.total_requests *= volume;
            let w = Workload::generate(&config).unwrap();
            let reference = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
            let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
            assert_prefetched_windows_concatenate_to(&stream, &reference);
        }
    }

    fn empty_window() -> OwnedWindow {
        OwnedWindow::with_capacity(0, 0)
    }

    #[test]
    fn dead_producer_ends_the_stream_and_its_panic_is_reraised() {
        let (reraised, seen) = within_a_minute(|| {
            let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_days(1), 1).unwrap();
            let queue = WindowQueue::new(2, 1);
            let seen = Mutex::new(Vec::new());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                crate::pool::producer_consumers(
                    || {
                        let _finish = FinishGuard(&queue);
                        queue.push(empty_window());
                        panic!("producer dies after one window");
                    },
                    1,
                    |consumer| {
                        let mut source = QueueWindows {
                            trace: &stream,
                            queue: &queue,
                            consumer,
                            current: None,
                        };
                        loop {
                            let some = source.next_window().is_some();
                            seen.lock().unwrap().push(some);
                            if !some {
                                break;
                            }
                        }
                    },
                )
            }));
            (outcome.is_err(), seen.into_inner().unwrap())
        });
        assert!(reraised, "the producer's panic was swallowed");
        assert_eq!(seen, [true, false], "consumer must see Some, then None");
    }

    #[test]
    fn dead_consumer_retires_its_cursor_and_the_producer_finishes() {
        // Depth 1: a cursor stuck at window 1 would wedge the producer at
        // window 2 and the surviving consumer behind it.
        let (reraised, survivor_windows, window_count) = within_a_minute(|| {
            let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(6), 1).unwrap();
            let survivor_windows = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pipelined(
                    &stream,
                    &PrefetchOptions::new(1),
                    2,
                    &TraceSink::disabled(),
                    |consumer, source| {
                        while source.next_window().is_some() {
                            if consumer == 0 {
                                panic!("consumer dies mid-window");
                            }
                            survivor_windows.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                )
            }));
            (
                outcome.is_err(),
                survivor_windows.into_inner(),
                stream.window_count(),
            )
        });
        assert!(reraised, "the consumer's panic was swallowed");
        assert_eq!(survivor_windows, window_count);
    }

    #[test]
    fn queue_stays_bounded_once_every_consumer_is_gone() {
        let queue = WindowQueue::new(2, 1);
        queue.retire_consumer(0);
        for _ in 0..10 {
            queue.push(empty_window());
        }
        assert!(queue.stats().peak_windows <= 3);
    }

    #[test]
    fn poisoned_lock_does_not_turn_one_panic_into_two() {
        let queue = WindowQueue::new(2, 1);
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _held = queue.inner.lock().unwrap();
            panic!("poison the queue lock");
        }));
        assert!(poison.is_err() && queue.inner.is_poisoned());
        // Every entry point — the two `Drop` guards' included — still works.
        queue.push(empty_window());
        drop(FinishGuard(&queue));
        assert!(queue.take(0).is_some());
        assert!(queue.take(0).is_none());
        queue.retire_consumer(0);
    }

    /// Six cursors keep at most depth + 1 slices alive, and a lineup of
    /// six at depth 1 finishes (each blocking cursor has a thread of its
    /// own) with each member replaying as in the serial pass.
    #[test]
    fn six_cursors_keep_depth_plus_one_slices_and_a_lineup_of_six_finishes() {
        within_a_minute(|| {
            let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(3), 1).unwrap();
            for depth in [1, 2, 4] {
                let sink = TraceSink::disabled();
                let prefetch = PrefetchOptions::new(depth);
                let (_, peaks) = pipelined(&stream, &prefetch, 6, &sink, |_, source| {
                    while source.next_window().is_some() {}
                });
                assert_eq!(peaks.windows, stream.window_count(), "depth {depth}");
                assert!(peaks.peak_windows <= depth + 1, "depth {depth}: {peaks:?}");
            }
            let costs = FetchCosts::uniform(stream.meta().server_count());
            let lineup: Vec<SimOptions> = (StrategyKind::figure4_lineup(2.0).into_iter())
                .map(|kind| SimOptions::at_capacity(kind, 0.05))
                .collect();
            let prefetched = Replay::prefetched(&stream, PrefetchOptions::new(1), &costs);
            assert_eq!(
                prefetched.run(&lineup).unwrap(),
                Replay::streamed(&stream, &costs).run(&lineup).unwrap()
            );
            assert!(prefetched.run(&[]).unwrap().is_empty());
        });
    }

    #[test]
    fn depth_zero_is_clamped_and_options_default() {
        assert_eq!(PrefetchOptions::new(0).depth, 1);
        assert_eq!(PrefetchOptions::default().depth, DEFAULT_PREFETCH_DEPTH);
    }
}
