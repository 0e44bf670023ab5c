//! A minimal indexed fork/join pool over the vendored `crossbeam` scope.
//!
//! Every level of parallelism in `pscd` — shards *within* one simulation
//! run, jobs *across* a parameter sweep, and the cold-path fan-outs
//! (workload substreams, trace compilation, per-source shortest paths) —
//! reduces to the same shape: `jobs` independent index-addressed
//! computations whose results must come back in index order so downstream
//! merges are deterministic. [`parallel_indexed`] is that shape, once;
//! [`parallel_chunked`] is its batched variant for fine-grained work.
//!
//! The crate sits at the bottom of the workspace (only the vendored
//! `crossbeam` below it) so that `pscd-workload` and `pscd-topology` can
//! parallelize generation without depending on the simulator;
//! `pscd_sim::pool` re-exports it under the pre-existing path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod spans {
    //! Opt-in per-task span collection for pool jobs.
    //!
    //! The pool sits below `pscd-obs` in the workspace, so it cannot emit
    //! into a [`TraceSink`](https://docs.rs) directly; instead this module
    //! keeps a tiny global store of [`TaskSpan`]s that a driver enables
    //! around a cold-path phase ([`enable`] with the sink's epoch,
    //! [`set_phase`] per fan-out) and drains back out ([`disable`]) to
    //! convert into whatever timeline format it likes. When disabled —
    //! the default, and the state every simulation run sees — the only
    //! cost at a job boundary is one relaxed atomic load: no clock reads,
    //! no locks, no allocation.
    //!
    //! Timestamps are nanoseconds since the caller-supplied epoch so the
    //! spans line up with other tracks recorded against the same epoch.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// One pool job execution: which worker ran which job index of which
    /// phase, and when (nanoseconds since the [`enable`] epoch).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TaskSpan {
        /// The phase label current at [`set_phase`] time.
        pub phase: String,
        /// Worker index within the pool (`0..threads`).
        pub worker: usize,
        /// Job index within the fan-out (`0..jobs`).
        pub job: usize,
        /// Job start, ns since the epoch.
        pub start_ns: u64,
        /// Job end, ns since the epoch.
        pub end_ns: u64,
    }

    struct State {
        epoch: Instant,
        phase: String,
        spans: Vec<TaskSpan>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<State>> = Mutex::new(None);

    /// Starts collecting task spans, timestamped relative to `epoch`.
    ///
    /// Collection is process-global (the pool's fan-outs are themselves
    /// global); drivers enable it around the cold path, not inside
    /// replay. Re-enabling discards anything previously collected.
    pub fn enable(epoch: Instant) {
        let mut state = STATE.lock().expect("span state poisoned");
        *state = Some(State {
            epoch,
            phase: String::from("pool"),
            spans: Vec::new(),
        });
        ENABLED.store(true, Ordering::Release);
    }

    /// Labels all subsequently recorded spans with `label` (e.g.
    /// `"cold.generate.news"`). No-op while disabled.
    pub fn set_phase(label: &str) {
        if !is_enabled() {
            return;
        }
        if let Some(state) = STATE.lock().expect("span state poisoned").as_mut() {
            state.phase.clear();
            state.phase.push_str(label);
        }
    }

    /// Whether task spans are being collected right now.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Stops collecting and returns everything recorded since [`enable`].
    pub fn disable() -> Vec<TaskSpan> {
        ENABLED.store(false, Ordering::Release);
        let mut state = STATE.lock().expect("span state poisoned");
        state.take().map(|s| s.spans).unwrap_or_default()
    }

    /// Records one executed job. Called by the pool with timestamps taken
    /// around `f(i)`; silently dropped if collection was disabled in
    /// between.
    pub(crate) fn record(worker: usize, job: usize, start: Instant, end: Instant) {
        if let Some(state) = STATE.lock().expect("span state poisoned").as_mut() {
            let start_ns = start.saturating_duration_since(state.epoch).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(state.epoch).as_nanos() as u64;
            state.spans.push(TaskSpan {
                phase: state.phase.clone(),
                worker,
                job,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Runs `f`, recording it as `(worker, job)` when collection is on.
    #[inline]
    pub(crate) fn run_timed<T>(worker: usize, job: usize, f: impl FnOnce() -> T) -> T {
        if !is_enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        record(worker, job, start, Instant::now());
        out
    }
}

/// Resolves a requested thread count against the number of independent
/// jobs: `0` means "auto" (the machine's available parallelism), any
/// explicit count is honored as-is (oversubscription included — the
/// differential tests rely on `threads = 4` exercising the sharded path
/// even on a single-core runner), and the result never exceeds `jobs`
/// (extra threads would idle) or drops below 1.
///
/// # Examples
///
/// ```
/// use pscd_pool::effective_threads;
///
/// assert_eq!(effective_threads(1, 100), 1);
/// assert_eq!(effective_threads(4, 100), 4);
/// assert_eq!(effective_threads(4, 3), 3);
/// assert_eq!(effective_threads(0, 0), 1);
/// assert!(effective_threads(0, 100) >= 1);
/// ```
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let base = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    base.min(jobs).max(1)
}

/// Computes `f(0), f(1), …, f(jobs - 1)` on up to `threads` worker
/// threads and returns the results **in index order**, regardless of
/// which worker computed what when.
///
/// Workers claim indices from a shared atomic counter (work stealing), so
/// uneven job sizes balance themselves. `threads` is resolved through
/// [`effective_threads`] (`0` = auto); with one effective thread or fewer
/// than two jobs everything runs inline on the caller's thread — the
/// sequential path stays allocation- and synchronization-free. Otherwise
/// the calling thread is worker 0 beside `threads − 1` spawned scoped
/// threads, so a fan-out costs one thread (and one malloc arena) fewer
/// than it has workers, and the caller never idles while they run.
///
/// A panicking job propagates the panic to the caller (std scoped-thread
/// semantics).
///
/// # Examples
///
/// ```
/// use pscd_pool::parallel_indexed;
///
/// let squares = parallel_indexed(5, 4, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn parallel_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads, jobs);
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(|i| spans::run_timed(0, i, || f(i))).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let work = |w: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        let out = spans::run_timed(w, i, || f(i));
        *slots[i].lock().expect("slot poisoned") = Some(out);
    };
    crossbeam::thread::scope(|scope| {
        let work = &work;
        for w in 1..threads {
            scope.spawn(move |_| work(w));
        }
        work(0);
    })
    .expect("shim scope never errors");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Splits `0..len` into contiguous chunks of at most `chunk` items, maps
/// each chunk through `f` on up to `threads` workers, and concatenates
/// the per-chunk outputs **in chunk order**.
///
/// This is the shape of the cold path's fine-grained fan-outs: thousands
/// of per-entity jobs far too small to schedule individually. The chunk
/// size is part of the call site's contract, *not* derived from the
/// thread count, so the chunk boundaries — and therefore any per-chunk
/// RNG substreams — are identical at every thread count.
///
/// With one effective thread (`threads = 1`, or `0` = auto on a
/// single-core machine) everything runs inline on the caller's thread.
///
/// # Examples
///
/// ```
/// use pscd_pool::parallel_chunked;
///
/// let out = parallel_chunked(10, 4, 2, |range| range.collect::<Vec<_>>());
/// assert_eq!(out, (0..10).collect::<Vec<_>>());
/// ```
pub fn parallel_chunked<T, F>(len: usize, chunk: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let chunk = chunk.max(1);
    let jobs = len.div_ceil(chunk);
    if jobs <= 1 {
        return f(0..len);
    }
    let parts = parallel_indexed(jobs, threads, |j| {
        let start = j * chunk;
        f(start..(start + chunk).min(len))
    });
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Runs `producer` concurrently with `consumers` consumer closures and
/// returns the consumers' outputs in index order.
///
/// Unlike [`parallel_indexed`], which inlines everything when it has one
/// job or one thread, this shape **always** puts the producer on its own
/// scoped thread: the point of a producer/consumer pipeline is overlap
/// (and, for a bounded handoff queue, deadlock-freedom — an inlined
/// producer could never fill the queue the inlined consumer is waiting
/// on). Consumer `0` runs on the calling thread; consumers `1..` get
/// scoped threads of their own. The call returns once the producer and
/// every consumer have finished, and propagates any panic.
pub fn producer_consumers<P, C, T>(producer: P, consumers: usize, consume: C) -> Vec<T>
where
    P: FnOnce() + Send,
    C: Fn(usize) -> T + Sync,
    T: Send,
{
    let consumers = consumers.max(1);
    let slots: Vec<Mutex<Option<T>>> = (0..consumers).map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        let (slots, consume) = (&slots, &consume);
        scope.spawn(move |_| producer());
        for (j, slot) in slots.iter().enumerate().skip(1) {
            scope.spawn(move |_| {
                *slot.lock().expect("slot poisoned") = Some(consume(j));
            });
        }
        *slots[0].lock().expect("slot poisoned") = Some(consume(0));
    })
    .expect("shim scope never errors");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every consumer ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 9] {
            let out = parallel_indexed(17, threads, |i| i * 3);
            assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = parallel_indexed(0, 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn the_caller_is_worker_zero() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        // Job 0 waits until job 1 has run, so the two jobs cannot share a
        // thread: one runs on the caller, the other on the one spawned
        // worker.
        let caller = thread::current().id();
        let done = std::sync::atomic::AtomicBool::new(false);
        let ids: Vec<ThreadId> = parallel_indexed(2, 2, |i| {
            if i == 0 {
                while !done.load(Ordering::Acquire) {
                    thread::yield_now();
                }
            } else {
                done.store(true, Ordering::Release);
            }
            thread::current().id()
        });
        assert!(ids.contains(&caller), "no job ran on the caller: {ids:?}");
        assert_ne!(ids[0], ids[1]);
        // Uneven jobs over three workers: at most two threads besides the
        // caller ever run one.
        let spawned: HashSet<ThreadId> = parallel_indexed(12, 3, |i| {
            thread::sleep(std::time::Duration::from_millis(i as u64 % 3));
            thread::current().id()
        })
        .into_iter()
        .filter(|id| *id != caller)
        .collect();
        assert!(spawned.len() <= 2, "{} spawned threads", spawned.len());
    }

    #[test]
    fn oversubscription_is_fine() {
        // More threads than jobs: the extra workers find the counter
        // exhausted and exit.
        let out = parallel_indexed(2, 64, |i| i + 1);
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn task_spans_capture_every_job_when_enabled() {
        // Collection is process-global, so a fan-out of another test
        // running concurrently records under this phase too, with job
        // numbers and worker indexes of its own: assert that a span of
        // ours is present, not that every span with our label is ours.
        spans::enable(std::time::Instant::now());
        spans::set_phase("test.fanout");
        let out = parallel_indexed(6, 3, |i| i + 10);
        let recorded = spans::disable();
        assert_eq!(out, [10, 11, 12, 13, 14, 15]);
        for job in 0..6 {
            let ours = recorded.iter().any(|s| {
                s.job == job && s.phase == "test.fanout" && s.worker < 3 && s.end_ns >= s.start_ns
            });
            assert!(ours, "job {job} missing from {recorded:?}");
        }
        // Disabled again: nothing records, nothing to drain.
        let _ = parallel_indexed(3, 2, |i| i);
        assert!(spans::disable().is_empty());
        assert!(!spans::is_enabled());
    }

    #[test]
    fn producer_runs_concurrently_with_consumers() {
        use std::sync::mpsc;
        // A rendezvous: each consumer blocks until the producer sends it a
        // value, which can only work if the producer really runs on its
        // own thread while consumers wait.
        for consumers in [1, 3] {
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..consumers).map(|_| mpsc::channel::<usize>()).unzip();
            let receivers: Vec<Mutex<mpsc::Receiver<usize>>> =
                receivers.into_iter().map(Mutex::new).collect();
            let out = producer_consumers(
                move || {
                    for (j, tx) in senders.iter().enumerate() {
                        tx.send(j * 7).expect("consumer alive");
                    }
                },
                consumers,
                |j| {
                    receivers[j]
                        .lock()
                        .expect("receiver lock")
                        .recv()
                        .expect("producer sends one value per consumer")
                },
            );
            assert_eq!(out, (0..consumers).map(|j| j * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        assert_eq!(effective_threads(3, 2), 2);
        assert_eq!(effective_threads(0, 1), 1);
        let auto = effective_threads(0, 1_000);
        assert!(auto >= 1);
        // Explicit counts may oversubscribe the machine.
        assert_eq!(effective_threads(16, 1_000), 16);
    }
}
