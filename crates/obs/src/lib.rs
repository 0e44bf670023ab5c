//! Structured event tracing, decision audit and hot-path timing for the
//! `pscd` simulator.
//!
//! The simulator's answers — hit ratios, traffic totals — say *what*
//! happened; this crate records *why*: which pages a strategy evicted and
//! at what value, how often the adaptive dual caches relabeled storage,
//! where pushed bytes actually went. It has three layers:
//!
//! * [`Observer`] — a trait with typed hooks for every decision point in
//!   the pipeline (publish, notify, request, push, admit, evict, relabel,
//!   crash/restart, invalidate). Hooks have empty `#[inline]` defaults
//!   and an associated `const ENABLED`; with the default [`NullObserver`]
//!   (`ENABLED = false`) every instrumented call site monomorphizes back
//!   to the uninstrumented code, so observation is zero-cost when off.
//! * Shipped observers: [`StatsObserver`] aggregates the stream into a
//!   [`Registry`] (constant memory), [`JsonlObserver`] logs one JSON
//!   object per event for offline analysis. Observers compose: a tuple
//!   `(A, B)` tees the stream, `Option<O>` gates it at runtime.
//! * [`Registry`] — in-process metrics: named counters, byte counters and
//!   [`Log2Histogram`]s (order-of-magnitude distributions of eviction
//!   values and page sizes).
//! * [`TraceSink`] / [`TraceRecorder`] / [`TraceLog`] — the one span
//!   store: nested, monotonic-timestamped, per-track span events (with
//!   per-label totals for reports), merged across shards like the
//!   registry monoid and exported as Chrome trace-event
//!   JSON by [`chrome::render_chrome_trace`] (load the file in
//!   `chrome://tracing` or Perfetto). Zero-cost when the sink is
//!   disabled.
//!
//! Within one shard of a simulation run everything is single-threaded,
//! so components share one observer through [`SharedObserver`]
//! (`Rc<RefCell<_>>`); caches and strategies hold a per-proxy
//! [`ObsHandle`] that stamps decision events with their
//! [`ServerId`](pscd_types::ServerId). Sharded runs give every shard a
//! fresh observer and fold them back together in shard order through
//! [`MergeableObserver::absorb`] — integer totals (hits, misses, bytes)
//! merge exactly, which is what the `repro --obs-dir` audit hard-checks
//! against the simulator's own accounting.
//!
//! # Examples
//!
//! ```
//! use pscd_obs::{Observer, SharedObserver, StatsObserver, EvictReason};
//! use pscd_types::{Bytes, PageId, ServerId, SimTime};
//!
//! let shared = SharedObserver::new(StatsObserver::new());
//! let handle = shared.handle(ServerId::new(2));
//! shared.request(SimTime::ZERO, ServerId::new(2), PageId::new(9), Bytes::new(800), false);
//! handle.evict(PageId::new(4), Bytes::new(500), 1.25, EvictReason::Access);
//! drop(handle); // release the last other clone before unwrapping
//! let stats = shared.try_unwrap().unwrap();
//! assert_eq!(stats.requests(), 1);
//! assert_eq!(stats.registry().counter("evict.access"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod jsonl;
mod observer;
mod registry;
mod stats;
mod trace;

pub use chrome::{chrome_trace_to_string, render_chrome_trace};
pub use jsonl::{JsonlObserver, BUF_CAP};
pub use observer::{
    AdmitOrigin, EvictReason, MergeableObserver, NullObserver, ObsHandle, Observer,
    RelabelDirection, SharedObserver,
};
pub use registry::{Log2Histogram, Registry};
pub use stats::{StatsObserver, K_PUSH_TRANSFERS, K_REQUEST_HITS, K_REQUEST_MISSES};
pub use trace::{OpenSpan, SpanEvent, TraceLog, TraceRecorder, TraceSink, Track};
