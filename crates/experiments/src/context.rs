//! Shared experiment inputs: the two traces, subscriptions, costs, and
//! the compiled-trace cache every exhibit's grid replays from.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use pscd_obs::{Registry, SharedRegistry, TraceSink};
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{PrefetchOptions, StreamingTrace};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::{SimTime, SubscriptionTable};
use pscd_workload::{Workload, WorkloadConfig};

use crate::ExperimentError;

/// The paper's capacity settings (§5.1): 1%, 5% and 10% of the unique
/// bytes requested per server.
pub const CAPACITIES: [f64; 3] = [0.01, 0.05, 0.10];

/// The paper's subscription-quality settings (§5.4).
pub const QUALITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The β values the paper tunes over (§5.1): 0.0625 … 4.
pub const BETAS: [f64; 7] = [0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

/// The β the paper selects for the NEWS trace (used by every GD\*-based
/// strategy in the headline experiments).
pub const PAPER_BETA: f64 = 2.0;

/// Which of the paper's two traces an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trace {
    /// α = 1.5 (news-like popularity).
    News,
    /// α = 1.0 (regular web popularity).
    Alternative,
}

impl Trace {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Trace::News => "NEWS",
            Trace::Alternative => "ALTERNATIVE",
        }
    }

    /// The trace's Zipf α.
    pub fn alpha(self) -> f64 {
        match self {
            Trace::News => 1.5,
            Trace::Alternative => 1.0,
        }
    }
}

/// Everything the experiment drivers need: both traces plus the
/// topology-derived fetch costs, generated once and shared.
#[derive(Debug)]
pub struct ExperimentContext {
    news: Workload,
    alternative: Workload,
    costs: FetchCosts,
    threads: usize,
    /// When set, [`compiled`](Self::compiled) builds each trace through
    /// the streaming window compiler ([`StreamingTrace`]) at this window
    /// size instead of the monolithic [`CompiledTrace::compile`]. The
    /// result is bit-identical (the streaming differential suite proves
    /// it), so every exhibit's CSV byte-compares across the two modes —
    /// the knob trades peak compile memory for window bookkeeping.
    stream_window: Option<SimTime>,
    /// When set alongside `stream_window`, the streaming compile runs
    /// through the pipelined prefetcher at this compile-ahead depth
    /// (`repro --prefetch`): the window producer overlaps the consuming
    /// concatenation. Bit-identical to the serial streaming compile.
    prefetch: Option<usize>,
    /// Compiled traces keyed by `(trace, quality.to_bits())`: each
    /// `(workload, subscription table)` pair is compiled exactly once and
    /// every grid cell of every exhibit replays the shared value.
    compiled: Mutex<HashMap<(Trace, u64), Arc<CompiledTrace>>>,
    /// Wall-clock spans of the cold-path phases (workload generation,
    /// fetch costs, subscription synthesis, trace compilation) — merged
    /// into audit reports so `--obs-dir` shows where setup time goes.
    cold: SharedRegistry,
    /// Timeline tracing sink (`repro --trace`): every cold phase records
    /// a span on the `cold` track, and the worker pool's per-task phase
    /// label follows the current phase. Disabled by default — recording
    /// then costs nothing.
    sink: TraceSink,
}

impl ExperimentContext {
    /// Full paper-scale context (30,147 pages, ~195k requests, 100
    /// proxies, BRITE-style Waxman topology).
    ///
    /// # Errors
    ///
    /// Propagates workload/topology generation failures (none occur for
    /// the built-in configurations).
    pub fn paper_scale() -> Result<Self, ExperimentError> {
        Self::scaled(1.0)
    }

    /// Proportionally scaled-down context for tests and benches;
    /// equivalent to [`scaled_threads`](Self::scaled_threads) with the
    /// auto thread count.
    ///
    /// # Errors
    ///
    /// Propagates workload/topology generation failures.
    pub fn scaled(factor: f64) -> Result<Self, ExperimentError> {
        Self::scaled_threads(factor, 0)
    }

    /// Scaled context whose entire cold path — workload generation now,
    /// subscription synthesis and trace compilation later in
    /// [`compiled`](Self::compiled) — runs on up to `threads` pool
    /// workers (`0` = auto, `1` = serial). Purely a speed knob: every
    /// generated and compiled value is bit-identical at any setting.
    /// Each phase's wall-clock span is recorded for
    /// [`cold_timing`](Self::cold_timing).
    ///
    /// # Errors
    ///
    /// Propagates workload/topology generation failures.
    pub fn scaled_threads(factor: f64, threads: usize) -> Result<Self, ExperimentError> {
        Self::scaled_threads_traced(factor, threads, TraceSink::disabled())
    }

    /// [`scaled_threads`](Self::scaled_threads) with timeline tracing:
    /// every cold-path phase (now and in later
    /// [`compiled`](Self::compiled) calls) records a span on the `cold`
    /// track of `sink`, and the worker pool's task-span phase label is
    /// kept current so per-chunk pool tasks attribute to the right phase.
    /// A disabled sink makes this exactly `scaled_threads`.
    ///
    /// # Errors
    ///
    /// Propagates workload/topology generation failures.
    pub fn scaled_threads_traced(
        factor: f64,
        threads: usize,
        sink: TraceSink,
    ) -> Result<Self, ExperimentError> {
        let cold = SharedRegistry::new();
        let news = phase(&cold, &sink, "cold.generate.news", || {
            Workload::generate_threads(&WorkloadConfig::news_scaled(factor), threads)
        })?;
        let alternative = phase(&cold, &sink, "cold.generate.alternative", || {
            Workload::generate_threads(&WorkloadConfig::alternative_scaled(factor), threads)
        })?;
        let costs = phase(&cold, &sink, "cold.costs", || {
            let topo = TopologyBuilder::new(news.server_count() as usize + 1)
                .seed(42)
                .build()?;
            FetchCosts::from_topology(&topo, 0).map_err(ExperimentError::from)
        })?;
        Ok(Self {
            news,
            alternative,
            costs,
            threads,
            stream_window: None,
            prefetch: None,
            compiled: Mutex::new(HashMap::new()),
            cold,
            sink,
        })
    }

    /// Sets the worker-pool size used by sweeps and audits: `0` = auto
    /// (machine parallelism, the default), `1` = serial, `n` = exactly
    /// `n` workers. Purely a speed knob — every exhibit is bit-identical
    /// at any setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker-pool size (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Routes every later [`compiled`](Self::compiled) call through the
    /// streaming window compiler at `window` (`repro --stream-window`).
    /// Purely a memory-shape knob: the compiled value is bit-identical
    /// to the monolithic path, so downstream exhibits are unchanged.
    #[must_use]
    pub fn with_stream_window(mut self, window: SimTime) -> Self {
        self.stream_window = Some(window);
        self
    }

    /// The streaming compile window, if one is configured.
    pub fn stream_window(&self) -> Option<SimTime> {
        self.stream_window
    }

    /// Routes the streaming compile through the pipelined prefetcher at
    /// compile-ahead depth `depth` (`repro --prefetch N`; clamped to at
    /// least 1). Only meaningful together with
    /// [`with_stream_window`](Self::with_stream_window). Purely a speed
    /// knob: the compiled value stays bit-identical, so every exhibit's
    /// CSV byte-compares across serial, streamed, and pipelined modes.
    #[must_use]
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch = Some(depth.max(1));
        self
    }

    /// The pipelined compile-ahead depth, if one is configured.
    pub fn prefetch(&self) -> Option<usize> {
        self.prefetch
    }

    /// The workload of one trace.
    pub fn workload(&self, trace: Trace) -> &Workload {
        match trace {
            Trace::News => &self.news,
            Trace::Alternative => &self.alternative,
        }
    }

    /// Subscription table of one trace at a target quality.
    ///
    /// # Errors
    ///
    /// Returns an error for qualities outside `(0, 1]`.
    pub fn subscriptions(
        &self,
        trace: Trace,
        quality: f64,
    ) -> Result<SubscriptionTable, ExperimentError> {
        Ok(self.workload(trace).subscriptions(quality)?)
    }

    /// The compiled trace of one workload at a target subscription
    /// quality — compiled on first use, cached for every later call, so a
    /// whole experiment suite pays the timeline merge/fan-out/lineage
    /// analysis exactly once per `(trace, quality)` pair no matter how
    /// many grids replay it.
    ///
    /// Compilation happens **outside** the cache lock: the memo `Mutex` is
    /// taken only for the map lookup and the insert (and, being `parking_lot`,
    /// cannot poison if a panic unwinds through a replay), so a caller compiling
    /// a cold key (seconds at paper scale) never blocks callers of other,
    /// already-warm keys. Two callers racing on the same cold key may both
    /// compile; the double-checked insert keeps the first value, every
    /// caller gets the same `Arc`, and sequential suites still compile each
    /// pair exactly once (asserted by the `compile_once` integration test).
    ///
    /// # Errors
    ///
    /// Returns an error for qualities outside `(0, 1]`.
    pub fn compiled(
        &self,
        trace: Trace,
        quality: f64,
    ) -> Result<Arc<CompiledTrace>, ExperimentError> {
        let key = (trace, quality.to_bits());
        {
            let cache = self.compiled.lock();
            if let Some(hit) = cache.get(&key) {
                return Ok(Arc::clone(hit));
            }
        }
        let workload = self.workload(trace);
        let compiled = if let Some(window) = self.stream_window {
            // Streaming mode: generate-and-compile one window at a time
            // from the workload config (subscriptions derive from the
            // counted per-page draws inside), then concatenate. Same
            // value, O(window) compile memory. With a prefetch depth the
            // compile-ahead producer generates and compiles windows on its
            // own thread while this one concatenates.
            let name = match self.prefetch {
                Some(_) => "cold.stream.pipelined",
                None => "cold.stream",
            };
            Arc::new(phase(&self.cold, &self.sink, name, || {
                StreamingTrace::new(workload.config(), quality, window, self.threads).map(|s| {
                    match self.prefetch {
                        Some(depth) => s.materialize_prefetched_traced(
                            &PrefetchOptions::new(depth),
                            &self.sink,
                        ),
                        None => s.materialize(),
                    }
                })
            })?)
        } else {
            let subs = phase(&self.cold, &self.sink, "cold.subscriptions", || {
                workload.subscriptions_threads(quality, self.threads)
            })?;
            Arc::new(phase(&self.cold, &self.sink, "cold.compile", || {
                CompiledTrace::compile_threads(workload, &subs, self.threads)
            })?)
        };
        let mut cache = self.compiled.lock();
        Ok(Arc::clone(cache.entry(key).or_insert(compiled)))
    }

    /// The shared per-proxy fetch costs.
    pub fn costs(&self) -> &FetchCosts {
        &self.costs
    }

    /// A snapshot of the cold-path phase timings recorded so far:
    /// `cold.generate.*` from construction, plus one
    /// `cold.subscriptions` / `cold.compile` span per compiled-cache
    /// miss. Audits merge this into their timing report.
    pub fn cold_timing(&self) -> Registry {
        self.cold.snapshot()
    }

    /// The timeline-tracing sink this context records cold phases into
    /// (disabled unless constructed via
    /// [`scaled_threads_traced`](Self::scaled_threads_traced)).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.sink
    }
}

/// Runs one cold-path phase: a registry span (for `cold_timing`), a trace
/// span on the `cold` track, and the pool's task-span phase label, all
/// under the same name. With a disabled sink this is exactly
/// `cold.time(label, f)`.
fn phase<T, E>(
    cold: &SharedRegistry,
    sink: &TraceSink,
    label: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    if sink.is_enabled() {
        pscd_sim::pool::spans::set_phase(label);
    }
    let mut rec = sink.recorder("cold");
    rec.span(label, || cold.time(label, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_context_builds() {
        let ctx = ExperimentContext::scaled(0.005).unwrap();
        assert_eq!(ctx.workload(Trace::News).server_count(), 100);
        assert_eq!(ctx.costs().server_count(), 100);
        assert!(ctx.subscriptions(Trace::News, 1.0).is_ok());
        assert!(ctx.subscriptions(Trace::Alternative, 0.5).is_ok());
        assert!(ctx.subscriptions(Trace::News, 0.0).is_err());
        assert_eq!(Trace::News.name(), "NEWS");
        assert_eq!(Trace::Alternative.alpha(), 1.0);
        assert_eq!(ctx.threads(), 0);
        assert_eq!(ctx.with_threads(2).threads(), 2);
    }

    #[test]
    fn cold_timing_records_phase_spans() {
        let ctx = ExperimentContext::scaled_threads(0.003, 2).unwrap();
        assert_eq!(ctx.threads(), 2);
        let labels = |reg: &Registry| -> Vec<String> {
            reg.spans().iter().map(|(l, _)| l.clone()).collect()
        };
        let before = labels(&ctx.cold_timing());
        assert!(before.contains(&"cold.generate.news".into()));
        assert!(before.contains(&"cold.generate.alternative".into()));
        assert!(before.contains(&"cold.costs".into()));
        ctx.compiled(Trace::News, 1.0).unwrap();
        let after = labels(&ctx.cold_timing());
        assert!(after.contains(&"cold.subscriptions".into()));
        assert!(after.contains(&"cold.compile".into()));
        // A cache hit re-derives nothing, so it times nothing.
        ctx.compiled(Trace::News, 1.0).unwrap();
        assert_eq!(ctx.cold_timing().spans().len(), after.len());
    }

    #[test]
    fn stream_window_compiles_identically() {
        let mono = ExperimentContext::scaled(0.003)
            .unwrap()
            .compiled(Trace::News, 1.0)
            .unwrap();
        let ctx = ExperimentContext::scaled(0.003)
            .unwrap()
            .with_stream_window(SimTime::from_hours(12));
        assert_eq!(ctx.stream_window(), Some(SimTime::from_hours(12)));
        let streamed = ctx.compiled(Trace::News, 1.0).unwrap();
        assert_eq!(*mono, *streamed);
        let labels: Vec<String> = ctx
            .cold_timing()
            .spans()
            .iter()
            .map(|(l, _)| l.clone())
            .collect();
        assert!(labels.contains(&"cold.stream".into()));
        assert!(!labels.contains(&"cold.compile".into()));
    }

    #[test]
    fn prefetched_stream_window_compiles_identically() {
        let mono = ExperimentContext::scaled(0.003)
            .unwrap()
            .compiled(Trace::News, 1.0)
            .unwrap();
        let ctx = ExperimentContext::scaled(0.003)
            .unwrap()
            .with_stream_window(SimTime::from_hours(12))
            .with_prefetch(2);
        assert_eq!(ctx.prefetch(), Some(2));
        let piped = ctx.compiled(Trace::News, 1.0).unwrap();
        assert_eq!(*mono, *piped);
        let labels: Vec<String> = ctx
            .cold_timing()
            .spans()
            .iter()
            .map(|(l, _)| l.clone())
            .collect();
        assert!(labels.contains(&"cold.stream.pipelined".into()));
        assert!(!labels.contains(&"cold.stream".into()));
        assert!(!labels.contains(&"cold.compile".into()));
    }

    #[test]
    fn compiled_traces_are_cached_per_trace_and_quality() {
        let ctx = ExperimentContext::scaled(0.003).unwrap();
        let a = ctx.compiled(Trace::News, 1.0).unwrap();
        let b = ctx.compiled(Trace::News, 1.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        let c = ctx.compiled(Trace::News, 0.5).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different quality is a new entry");
        let d = ctx.compiled(Trace::Alternative, 1.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &d), "different trace is a new entry");
        assert_eq!(a.server_count(), ctx.workload(Trace::News).server_count());
        assert!(ctx.compiled(Trace::News, 0.0).is_err());
    }
}
