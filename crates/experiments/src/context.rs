//! Shared experiment inputs: the two traces, subscriptions, costs, and
//! the compiled-trace cache every exhibit's grid replays from.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use pscd_obs::{TraceLog, TraceSink};
use pscd_sim::trace::CompiledTrace;
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::SubscriptionTable;
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
    /// Compiled traces keyed by `(trace, quality.to_bits())`: each
    /// `(workload, subscription table)` pair is compiled exactly once and
    /// every grid cell of every exhibit replays the shared value.
    compiled: Mutex<HashMap<(Trace, u64), Arc<CompiledTrace>>>,
    /// Where the cold-path phases (workload generation, fetch costs,
    /// subscription synthesis, trace compilation) record their spans, on
    /// the `cold` track: the `repro --trace` sink when it is live,
    /// otherwise a private live one, so audit reports always show where
    /// setup time went.
    cold: TraceSink,
}

/// The track the cold-path phases record on.
const COLD_TRACK: &str = "cold";

impl ExperimentContext {
    /// Both traces at `factor` of the paper's scale (`1.0` = 30,147
    /// pages, ~195k requests, 100 proxies, BRITE-style Waxman topology).
    ///
    /// The entire cold path — workload generation now, subscription
    /// synthesis and trace compilation later in
    /// [`compiled`](Self::compiled) — and every sweep and audit run on up
    /// to `threads` pool workers (`0` = auto, `1` = serial). Purely a
    /// speed knob: every generated and compiled value, and so every
    /// exhibit, is bit-identical at any setting. Each phase records one
    /// span on the `cold` track for [`cold_timing`](Self::cold_timing),
    /// into `sink` when it is live and otherwise into a private sink, and
    /// keeps the worker pool's task-span phase label current, so
    /// per-chunk pool tasks attribute to the right phase.
    ///
    /// # Errors
    ///
    /// Propagates workload/topology generation failures (none occur for
    /// the built-in configurations).
    pub fn scaled(factor: f64, threads: usize, sink: TraceSink) -> Result<Self, ExperimentError> {
        let cold = if sink.is_enabled() {
            sink
        } else {
            TraceSink::enabled()
        };
        let news = phase(&cold, "cold.generate.news", || {
            Workload::generate_threads(&WorkloadConfig::news_scaled(factor), threads)
        })?;
        let alternative = phase(&cold, "cold.generate.alternative", || {
            Workload::generate_threads(&WorkloadConfig::alternative_scaled(factor), threads)
        })?;
        let costs = phase(&cold, "cold.costs", || {
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
            compiled: Mutex::new(HashMap::new()),
            cold,
        })
    }

    /// The worker-pool size sweeps and audits use (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
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
    /// taken only for the map lookup and the insert, so a caller compiling
    /// a cold key (seconds at paper scale) never blocks callers of other,
    /// already-warm keys. A panic elsewhere that poisons the lock leaves
    /// the map whole (each insert is one call), so a poisoned lock is
    /// taken as it is. Two callers racing on the same cold key may both
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
            let cache = self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(hit) = cache.get(&key) {
                return Ok(Arc::clone(hit));
            }
        }
        let workload = self.workload(trace);
        let subs = phase(&self.cold, "cold.subscriptions", || {
            workload.subscriptions_threads(quality, self.threads)
        })?;
        let compiled = Arc::new(phase(&self.cold, "cold.compile", || {
            CompiledTrace::compile_threads(workload, &subs, self.threads)
        })?);
        let mut cache = self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(cache.entry(key).or_insert(compiled)))
    }

    /// The shared per-proxy fetch costs.
    pub fn costs(&self) -> &FetchCosts {
        &self.costs
    }

    /// A snapshot of the cold-path phase timings recorded so far:
    /// `cold.generate.*` from construction, plus one
    /// `cold.subscriptions` / `cold.compile` span per compiled-cache
    /// miss, as the one `cold` track of a [`TraceLog`]. Audits lead their
    /// timing report with it.
    pub fn cold_timing(&self) -> TraceLog {
        let mut log = TraceLog::new();
        for track in self.cold.snapshot().tracks() {
            if track.name == COLD_TRACK {
                log.add_events(COLD_TRACK, track.events.clone());
            }
        }
        log
    }
}

/// Runs one cold-path phase: one span on `cold`'s `cold` track and the
/// pool's task-span phase label (a no-op unless `repro --trace` collects
/// task spans), both under the same name.
fn phase<T, E>(cold: &TraceSink, label: &str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    pscd_sim::pool::spans::set_phase(label);
    cold.recorder(COLD_TRACK).span(label, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_context_builds() {
        let ctx = ExperimentContext::scaled(0.005, 0, TraceSink::disabled()).unwrap();
        assert_eq!(ctx.workload(Trace::News).server_count(), 100);
        assert_eq!(ctx.costs().server_count(), 100);
        assert!(ctx.subscriptions(Trace::News, 1.0).is_ok());
        assert!(ctx.subscriptions(Trace::Alternative, 0.5).is_ok());
        assert!(ctx.subscriptions(Trace::News, 0.0).is_err());
        assert_eq!(Trace::News.name(), "NEWS");
        assert_eq!(Trace::Alternative.alpha(), 1.0);
        assert_eq!(ctx.threads(), 0);
    }

    #[test]
    fn cold_timing_records_phase_spans() {
        let ctx = ExperimentContext::scaled(0.003, 2, TraceSink::disabled()).unwrap();
        assert_eq!(ctx.threads(), 2);
        let labels =
            |log: &TraceLog| -> Vec<String> { log.spans().map(|s| s.label.clone()).collect() };
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
        assert_eq!(ctx.cold_timing().span_count(), after.len());
    }

    #[test]
    fn compiled_traces_are_cached_per_trace_and_quality() {
        let ctx = ExperimentContext::scaled(0.003, 0, TraceSink::disabled()).unwrap();
        let a = ctx.compiled(Trace::News, 1.0).unwrap();
        let b = ctx.compiled(Trace::News, 1.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        let c = ctx.compiled(Trace::News, 0.5).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different quality is a new entry");
        let d = ctx.compiled(Trace::Alternative, 1.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &d), "different trace is a new entry");
        assert_eq!(
            a.meta().server_count(),
            ctx.workload(Trace::News).server_count()
        );
        assert!(ctx.compiled(Trace::News, 0.0).is_err());
    }
}
