//! Shared experiment inputs: the two traces, the fetch costs, and the
//! resolver that builds every source an exhibit replays.

use std::borrow::Cow;
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

/// What a replay's events come from: a trace's workload under a seed and
/// a Zipf–Mandelbrot shift, and a subscription table over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceKey {
    /// The trace whose configuration the workload follows.
    pub trace: Trace,
    /// The workload's master seed.
    pub seed: u64,
    /// The popularity head's `RequestConfig::zipf_shift`.
    pub shift: f64,
    /// The subscription quality (`Workload::subscriptions`).
    pub quality: f64,
    /// The share of requested (page, proxy) pairs that has subscriptions;
    /// below 1, `Workload::subscriptions_partial` draws which.
    pub coverage: f64,
}

/// Everything the experiment drivers need: both traces plus the
/// topology-derived fetch costs, generated once and shared, and the
/// resolver ([`resolve`](Self::resolve)) that builds every source.
#[derive(Debug)]
pub struct ExperimentContext {
    news: Workload,
    alternative: Workload,
    costs: FetchCosts,
    threads: usize,
    /// The compiled trace of each trace's [`base`](Self::base) source,
    /// which most exhibits replay: compiled once and kept.
    compiled: Mutex<HashMap<Trace, Arc<CompiledTrace>>>,
    /// Where the cold-path phases record their spans, on the `cold`
    /// track: the `repro --trace` sink when it is live, otherwise a
    /// private live one, so audit reports show where setup time went.
    cold: TraceSink,
}

/// The track the cold-path phases record on.
const COLD_TRACK: &str = "cold";

impl ExperimentContext {
    /// Both traces at `factor` of the paper's scale (`1.0` = 30,147
    /// pages, ~195k requests, 100 proxies, BRITE-style Waxman topology).
    ///
    /// The cold path (generation now, [`resolve`](Self::resolve) later)
    /// and every replay run on up to `threads` pool workers (`0` = auto,
    /// `1` = serial), a pure speed knob: every value is bit-identical at
    /// any setting. Each cold phase records a span for
    /// [`cold_timing`](Self::cold_timing), into `sink` when it is live,
    /// else into a private sink, and labels the pool's task spans.
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

    /// The paper's setting of one trace: the context's own workload (its
    /// seed, its shift) with every request pair subscribed at quality 1.
    pub fn base(&self, trace: Trace) -> SourceKey {
        let config = self.workload(trace).config();
        SourceKey {
            trace,
            seed: config.seed,
            shift: config.requests.zipf_shift,
            quality: 1.0,
            coverage: 1.0,
        }
    }

    /// The workload and subscription table of a source: the context's own
    /// workload if the key's seed and shift are its own, else one
    /// regenerated (a `cold.generate.*` span), and the key's table (a
    /// `cold.subscriptions` span).
    ///
    /// # Errors
    ///
    /// Propagates generation failures, such as a quality out of range.
    pub fn generate(
        &self,
        key: &SourceKey,
    ) -> Result<(Cow<'_, Workload>, SubscriptionTable), ExperimentError> {
        let own = self.workload(key.trace);
        let base = self.base(key.trace);
        let workload = if (key.seed, key.shift) == (base.seed, base.shift) {
            Cow::Borrowed(own)
        } else {
            let mut config = own.config().clone().with_seed(key.seed);
            config.requests.zipf_shift = key.shift;
            let span = format!("cold.generate.{}", key.trace.name().to_lowercase());
            Cow::Owned(phase(&self.cold, &span, || {
                Workload::generate_threads(&config, self.threads)
            })?)
        };
        let subs = phase(&self.cold, "cold.subscriptions", || {
            match key.coverage < 1.0 {
                true => workload.subscriptions_partial(key.quality, key.coverage),
                false => workload.subscriptions_threads(key.quality, self.threads),
            }
        })?;
        Ok((workload, subs))
    }

    /// The compiled trace of a source, the one place an experiment
    /// generates or compiles: a [`base`](Self::base) key is compiled once
    /// and cached, any other [generated](Self::generate) and compiled (a
    /// `cold.compile` span) per call, for the caller to drop. Compiling
    /// happens outside the lock; racing callers of a cold base key may
    /// both compile, and both get the first value.
    ///
    /// # Errors
    ///
    /// Propagates generation and compilation failures.
    pub fn resolve(&self, key: &SourceKey) -> Result<Arc<CompiledTrace>, ExperimentError> {
        let cached = *key == self.base(key.trace);
        let cache = || self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache().get(&key.trace).filter(|_| cached) {
            return Ok(Arc::clone(hit));
        }
        let (workload, subs) = self.generate(key)?;
        let compiled = Arc::new(phase(&self.cold, "cold.compile", || {
            CompiledTrace::compile_threads(&workload, &subs, self.threads)
        })?);
        if !cached {
            return Ok(compiled);
        }
        Ok(Arc::clone(cache().entry(key.trace).or_insert(compiled)))
    }

    /// [`resolve`](Self::resolve) of the base key of `trace` at a
    /// subscription quality: quality 1 is cached, any other is not.
    ///
    /// # Errors
    ///
    /// Returns an error for qualities outside `(0, 1]`.
    pub fn compiled(
        &self,
        trace: Trace,
        quality: f64,
    ) -> Result<Arc<CompiledTrace>, ExperimentError> {
        self.resolve(&SourceKey {
            quality,
            ..self.base(trace)
        })
    }

    /// The shared per-proxy fetch costs.
    pub fn costs(&self) -> &FetchCosts {
        &self.costs
    }

    /// A snapshot of the cold-path phase timings recorded so far:
    /// `cold.generate.*` and `cold.costs` from construction, then the
    /// spans of every source built since, as the one `cold` track of a
    /// [`TraceLog`]. Audits lead their timing report with it.
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
        let at = |quality| SourceKey {
            quality,
            ..ctx.base(Trace::News)
        };
        assert!(ctx.generate(&at(0.5)).is_ok());
        assert!(ctx.generate(&at(0.0)).is_err());
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
        // A regenerated workload times its generation too.
        ctx.resolve(&SourceKey {
            shift: 0.0,
            ..ctx.base(Trace::News)
        })
        .unwrap();
        let regenerated = labels(&ctx.cold_timing());
        assert_eq!(regenerated.len(), after.len() + 3);
        assert_eq!(regenerated[after.len()], "cold.generate.news");
    }

    #[test]
    fn only_the_base_sources_are_cached() {
        let ctx = ExperimentContext::scaled(0.003, 0, TraceSink::disabled()).unwrap();
        let a = ctx.compiled(Trace::News, 1.0).unwrap();
        let b = ctx.resolve(&ctx.base(Trace::News)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the base key must hit the cache");
        let c = ctx.compiled(Trace::News, 0.5).unwrap();
        let again = ctx.compiled(Trace::News, 0.5).unwrap();
        assert!(
            !Arc::ptr_eq(&c, &again),
            "another quality is rebuilt per call"
        );
        assert_eq!(c, again);
        assert_ne!(a, c);
        let d = ctx.compiled(Trace::Alternative, 1.0).unwrap();
        assert!(!Arc::ptr_eq(&a, &d), "different trace is a new entry");
        let reseeded = SourceKey {
            seed: 1,
            ..ctx.base(Trace::News)
        };
        let (workload, _) = ctx.generate(&reseeded).unwrap();
        assert_eq!(workload.config().seed, 1);
        assert_ne!(*ctx.resolve(&reseeded).unwrap(), *a);
        assert_eq!(
            a.meta().server_count(),
            ctx.workload(Trace::News).server_count()
        );
        assert!(ctx.compiled(Trace::News, 0.0).is_err());
    }
}
