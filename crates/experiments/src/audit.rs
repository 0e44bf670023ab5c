//! Instrumented audit replays: re-run a lineup of strategies serially
//! with observers attached, cross-check the observers' aggregate totals
//! against each [`SimResult`](pscd_sim::SimResult), and write the
//! artifacts — `summary.txt` plus, on request, one
//! `events_<strategy>.jsonl` structured event log per strategy.
//!
//! This powers `repro <exhibit> --obs-dir DIR [--events]`. With `--events`
//! the replay is deliberately serial (one strategy at a time, one shard):
//! the goal is a faithful, ordered decision log, not throughput. Without
//! `--events` the replay goes through the sharded runner at the
//! context's thread count, and the hard-check then verifies that the
//! shard-merged registry totals equal the `SimResult` exactly.

use std::fmt;
use std::path::{Path, PathBuf};

use pscd_core::StrategyKind;
use pscd_obs::{JsonlObserver, SharedObserver, StatsObserver, TraceLog, TraceSink};
use pscd_sim::{Replay, SimOptions, Simulation};

use crate::{ExperimentContext, ExperimentError, Trace};

/// One strategy's instrumented replay.
#[derive(Debug)]
pub struct AuditRow {
    /// Paper name of the strategy.
    pub strategy: String,
    /// Requests served (cross-checked against the observer's hit + miss
    /// counters).
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Pages pushed publisher→proxy (cross-checked against the observer's
    /// transfer counter).
    pub pushed_pages: u64,
    /// The full [`StatsObserver`] summary for this run.
    pub summary: String,
    /// Where the event log went (only with `events`).
    pub events_path: Option<PathBuf>,
    /// Number of events in the log.
    pub events_written: u64,
}

/// The decision audit of one exhibit lineup: per-strategy observed
/// replays plus wall-clock spans, rendered into `summary.txt`.
#[derive(Debug)]
pub struct ObsAudit {
    /// The trace replayed (the paper's NEWS trace).
    pub trace: Trace,
    /// Per-proxy capacity fraction of the replay.
    pub capacity: f64,
    /// One row per strategy, in lineup order.
    pub rows: Vec<AuditRow>,
    /// Wall-clock spans: the context's cold-path phases, then one per
    /// strategy.
    pub timing: TraceLog,
}

impl ObsAudit {
    /// Replays `kinds` on the NEWS trace at `capacity` with a
    /// [`StatsObserver`] (and, with `events`, a tee'd [`JsonlObserver`])
    /// attached, writes `summary.txt` and the event logs into `dir`, and
    /// fails if any observer total disagrees with its `SimResult`.
    ///
    /// Without `events` the replay runs through the sharded path at
    /// [`ExperimentContext::threads`], so the hard-check exercises the
    /// deterministic shard merge; with `events` it stays serial so the
    /// decision log is a single ordered stream.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Io`] when `dir` or a file in it cannot
    /// be written, [`ExperimentError::ObserverMismatch`] when an observer
    /// total disagrees with the simulation's own accounting, and
    /// propagates simulation errors.
    pub fn run(
        ctx: &ExperimentContext,
        kinds: &[StrategyKind],
        capacity: f64,
        dir: &Path,
        events: bool,
    ) -> Result<Self, ExperimentError> {
        Self::run_traced(ctx, kinds, capacity, dir, events, &TraceSink::disabled())
    }

    /// [`run`](Self::run) with timeline tracing: the sharded replays
    /// record per-shard tracks into `sink` (see `repro --trace`). Only
    /// the non-`events` path shards, so only it traces; a disabled sink
    /// makes this exactly `run`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced(
        ctx: &ExperimentContext,
        kinds: &[StrategyKind],
        capacity: f64,
        dir: &Path,
        events: bool,
        sink: &TraceSink,
    ) -> Result<Self, ExperimentError> {
        let io_err = |what: &Path, e: std::io::Error| {
            ExperimentError::Io(format!("{}: {e}", what.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let trace = Trace::News;
        let compiled = ctx.compiled(trace, 1.0)?;
        let mut rows = Vec::new();
        // Lead the report with the cold-path phase spans (generation,
        // costs, subscriptions, compilation) so the audit shows where
        // setup time went before any strategy replay span.
        let mut timing = ctx.cold_timing();
        let replays = TraceSink::enabled();
        let mut rec = replays.recorder("audit");
        for &kind in kinds {
            let (result, stats, events_path, events_written) = if events {
                let events_path = dir.join(format!("events_{}.jsonl", slug(kind.name())));
                let jsonl =
                    JsonlObserver::to_file(&events_path).map_err(|e| io_err(&events_path, e))?;
                let obs = SharedObserver::new((StatsObserver::new(), Some(jsonl)));
                let options = SimOptions::at_capacity(kind, capacity);
                let result = rec.span(kind.name(), || {
                    Simulation::from_compiled_observed(
                        &compiled,
                        ctx.costs(),
                        &options,
                        obs.clone(),
                    )
                    .map(Simulation::run)
                })?;
                let (stats, jsonl) = obs
                    .try_unwrap()
                    .expect("the finished simulation holds no observer clones");
                let events_written = jsonl.as_ref().map_or(0, JsonlObserver::events_written);
                drop(jsonl); // flushes the event log
                (result, stats, Some(events_path), events_written)
            } else {
                let options = SimOptions::at_capacity(kind, capacity).with_threads(ctx.threads());
                let replay = Replay::compiled(&compiled, ctx.costs()).traced(sink);
                let (result, stats) = rec
                    .span(kind.name(), || {
                        replay.run_observed::<StatsObserver>(&[options])
                    })?
                    .remove(0);
                (result, stats, None, 0)
            };
            check(
                &result.strategy,
                "requests",
                stats.requests(),
                result.requests,
            )?;
            check(&result.strategy, "hits", stats.hits(), result.hits)?;
            check(
                &result.strategy,
                "pushed pages",
                stats.push_transfers(),
                result.traffic.pushed_pages,
            )?;
            check(
                &result.strategy,
                "pushed bytes",
                stats.registry().bytes("bytes.pushed"),
                result.traffic.pushed_bytes.as_u64(),
            )?;
            check(
                &result.strategy,
                "fetched bytes",
                stats.registry().bytes("bytes.fetched"),
                result.traffic.fetched_bytes.as_u64(),
            )?;
            rows.push(AuditRow {
                strategy: result.strategy,
                requests: result.requests,
                hits: result.hits,
                pushed_pages: result.traffic.pushed_pages,
                summary: stats.summary(),
                events_path,
                events_written,
            });
        }
        rec.flush();
        timing.absorb(replays.drain());
        let audit = Self {
            trace,
            capacity,
            rows,
            timing,
        };
        let summary_path = dir.join("summary.txt");
        std::fs::write(&summary_path, audit.to_string()).map_err(|e| io_err(&summary_path, e))?;
        Ok(audit)
    }
}

impl fmt::Display for ObsAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# decision audit: {} trace, capacity {:.0}%, SQ = 1\n",
            self.trace.name(),
            self.capacity * 100.0
        )?;
        for row in &self.rows {
            writeln!(f, "== {} ==", row.strategy)?;
            writeln!(
                f,
                "sim result: requests {}  hits {}  pushed_pages {}  (observer totals verified)",
                row.requests, row.hits, row.pushed_pages
            )?;
            if let Some(path) = &row.events_path {
                writeln!(
                    f,
                    "event log: {} ({} events)",
                    path.display(),
                    row.events_written
                )?;
            }
            writeln!(f, "{}", row.summary)?;
        }
        // Aggregated by label: a phase that ran N times (e.g. one
        // `cold.compile` per cache miss) prints one row with its total and
        // count instead of N look-alike rows.
        writeln!(f, "== timing ==")?;
        if !self.timing.is_empty() {
            writeln!(f, "spans:")?;
        }
        for (label, total, count) in self.timing.span_totals() {
            let ms = total.as_secs_f64() * 1e3;
            if count == 1 {
                writeln!(f, "  {label:<40} {ms:>12.3} ms")?;
            } else {
                writeln!(f, "  {label:<40} {ms:>12.3} ms  (x{count})")?;
            }
        }
        Ok(())
    }
}

/// A filesystem-safe lowercase slug of a strategy name
/// (`"DC-LAP"` → `dc_lap`, `"GD*"` → `gdstar`).
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        match c {
            '*' => out.push_str("star"),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            _ => out.push('_'),
        }
    }
    out
}

fn check(strategy: &str, what: &str, observed: u64, simulated: u64) -> Result<(), ExperimentError> {
    if observed == simulated {
        Ok(())
    } else {
        Err(ExperimentError::ObserverMismatch {
            strategy: strategy.to_owned(),
            detail: format!("{what}: observer saw {observed}, simulation counted {simulated}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("GD*"), "gdstar");
        assert_eq!(slug("DC-LAP"), "dc_lap");
        assert_eq!(slug("SG2"), "sg2");
        assert_eq!(slug("SUB"), "sub");
    }

    #[test]
    fn timing_prints_one_row_per_label() {
        let span = |label: &str| pscd_obs::SpanEvent {
            label: label.into(),
            start_ns: 0,
            dur_ns: 1_000_000,
            detail: None,
        };
        let mut timing = TraceLog::new();
        timing.add_events("cold", vec![span("cold.compile"), span("cold.compile")]);
        timing.add_events("audit", vec![span("SG2")]);
        let audit = ObsAudit {
            trace: Trace::News,
            capacity: 0.05,
            rows: Vec::new(),
            timing,
        };
        let text = audit.to_string();
        assert!(text.contains("2.000 ms  (x2)"), "{text}");
        assert_eq!(text.matches("cold.compile").count(), 1, "{text}");
        assert!(text.find("SG2") < text.find("cold.compile"), "label order");
    }

    #[test]
    fn audit_writes_artifacts_and_totals_match() {
        let ctx = ExperimentContext::scaled(0.003, 0, TraceSink::disabled()).unwrap();
        let dir = std::env::temp_dir().join(format!("pscd_audit_{}", std::process::id()));
        let kinds = [
            StrategyKind::GdStar { beta: 2.0 },
            StrategyKind::Sg2 { beta: 2.0 },
        ];
        let audit = ObsAudit::run(&ctx, &kinds, 0.05, &dir, true).unwrap();
        assert_eq!(audit.rows.len(), 2);
        for row in &audit.rows {
            assert!(row.requests > 0);
            assert!(row.events_written > 0);
            let log = std::fs::read_to_string(row.events_path.as_ref().unwrap()).unwrap();
            let lines: Vec<&str> = log.lines().collect();
            assert_eq!(lines.len(), row.events_written as usize);
            assert!(lines[0].starts_with("{\"seq\":0,"));
        }
        // SG2 pushes; its log must contain push events, GD*'s none.
        let sg2 = &audit.rows[1];
        assert!(sg2.pushed_pages > 0);
        let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(summary.contains("== GD* =="));
        assert!(summary.contains("== SG2 =="));
        assert!(summary.contains("observer totals verified"));
        assert!(summary.contains("== timing =="));
        // Cold-path phase spans lead, one replay span per strategy follows.
        assert!(summary.contains("cold.generate.news"));
        assert!(summary.contains("cold.compile"));
        let labels: Vec<&str> = audit.timing.spans().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.last(), Some(&"SG2"));
        assert_eq!(labels.iter().filter(|l| !l.starts_with("cold.")).count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_audit_matches_serial_audit() {
        // Without --events the audit replays through the sharded runner;
        // its hard-checked totals must equal the serial tee run's.
        let serial_ctx = ExperimentContext::scaled(0.003, 1, TraceSink::disabled()).unwrap();
        let sharded_ctx = ExperimentContext::scaled(0.003, 4, TraceSink::disabled()).unwrap();
        let base = std::env::temp_dir().join(format!("pscd_audit_shard_{}", std::process::id()));
        let kinds = [StrategyKind::Sg2 { beta: 2.0 }, StrategyKind::Sub];
        let serial = ObsAudit::run(&serial_ctx, &kinds, 0.05, &base.join("serial"), false).unwrap();
        let sharded =
            ObsAudit::run(&sharded_ctx, &kinds, 0.05, &base.join("shard"), false).unwrap();
        assert_eq!(serial.rows.len(), sharded.rows.len());
        for (a, b) in serial.rows.iter().zip(&sharded.rows) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.pushed_pages, b.pushed_pages);
            assert!(b.events_path.is_none());
        }
        assert!(base.join("shard/summary.txt").exists());
        std::fs::remove_dir_all(&base).ok();
    }
}
