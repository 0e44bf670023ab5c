//! `serve-durable`: the journaled live service under a closed loop.
//!
//! One client sends 256-event batches to `ServiceCore::ingest_all`, each
//! only after the previous one returned; the journal is on and the
//! harness calls `snapshot_now` every 391 batches (about 100 k events).
//! A round is: new service in a fresh directory, ingest, `flush`, drop
//! without shutdown (the kill), `recover`, `shutdown`. The same replay
//! layer as `replay-grid` sits under it, beside journal appends and
//! snapshot encodes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_obs::{TraceRecorder, TraceSink};
use pscd_service::{ServiceConfig, ServiceCore};
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions, SimResult};
use pscd_topology::FetchCosts;
use pscd_types::LiveEvent;
use pscd_workload::{Workload, WorkloadConfig};

use crate::harness::{
    max, median, quantile, result_counts, topology_costs, Bench, BenchResult, Config, Metrics, Ops,
    Round, RoundClock, SpanLog,
};

/// Volume relative to the paper's NEWS trace.
const SCALE: f64 = 4.0;
/// Events per `ingest_all` call: the client's batch.
pub const BATCH: usize = 256;
const SNAPSHOT_EVERY_BATCHES: usize = 391;
const CAPACITY: f64 = 0.05;

/// The in-memory service configuration that mirrors
/// `SimOptions::at_capacity(kind, 5 %)` over `trace`.
pub fn service_config(
    trace: &CompiledTrace,
    costs: &FetchCosts,
    kind: StrategyKind,
) -> ServiceConfig {
    ServiceConfig::new(
        kind,
        trace.capacities(CAPACITY),
        costs.iter().collect(),
        PushScheme::Always,
        trace.pages().iter().copied().collect::<Arc<[_]>>(),
        trace.hours(),
    )
    .with_batch_size(BATCH)
}

/// A directory under `out_dir/tmp` that no other run shares.
pub fn scratch_dir(cfg: &Config, workload: &str) -> PathBuf {
    cfg.out_dir
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()))
}

/// How one round persists.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Journal, snapshots, kill and recover: the measured round.
    Durable,
    /// Journal only, clean shutdown.
    JournalOnly,
    /// No directory, clean shutdown.
    InMemory { workers: usize },
}

pub struct ServeDurable {
    events: Vec<LiveEvent>,
    config: ServiceConfig,
    oracle: SimResult,
    dir: PathBuf,
    pages: usize,
    /// `(journal, snapshot)` bytes on disk at the last kill.
    persisted: (u64, u64),
}

impl Bench for ServeDurable {
    fn setup(cfg: &Config, rec: &mut TraceRecorder) -> BenchResult<Self> {
        let config = WorkloadConfig::news_scaled(cfg.scale(SCALE)).with_seed(cfg.seed);
        let workload = rec.span("workload.generate", || Workload::generate(&config))?;
        let subs = rec.span("workload.subscriptions", || workload.subscriptions(1.0))?;
        let events = rec.span("workload.live_events", || workload.live_events(&subs));
        let costs = topology_costs(workload.server_count(), rec)?;
        let trace = rec.span("sim.compile", || CompiledTrace::compile(&workload, &subs))?;
        let kind = StrategyKind::Sg2 { beta: 2.0 };
        let oracle = rec.span("sim.replay.run", || {
            simulate_compiled(&trace, &costs, &SimOptions::at_capacity(kind, CAPACITY))
        })?;
        Ok(Self {
            events,
            config: service_config(&trace, &costs, kind),
            oracle,
            dir: scratch_dir(cfg, "serve-durable"),
            pages: workload.pages().len(),
            persisted: (0, 0),
        })
    }

    fn round(&mut self, _sink: &TraceSink, rec: &mut TraceRecorder, ops: &mut Ops) -> Round {
        self.run(Mode::Durable, rec, ops)
    }

    fn layers(&mut self, log: &SpanLog, ops: &mut Ops, out: &mut Metrics) -> BenchResult<()> {
        out.set("workload.events", self.events.len() as f64);
        out.set("workload.pages", self.pages as f64);
        batch_layers(&log.durations("service.ingest"), out);
        let snapshots = log.durations("service.snapshot");
        let snapshot_ms: Vec<f64> = snapshots.iter().map(|s| s * 1e3).collect();
        out.set("service.snapshot_ms_p50", median(&snapshot_ms));
        out.set("service.snapshot_ms_max", max(&snapshot_ms));
        out.set("service.snapshots", snapshots.len() as f64);
        out.set("service.journal_mb", self.persisted.0 as f64 / 1e6);
        out.set("service.snapshot_mb", self.persisted.1 as f64 / 1e6);
        result_counts([&self.oracle], out);

        // The same stream with persistence switched off piece by piece,
        // and in memory on two workers.
        let mut idle = TraceSink::disabled().recorder("");
        let mut rate = |mode| {
            let round = self.run(mode, &mut idle, ops);
            round.events as f64 / round.secs
        };
        out.set(
            "service.inmem_events_per_s",
            rate(Mode::InMemory { workers: 1 }),
        );
        out.set("service.journal_only_events_per_s", rate(Mode::JournalOnly));
        out.set(
            "service.workers2.events_per_s",
            rate(Mode::InMemory { workers: 2 }),
        );
        Ok(())
    }
}

/// The roll-ups of the `ingest_all` calls' seconds that `serve-durable`
/// and `match-churn` share.
pub fn batch_layers(batches: &[f64], out: &mut Metrics) {
    out.set("service.ingest_s", batches.iter().sum());
    let batch_us: Vec<f64> = batches.iter().map(|s| s * 1e6).collect();
    out.set("service.batch_p50_us", median(&batch_us));
    out.set("service.batch_p99_us", quantile(&batch_us, 0.99));
    out.set("service.batch_max_us", max(&batch_us));
}

impl ServeDurable {
    /// One pass of the stream through a new service. The probe runs
    /// after the start, on either side of every snapshot, and on either
    /// side of the kill and recovery.
    fn run(&mut self, mode: Mode, rec: &mut TraceRecorder, ops: &mut Ops) -> Round {
        let mut clock = RoundClock::start();
        let config = match mode {
            Mode::InMemory { workers } => self.config.clone().with_workers(workers),
            // Cadence 0: the harness, not the service, decides when to snapshot.
            Mode::Durable | Mode::JournalOnly => {
                self.config.clone().with_persistence(self.dir.clone(), 0)
            }
        };
        let sent = self.events.len() as u64;
        let core = rec.span("service.new", || ServiceCore::new(config.clone()));
        let Some(mut core) = ops.call("ServiceCore::new", core) else {
            return clock.finish(rec, 0);
        };
        clock.probe(rec);
        for (i, batch) in self.events.chunks(BATCH).enumerate() {
            let result = rec.span("service.ingest", || core.ingest_all(batch));
            ops.call("ingest_all", result);
            if (i + 1) % SNAPSHOT_EVERY_BATCHES == 0 {
                clock.probe(rec);
                if mode == Mode::Durable {
                    let result = rec.span("service.snapshot", || core.snapshot_now());
                    ops.call("snapshot_now", result);
                    clock.probe(rec);
                }
            }
        }
        let result = rec.span("service.flush", || core.flush());
        ops.call("flush", result);
        clock.probe(rec);
        if mode == Mode::Durable {
            rec.span("service.kill", || drop(core));
            self.persisted = persisted_bytes(&self.dir);
            let recovered = rec.span("service.recover", || ServiceCore::recover(config));
            let Some(recovered) = ops.call("ServiceCore::recover", recovered) else {
                return clock.finish(rec, 0);
            };
            ops.check(recovered.events_applied() == sent, || {
                format!(
                    "recovered {} events of {sent} sent",
                    recovered.events_applied()
                )
            });
            core = recovered;
            clock.probe(rec);
        }
        let outcome = rec.span("service.shutdown", || core.shutdown());
        rec.span("harness.verify", || {
            if let Some(outcome) = ops.call("shutdown", outcome) {
                ops.check(outcome.result == self.oracle, || {
                    "service result differs from simulate_compiled".into()
                });
            }
        });
        if !matches!(mode, Mode::InMemory { .. }) {
            let removed = rec.span("harness.teardown", || std::fs::remove_dir_all(&self.dir));
            ops.call("remove scratch dir", removed);
        }
        clock.finish(rec, sent)
    }
}

/// `(journal, snapshot)` file sizes under `dir`.
fn persisted_bytes(dir: &Path) -> (u64, u64) {
    let size = |prefix: &str| -> u64 {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    };
    (size("journal"), size("snapshot"))
}
