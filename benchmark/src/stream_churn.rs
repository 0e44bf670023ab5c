//! `stream-churn`: a high-churn, bursty scenario through the pipelined
//! streaming replay.
//!
//! The scenario is `catalog_churn` with the two `flash_crowds` surges
//! added, in six-hour windows. A round replays SUB and GD* (invalidation
//! on) through `simulate_streamed_prefetched` at depth 2, so every round
//! regenerates and recompiles every window on the producer thread while
//! the consumer thread replays: the generator is itself a measured layer
//! here.

use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_obs::{TraceRecorder, TraceSink};
use pscd_sim::{
    simulate_streamed, simulate_streamed_prefetched_traced, PrefetchOptions, ReplaySource,
    SimOptions, SimResult, StreamingTrace,
};
use pscd_topology::FetchCosts;
use pscd_types::SimTime;
use pscd_workload::ScenarioConfig;

use crate::harness::{
    max, median, result_counts, timed, topology_costs, Bench, BenchResult, Config, Metrics, Ops,
    Round, RoundClock, SpanLog,
};

/// Volume relative to the paper's trace (the shipped scenario runs at
/// 0.05).
const SCALE: f64 = 1.0;
const WINDOW_HOURS: u64 = 6;
const PREFETCH_DEPTH: usize = 2;

pub struct StreamChurn {
    stream: StreamingTrace,
    costs: FetchCosts,
    /// SUB and GD*, each with the serial streamed result it must equal.
    cells: [(&'static str, SimOptions, SimResult); 2],
}

impl Bench for StreamChurn {
    fn setup(cfg: &Config, rec: &mut TraceRecorder) -> BenchResult<Self> {
        let scenario = ScenarioConfig {
            name: "stream-churn".to_owned(),
            seed: cfg.seed,
            scale: cfg.scale(SCALE),
            flash_crowds: ScenarioConfig::flash_crowds().flash_crowds,
            ..ScenarioConfig::catalog_churn()
        };
        let stream = rec.span("sim.stream.build", || {
            StreamingTrace::from_scenario(&scenario, 1.0, SimTime::from_hours(WINDOW_HOURS), 1)
        })?;
        let costs = topology_costs(stream.meta().server_count(), rec)?;
        let mut oracle = |name, kind| -> BenchResult<_> {
            let options = SimOptions::at_capacity(kind, 0.05).with_invalidation();
            let result = rec.span("sim.stream.serial_replay", || {
                simulate_streamed(&stream, &costs, &options)
            })?;
            Ok((name, options, result))
        };
        let cells = [
            oracle("sub", StrategyKind::Sub)?,
            oracle("gdstar", StrategyKind::GdStar { beta: 2.0 })?,
        ];
        Ok(Self {
            stream,
            costs,
            cells,
        })
    }

    fn round(&mut self, sink: &TraceSink, rec: &mut TraceRecorder, ops: &mut Ops) -> Round {
        let mut clock = RoundClock::start();
        let prefetch = PrefetchOptions::new(PREFETCH_DEPTH);
        for (name, options, oracle) in &self.cells {
            // Under tracing the pipeline adds its own producer and
            // consumer tracks to the sink, beside the harness track.
            let span = rec.begin();
            let result = simulate_streamed_prefetched_traced(
                &self.stream,
                &self.costs,
                options,
                &prefetch,
                sink,
            );
            rec.end_with(span, "sim.stream.prefetched_replay", || (*name).to_owned());
            rec.span("harness.verify", || {
                if let Some(result) = ops.call("simulate_streamed_prefetched", result) {
                    ops.check(result == *oracle, || {
                        format!("{name}: prefetched replay differs from serial")
                    });
                }
            });
            clock.probe(rec);
        }
        clock.finish(rec, (self.cells.len() * self.stream.meta().len()) as u64)
    }

    fn layers(&mut self, log: &SpanLog, _ops: &mut Ops, out: &mut Metrics) -> BenchResult<()> {
        let meta = self.stream.meta();
        out.set("workload.pages", meta.pages().len() as f64);
        out.set("workload.events", meta.len() as f64);
        let replays = log.durations("sim.stream.prefetched_replay");
        for ((name, _, _), secs) in self.cells.iter().zip(&replays) {
            out.set(format!("sim.stream.replay_s.{name}"), *secs);
        }
        result_counts(self.cells.iter().map(|(_, _, r)| r), out);

        // The producer alone, serial: generate + compile each window with
        // no replay behind it.
        let mut window_ms = Vec::with_capacity(self.stream.window_count());
        let (mut events, mut peak_bytes) = (0usize, 0usize);
        let ((), drain_s) = timed(|| {
            let mut pass = self.stream.open();
            loop {
                let t = Instant::now();
                let Some(window) = pass.next_window() else {
                    break;
                };
                events += window.len();
                window_ms.push(t.elapsed().as_secs_f64() * 1e3);
                peak_bytes = peak_bytes.max(pass.buffer_bytes());
            }
        });
        out.set("sim.stream.drain_s", drain_s);
        out.set("sim.stream.window_ms_p50", median(&window_ms));
        out.set("sim.stream.window_ms_max", max(&window_ms));
        out.set("sim.stream.peak_buffer_mb", peak_bytes as f64 / 1e6);
        out.set("sim.stream.windows", window_ms.len() as f64);
        out.set("sim.stream.events", events as f64);

        // The producer alone, pipelined: the hand-off with no replay.
        let (stats, secs) = timed(|| {
            self.stream
                .drain_prefetched(&PrefetchOptions::new(PREFETCH_DEPTH))
        });
        out.set("sim.prefetch.drain_s", secs);
        out.set("sim.prefetch.peak_windows", stats.peak_windows as f64);
        out.set("sim.prefetch.peak_mb", stats.peak_bytes as f64 / 1e6);
        Ok(())
    }
}
