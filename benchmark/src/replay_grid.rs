//! `replay-grid`: the paper's evaluation grid over two compiled traces.
//!
//! Set-up generates and compiles the paper-scale NEWS (alpha 1.5) and
//! ALTERNATIVE (alpha 1.0) traces once; a round replays the 12
//! strategies over four columns of the paper's grid (48 cells): NEWS at
//! 1 % and at 10 % capacity and ALTERNATIVE at 5 % under Always-Pushing,
//! and NEWS at 5 % under Pushing-When-Necessary with invalidation. Replay
//! is all of the round; generation, compilation and matching are
//! bypassed.

use std::time::Instant;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_obs::{Registry, SharedObserver, StatsObserver, TraceRecorder, TraceSink};
use pscd_sim::{CompiledTrace, SimOptions, SimResult, Simulation, StepEvent};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

use crate::harness::{
    max, median, result_counts, timed, topology_costs, Bench, BenchResult, Config, Metrics, Ops,
    Round, RoundClock, SpanLog,
};

const BETA: f64 = 2.0;
/// Indices into `ReplayGrid::traces`.
const NEWS: usize = 0;
const ALTERNATIVE: usize = 1;

/// The 12 strategies with the suffix their per-layer metric carries.
pub fn strategies() -> [(&'static str, StrategyKind); 12] {
    [
        ("lru", StrategyKind::Lru),
        ("gds", StrategyKind::Gds),
        ("lfu-da", StrategyKind::LfuDa),
        ("gdstar", StrategyKind::GdStar { beta: BETA }),
        ("sub", StrategyKind::Sub),
        ("sg1", StrategyKind::Sg1 { beta: BETA }),
        ("sg2", StrategyKind::Sg2 { beta: BETA }),
        ("sr", StrategyKind::Sr),
        ("dm", StrategyKind::Dm { beta: BETA }),
        ("dc-fp", StrategyKind::dc_fp(BETA)),
        ("dc-ap", StrategyKind::DcAp { beta: BETA }),
        ("dc-lap", StrategyKind::dc_lap(BETA)),
    ]
}

/// `options` under Pushing-When-Necessary with invalidation.
fn when_necessary(options: SimOptions) -> SimOptions {
    let mut options = options.with_invalidation();
    options.scheme = PushScheme::WhenNecessary;
    options
}

/// Sum of the registry's counters whose name starts with `prefix`.
fn prefix_total(registry: &Registry, prefix: &str) -> f64 {
    registry
        .counters_with_prefix(prefix)
        .map(|(_, v)| v)
        .sum::<u64>() as f64
}

struct Cell {
    /// Index into `ReplayGrid::traces`.
    trace: usize,
    /// Index into [`strategies`].
    strategy: usize,
    options: SimOptions,
}

pub struct ReplayGrid {
    traces: [CompiledTrace; 2],
    costs: FetchCosts,
    cells: Vec<Cell>,
    /// Round-1 results: the reference every later round must repeat.
    reference: Vec<SimResult>,
    pages: usize,
}

impl Bench for ReplayGrid {
    fn setup(cfg: &Config, rec: &mut TraceRecorder) -> BenchResult<Self> {
        let scale = cfg.scale(1.0);
        let configs = [
            WorkloadConfig::news_scaled(scale).with_seed(cfg.seed),
            WorkloadConfig::alternative_scaled(scale).with_seed(cfg.seed),
        ];
        let mut compiled = Vec::with_capacity(2);
        let mut pages = 0;
        let mut servers = 0;
        for config in &configs {
            let workload = rec.span("workload.generate", || Workload::generate(config))?;
            let subs = rec.span("workload.subscriptions", || workload.subscriptions(1.0))?;
            compiled.push(rec.span("sim.compile", || CompiledTrace::compile(&workload, &subs))?);
            pages += workload.pages().len();
            servers = workload.server_count();
        }
        let costs = topology_costs(servers, rec)?;
        let alt = compiled.pop().expect("two traces");
        let news = compiled.pop().expect("two traces");

        let kinds = strategies();
        let mut cells = Vec::with_capacity(4 * kinds.len());
        let mut add = |trace, capacity, pwn| {
            for (strategy, (_, kind)) in kinds.iter().enumerate() {
                let options = SimOptions::at_capacity(*kind, capacity);
                cells.push(Cell {
                    trace,
                    strategy,
                    options: if pwn {
                        when_necessary(options)
                    } else {
                        options
                    },
                });
            }
        };
        add(NEWS, 0.01, false);
        add(NEWS, 0.10, false);
        add(ALTERNATIVE, 0.05, false);
        add(NEWS, 0.05, true);
        Ok(Self {
            traces: [news, alt],
            costs,
            cells,
            reference: Vec::new(),
            pages,
        })
    }

    fn round(&mut self, _sink: &TraceSink, rec: &mut TraceRecorder, ops: &mut Ops) -> Round {
        let mut clock = RoundClock::start();
        let first_round = self.reference.is_empty();
        let mut events = 0u64;
        for (i, cell) in self.cells.iter().enumerate() {
            let trace = &self.traces[cell.trace];
            let sim = rec.span("sim.replay.construct", || {
                Simulation::from_compiled(trace, &self.costs, &cell.options)
            });
            let Some(sim) = ops.call("Simulation::from_compiled", sim) else {
                return clock.finish(rec, events);
            };
            let result = rec.span("sim.replay.run", || sim.run());
            events += trace.len() as u64;
            rec.span("harness.verify", || {
                let served_all = result.requests == trace.request_count() as u64;
                if first_round {
                    ops.check(served_all, || format!("cell {i}: requests not all served"));
                    self.reference.push(result);
                } else {
                    ops.check(served_all && result == self.reference[i], || {
                        format!("cell {i}: result differs from round 1")
                    });
                }
            });
            clock.probe(rec);
        }
        clock.finish(rec, events)
    }

    fn layers(&mut self, log: &SpanLog, ops: &mut Ops, out: &mut Metrics) -> BenchResult<()> {
        out.set("workload.pages", self.pages as f64);

        // The traced round's spans are in cell order.
        let construct = log.durations("sim.replay.construct");
        let run = log.durations("sim.replay.run");
        let cell_events: Vec<f64> = self
            .cells
            .iter()
            .map(|c| self.traces[c.trace].len() as f64)
            .collect();
        let events: f64 = cell_events.iter().sum();
        out.set("workload.events", events);
        out.set(
            "sim.replay.ns_per_event",
            run.iter().sum::<f64>() * 1e9 / events,
        );
        let cell_ms: Vec<f64> = construct
            .iter()
            .zip(&run)
            .map(|(c, r)| (c + r) * 1e3)
            .collect();
        out.set("sim.replay.cell_ms_p50", median(&cell_ms));
        out.set("sim.replay.cell_ms_max", max(&cell_ms));
        if run.len() == self.cells.len() {
            for (s, (suffix, _)) in strategies().iter().enumerate() {
                let (secs, evs) = self
                    .cells
                    .iter()
                    .zip(run.iter().zip(&cell_events))
                    .filter(|(c, _)| c.strategy == s)
                    .fold((0.0, 0.0), |(a, b), (_, (r, e))| (a + r, b + e));
                out.set(
                    format!("core.replay_ns_per_event.{suffix}"),
                    secs * 1e9 / evs,
                );
            }
        }
        result_counts(&self.reference, out);

        self.probe_sg2(ops, out)
    }
}

impl ReplayGrid {
    /// Direct probes of the layers under one cell: SG2 at 5 % NEWS.
    fn probe_sg2(&self, ops: &mut Ops, out: &mut Metrics) -> BenchResult<()> {
        let news = &self.traces[NEWS];
        let events = news.len() as f64;
        let sg2 = SimOptions::at_capacity(StrategyKind::Sg2 { beta: BETA }, 0.05);
        let plain = Simulation::from_compiled(news, &self.costs, &sg2)?.run();

        // Push path against access path: host time per step by kind, less
        // the cost of reading the clock twice.
        let clock_ns = {
            const READS: u32 = 200_000;
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / READS as f64
        };
        let mut sim = Simulation::from_compiled(news, &self.costs, &sg2)?;
        let (mut publish_ns, mut publishes, mut request_ns, mut requests) =
            (0u128, 0u64, 0u128, 0u64);
        loop {
            let t = Instant::now();
            let step = sim.step();
            let ns = t.elapsed().as_nanos();
            match step {
                Some(StepEvent::Published { .. }) => {
                    publish_ns += ns;
                    publishes += 1;
                }
                Some(StepEvent::Requested { .. }) => {
                    request_ns += ns;
                    requests += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
        ops.check(sim.finish() == plain, || {
            "stepped SG2 differs from run".into()
        });
        let per = |ns: u128, n: u64| (ns as f64 / n.max(1) as f64 - clock_ns).max(0.0);
        out.set("broker.publish_ns", per(publish_ns, publishes));
        out.set("broker.request_ns", per(request_ns, requests));

        // Exact decision counts from the observer: the SG2 cell under
        // Pushing-When-Necessary with invalidation, and DC-LAP for relabels.
        let pwn = when_necessary(sg2);
        let (stats, result) = self.observed(&pwn)?;
        let plain_pwn = Simulation::from_compiled(news, &self.costs, &pwn)?.run();
        ops.check(result == plain_pwn && stats.hits() == result.hits, || {
            "observed SG2 differs from unobserved".into()
        });
        let registry = stats.registry();
        let offers = registry.counter("push.offers") as f64;
        let stored = registry.counter("push.stored") as f64;
        out.set("broker.push_offers", offers);
        out.set("broker.push_stored", stored);
        out.set("broker.push_stored_ratio", stored / offers.max(1.0));
        out.set("cache.evictions", prefix_total(registry, "evict."));
        out.set(
            "cache.invalidate_dropped",
            registry.counter("invalidate.dropped") as f64,
        );
        let (lap, _) = self.observed(&SimOptions::at_capacity(StrategyKind::dc_lap(BETA), 0.05))?;
        out.set("core.relabels", prefix_total(lap.registry(), "relabel."));

        // Observer cost and the two-thread sharded replay, interleaved
        // minimum of three against the plain cell.
        let (mut bare, mut observed, mut sharded) = (f64::MAX, f64::MAX, f64::MAX);
        let two_threads = sg2.with_threads(2);
        for _ in 0..3 {
            let (r, s) =
                timed(|| Simulation::from_compiled(news, &self.costs, &sg2).map(Simulation::run));
            ops.check(r? == plain, || "SG2 cell does not repeat".into());
            bare = bare.min(s);
            let (r, s) = timed(|| self.observed(&sg2));
            ops.check(r?.1 == plain, || "observed SG2 differs from plain".into());
            observed = observed.min(s);
            let (r, s) = timed(|| {
                Simulation::from_compiled(news, &self.costs, &two_threads).map(Simulation::run)
            });
            ops.check(r? == plain, || "sharded SG2 differs from sequential".into());
            sharded = sharded.min(s);
        }
        out.set("obs.stats_overhead_pct", 100.0 * (observed - bare) / bare);
        out.set("sim.shard_t2.ns_per_event", sharded * 1e9 / events);
        Ok(())
    }

    /// One NEWS cell replayed under a `StatsObserver`.
    fn observed(&self, options: &SimOptions) -> BenchResult<(StatsObserver, SimResult)> {
        let obs = SharedObserver::new(StatsObserver::new());
        let result = Simulation::from_compiled_observed(
            &self.traces[NEWS],
            &self.costs,
            options,
            obs.clone(),
        )?
        .run();
        let stats = obs
            .try_unwrap()
            .map_err(|_| "the finished run still holds the observer")?;
        Ok((stats, result))
    }
}
