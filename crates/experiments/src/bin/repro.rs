//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --bin repro -- all          # everything, paper scale
//! cargo run --release --bin repro -- fig4         # one exhibit
//! cargo run --release --bin repro -- table2 --scale 0.05
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pscd_core::StrategyKind;
use pscd_experiments::{
    BetaSweep, ClassicBaselines, CoverageSweep, CrashRecovery, ExperimentContext, ExperimentError,
    Fig3, Fig4, Fig5, Fig6, Fig7, InvalidationStudy, LapBoundsSweep, ObsAudit, PartitionSweep,
    ShiftSensitivity, Table2, ToCsv, Trace, VarianceStudy, PAPER_BETA,
};
use pscd_obs::{render_chrome_trace, NullObserver, SpanEvent, TraceSink};
use pscd_sim::{
    simulate_observed_sharded, simulate_streamed_prefetched_traced, PrefetchOptions, SimOptions,
    StreamingTrace, DEFAULT_PREFETCH_DEPTH,
};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::SimTime;
use pscd_workload::ScenarioConfig;

const USAGE: &str = "usage: repro <beta|fig3|fig4|table2|fig5|fig6|fig7|classic|lap-bounds|partition|coverage|shift|crash|invalidation|variance|ablations|all> [--scale FRACTION] [--threads N] [--csv DIR] [--obs-dir DIR [--events]] [--trace FILE]\n       repro scenario <list|NAME|FILE> [--threads N]\n       repro serve --load [--scale FRACTION] [--threads N] [--batch N] [--dir DIR [--snapshot-every K]]";

/// The flags each subcommand takes (every exhibit takes the same ones); a
/// flag outside its subcommand's list is refused by name.
const EXHIBIT_FLAGS: &[&str] = &[
    "--scale",
    "--threads",
    "--csv",
    "--obs-dir",
    "--events",
    "--trace",
];
const SCENARIO_FLAGS: &[&str] = &["--threads"];
const SERVE_FLAGS: &[&str] = &[
    "--load",
    "--scale",
    "--threads",
    "--batch",
    "--dir",
    "--snapshot-every",
];

/// `repro scenario` streams its workload through windows of this many
/// hours.
const SCENARIO_WINDOW_HOURS: u64 = 24;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exhibit = None;
    let mut scale = 1.0f64;
    let mut threads = 0usize; // 0 = auto
    let mut csv_dir: Option<PathBuf> = None;
    let mut obs_dir: Option<PathBuf> = None;
    let mut trace_file: Option<PathBuf> = None;
    let mut events = false;
    let mut load = false;
    let mut given: Vec<&str> = Vec::new();
    let mut scenario_arg: Option<String> = None;
    let mut batch = 256usize;
    let mut snapshot_every = 0u64;
    let mut serve_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            given.push(arg);
        }
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 1.0 => scale = v,
                _ => {
                    eprintln!("--scale needs a fraction in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => threads = n,
                None => {
                    eprintln!("--threads needs a worker count (0 = auto)");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match it.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--obs-dir" => match it.next() {
                Some(dir) => obs_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--obs-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(path) => trace_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace needs an output file (Chrome trace-event JSON)");
                    return ExitCode::FAILURE;
                }
            },
            "--events" => events = true,
            "--load" => load = true,
            "--batch" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => {
                    eprintln!("--batch needs a positive ingest batch size");
                    return ExitCode::FAILURE;
                }
            },
            "--snapshot-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(k) => snapshot_every = k,
                None => {
                    eprintln!("--snapshot-every needs an event count (0 = never)");
                    return ExitCode::FAILURE;
                }
            },
            "--dir" => match it.next() {
                Some(dir) => serve_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--dir needs a directory for the journal and snapshots");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            name if exhibit.is_none() => exhibit = Some(name.to_owned()),
            name if exhibit.as_deref() == Some("scenario") && scenario_arg.is_none() => {
                scenario_arg = Some(name.to_owned())
            }
            other => {
                eprintln!("unexpected argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(exhibit) = exhibit else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let accepted = match exhibit.as_str() {
        "scenario" => SCENARIO_FLAGS,
        "serve" => SERVE_FLAGS,
        _ => EXHIBIT_FLAGS,
    };
    // Refuse a flag the subcommand would not use instead of silently
    // dropping it.
    if let Some(flag) = given.iter().find(|flag| !accepted.contains(flag)) {
        eprintln!("repro {exhibit} does not take {flag}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if events && obs_dir.is_none() {
        eprintln!("--events requires --obs-dir\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if exhibit == "scenario" {
        let Some(arg) = scenario_arg else {
            eprintln!("scenario needs <list|NAME|FILE>\n{USAGE}");
            return ExitCode::FAILURE;
        };
        return match run_scenario(&arg, threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if exhibit == "serve" {
        if !load {
            eprintln!(
                "serve has no network listener yet; run the seeded load generator with --load\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
        return match run_serve(scale, threads, batch, snapshot_every, serve_dir.as_deref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outputs = Outputs {
        csv_dir: csv_dir.as_deref(),
        obs_dir: obs_dir.as_deref(),
        trace_file: trace_file.as_deref(),
        events,
    };
    match run(&exhibit, scale, threads, &outputs) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("unknown exhibit: {exhibit}\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro serve --load`: stand up the live broker service on the seeded
/// news workload and drive every event through its front door, printing
/// sustained throughput, batch latency quantiles, and the final
/// accounting (which matches a batch replay bit-for-bit — the
/// `service_differential` suite holds that equivalence).
fn run_serve(
    scale: f64,
    threads: usize,
    batch: usize,
    snapshot_every: u64,
    dir: Option<&std::path::Path>,
) -> Result<(), ExperimentError> {
    eprintln!("generating workloads (scale = {scale}) …");
    let ctx = ExperimentContext::scaled(scale, 0, TraceSink::disabled())?;
    let compiled = ctx.compiled(Trace::News, 1.0)?;
    let subs = ctx.subscriptions(Trace::News, 1.0)?;
    let events = ctx.workload(Trace::News).live_events(&subs);
    let kind = StrategyKind::Sg2 { beta: PAPER_BETA };
    let mut config = pscd_service::ServiceConfig::new(
        kind,
        compiled.capacities(0.05),
        ctx.costs().iter().collect(),
        pscd_broker::PushScheme::Always,
        compiled.pages().iter().copied().collect(),
        compiled.hours(),
    )
    .with_workers(threads)
    .with_batch_size(batch);
    if let Some(dir) = dir {
        config = config.with_persistence(dir.to_path_buf(), snapshot_every);
        eprintln!(
            "journaling to {} (snapshot every {} events)",
            dir.display(),
            if snapshot_every == 0 {
                "∞".to_owned()
            } else {
                snapshot_every.to_string()
            }
        );
    }
    let mut core = pscd_service::ServiceCore::new(config)?;
    eprintln!(
        "serving {} as {} events arrive in batches of {batch} …",
        kind.name(),
        events.len()
    );
    let mut registry = pscd_obs::Registry::new();
    let report = pscd_service::run_load(
        &mut core,
        &events,
        batch,
        &mut registry,
        &TraceSink::disabled(),
    )?;
    let outcome = core.shutdown()?;
    let result = &outcome.result;
    let hit_rate = if result.requests > 0 {
        result.hits as f64 / result.requests as f64
    } else {
        0.0
    };
    println!(
        "ingested {} events in {} batches over {:.2} s",
        report.events, report.batches, report.elapsed_secs
    );
    println!(
        "sustained {:.0} events/s (batch latency p50 {:.1} µs, p99 {:.1} µs)",
        report.events_per_sec, report.batch_micros_p50, report.batch_micros_p99
    );
    println!(
        "requests {}  hits {}  hit rate {:.4}  pushed {} pages  fetched {} pages",
        result.requests,
        result.hits,
        hit_rate,
        result.traffic.pushed_pages,
        result.traffic.fetched_pages
    );
    Ok(())
}

/// `repro scenario`: the config-driven workload library. `list` prints
/// the shipped scenarios; a name (or a path to a scenario text file)
/// streams the workload through the pipelined compile-ahead prefetcher and
/// replays the figure-4 lineup on it at the paper's middle capacity.
fn run_scenario(arg: &str, threads: usize) -> Result<(), ExperimentError> {
    if arg == "list" {
        println!("shipped scenarios:");
        for s in ScenarioConfig::shipped() {
            let config = s.workload_config()?;
            println!(
                "  {:<14} seed {}  {} pages  {} requests  {} days",
                s.name,
                s.seed,
                config.publishing.total_pages,
                config.requests.total_requests,
                s.horizon_days
            );
        }
        return Ok(());
    }
    let scenario = match ScenarioConfig::shipped_by_name(arg) {
        Some(s) => s,
        None => {
            let text = std::fs::read_to_string(arg)
                .map_err(|e| ExperimentError::Io(format!("{arg}: {e}")))?;
            ScenarioConfig::from_text(&text)
                .map_err(|e| ExperimentError::Io(format!("{arg}: {e}")))?
        }
    };
    eprintln!(
        "building scenario \"{}\" through {SCENARIO_WINDOW_HOURS}-hour streaming windows \
         (compile-ahead depth {DEFAULT_PREFETCH_DEPTH}) …",
        scenario.name
    );
    let window = SimTime::from_hours(SCENARIO_WINDOW_HOURS);
    let stream = StreamingTrace::from_scenario(&scenario, 1.0, window, threads)?;
    let meta = stream.meta();
    println!(
        "scenario {}: {} pages, {} publishes, {} requests, {} proxies, {} windows, digest {:016x}",
        scenario.name,
        meta.pages().len(),
        meta.publish_count(),
        meta.request_count(),
        meta.server_count(),
        stream.window_count(),
        scenario.digest()?
    );
    let topo = TopologyBuilder::new(meta.server_count() as usize + 1)
        .seed(42)
        .build()?;
    let costs = FetchCosts::from_topology(&topo, 0)?;
    println!(
        "{:<8} {:>9} {:>12} {:>13}",
        "strategy", "hit rate", "pushed pages", "fetched pages"
    );
    let prefetch = PrefetchOptions::new(DEFAULT_PREFETCH_DEPTH);
    for kind in StrategyKind::figure4_lineup(PAPER_BETA) {
        let options = SimOptions::at_capacity(kind, 0.05).with_threads(threads);
        let result = simulate_streamed_prefetched_traced(
            &stream,
            &costs,
            &options,
            &prefetch,
            &TraceSink::disabled(),
        )?;
        let hit_rate = if result.requests > 0 {
            result.hits as f64 / result.requests as f64
        } else {
            0.0
        };
        println!(
            "{:<8} {:>9.4} {:>12} {:>13}",
            kind.name(),
            hit_rate,
            result.traffic.pushed_pages,
            result.traffic.fetched_pages
        );
    }
    Ok(())
}

/// Where an exhibit run writes besides stdout: CSV exports, observer
/// audits (with or without the per-decision event log), chrome traces.
struct Outputs<'a> {
    csv_dir: Option<&'a std::path::Path>,
    obs_dir: Option<&'a std::path::Path>,
    trace_file: Option<&'a std::path::Path>,
    events: bool,
}

fn run(
    exhibit: &str,
    scale: f64,
    threads: usize,
    outputs: &Outputs<'_>,
) -> Result<bool, ExperimentError> {
    let &Outputs {
        csv_dir,
        obs_dir,
        trace_file,
        events,
    } = outputs;
    let sink = if trace_file.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    if let Some(epoch) = sink.epoch() {
        // Collect the worker pool's per-task spans against the same epoch
        // so cold-path fan-outs and grid cells land on the timeline too.
        pscd_sim::pool::spans::enable(epoch);
    }
    eprintln!("generating workloads (scale = {scale}) …");
    let ctx = ExperimentContext::scaled(scale, threads, sink.clone())?;
    let all = exhibit == "all";
    let mut known = all;
    let emit = |result: &dyn ToCsv| -> Result<(), ExperimentError> {
        if let Some(dir) = csv_dir {
            for path in result.write_csv(dir)? {
                eprintln!("wrote {}", path.display());
            }
        }
        Ok(())
    };
    if all || exhibit == "beta" {
        known = true;
        eprintln!("running β sweep (126 simulations) …");
        let result = BetaSweep::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "fig3" {
        known = true;
        eprintln!("running figure 3 …");
        let result = Fig3::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "fig4" {
        known = true;
        eprintln!("running figure 4 …");
        let result = Fig4::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "table2" {
        known = true;
        eprintln!("running table 2 …");
        let result = Table2::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "fig5" {
        known = true;
        eprintln!("running figure 5 …");
        let result = Fig5::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "fig6" {
        known = true;
        eprintln!("running figure 6 …");
        let result = Fig6::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || exhibit == "fig7" {
        known = true;
        eprintln!("running figure 7 …");
        let result = Fig7::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    let ablations = exhibit == "ablations";
    if all || ablations || exhibit == "classic" {
        known = true;
        eprintln!("running classic-baseline ablation …");
        let result = ClassicBaselines::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || ablations || exhibit == "lap-bounds" {
        known = true;
        eprintln!("running DC-LAP bounds ablation …");
        let result = LapBoundsSweep::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || ablations || exhibit == "partition" {
        known = true;
        eprintln!("running DC-FP partition ablation …");
        let result = PartitionSweep::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || ablations || exhibit == "coverage" {
        known = true;
        eprintln!("running notification-coverage extension …");
        let result = CoverageSweep::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || ablations || exhibit == "crash" {
        known = true;
        eprintln!("running crash-recovery extension …");
        let result = CrashRecovery::run(&ctx)?;
        println!("{result}");
        emit(&result)?;
    }
    if all || ablations || exhibit == "invalidation" {
        known = true;
        eprintln!("running stale-version invalidation extension …");
        println!("{}", InvalidationStudy::run(&ctx)?);
    }
    if all || ablations || exhibit == "variance" {
        known = true;
        eprintln!("running seed-sensitivity study (5 seeds × 2 traces) …");
        println!("{}", VarianceStudy::run(&ctx, scale, &[0, 1, 2, 3, 4])?);
    }
    if all || ablations || exhibit == "shift" {
        known = true;
        eprintln!("running popularity-shift calibration sweep …");
        println!("{}", ShiftSensitivity::run(&ctx, scale)?);
    }
    if known {
        let lineup = if exhibit == "fig3" {
            StrategyKind::figure3_lineup(PAPER_BETA)
        } else {
            StrategyKind::figure4_lineup(PAPER_BETA)
        };
        if let Some(dir) = obs_dir {
            // Instrumented replay of the exhibit's lineup at the paper's
            // middle capacity: sharded with hard-checked merge totals, or
            // serial with a full decision log when --events is set.
            eprintln!(
                "replaying {} strategies with observers (events: {events}) …",
                lineup.len()
            );
            let audit = ObsAudit::run_traced(&ctx, &lineup, 0.05, dir, events, &sink)?;
            for row in &audit.rows {
                eprintln!(
                    "  {:>6}: requests {}  hits {}  pushed {}  events {}",
                    row.strategy, row.requests, row.hits, row.pushed_pages, row.events_written
                );
            }
            eprintln!("wrote {}", dir.join("summary.txt").display());
        } else if trace_file.is_some() {
            // No audit replay to trace: record one sharded replay of the
            // lineup's lead strategy so the timeline has per-shard tracks.
            let kind = lineup[0];
            eprintln!("tracing a sharded replay of {} …", kind.name());
            let compiled = ctx.compiled(Trace::News, 1.0)?;
            let options = SimOptions::at_capacity(kind, 0.05).with_threads(ctx.threads());
            let (_result, _obs): (_, NullObserver) =
                simulate_observed_sharded(&compiled, ctx.costs(), &options, &sink)?;
        }
    }
    if let Some(path) = trace_file {
        flush_pool_spans(&sink);
        let mut file = std::fs::File::create(path)
            .map_err(|e| ExperimentError::Io(format!("{}: {e}", path.display())))?;
        render_chrome_trace(&sink.snapshot(), &mut file)
            .map_err(|e| ExperimentError::Io(format!("{}: {e}", path.display())))?;
        eprintln!(
            "wrote {} ({} spans)",
            path.display(),
            sink.snapshot().span_count()
        );
    }
    Ok(known)
}

/// Converts the worker pool's collected task spans into one timeline
/// track per pool worker (`pool worker <w>`, span label = the phase that
/// was current when the task ran, detail = the job index).
fn flush_pool_spans(sink: &TraceSink) {
    let mut by_worker: std::collections::BTreeMap<usize, Vec<SpanEvent>> =
        std::collections::BTreeMap::new();
    for s in pscd_sim::pool::spans::disable() {
        by_worker.entry(s.worker).or_default().push(SpanEvent {
            label: s.phase,
            start_ns: s.start_ns,
            dur_ns: s.end_ns - s.start_ns,
            detail: Some(format!("job {}", s.job)),
        });
    }
    for (w, events) in by_worker {
        sink.add_events(&format!("pool worker {w}"), events);
    }
}
