//! The repo benchmark: one process runs one workload once.
//!
//! `run.sh` builds this and passes its arguments through; see
//! `README.md` for what is measured and why. The last line of standard
//! output is one JSON object with the run's correctness, operation
//! counts and metrics: the end-to-end metrics of an untraced run, or the
//! per-layer metrics of a traced one.

mod harness;
mod match_churn;
mod metrics;
mod replay_grid;
mod serve_durable;
mod stream_churn;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pscd_obs::{render_chrome_trace, TraceSink};

use harness::{
    median, peak_rss_mb, timed, Bench, BenchResult, Config, Metrics, Ops, Probe, Round, SpanLog,
    MAIN_TRACK, ROUND_SPAN, SETUP_SPAN,
};
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const SETUP_PROBE_STEPS: u64 = 20_000_000;
/// The traced run fails above these (not under `--quick`, whose rounds
/// are too short for either ratio to mean anything).
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;
const MAX_TRACE_OVERHEAD_PCT: f64 = 25.0;
const TRACED_ATTEMPTS: usize = 3;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       run.sh --list
Without --workload every workload runs, one process each.";

struct Args {
    workload: Option<String>,
    list: bool,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        list: false,
        config: Config {
            seed: 0,
            seconds: 15.0,
            trace: false,
            quick: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.config.seconds = seconds;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.config.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.config.quick = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<14} {why}");
    }
    for (title, defs) in [
        ("end-to-end metrics (untraced runs):", &END_TO_END[..]),
        ("per-layer metrics (traced run):", &PER_LAYER[..]),
    ] {
        println!("{title}");
        for def in defs {
            println!(
                "  {:<36} {:<9} {} is better",
                def.name,
                def.unit,
                def.better.as_str()
            );
        }
    }
}

/// What one process measured.
struct Report {
    metrics: Metrics,
    ops: Ops,
    /// Set when the traced run's layer budget does not hold.
    budget_failure: Option<String>,
}

fn median_calibrated_s(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(Round::calibrated_s).collect::<Vec<_>>())
}

/// Whole rounds until `seconds` have passed (one round under `--quick`).
fn measure<B: Bench>(bench: &mut B, cfg: &Config, seconds: f64, ops: &mut Ops) -> Vec<Round> {
    let sink = TraceSink::disabled();
    let mut rec = sink.recorder(MAIN_TRACK);
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(bench.round(&sink, &mut rec, ops));
        if cfg.quick || started.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

fn untraced<B: Bench>(cfg: &Config) -> BenchResult<Report> {
    let sink = TraceSink::disabled();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..if cfg.quick { 1 } else { SETUPS } {
        // One set-up alive at a time, so the peak is one workload's.
        drop(bench.take());
        // A set-up is one stretch of library calls: the probe can only
        // run on either side of it.
        let mut probe = Probe::new();
        probe.run(SETUP_PROBE_STEPS);
        let (built, secs) = timed(|| B::setup(cfg, &mut sink.recorder(MAIN_TRACK)));
        probe.run(SETUP_PROBE_STEPS);
        bench = Some(built?);
        setup_s.push(probe.calibrated(secs));
    }
    let mut bench = bench.expect("at least one set-up");
    let mut ops = Ops::default();
    let rounds = measure(&mut bench, cfg, cfg.seconds, &mut ops);
    let events = rounds.iter().map(|r| r.events).max().unwrap_or(0);
    let round_s = median_calibrated_s(&rounds);
    println!(
        "# {} rounds of {events} events: median {round_s:.3} calibrated s, {:.3} host s; \
         probe step, median {:.3} ns; {} set-ups",
        rounds.len(),
        median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>()),
        median(&rounds.iter().map(|r| r.probe_step_ns).collect::<Vec<_>>()),
        setup_s.len()
    );
    let mut metrics = Metrics::default();
    metrics.set("events_per_s", events as f64 / round_s);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(Report {
        metrics,
        ops,
        budget_failure: None,
    })
}

fn traced<B: Bench>(cfg: &Config, workload: &str) -> BenchResult<Report> {
    let epoch = Instant::now();
    let mut ops = Ops::default();

    // Two root spans: the set-up, then (after the untraced rounds it is
    // compared with) one traced round.
    let sink = TraceSink::at_epoch(epoch);
    let mut rec = sink.recorder(MAIN_TRACK);
    let root = rec.begin();
    let mut bench = B::setup(cfg, &mut rec)?;
    rec.end(root, SETUP_SPAN);
    drop(rec);
    let mut trace = sink.drain();
    let plain_s = median_calibrated_s(&measure(&mut bench, cfg, cfg.seconds / 2.0, &mut ops));

    // One round is a noisy sample on this host (5 of 45 untraced
    // `stream-churn` rounds ran 25 % over their median, and a
    // `serve-durable` recovery was once seen to take 0.70 s instead of
    // 0.13 s), so a traced round over the overhead limit is traced again
    // before it counts.
    let mut attempts = 0;
    let (round, overhead_pct) = loop {
        let sink = TraceSink::at_epoch(epoch);
        let mut rec = sink.recorder(MAIN_TRACK);
        let root = rec.begin();
        let round = bench.round(&sink, &mut rec, &mut ops);
        rec.end(root, ROUND_SPAN);
        drop(rec);
        let overhead_pct = 100.0 * (round.calibrated_s() - plain_s) / plain_s;
        attempts += 1;
        if overhead_pct <= MAX_TRACE_OVERHEAD_PCT || attempts == TRACED_ATTEMPTS {
            trace.absorb(sink.drain());
            break (round, overhead_pct);
        }
    };

    let log = SpanLog::from_trace(&trace);
    let wall_s = log.total(SETUP_SPAN) + log.total(ROUND_SPAN);
    let mut unattributed_s = 0.0;
    println!("# layer table: self time of every harness-side span, {wall_s:.3} s in all");
    for root in [SETUP_SPAN, ROUND_SPAN] {
        let root_s = log.total(root);
        println!(
            "# {:<34} {:>7} {:>10} {:>7}",
            format!("{root} ({root_s:.3} s)"),
            "spans",
            "self_s",
            "share"
        );
        for row in log.layer_table(root) {
            let label = if row.label == root {
                unattributed_s += row.self_s;
                "  (unattributed)".to_owned()
            } else {
                format!("  {}", row.label)
            };
            println!(
                "# {:<34} {:>7} {:>10.4} {:>6.1}%",
                label,
                row.spans,
                row.self_s,
                100.0 * row.self_s / root_s
            );
        }
    }
    for track in trace.tracks().iter().filter(|t| t.name != MAIN_TRACK) {
        let busy: u64 = track.events.iter().map(|e| e.dur_ns).sum();
        println!(
            "# track {:<28} {:>7} {:>10.4} s busy beside the harness track",
            track.name,
            track.events.len(),
            busy as f64 / 1e9
        );
    }

    let mut metrics = Metrics::default();
    log.totals(&mut metrics);
    bench.layers(&log, &mut ops, &mut metrics)?;
    metrics.set("harness.wall_s", wall_s);
    metrics.set("harness.unattributed_pct", 100.0 * unattributed_s / wall_s);
    metrics.set("harness.trace_overhead_pct", overhead_pct);
    metrics.set("harness.calibration_ns", round.probe_step_ns);

    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join(format!("{workload}.trace.json"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    render_chrome_trace(&trace, &mut file)?;
    std::io::Write::flush(&mut file)?;
    println!("# trace written to {}", path.display());

    let unattributed_pct = 100.0 * unattributed_s / wall_s;
    let budget_failure = if cfg.quick {
        None
    } else if unattributed_pct > MAX_UNATTRIBUTED_PCT {
        Some(format!(
            "{unattributed_pct:.1} % of the traced wall is attributed to no layer (limit {MAX_UNATTRIBUTED_PCT} %)"
        ))
    } else if overhead_pct > MAX_TRACE_OVERHEAD_PCT {
        Some(format!(
            "{attempts} traced rounds in a row ran over the untraced median by more than {MAX_TRACE_OVERHEAD_PCT} %, the last by {overhead_pct:.1} %"
        ))
    } else {
        None
    };
    Ok(Report {
        metrics,
        ops,
        budget_failure,
    })
}

fn run<B: Bench>(cfg: &Config, workload: &str) -> BenchResult<Report> {
    if cfg.trace {
        traced::<B>(cfg, workload)
    } else {
        untraced::<B>(cfg)
    }
}

/// A JSON number: finite, with every digit Rust's shortest round-trip
/// form carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_report(defs: &[MetricDef], report: &Report) {
    let value = |def: &MetricDef| report.metrics.get(def.name).unwrap_or(0.0);
    for def in defs {
        println!(
            "{:<36} {:>18.6} {:<9} ({} is better)",
            def.name,
            value(def),
            def.unit,
            def.better.as_str()
        );
    }
    let ops = &report.ops;
    println!(
        "# operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    let fields: Vec<String> = defs
        .iter()
        .map(|def| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value(def)),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        fields.join(", ")
    );
}

/// No `--workload`: every workload in turn, each in a process of its
/// own so that `peak_rss_mb` is that workload's alone.
fn run_all() -> ExitCode {
    let mut worst = 0u8;
    for (workload, _) in WORKLOADS {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .args(["--workload", workload])
                .status()
        });
        let code = match status {
            Ok(status) => status.code().map_or(2, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let cfg = &args.config;
    let Some(workload) = args.workload.as_deref() else {
        return run_all();
    };
    println!(
        "# pscd-benchmark workload={workload} seed={} seconds={} trace={} quick={} cores={}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.quick,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let report = match workload {
        "replay-grid" => run::<replay_grid::ReplayGrid>(cfg, workload),
        "stream-churn" => run::<stream_churn::StreamChurn>(cfg, workload),
        "serve-durable" => run::<serve_durable::ServeDurable>(cfg, workload),
        "match-churn" => run::<match_churn::MatchChurn>(cfg, workload),
        other => {
            eprintln!("unknown workload {other}; --list names them");
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    };
    print_report(
        if cfg.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        },
        &report,
    );
    if let Some(what) = &report.ops.first_failure {
        eprintln!(
            "{workload}: {} operations failed, first: {what}",
            report.ops.failed
        );
        return ExitCode::from(1);
    }
    if let Some(what) = &report.budget_failure {
        eprintln!("{workload}: layer budget: {what}");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
