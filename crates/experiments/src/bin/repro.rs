//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --bin repro -- all          # everything, paper scale
//! cargo run --release --bin repro -- fig4         # one exhibit
//! cargo run --release --bin repro -- table2 --scale 0.05
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_experiments::{
    Exhibit, ExperimentContext, ExperimentError, ObsAudit, Plan, ToCsv, Trace, PAPER_BETA,
};
use pscd_obs::{render_chrome_trace, SpanEvent, TraceSink};
use pscd_sim::{
    CompiledTrace, PrefetchOptions, Replay, SimOptions, SimResult, Simulation, StreamingTrace,
    DEFAULT_PREFETCH_DEPTH,
};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::SimTime;
use pscd_workload::{ScenarioConfig, Workload, WorkloadConfig};

const USAGE: &str = "usage: repro <beta|fig3|fig4|table2|fig5|fig6|fig7|classic|lap-bounds|partition|coverage|shift|crash|invalidation|variance|ablations|all> [--scale FRACTION] [--threads N] [--csv DIR] [--obs-dir DIR [--events]] [--trace FILE]\n       repro scenario <list|NAME|FILE> [--threads N]\n       repro serve --load [--scale FRACTION] [--threads N] [--batch N] [--dir DIR [--snapshot-every K]]\n       repro counters [--scale FRACTION] [--seed N]   (a build with --features counters)";

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
const COUNTERS_FLAGS: &[&str] = &["--scale", "--seed"];
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
    cli(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

/// The value after a flag if it parses and `ok` accepts it, else the
/// flag's complaint.
fn value<T: std::str::FromStr>(
    next: Option<&String>,
    ok: impl Fn(&T) -> bool,
    complaint: &str,
) -> Result<T, String> {
    (next.and_then(|v| v.parse().ok()))
        .filter(ok)
        .ok_or_else(|| complaint.to_owned())
}

/// Parses the arguments and runs the subcommand; `Err` is the message
/// `repro` exits 1 with.
fn cli(args: &[String]) -> Result<ExitCode, String> {
    fn any<T>(_: &T) -> bool {
        true
    }
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
    let mut seed = 0u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            given.push(arg);
        }
        match arg.as_str() {
            "--scale" => {
                let complaint = "--scale needs a fraction in (0, 1]";
                scale = value(it.next(), |&v| v > 0.0 && v <= 1.0, complaint)?;
            }
            "--threads" => {
                threads = value(it.next(), any, "--threads needs a worker count (0 = auto)")?;
            }
            "--csv" => csv_dir = Some(value(it.next(), any, "--csv needs a directory")?),
            "--obs-dir" => obs_dir = Some(value(it.next(), any, "--obs-dir needs a directory")?),
            "--trace" => {
                let complaint = "--trace needs an output file (Chrome trace-event JSON)";
                trace_file = Some(value(it.next(), any, complaint)?);
            }
            "--events" => events = true,
            "--load" => load = true,
            "--batch" => {
                let complaint = "--batch needs a positive ingest batch size";
                batch = value(it.next(), |&n| n > 0, complaint)?;
            }
            "--snapshot-every" => {
                let complaint = "--snapshot-every needs an event count (0 = never)";
                snapshot_every = value(it.next(), any, complaint)?;
            }
            "--seed" => seed = value(it.next(), any, "--seed needs a workload seed")?,
            "--dir" => {
                let complaint = "--dir needs a directory for the journal and snapshots";
                serve_dir = Some(value(it.next(), any, complaint)?);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown argument: {other}\n{USAGE}"))
            }
            name if exhibit.is_none() => exhibit = Some(name.to_owned()),
            name if exhibit.as_deref() == Some("scenario") && scenario_arg.is_none() => {
                scenario_arg = Some(name.to_owned())
            }
            other => return Err(format!("unexpected argument: {other}\n{USAGE}")),
        }
    }
    let exhibit = exhibit.ok_or(USAGE)?;
    let accepted = match exhibit.as_str() {
        "scenario" => SCENARIO_FLAGS,
        "serve" => SERVE_FLAGS,
        "counters" => COUNTERS_FLAGS,
        _ => EXHIBIT_FLAGS,
    };
    // Refuse a flag the subcommand would not use instead of silently
    // dropping it.
    if let Some(flag) = given.iter().find(|flag| !accepted.contains(flag)) {
        return Err(format!("repro {exhibit} does not take {flag}\n{USAGE}"));
    }
    if events && obs_dir.is_none() {
        return Err(format!("--events requires --obs-dir\n{USAGE}"));
    }
    if given.contains(&"--snapshot-every") && serve_dir.is_none() {
        return Err(format!("--snapshot-every requires --dir\n{USAGE}"));
    }
    let failed = |e: ExperimentError| format!("error: {e}");
    if exhibit == "scenario" {
        let arg = scenario_arg.ok_or(format!("scenario needs <list|NAME|FILE>\n{USAGE}"))?;
        run_scenario(&arg, threads).map_err(failed)?;
        return Ok(ExitCode::SUCCESS);
    }
    if exhibit == "serve" {
        if !load {
            return Err(format!(
                "serve has no network listener yet; run the seeded load generator with --load\n{USAGE}"
            ));
        }
        run_serve(scale, threads, batch, snapshot_every, serve_dir.as_deref()).map_err(failed)?;
        return Ok(ExitCode::SUCCESS);
    }
    if exhibit == "counters" {
        if !pscd_types::counters::ENABLED {
            return Err(format!(
                "repro counters needs a build with --features counters\n{USAGE}"
            ));
        }
        run_counters(scale, seed).map_err(failed)?;
        return Ok(ExitCode::SUCCESS);
    }
    let outputs = Outputs {
        csv_dir: csv_dir.as_deref(),
        obs_dir: obs_dir.as_deref(),
        trace_file: trace_file.as_deref(),
        events,
    };
    match run(&exhibit, scale, threads, &outputs).map_err(failed)? {
        true => Ok(ExitCode::SUCCESS),
        false => Err(format!("unknown exhibit: {exhibit}\n{USAGE}")),
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
    let (workload, subs) = ctx.generate(&ctx.base(Trace::News))?;
    let events = workload.live_events(&subs);
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
        result.hit_ratio(),
        result.traffic.pushed_pages,
        result.traffic.fetched_pages
    );
    Ok(())
}

/// `repro counters`: the `replay-grid` benchmark's 48 cells — 12
/// strategies over NEWS at 1 % and 10 %, ALTERNATIVE at 5 % under
/// Always-Pushing, and NEWS at 5 % under Pushing-When-Necessary with
/// invalidation — replayed one at a time on one thread. Prints one CSV row
/// per cell: the work counters of its construction and replay, and its
/// `SimResult` digest, so two builds' rows diff line by line.
fn run_counters(scale: f64, seed: u64) -> Result<(), ExperimentError> {
    use pscd_types::counters::{self, Counter};
    let beta = PAPER_BETA;
    let lineup = [
        StrategyKind::Lru,
        StrategyKind::Gds,
        StrategyKind::LfuDa,
        StrategyKind::GdStar { beta },
        StrategyKind::Sub,
        StrategyKind::Sg1 { beta },
        StrategyKind::Sg2 { beta },
        StrategyKind::Sr,
        StrategyKind::Dm { beta },
        StrategyKind::dc_fp(beta),
        StrategyKind::DcAp { beta },
        StrategyKind::dc_lap(beta),
    ];
    eprintln!("generating workloads (scale = {scale}, seed = {seed}) …");
    let mut traces = Vec::with_capacity(2);
    // Cost servers as the benchmark takes them: the last workload's.
    let mut servers = 0;
    for config in [
        WorkloadConfig::news_scaled(scale),
        WorkloadConfig::alternative_scaled(scale),
    ] {
        let workload = Workload::generate(&config.with_seed(seed))?;
        let subs = workload.subscriptions(1.0)?;
        traces.push(CompiledTrace::compile(&workload, &subs)?);
        servers = workload.server_count();
    }
    let topo = TopologyBuilder::new(servers as usize + 1)
        .seed(42)
        .build()?;
    let costs = FetchCosts::from_topology(&topo, 0)?;
    let columns = [
        ("news", 0.01, PushScheme::Always),
        ("news", 0.10, PushScheme::Always),
        ("alternative", 0.05, PushScheme::Always),
        ("news", 0.05, PushScheme::WhenNecessary),
    ];
    let labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
    println!(
        "trace,capacity,scheme,strategy,events,requests,{},digest",
        labels.join(",")
    );
    for (trace_name, capacity, scheme) in columns {
        let trace = &traces[usize::from(trace_name == "alternative")];
        for kind in lineup {
            let mut options = SimOptions::at_capacity(kind, capacity).with_threads(1);
            if scheme == PushScheme::WhenNecessary {
                options = options.with_invalidation();
                options.scheme = scheme;
            }
            counters::reset();
            let result = Simulation::from_compiled(trace, &costs, &options)?.run();
            let counts = counters::snapshot();
            let row: Vec<String> = counts.iter().map(|(_, n)| n.to_string()).collect();
            println!(
                "{trace_name},{capacity},{scheme:?},{},{},{},{},{:016x}",
                kind.name(),
                trace.len(),
                result.requests,
                row.join(","),
                result_digest(&result)
            );
        }
    }
    Ok(())
}

/// FNV-1a over every field of a replay's result.
fn result_digest(result: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    result.strategy.bytes().for_each(|b| eat(u64::from(b)));
    let traffic = &result.traffic;
    for v in [
        result.hits,
        result.requests,
        traffic.pushed_pages,
        traffic.pushed_bytes.as_u64(),
        traffic.fetched_pages,
        traffic.fetched_bytes.as_u64(),
    ] {
        eat(v);
    }
    let hourly = &result.hourly;
    for series in [
        &hourly.hits,
        &hourly.requests,
        &hourly.pushed_pages,
        &hourly.pushed_bytes,
        &hourly.fetched_pages,
        &hourly.fetched_bytes,
    ] {
        series.iter().copied().for_each(&mut eat);
    }
    for &(hits, requests) in &result.per_server {
        eat(hits);
        eat(requests);
    }
    h
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
    // One production of the stream feeds the whole lineup.
    let prefetch = PrefetchOptions::new(DEFAULT_PREFETCH_DEPTH);
    let lineup: Vec<SimOptions> = (StrategyKind::figure4_lineup(PAPER_BETA).into_iter())
        .map(|kind| SimOptions::at_capacity(kind, 0.05).with_threads(threads))
        .collect();
    let results = Replay::prefetched(&stream, prefetch, &costs).run(&lineup)?;
    for (options, result) in lineup.iter().zip(results) {
        println!(
            "{:<8} {:>9.4} {:>12} {:>13}",
            options.strategy.name(),
            result.hit_ratio(),
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
    let chosen = Exhibit::selected(exhibit);
    if chosen.is_empty() {
        return Ok(false);
    }
    let sink = if outputs.trace_file.is_some() {
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
    eprintln!("replaying {} exhibit(s) as one plan …", chosen.len());
    let plan = Plan::run(chosen, &ctx)?;
    eprintln!("plan: {plan}");
    for table in plan.tables(&ctx) {
        println!("{table}");
        if let Some(dir) = outputs.csv_dir.filter(|_| !table.to_csv().is_empty()) {
            for path in table.write_csv(dir)? {
                eprintln!("wrote {}", path.display());
            }
        }
    }
    let lineup = if exhibit == "fig3" {
        StrategyKind::figure3_lineup(PAPER_BETA)
    } else {
        StrategyKind::figure4_lineup(PAPER_BETA)
    };
    if let Some(dir) = outputs.obs_dir {
        // Instrumented replay of the exhibit's lineup at the paper's
        // middle capacity: sharded with hard-checked merge totals, or
        // serial with a full decision log when --events is set.
        eprintln!(
            "replaying {} strategies with observers (events: {}) …",
            lineup.len(),
            outputs.events
        );
        let audit = ObsAudit::run_traced(&ctx, &lineup, 0.05, dir, outputs.events, &sink)?;
        for row in &audit.rows {
            eprintln!(
                "  {:>6}: requests {}  hits {}  pushed {}  events {}",
                row.strategy, row.requests, row.hits, row.pushed_pages, row.events_written
            );
        }
        eprintln!("wrote {}", dir.join("summary.txt").display());
    } else if outputs.trace_file.is_some() {
        // No audit replay to trace: record one sharded replay of the
        // lineup's lead strategy so the timeline has per-shard tracks.
        let kind = lineup[0];
        eprintln!("tracing a sharded replay of {} …", kind.name());
        let compiled = ctx.compiled(Trace::News, 1.0)?;
        let options = SimOptions::at_capacity(kind, 0.05).with_threads(ctx.threads());
        Replay::compiled(&compiled, ctx.costs())
            .traced(&sink)
            .run(&[options])?;
    }
    if let Some(path) = outputs.trace_file {
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
    Ok(true)
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
