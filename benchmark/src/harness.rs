//! What every workload shares: the run configuration, failure
//! accounting, span roll-up into per-layer self times, and small
//! statistics helpers. All timing is taken here, from outside the
//! library crates.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use pscd_obs::{SpanEvent, TraceLog, TraceRecorder, TraceSink};
use pscd_sim::SimResult;
use pscd_topology::{FetchCosts, TopologyBuilder};

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Track every harness-side span is recorded on.
pub const MAIN_TRACK: &str = "harness";
/// Root spans of the traced run. Their self time is what no layer
/// accounts for.
pub const SETUP_SPAN: &str = "harness.setup";
pub const ROUND_SPAN: &str = "harness.round";

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// How long the measured phase lasts (rounds are whole, so it
    /// overshoots by at most one round).
    pub seconds: f64,
    pub trace: bool,
    /// Scale / 8, one round: smoke use only.
    pub quick: bool,
    /// `benchmark/out`: traces and the service's temp dirs.
    pub out_dir: PathBuf,
}

impl Config {
    /// The workload's scale, divided by 8 under `--quick`.
    pub fn scale(&self, full: f64) -> f64 {
        if self.quick {
            full / 8.0
        } else {
            full
        }
    }
}

/// One workload: set-up, identical measured rounds, and layer probes.
pub trait Bench: Sized {
    /// Everything before the measured phase. Library calls are wrapped
    /// in spans on `rec` (inert unless tracing).
    fn setup(cfg: &Config, rec: &mut TraceRecorder) -> BenchResult<Self>;

    /// One round of fixed work. Every operation is counted in `ops` and
    /// checked against the set-up oracle or the first round.
    /// `sink` is `rec`'s sink, for library calls that record tracks of
    /// their own.
    fn round(&mut self, sink: &TraceSink, rec: &mut TraceRecorder, ops: &mut Ops) -> Round;

    /// Per-layer metrics of the traced run: roll-ups of `log` (set-up
    /// plus the traced round), exact counts, and direct probes of single
    /// layers that run after the traced round.
    fn layers(&mut self, log: &SpanLog, ops: &mut Ops, out: &mut Metrics) -> BenchResult<()>;
}

/// The fleet's fetch costs from a generated topology, as `repro` builds
/// them (publisher at node 0).
pub fn topology_costs(servers: u16, rec: &mut TraceRecorder) -> BenchResult<FetchCosts> {
    let graph = rec.span("topology.build", || {
        TopologyBuilder::new(servers as usize + 1).seed(42).build()
    })?;
    Ok(rec.span("topology.costs", || FetchCosts::from_topology(&graph, 0))?)
}

/// What one round did.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Timeline events processed.
    pub events: u64,
    /// Host seconds the round's work took (probe slices excluded).
    pub secs: f64,
    /// What one probe step cost while the round ran, in ns.
    pub probe_step_ns: f64,
}

impl Round {
    /// The round's seconds on a host where a probe step costs
    /// [`NOMINAL_STEP_NS`].
    pub fn calibrated_s(&self) -> f64 {
        calibrated(self.secs, self.probe_step_ns)
    }
}

/// `secs` of host time, measured while a probe step cost `step_ns`, as
/// seconds of a host on which it costs [`NOMINAL_STEP_NS`].
fn calibrated(secs: f64, step_ns: f64) -> f64 {
    secs * NOMINAL_STEP_NS / step_ns
}

/// A fixed pure-ALU loop (a splitmix64 chain) run in short slices
/// between the parts of a round: what a step costs says how fast the
/// host is running just then. The host's speed wanders by tens of
/// percent over seconds and over minutes (the same loop reads 0.8 to
/// 1.2 ns per step within one minute), so host seconds alone cannot
/// tell a slow commit from a slow minute.
#[derive(Debug)]
pub struct Probe {
    rng: SplitMix64,
    secs: f64,
    steps: u64,
}

/// The probe speed that calibrated seconds are expressed at.
pub const NOMINAL_STEP_NS: f64 = 1.0;

impl Probe {
    pub fn new() -> Self {
        Self {
            rng: SplitMix64(1),
            secs: 0.0,
            steps: 0,
        }
    }

    pub fn run(&mut self, steps: u64) {
        let t = Instant::now();
        for _ in 0..steps {
            std::hint::black_box(self.rng.next());
        }
        self.secs += t.elapsed().as_secs_f64();
        self.steps += steps;
    }

    /// Mean cost of a step over every slice so far, in ns.
    pub fn step_ns(&self) -> f64 {
        self.secs * 1e9 / self.steps.max(1) as f64
    }

    /// `secs` of host time as calibrated seconds, by every slice so far.
    pub fn calibrated(&self, secs: f64) -> f64 {
        calibrated(secs, self.step_ns())
    }
}

/// Clock of one round. `probe` stops it, runs a probe slice about a
/// twentieth as long as the work since the last one, and restarts it:
/// the workloads call it between the parts of a round (cells, passes,
/// stretches of batches), so the probe samples the host all through the
/// round without being timed as part of it.
#[derive(Debug)]
pub struct RoundClock {
    last: Instant,
    secs: f64,
    probe: Probe,
}

const SLICE_SHARE: f64 = 0.05;
const MIN_SLICE_STEPS: u64 = 1_000_000;

impl RoundClock {
    pub fn start() -> Self {
        let mut probe = Probe::new();
        probe.run(MIN_SLICE_STEPS);
        Self {
            last: Instant::now(),
            secs: 0.0,
            probe,
        }
    }

    pub fn probe(&mut self, rec: &mut TraceRecorder) {
        let part = self.last.elapsed().as_secs_f64();
        self.secs += part;
        let steps = (part * SLICE_SHARE * 1e9 / NOMINAL_STEP_NS) as u64;
        rec.span("harness.probe", || {
            self.probe.run(steps.max(MIN_SLICE_STEPS));
        });
        self.last = Instant::now();
    }

    pub fn finish(mut self, rec: &mut TraceRecorder, events: u64) -> Round {
        self.probe(rec);
        Round {
            events,
            secs: self.secs,
            probe_step_ns: self.probe.step_ns(),
        }
    }
}

/// Operations attempted and failed (an `Err`, or a result that differs
/// from its oracle).
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ops {
    /// Counts one operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// Counts one fallible call, keeping its value.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The harness track of a traced run, with per-label roll-ups.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<SpanEvent>,
}

/// Span labels whose total is a per-layer metric of the same name with
/// `_s` appended, on whichever workload records them.
const TOTALLED_SPANS: [&str; 15] = [
    "workload.generate",
    "workload.subscriptions",
    "workload.live_events",
    "topology.build",
    "topology.costs",
    "sim.compile",
    "sim.compile_from_matcher",
    "sim.replay.construct",
    "sim.replay.run",
    "sim.stream.build",
    "sim.stream.serial_replay",
    "service.new",
    "service.flush",
    "service.shutdown",
    "service.recover",
];

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub label: String,
    pub spans: usize,
    pub self_s: f64,
}

impl SpanLog {
    pub fn from_trace(log: &TraceLog) -> Self {
        let mut spans: Vec<SpanEvent> = log
            .tracks()
            .iter()
            .filter(|t| t.name == MAIN_TRACK)
            .flat_map(|t| t.events.iter().cloned())
            .collect();
        // Parents before children: earlier start first, longer first on ties.
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        Self { spans }
    }

    /// Durations in seconds of every span labelled `label`, in start order.
    pub fn durations(&self, label: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    }

    /// Total seconds under `label`.
    pub fn total(&self, label: &str) -> f64 {
        // Not `sum()`: that of no spans is -0.0, which prints as such.
        self.durations(label).iter().fold(0.0, |a, b| a + b)
    }

    /// The `<label>_s` metrics that are plain totals.
    pub fn totals(&self, out: &mut Metrics) {
        for label in TOTALLED_SPANS {
            out.set(format!("{label}_s"), self.total(label));
        }
    }

    /// Self time per label (a span's duration minus the part its child
    /// spans cover) over the first span labelled `root` and everything
    /// under it, largest first.
    pub fn layer_table(&self, root: &str) -> Vec<LayerRow> {
        let Some(root) = self.spans.iter().find(|s| s.label == root) else {
            return Vec::new();
        };
        let end_ns = root.start_ns + root.dur_ns;
        let spans: Vec<&SpanEvent> = self
            .spans
            .iter()
            .filter(|s| s.start_ns >= root.start_ns && s.start_ns + s.dur_ns <= end_ns)
            .collect();
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
        // Open ancestors of the span being visited, innermost last.
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                let parent = spans[top];
                if span.start_ns >= parent.start_ns + parent.dur_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(span.dur_ns);
            }
            open.push(i);
        }
        let mut by_label: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for (span, ns) in spans.iter().zip(self_ns) {
            let row = by_label.entry(&span.label).or_default();
            row.0 += 1;
            row.1 += ns;
        }
        let mut rows: Vec<LayerRow> = by_label
            .into_iter()
            .map(|(label, (spans, ns))| LayerRow {
                label: label.to_owned(),
                spans,
                self_s: ns as f64 / 1e9,
            })
            .collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((q * (v.len() - 1) as f64).round()) as usize]
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Seconds `f` took, with its value.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The harness's own generator: the probe's chain, and the inputs the
/// library does not generate (background subscriptions).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    // Not an `Iterator`: the stream is endless and the harness only ever
    // pulls single values.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over every field of the results, truncated to 52 bits so the
/// digest survives the trip through a JSON number.
pub fn result_digest<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        for b in r.strategy.bytes() {
            eat(b as u64);
        }
        eat(r.hits);
        eat(r.requests);
        eat(r.traffic.pushed_pages);
        eat(r.traffic.pushed_bytes.as_u64());
        eat(r.traffic.fetched_pages);
        eat(r.traffic.fetched_bytes.as_u64());
        let hourly = &r.hourly;
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
        for &(hits, requests) in &r.per_server {
            eat(hits);
            eat(requests);
        }
    }
    (h & ((1 << 52) - 1)) as f64
}

/// The counts every workload derives from its round's `SimResult`s;
/// exact for a seed.
pub fn result_counts<'a>(
    results: impl IntoIterator<Item = &'a SimResult> + Clone,
    out: &mut Metrics,
) {
    let sum = |f: fn(&SimResult) -> u64| results.clone().into_iter().map(f).sum::<u64>() as f64;
    out.set("sim.hits", sum(|r| r.hits));
    out.set("sim.requests", sum(|r| r.requests));
    out.set("broker.pushed_pages", sum(|r| r.traffic.pushed_pages));
    out.set("broker.fetched_pages", sum(|r| r.traffic.fetched_pages));
    out.set("sim.result_digest", result_digest(results));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            label: label.to_owned(),
            start_ns,
            dur_ns,
            detail: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = TraceLog::new();
        log.add_events(
            MAIN_TRACK,
            vec![
                span("leaf", 10, 20),
                span("mid", 5, 50),
                span("leaf", 60, 30),
                span("root", 0, 100),
            ],
        );
        log.add_events(MAIN_TRACK, vec![span("after the root", 100, 10)]);
        log.add_events("other track", vec![span("ignored", 0, 1_000)]);
        let rows = SpanLog::from_trace(&log).layer_table("root");
        let get = |l: &str| {
            rows.iter()
                .find(|r| r.label == l)
                .map(|r| (r.self_s * 1e9).round())
        };
        // root 100 - mid 50 - second leaf 30; mid 50 - first leaf 20.
        assert_eq!(get("root"), Some(20.0));
        assert_eq!(get("mid"), Some(30.0));
        assert_eq!(get("leaf"), Some(50.0));
        assert_eq!(get("ignored"), None);
        assert_eq!(get("after the root"), None);
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!(
            (total * 1e9 - 100.0).abs() < 1e-6,
            "self times sum to the root"
        );
    }

    #[test]
    fn calibration_scales_by_probe_speed() {
        let round = Round {
            events: 10,
            secs: 3.0,
            probe_step_ns: 1.5,
        };
        assert_eq!(round.calibrated_s(), 2.0);
        let mut probe = Probe::new();
        probe.run(1_000);
        assert!(probe.step_ns() > 0.0);
        let twice = probe.calibrated(2.0) / probe.calibrated(1.0);
        assert!((twice - 2.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }
}
