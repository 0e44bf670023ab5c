//! The committed perf-trajectory harness behind `repro bench`.
//!
//! Every PR that claims a performance win needs a number the next PR can
//! be compared against, so this module runs a **pinned suite** — hot-loop
//! ns/event for four representative strategies, the three cold-path
//! phases, the match kernel, and one end-to-end exhibit — and renders the
//! result as a schema'd JSON document (`BENCH_<pr>.json`) committed at
//! the repo root. Each benchmark reports the median, p10 and p90 of its
//! samples, plus the git sha and host shape the samples were taken on,
//! so deltas across PRs can be separated from host-to-host variance.
//!
//! The JSON is emitted and validated without any JSON dependency: the
//! emitter is hand-formatted (like the `jsonl` observer) and
//! [`validate_bench_json`] carries a minimal parser, which is what the
//! CI `bench-smoke` job runs against `repro bench --quick` output.

use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_matching::{
    Content, FrozenIndex, MatchScratch, Predicate, Subscription, SubscriptionId, SymbolTable, Value,
};
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{simulate_compiled, PrefetchOptions, ReplaySource, SimOptions, StreamingTrace};
use pscd_types::SimTime;
use pscd_workload::{Workload, WorkloadConfig};

use crate::{ExperimentContext, ExperimentError, Table2, Trace};

/// Schema identifier emitted in (and required of) every bench document.
pub const BENCH_SCHEMA: &str = "pscd-bench/1";

/// The PR this harness ships in; names the default output file
/// (`BENCH_10.json`).
pub const BENCH_PR: u32 = 10;

/// Minimum benchmarks a valid document must carry (the pinned suite has
/// fourteen; a shrunk document means the suite silently lost coverage).
pub const MIN_BENCHMARKS: usize = 8;

/// One benchmark's summarized samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Suite-pinned benchmark name (`hot_loop.sg2`, `cold.compile`, …).
    pub name: String,
    /// Unit of the three statistics (`ns/event`, `ms`, `Mmatch/s`).
    pub unit: String,
    /// Number of samples taken.
    pub samples: usize,
    /// Median sample.
    pub median: f64,
    /// 10th-percentile sample (nearest rank).
    pub p10: f64,
    /// 90th-percentile sample (nearest rank).
    pub p90: f64,
}

/// A full `repro bench` run: host/provenance header plus one
/// [`BenchRow`] per suite entry.
#[derive(Debug)]
pub struct BenchReport {
    /// `git rev-parse HEAD` at run time (`unknown` outside a checkout).
    pub git_sha: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// The machine's available parallelism.
    pub threads: usize,
    /// Workload scale the suite ran at.
    pub scale: f64,
    /// Whether this was the CI quick mode.
    pub quick: bool,
    /// The suite results, in suite order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// Runs the pinned suite. `quick` shrinks the workload scale and the
    /// sample count for CI smoke coverage — same suite, same schema,
    /// smaller numbers.
    ///
    /// # Errors
    ///
    /// Propagates generation/simulation failures (none occur for the
    /// pinned configurations).
    pub fn run(quick: bool) -> Result<Self, ExperimentError> {
        let scale = if quick { 0.01 } else { 0.05 };
        let n = if quick { 2 } else { 5 };
        let mut rows = Vec::new();

        // Cold-path phases, measured serially regenerated per sample (the
        // auto thread count, like `repro` itself runs them).
        let config = WorkloadConfig::news_scaled(scale);
        rows.push(summarize(
            "cold.generate.news",
            "ms",
            sample(n, || {
                let t = Instant::now();
                Workload::generate_threads(&config, 0)?;
                Ok(millis(t))
            })?,
        ));
        let workload = Workload::generate_threads(&config, 0)?;
        rows.push(summarize(
            "cold.subscriptions",
            "ms",
            sample(n, || {
                let t = Instant::now();
                workload.subscriptions_threads(1.0, 0)?;
                Ok(millis(t))
            })?,
        ));
        let subs = workload.subscriptions_threads(1.0, 0)?;
        rows.push(summarize(
            "cold.compile",
            "ms",
            sample(n, || {
                let t = Instant::now();
                CompiledTrace::compile_threads(&workload, &subs, 0)?;
                Ok(millis(t))
            })?,
        ));

        // The streaming alternative to cold.compile: build the windowed
        // source and drain one full 24-hour-window pass (same compiled
        // events, O(window) resident), plus the peak window-buffer bytes
        // that bound its resident compile state.
        let window = SimTime::from_hours(24);
        rows.push(summarize(
            "cold.stream",
            "ms",
            sample(n, || {
                let t = Instant::now();
                let stream = StreamingTrace::new(&config, 1.0, window, 0)?;
                let mut pass = stream.open();
                while pass.next_window().is_some() {}
                Ok(millis(t))
            })?,
        ));
        // The pipelined streaming path: compile-ahead prefetcher
        // overlapping generation/compilation with the drain, measured at
        // depth 4 (the depth the perf trajectory tracks; the API default
        // is `DEFAULT_PREFETCH_DEPTH` = 2 — see EXPERIMENTS.md for the
        // depth sweep). Construction is inside the timer like
        // `cold.stream`, so the two rows price the same work end to end.
        rows.push(summarize(
            "cold.stream.pipelined",
            "ms",
            sample(n, || {
                let t = Instant::now();
                let stream = StreamingTrace::new(&config, 1.0, window, 0)?;
                stream.drain_prefetched(&PrefetchOptions::new(4));
                Ok(millis(t))
            })?,
        ));
        let stream = StreamingTrace::new(&config, 1.0, window, 0)?;
        rows.push(summarize(
            "cold.stream.peak_bytes",
            "MB",
            sample(n, || {
                let mut pass = stream.open();
                let mut peak = 0usize;
                while pass.next_window().is_some() {
                    peak = peak.max(pass.buffer_bytes());
                }
                Ok(peak as f64 / 1e6)
            })?,
        ));

        // Hot loop: sequential replay ns/event for four strategies that
        // cover the implementation families (access-only GD*, push-all
        // SUB, subscription-aware SG2, adaptive dual-cache DC-LAP).
        let ctx = ExperimentContext::scaled(scale, 0, pscd_obs::TraceSink::disabled())?;
        let compiled = ctx.compiled(Trace::News, 1.0)?;
        let events = compiled.len().max(1) as f64;
        for (name, kind) in [
            ("hot_loop.gdstar", StrategyKind::GdStar { beta: 2.0 }),
            ("hot_loop.sub", StrategyKind::Sub),
            ("hot_loop.sg2", StrategyKind::Sg2 { beta: 2.0 }),
            ("hot_loop.dc_lap", StrategyKind::dc_lap(2.0)),
        ] {
            let options = SimOptions::at_capacity(kind, 0.05);
            rows.push(summarize(
                name,
                "ns/event",
                sample(n, || {
                    let t = Instant::now();
                    simulate_compiled(&compiled, ctx.costs(), &options)?;
                    Ok(t.elapsed().as_nanos() as f64 / events)
                })?,
            ));
        }

        // Service mode sustained ingest: the same events the hot loop
        // replays, fed through the live front door (resolve + journal-less
        // inline apply) in 256-event batches.
        let live_events = workload.live_events(&subs);
        rows.push(summarize(
            "service.sustained_load",
            "kevent/s",
            sample(n, || {
                let service_config = pscd_service::ServiceConfig::new(
                    StrategyKind::Sg2 { beta: 2.0 },
                    compiled.capacities(0.05),
                    ctx.costs().iter().collect(),
                    pscd_broker::PushScheme::Always,
                    compiled.pages().iter().copied().collect(),
                    compiled.hours(),
                );
                let mut core = pscd_service::ServiceCore::new(service_config)?;
                let mut registry = pscd_obs::Registry::new();
                let report = pscd_service::run_load(
                    &mut core,
                    &live_events,
                    256,
                    &mut registry,
                    &pscd_obs::TraceSink::disabled(),
                )?;
                Ok(report.events_per_sec / 1e3)
            })?,
        ));

        // Match kernel over a large equality+tag population: the one-time
        // freeze, then matching throughput (samples time matching only).
        let (subs, contents) = bench_subscriptions(if quick { 100_000 } else { 1_000_000 });
        rows.push(summarize(
            "match_kernel.freeze_build",
            "ms",
            sample(n, || {
                let t = Instant::now();
                let frozen = FrozenIndex::freeze(&subs, &mut SymbolTable::new());
                let ms = millis(t);
                std::hint::black_box(frozen.len());
                Ok(ms)
            })?,
        ));
        let mut symbols = SymbolTable::new();
        let frozen = FrozenIndex::freeze(&subs, &mut symbols);
        rows.push(summarize(
            "match_kernel.frozen",
            "Mmatch/s",
            sample(n, || {
                let mut scratch = MatchScratch::new();
                let mut out = Vec::new();
                let mut total = 0usize;
                let t = Instant::now();
                for content in &contents {
                    frozen.matches_into(&symbols, content, &mut scratch, &mut out);
                    total += out.len();
                }
                Ok(total as f64 / t.elapsed().as_secs_f64() / 1e6)
            })?,
        ));

        // End-to-end exhibit wall time (compiled traces pre-warmed above,
        // so this prices the replay grid, not the cold path).
        ctx.compiled(Trace::Alternative, 1.0)?;
        rows.push(summarize(
            "exhibit.table2",
            "ms",
            sample(n, || {
                let t = Instant::now();
                Table2::run(&ctx)?;
                Ok(millis(t))
            })?,
        ));

        Ok(Self {
            git_sha: git_sha(),
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            scale,
            quick,
            rows,
        })
    }

    /// Renders the report as the schema'd JSON document (one benchmark
    /// per line, trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512 + self.rows.len() * 128);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", BENCH_SCHEMA);
        let _ = writeln!(out, "  \"pr\": {},", BENCH_PR);
        let _ = writeln!(out, "  \"git_sha\": \"{}\",", escape(&self.git_sha));
        let _ = writeln!(
            out,
            "  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"threads\": {}}},",
            escape(&self.os),
            escape(&self.arch),
            self.threads
        );
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        out.push_str("  \"benchmarks\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"samples\": {}, \
                 \"median\": {}, \"p10\": {}, \"p90\": {}}}",
                escape(&row.name),
                escape(&row.unit),
                row.samples,
                Num(row.median),
                Num(row.p10),
                Num(row.p90),
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A short human-readable table of the report (stdout of `repro bench`).
impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "# bench: sha {} · {}/{} · {} threads · scale {}{}",
            &self.git_sha[..self.git_sha.len().min(12)],
            self.os,
            self.arch,
            self.threads,
            self.scale,
            if self.quick { " · quick" } else { "" }
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<28} {:>12.3} {:<9} (p10 {:.3}, p90 {:.3}, n={})",
                row.name, row.median, row.unit, row.p10, row.p90, row.samples
            )?;
        }
        Ok(())
    }
}

fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn sample(
    n: usize,
    mut f: impl FnMut() -> Result<f64, ExperimentError>,
) -> Result<Vec<f64>, ExperimentError> {
    (0..n.max(1)).map(|_| f()).collect()
}

/// Collapses samples into a row: nearest-rank p10/median/p90 over the
/// sorted values.
fn summarize(name: &str, unit: &str, mut samples: Vec<f64>) -> BenchRow {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let q = |q: f64| samples[((q * (samples.len() - 1) as f64).round()) as usize];
    BenchRow {
        name: name.to_owned(),
        unit: unit.to_owned(),
        samples: samples.len(),
        median: q(0.5),
        p10: q(0.1),
        p90: q(0.9),
    }
}

/// A large equality+tag subscription population, numbered as one proxy's
/// (the shape of the criterion `cold_match_1m_subs` bench), plus a fixed
/// content batch.
fn bench_subscriptions(subs: usize) -> (Vec<(SubscriptionId, Subscription)>, Vec<Content>) {
    const CATEGORIES: usize = 2_000;
    let categories: Vec<String> = (0..CATEGORIES).map(|i| format!("cat{i}")).collect();
    let mut rows = Vec::with_capacity(subs);
    for i in 0..subs {
        let cat = &categories[i % CATEGORIES];
        let sub = if i % 10 == 0 {
            Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", "breaking"),
            ])
        } else {
            Subscription::new(vec![Predicate::eq("category", Value::str(cat))])
        };
        rows.push((SubscriptionId::new(i as u64), sub));
    }
    let contents = (0..64usize)
        .map(|i| {
            Content::new()
                .with("category", Value::str(&categories[(i * 31) % CATEGORIES]))
                .with(
                    "tags",
                    Value::tags(if i % 2 == 0 { ["breaking"] } else { ["local"] }),
                )
        })
        .collect();
    (rows, contents)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A float rendered as JSON (finite, shortest-ish form with three
/// decimals of precision).
struct Num(f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.0.is_finite() {
            return write!(f, "0");
        }
        if self.0 == self.0.trunc() && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{:.3}", self.0)
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Validation: a minimal JSON reader (no dependency) plus the schema
// checks the CI bench-smoke job runs.

/// A parsed JSON value (just enough for validation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn document(&mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }
}

/// Validates a `BENCH_*.json` document against the `pscd-bench/1`
/// schema. Returns the number of benchmarks on success and the first
/// problem found otherwise — the contract the CI `bench-smoke` job
/// enforces on `repro bench --quick` output.
///
/// # Errors
///
/// Returns a description of the first malformation: unparseable JSON,
/// wrong/missing schema marker, missing provenance fields, fewer than
/// [`MIN_BENCHMARKS`] benchmarks, or a benchmark row with missing or
/// non-finite statistics (including `p10 > median` / `median > p90`).
pub fn validate_bench_json(text: &str) -> Result<usize, String> {
    let doc = Parser::new(text).document()?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema is {schema:?}, want {BENCH_SCHEMA:?}"));
    }
    doc.get("pr")
        .and_then(Json::as_num)
        .filter(|n| *n >= 1.0)
        .ok_or("missing numeric \"pr\"")?;
    let sha = doc
        .get("git_sha")
        .and_then(Json::as_str)
        .ok_or("missing \"git_sha\"")?;
    if sha.is_empty() {
        return Err("empty git_sha".to_owned());
    }
    let host = doc.get("host").ok_or("missing \"host\"")?;
    for key in ["os", "arch"] {
        host.get(key)
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("missing host.{key}"))?;
    }
    host.get("threads")
        .and_then(Json::as_num)
        .filter(|n| *n >= 1.0)
        .ok_or("missing host.threads")?;
    let Some(Json::Arr(rows)) = doc.get("benchmarks") else {
        return Err("missing \"benchmarks\" array".to_owned());
    };
    if rows.len() < MIN_BENCHMARKS {
        return Err(format!(
            "only {} benchmarks, want at least {MIN_BENCHMARKS}",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("benchmark {i}: missing name"))?;
        row.get("unit")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("{name}: missing unit"))?;
        row.get("samples")
            .and_then(Json::as_num)
            .filter(|n| *n >= 1.0)
            .ok_or_else(|| format!("{name}: missing samples"))?;
        let stat = |key: &str| {
            row.get(key)
                .and_then(Json::as_num)
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("{name}: missing finite {key}"))
        };
        let (median, p10, p90) = (stat("median")?, stat("p10")?, stat("p90")?);
        if p10 > median || median > p90 {
            // Name the tolerance band, not just the mismatch: the median
            // must sit inside [p10, p90] for the row to be coherent.
            return Err(format!(
                "{name}: median {median} outside its tolerance band [p10 {p10}, p90 {p90}] \
                 (quantiles must satisfy p10 <= median <= p90)"
            ));
        }
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> BenchReport {
        BenchReport {
            git_sha: "abc123".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            threads: 4,
            scale: 0.01,
            quick: true,
            rows: (0..MIN_BENCHMARKS)
                .map(|i| BenchRow {
                    name: format!("bench.{i}"),
                    unit: "ms".into(),
                    samples: 3,
                    median: 2.0 + i as f64,
                    p10: 1.0,
                    p90: 30.5,
                })
                .collect(),
        }
    }

    #[test]
    fn emitted_json_validates_round_trip() {
        let report = fake_report();
        let json = report.to_json();
        assert_eq!(validate_bench_json(&json), Ok(MIN_BENCHMARKS));
        assert!(json.contains("\"schema\": \"pscd-bench/1\""));
        assert!(json.contains("\"name\": \"bench.0\""));
        let text = report.to_string();
        assert!(text.contains("bench.0"));
        assert!(text.contains("abc123"));
    }

    #[test]
    fn validator_rejects_malformations() {
        let ok = fake_report().to_json();
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").unwrap_err().contains("schema"));
        assert!(validate_bench_json(&ok.replace("pscd-bench/1", "other/9")).is_err());
        // A quantile violation names the tolerance band and the value
        // that fell outside it, not just a bare mismatch.
        let band =
            validate_bench_json(&ok.replace("\"median\": 2.0", "\"median\": 0.5")).unwrap_err();
        assert!(band.contains("tolerance band"), "{band}");
        assert!(band.contains("[p10 1"), "{band}");
        assert!(band.contains("median 0.5"), "{band}");
        let mut few = fake_report();
        few.rows.truncate(2);
        assert!(validate_bench_json(&few.to_json())
            .unwrap_err()
            .contains("benchmarks"));
        // Trailing garbage is malformed, not silently accepted.
        assert!(validate_bench_json(&format!("{ok}]")).is_err());
    }

    #[test]
    fn summarize_orders_quantiles() {
        let row = summarize("x", "ms", vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(row.median, 3.0);
        assert_eq!(row.p10, 1.0);
        assert_eq!(row.p90, 5.0);
        assert_eq!(row.samples, 5);
        let single = summarize("y", "ms", vec![7.0]);
        assert_eq!((single.p10, single.median, single.p90), (7.0, 7.0, 7.0));
    }

    #[test]
    fn quick_suite_runs_and_validates() {
        let report = BenchReport::run(true).unwrap();
        assert!(report.rows.len() >= MIN_BENCHMARKS);
        assert!(report.quick);
        let json = report.to_json();
        let n = validate_bench_json(&json).unwrap();
        assert_eq!(n, report.rows.len());
        for row in &report.rows {
            assert!(row.median.is_finite() && row.median >= 0.0, "{}", row.name);
            assert!(
                row.p10 <= row.median && row.median <= row.p90,
                "{}",
                row.name
            );
        }
        // The pinned suite names stay pinned — the trajectory depends on
        // cross-PR comparability.
        let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "cold.generate.news",
            "cold.subscriptions",
            "cold.compile",
            "cold.stream",
            "cold.stream.pipelined",
            "cold.stream.peak_bytes",
            "service.sustained_load",
            "hot_loop.gdstar",
            "hot_loop.sub",
            "hot_loop.sg2",
            "hot_loop.dc_lap",
            "match_kernel.freeze_build",
            "match_kernel.frozen",
            "exhibit.table2",
        ] {
            assert!(names.contains(&expected), "suite lost {expected}");
        }
    }
}
