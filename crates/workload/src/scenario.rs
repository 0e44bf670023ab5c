//! Config-driven scenario library: named workload shapes beyond the
//! paper's stationary NEWS/ALTERNATIVE traces.
//!
//! The paper evaluates one stationary workload; modern content systems
//! see bursty, shifting request processes ("Paging with Multiple Caches")
//! and placement behavior differentiates under catalog churn ("Flexible
//! Content Placement using Reinforced Counters"). A [`ScenarioConfig`]
//! captures such a shape as *data* — scale, popularity skew, churn
//! intensity, flash crowds, diurnal cycles — so new workloads are config
//! files selectable from the `repro` CLI rather than hard-coded drivers.
//!
//! Non-stationarity is expressed as a [`TimeWarp`]: a monotone
//! piecewise-linear remap of request instants built from an hourly
//! intensity profile. The warp is applied **per event, before the final
//! stable time-sort**, in both the monolithic generator
//! ([`ScenarioConfig::build`]) and the streaming replay source — the
//! single point that keeps the two paths bit-identical under warping.
//!
//! Scenario files use a line-oriented `key = value` text codec written
//! here by hand: the vendored `serde` is a no-op marker shim (derives
//! expand to nothing), so the derive attributes document intent while
//! [`ScenarioConfig::to_text`]/[`ScenarioConfig::from_text`] do the work,
//! rejecting unknown fields like a `deny_unknown_fields` container.

use std::fmt;

use pscd_pool::parallel_chunked;
use serde::{Deserialize, Serialize};

use pscd_types::{RequestTrace, SimTime};

use crate::{
    generate_publishing, PageScratch, PublishingConfig, RequestConfig, RequestStream, Workload,
    WorkloadConfig, WorkloadError,
};

/// Pages per pool job when a scenario regenerates its request trace.
const PAGE_CHUNK: usize = 256;

/// A transient request surge: the hourly intensity gains `boost` over
/// `[start_hour, start_hour + duration_hours)`, pulling request instants
/// into the surge window through the [`TimeWarp`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowd {
    /// Surge start, in hours since the trace began.
    pub start_hour: f64,
    /// Surge length in hours.
    pub duration_hours: f64,
    /// Added intensity relative to the baseline of 1 (a boost of 12 makes
    /// a surge hour ~13× as request-dense as a quiet one).
    pub boost: f64,
}

/// A 24-hour request-intensity cycle:
/// `1 + amplitude · cos(2π · (hour − peak_hour) / 24)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCycle {
    /// Hour-of-day (0–24) of peak intensity.
    pub peak_hour: f64,
    /// Peak-to-mean intensity ratio minus one, in `[0, 1)` (0 = flat).
    pub amplitude: f64,
}

/// A named, serializable workload shape. [`workload_config`] derives the
/// generator knobs, [`time_warp`] the request-intensity remap, and
/// [`build`] the full [`Workload`]; [`shipped`] lists the library.
///
/// [`workload_config`]: ScenarioConfig::workload_config
/// [`time_warp`]: ScenarioConfig::time_warp
/// [`build`]: ScenarioConfig::build
/// [`shipped`]: ScenarioConfig::shipped
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Scenario name (also the `repro` selector).
    pub name: String,
    /// Master seed for all derived randomness.
    pub seed: u64,
    /// Volume scale relative to the paper's full MSNBC trace (1.0 =
    /// 30,147 pages / ~195,000 requests per 7 days).
    pub scale: f64,
    /// Zipf–Mandelbrot popularity exponent (1.5 NEWS, 1.0 ALTERNATIVE).
    pub zipf_alpha: f64,
    /// Trace horizon in days.
    pub horizon_days: u32,
    /// Fraction of distinct pages that receive modified versions (the
    /// paper's catalog: 2,400 / 6,000 = 0.4). Higher = faster
    /// publish/perish churn.
    pub churn_updated_fraction: f64,
    /// Mean modified versions per updated page over the horizon (the
    /// paper: ~24,147 / 2,400 ≈ 10). Higher = shorter page lifetimes.
    pub churn_versions_per_update: f64,
    /// Transient request surges, applied through the [`TimeWarp`].
    pub flash_crowds: Vec<FlashCrowd>,
    /// Optional 24-hour intensity cycle.
    pub diurnal: Option<DiurnalCycle>,
}

impl ScenarioConfig {
    /// The MSNBC-like news baseline: the paper's shape at 5% volume with
    /// no non-stationarity — the reference the other scenarios perturb.
    pub fn news_baseline() -> Self {
        Self {
            name: "news-baseline".to_owned(),
            seed: 0,
            scale: 0.05,
            zipf_alpha: 1.5,
            horizon_days: 7,
            churn_updated_fraction: 0.4,
            churn_versions_per_update: 10.0,
            flash_crowds: Vec::new(),
            diurnal: None,
        }
    }

    /// Catalog churn with publish/perish dynamics: most pages get
    /// updated, and updated pages turn over twice as fast — push-time
    /// placement must keep re-earning its cache slots.
    pub fn catalog_churn() -> Self {
        Self {
            name: "catalog-churn".to_owned(),
            churn_updated_fraction: 0.9,
            churn_versions_per_update: 20.0,
            ..Self::news_baseline()
        }
    }

    /// Flash crowds: two request surges (a 6-hour 12× event on day 2 and
    /// a sharper 3-hour 25× event on day 5) on the news baseline.
    pub fn flash_crowds() -> Self {
        Self {
            name: "flash-crowds".to_owned(),
            flash_crowds: vec![
                FlashCrowd {
                    start_hour: 48.0,
                    duration_hours: 6.0,
                    boost: 12.0,
                },
                FlashCrowd {
                    start_hour: 120.0,
                    duration_hours: 3.0,
                    boost: 25.0,
                },
            ],
            ..Self::news_baseline()
        }
    }

    /// Diurnal cycles: a strong evening-peaked 24-hour request rhythm on
    /// the news baseline.
    pub fn diurnal() -> Self {
        Self {
            name: "diurnal".to_owned(),
            diurnal: Some(DiurnalCycle {
                peak_hour: 20.0,
                amplitude: 0.7,
            }),
            ..Self::news_baseline()
        }
    }

    /// The shipped scenario library, in presentation order.
    pub fn shipped() -> Vec<Self> {
        vec![
            Self::news_baseline(),
            Self::catalog_churn(),
            Self::flash_crowds(),
            Self::diurnal(),
        ]
    }

    /// Looks a shipped scenario up by name.
    pub fn shipped_by_name(name: &str) -> Option<Self> {
        Self::shipped().into_iter().find(|s| s.name == name)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.name.is_empty() {
            return Err(WorkloadError::invalid("name", "non-empty"));
        }
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(WorkloadError::invalid("scale", "> 0"));
        }
        if self.horizon_days == 0 {
            return Err(WorkloadError::invalid("horizon_days", ">= 1"));
        }
        if !(0.0..=1.0).contains(&self.churn_updated_fraction) {
            return Err(WorkloadError::invalid(
                "churn_updated_fraction",
                "in [0, 1]",
            ));
        }
        if !self.churn_versions_per_update.is_finite() || self.churn_versions_per_update < 0.0 {
            return Err(WorkloadError::invalid(
                "churn_versions_per_update",
                "finite and >= 0",
            ));
        }
        for crowd in &self.flash_crowds {
            if !crowd.start_hour.is_finite() || crowd.start_hour < 0.0 {
                return Err(WorkloadError::invalid("flash_crowd.start_hour", ">= 0"));
            }
            if !crowd.duration_hours.is_finite() || crowd.duration_hours <= 0.0 {
                return Err(WorkloadError::invalid("flash_crowd.duration_hours", "> 0"));
            }
            if !crowd.boost.is_finite() || crowd.boost < 0.0 {
                return Err(WorkloadError::invalid("flash_crowd.boost", ">= 0"));
            }
        }
        if let Some(cycle) = &self.diurnal {
            if !cycle.peak_hour.is_finite() || !(0.0..=24.0).contains(&cycle.peak_hour) {
                return Err(WorkloadError::invalid("diurnal.peak_hour", "in [0, 24]"));
            }
            if !cycle.amplitude.is_finite() || !(0.0..1.0).contains(&cycle.amplitude) {
                return Err(WorkloadError::invalid("diurnal.amplitude", "in [0, 1)"));
            }
        }
        Ok(())
    }

    /// Derives the generator knobs: the paper's configuration scaled by
    /// `scale` with the churn fractions and horizon applied.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range fields.
    pub fn workload_config(&self) -> Result<WorkloadConfig, WorkloadError> {
        self.validate()?;
        let horizon = SimTime::from_days(u64::from(self.horizon_days));
        let day_factor = f64::from(self.horizon_days) / 7.0;
        let paper = PublishingConfig::paper();
        let distinct =
            ((paper.distinct_pages as f64 * self.scale * day_factor).round() as usize).max(1);
        let updated = ((distinct as f64 * self.churn_updated_fraction).round() as usize)
            .min(distinct)
            .max(usize::from(self.churn_versions_per_update > 0.0));
        let versions = (updated as f64 * self.churn_versions_per_update).round() as usize;
        let publishing = PublishingConfig {
            distinct_pages: distinct,
            updated_pages: if versions > 0 { updated } else { 0 },
            total_pages: distinct + versions,
            horizon,
            ..paper
        };
        let news = RequestConfig::news();
        let requests = RequestConfig {
            total_requests: ((news.total_requests as f64 * self.scale * day_factor).round() as u64)
                .max(1),
            zipf_alpha: self.zipf_alpha,
            horizon,
            ..news
        };
        Ok(WorkloadConfig {
            publishing,
            requests,
            seed: self.seed,
        })
    }

    /// The request-intensity remap, or `None` for a stationary scenario
    /// (no flash crowds, no diurnal cycle).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range fields.
    pub fn time_warp(&self) -> Result<Option<TimeWarp>, WorkloadError> {
        self.validate()?;
        if self.flash_crowds.is_empty() && self.diurnal.is_none() {
            return Ok(None);
        }
        let horizon = SimTime::from_days(u64::from(self.horizon_days));
        let hours = (horizon.as_hours_f64().ceil() as usize).max(1);
        let mut intensity = vec![1.0f64; hours];
        if let Some(cycle) = &self.diurnal {
            for (h, weight) in intensity.iter_mut().enumerate() {
                let phase = (h as f64 + 0.5 - cycle.peak_hour) / 24.0;
                *weight += cycle.amplitude * (std::f64::consts::TAU * phase).cos();
            }
        }
        for crowd in &self.flash_crowds {
            let end = crowd.start_hour + crowd.duration_hours;
            for (h, weight) in intensity.iter_mut().enumerate() {
                // Boost each hour bin by its overlap with the surge.
                let overlap =
                    (end.min(h as f64 + 1.0) - crowd.start_hour.max(h as f64)).clamp(0.0, 1.0);
                *weight += crowd.boost * overlap;
            }
        }
        Ok(Some(TimeWarp::from_intensity(horizon, &intensity)))
    }

    /// Generates the scenario's workload on up to `threads` pool workers
    /// (`0` = auto, `1` = inline); deterministic in `seed` at every
    /// thread count. Structure: publishing stream as configured, request
    /// events regenerated per page through [`RequestStream`] with the
    /// [`TimeWarp`] applied per event *before* the final stable
    /// time-sort — exactly the order the streaming replay source uses, so
    /// the two stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range fields.
    pub fn build(&self, threads: usize) -> Result<Workload, WorkloadError> {
        let config = self.workload_config()?;
        let warp = self.time_warp()?;
        let publishing = generate_publishing(&config.publishing, config.seed, threads)?;
        let stream = RequestStream::prepare(
            publishing.pages.len(),
            &config.requests,
            config.seed,
            threads,
        )?;
        let pages = publishing.pages;
        let events = parallel_chunked(pages.len(), PAGE_CHUNK, threads, |range| {
            let mut out = Vec::with_capacity(range.clone().map(|p| stream.count(p) as usize).sum());
            let mut scratch = PageScratch::default();
            for page_idx in range {
                let before = out.len();
                stream.append_page_requests(&pages, page_idx, &mut scratch, &mut out);
                if let Some(warp) = &warp {
                    for ev in &mut out[before..] {
                        ev.time = warp.apply(ev.time);
                    }
                }
            }
            out
        });
        Workload::from_parts(
            config,
            pages,
            publishing.stream,
            RequestTrace::from_unsorted(events),
        )
    }

    /// A seed-stable FNV-1a digest of the generated workload (every
    /// publish and request event) — what the scenario golden tests pin.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range fields.
    pub fn digest(&self) -> Result<u64, WorkloadError> {
        let w = self.build(0)?;
        let mut hash = Fnv1a::new();
        for page in w.pages() {
            hash.write_u64(u64::from(page.id().index()));
            hash.write_u64(page.size().as_u64());
        }
        for ev in w.publishing().iter() {
            hash.write_u64(ev.time.as_millis());
            hash.write_u64(u64::from(ev.page.index()));
        }
        for ev in w.requests().iter() {
            hash.write_u64(ev.time.as_millis());
            hash.write_u64(u64::from(ev.server.index()));
            hash.write_u64(u64::from(ev.page.index()));
        }
        Ok(hash.finish())
    }

    /// Serializes to the line-oriented `key = value` scenario format
    /// (the hand-written codec standing in for the no-op vendored serde).
    /// Round-trips exactly through [`from_text`](ScenarioConfig::from_text).
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "scale = {:?}", self.scale);
        let _ = writeln!(out, "zipf_alpha = {:?}", self.zipf_alpha);
        let _ = writeln!(out, "horizon_days = {}", self.horizon_days);
        let _ = writeln!(
            out,
            "churn_updated_fraction = {:?}",
            self.churn_updated_fraction
        );
        let _ = writeln!(
            out,
            "churn_versions_per_update = {:?}",
            self.churn_versions_per_update
        );
        for crowd in &self.flash_crowds {
            let _ = writeln!(
                out,
                "flash_crowd = start_hour={:?} duration_hours={:?} boost={:?}",
                crowd.start_hour, crowd.duration_hours, crowd.boost
            );
        }
        if let Some(cycle) = &self.diurnal {
            let _ = writeln!(
                out,
                "diurnal = peak_hour={:?} amplitude={:?}",
                cycle.peak_hour, cycle.amplitude
            );
        }
        out
    }

    /// Parses the `key = value` scenario format: `#` comments and blank
    /// lines are skipped, `flash_crowd` may repeat, every other key may
    /// appear at most once, and **unknown keys are rejected** (the codec
    /// behaves like a `deny_unknown_fields` container).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, ScenarioError> {
        let mut name: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut scale: Option<f64> = None;
        let mut zipf_alpha: Option<f64> = None;
        let mut horizon_days: Option<u32> = None;
        let mut churn_updated_fraction: Option<f64> = None;
        let mut churn_versions_per_update: Option<f64> = None;
        let mut flash_crowds: Vec<FlashCrowd> = Vec::new();
        let mut diurnal: Option<DiurnalCycle> = None;

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (key, value) = trimmed
                .split_once('=')
                .ok_or_else(|| ScenarioError::parse(line, "expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => set_once(line, key, &mut name, value.to_owned())?,
                "seed" => set_once(line, key, &mut seed, parse_num(line, key, value)?)?,
                "scale" => set_once(line, key, &mut scale, parse_num(line, key, value)?)?,
                "zipf_alpha" => set_once(line, key, &mut zipf_alpha, parse_num(line, key, value)?)?,
                "horizon_days" => {
                    set_once(line, key, &mut horizon_days, parse_num(line, key, value)?)?
                }
                "churn_updated_fraction" => set_once(
                    line,
                    key,
                    &mut churn_updated_fraction,
                    parse_num(line, key, value)?,
                )?,
                "churn_versions_per_update" => set_once(
                    line,
                    key,
                    &mut churn_versions_per_update,
                    parse_num(line, key, value)?,
                )?,
                "flash_crowd" => {
                    let fields =
                        parse_fields(line, value, &["start_hour", "duration_hours", "boost"])?;
                    flash_crowds.push(FlashCrowd {
                        start_hour: fields[0],
                        duration_hours: fields[1],
                        boost: fields[2],
                    });
                }
                "diurnal" => {
                    let fields = parse_fields(line, value, &["peak_hour", "amplitude"])?;
                    set_once(
                        line,
                        key,
                        &mut diurnal,
                        DiurnalCycle {
                            peak_hour: fields[0],
                            amplitude: fields[1],
                        },
                    )?;
                }
                other => {
                    return Err(ScenarioError::parse(
                        line,
                        format!("unknown field `{other}`"),
                    ))
                }
            }
        }

        let require = |field: &str| ScenarioError::parse(0, format!("missing field `{field}`"));
        Ok(Self {
            name: name.ok_or_else(|| require("name"))?,
            seed: seed.ok_or_else(|| require("seed"))?,
            scale: scale.ok_or_else(|| require("scale"))?,
            zipf_alpha: zipf_alpha.ok_or_else(|| require("zipf_alpha"))?,
            horizon_days: horizon_days.ok_or_else(|| require("horizon_days"))?,
            churn_updated_fraction: churn_updated_fraction
                .ok_or_else(|| require("churn_updated_fraction"))?,
            churn_versions_per_update: churn_versions_per_update
                .ok_or_else(|| require("churn_versions_per_update"))?,
            flash_crowds,
            diurnal,
        })
    }
}

fn set_once<T>(
    line: usize,
    key: &str,
    slot: &mut Option<T>,
    value: T,
) -> Result<(), ScenarioError> {
    if slot.is_some() {
        return Err(ScenarioError::parse(
            line,
            format!("duplicate field `{key}`"),
        ));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, ScenarioError> {
    value
        .parse()
        .map_err(|_| ScenarioError::parse(line, format!("invalid value for `{key}`: {value}")))
}

/// Parses an inline record `a=1 b=2 ...` whose fields must appear exactly
/// in the given order (how `to_text` writes them), rejecting unknown or
/// missing fields.
fn parse_fields(line: usize, value: &str, names: &[&str]) -> Result<Vec<f64>, ScenarioError> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    if parts.len() != names.len() {
        return Err(ScenarioError::parse(
            line,
            format!("expected fields {names:?}"),
        ));
    }
    let mut out = Vec::with_capacity(names.len());
    for (part, name) in parts.iter().zip(names) {
        let (key, val) = part
            .split_once('=')
            .ok_or_else(|| ScenarioError::parse(line, "expected `field=value`"))?;
        if key != *name {
            return Err(ScenarioError::parse(
                line,
                format!("unknown field `{key}` (expected `{name}`)"),
            ));
        }
        out.push(parse_num(line, key, val)?);
    }
    Ok(out)
}

/// A scenario-file parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A malformed or unknown line (`line` is 1-based; 0 marks a
    /// document-level problem such as a missing field).
    Parse {
        /// 1-based offending line (0 = whole document).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl ScenarioError {
    fn parse(line: usize, reason: impl Into<String>) -> Self {
        Self::Parse {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { line: 0, reason } => write!(f, "scenario parse error: {reason}"),
            Self::Parse { line, reason } => {
                write!(f, "scenario parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// 64-bit FNV-1a, hand-rolled so workload digests need no external
/// hashing crate and stay stable across Rust releases (unlike
/// `DefaultHasher`, whose algorithm is unspecified).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A monotone piecewise-linear remap of request instants, built from an
/// hourly intensity profile: uniform input time is mapped through the
/// inverse normalized cumulative intensity, so output request density is
/// proportional to the profile. Pure, deterministic and order-preserving
/// per event — which is what lets the monolithic and streaming generators
/// apply it independently and still agree bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWarp {
    /// Normalized cumulative intensity at hour boundaries:
    /// `cumulative[0] = 0`, `cumulative[hours] = 1`, non-decreasing.
    cumulative: Vec<f64>,
    horizon_ms: u64,
}

impl TimeWarp {
    /// Builds the warp from per-hour intensity samples (all `>= 0`, at
    /// least one `> 0`); the profile is normalized internally.
    pub fn from_intensity(horizon: SimTime, hourly: &[f64]) -> Self {
        debug_assert!(!hourly.is_empty());
        debug_assert!(hourly.iter().all(|w| w.is_finite() && *w >= 0.0));
        let total: f64 = hourly.iter().sum();
        let total = if total > 0.0 { total } else { 1.0 };
        let mut cumulative = Vec::with_capacity(hourly.len() + 1);
        cumulative.push(0.0);
        let mut acc = 0.0;
        for w in hourly {
            acc += w / total;
            cumulative.push(acc.min(1.0));
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Self {
            cumulative,
            horizon_ms: horizon.as_millis().max(1),
        }
    }

    /// Remaps one instant; output is clamped inside the horizon.
    pub fn apply(&self, t: SimTime) -> SimTime {
        let x = (t.as_millis() as f64 / self.horizon_ms as f64).clamp(0.0, 1.0);
        // The segment whose cumulative range contains x; ties resolve to
        // the first segment ending at or above x, so zero-intensity
        // (zero-width) segments are skipped deterministically.
        let seg = self.cumulative[1..].partition_point(|&c| c < x);
        let seg = seg.min(self.cumulative.len() - 2);
        let (lo, hi) = (self.cumulative[seg], self.cumulative[seg + 1]);
        let frac = if hi > lo { (x - lo) / (hi - lo) } else { 0.0 };
        let hours = self.cumulative.len() - 1;
        let out_ms = (seg as f64 + frac) / hours as f64 * self.horizon_ms as f64;
        SimTime::from_millis((out_ms as u64).min(self.horizon_ms.saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_scenarios_are_distinct_and_valid() {
        let shipped = ScenarioConfig::shipped();
        assert_eq!(shipped.len(), 4);
        let names: std::collections::HashSet<_> = shipped.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), shipped.len());
        for s in &shipped {
            s.workload_config().unwrap();
            s.time_warp().unwrap();
            assert_eq!(ScenarioConfig::shipped_by_name(&s.name), Some(s.clone()));
        }
        assert_eq!(ScenarioConfig::shipped_by_name("nope"), None);
    }

    #[test]
    fn text_codec_round_trips_every_shipped_scenario() {
        for s in ScenarioConfig::shipped() {
            let text = s.to_text();
            let back = ScenarioConfig::from_text(&text).unwrap();
            assert_eq!(back, s, "{}", s.name);
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn unknown_and_duplicate_fields_rejected() {
        let base = ScenarioConfig::news_baseline().to_text();
        let unknown = format!("{base}mystery_knob = 3\n");
        assert!(matches!(
            ScenarioConfig::from_text(&unknown),
            Err(ScenarioError::Parse { reason, .. }) if reason.contains("unknown field")
        ));
        let duplicate = format!("{base}seed = 7\n");
        assert!(matches!(
            ScenarioConfig::from_text(&duplicate),
            Err(ScenarioError::Parse { reason, .. }) if reason.contains("duplicate")
        ));
        let missing = "name = x\n";
        assert!(matches!(
            ScenarioConfig::from_text(missing),
            Err(ScenarioError::Parse { line: 0, .. })
        ));
        let bad_record = "flash_crowd = start_hour=1 oops=2 boost=3\n";
        assert!(ScenarioConfig::from_text(bad_record).is_err());
        assert!(ScenarioConfig::from_text("just text\n").is_err());
        // Comments and blank lines are fine.
        let commented = format!("# a scenario\n\n{base}");
        assert_eq!(
            ScenarioConfig::from_text(&commented).unwrap(),
            ScenarioConfig::news_baseline()
        );
    }

    #[test]
    fn stationary_scenario_has_no_warp_and_matches_plain_generation() {
        let s = ScenarioConfig::news_baseline();
        assert_eq!(s.time_warp().unwrap(), None);
        let w = s.build(1).unwrap();
        let plain = Workload::generate(&s.workload_config().unwrap()).unwrap();
        assert_eq!(w, plain, "no warp means the plain generator output");
    }

    #[test]
    fn build_is_deterministic_and_thread_independent() {
        let s = ScenarioConfig::flash_crowds();
        let a = s.build(1).unwrap();
        let b = s.build(4).unwrap();
        assert_eq!(a, b);
        let mut reseeded = s.clone();
        reseeded.seed = 9;
        assert_ne!(reseeded.build(1).unwrap(), a);
    }

    #[test]
    fn flash_crowd_concentrates_requests_in_the_surge() {
        let s = ScenarioConfig::flash_crowds();
        let warped = s.build(1).unwrap();
        let baseline = ScenarioConfig::news_baseline().build(1).unwrap();
        let share = |w: &Workload| {
            let surge = w
                .requests()
                .iter()
                .filter(|e| (48..54).contains(&e.time.hour_index()))
                .count();
            surge as f64 / w.requests().len() as f64
        };
        // 6 of 168 hours carry far more than their uniform share.
        assert!(share(&warped) > 3.0 * share(&baseline).max(6.0 / 168.0 / 3.0));
        // Requests remain inside the horizon and time-sorted.
        assert!(warped
            .requests()
            .iter()
            .all(|e| e.time < SimTime::from_days(7)));
    }

    #[test]
    fn diurnal_cycle_modulates_hourly_volume() {
        let s = ScenarioConfig::diurnal();
        let w = s.build(1).unwrap();
        let mut hourly = [0u64; 24];
        for ev in w.requests() {
            hourly[ev.time.hour_index() % 24] += 1;
        }
        let peak = hourly[20];
        let trough = hourly[8];
        assert!(
            peak as f64 > 1.5 * trough.max(1) as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn time_warp_is_monotone_and_density_shaping() {
        let horizon = SimTime::from_hours(4);
        let warp = TimeWarp::from_intensity(horizon, &[1.0, 0.0, 3.0, 0.0]);
        let mut last = SimTime::ZERO;
        let mut in_hot_hour = 0usize;
        let samples = 1000;
        for k in 0..samples {
            let t = SimTime::from_millis(horizon.as_millis() * k as u64 / samples as u64);
            let out = warp.apply(t);
            assert!(out >= last, "warp must be monotone");
            assert!(out < horizon);
            last = out;
            if out.hour_index() == 2 {
                in_hot_hour += 1;
            }
        }
        // Hour 2 carries 3/4 of the intensity mass.
        assert!(
            (in_hot_hour as f64 / samples as f64 - 0.75).abs() < 0.05,
            "hot-hour share {}",
            in_hot_hour as f64 / samples as f64
        );
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let mut s = ScenarioConfig::news_baseline();
        s.scale = 0.0;
        assert!(s.workload_config().is_err());
        let mut s = ScenarioConfig::news_baseline();
        s.horizon_days = 0;
        assert!(s.build(1).is_err());
        let mut s = ScenarioConfig::news_baseline();
        s.churn_updated_fraction = 1.5;
        assert!(s.workload_config().is_err());
        let mut s = ScenarioConfig::diurnal();
        s.diurnal = Some(DiurnalCycle {
            peak_hour: 20.0,
            amplitude: 1.0,
        });
        assert!(s.time_warp().is_err());
        let mut s = ScenarioConfig::flash_crowds();
        s.flash_crowds[0].duration_hours = 0.0;
        assert!(s.time_warp().is_err());
    }
}
