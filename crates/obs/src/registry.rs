//! In-process metrics: named counters, byte counters and log₂ histograms.
//! (Wall-clock spans live in [`TraceLog`](crate::TraceLog).)

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pscd_types::Bytes;

/// Sentinel bucket for non-positive samples (an eviction value of exactly
/// zero is common: pages with no matching subscriptions).
const ZERO_BUCKET: i32 = i32::MIN;

/// A histogram over powers of two: bucket `e` covers `[2^e, 2^(e+1))`.
///
/// Built for the two distributions the simulator cares about — page sizes
/// (hundreds of bytes to tens of KiB) and eviction values (fractions to
/// thousands, hence the negative exponents) — where exact quantiles are
/// overkill but orders of magnitude tell the story.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Log2Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-positive samples land in a dedicated
    /// underflow bucket; NaN is ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let bucket = if value > 0.0 {
            // log2 of f64::MAX is < 1024, safely inside i32.
            value.log2().floor() as i32
        } else {
            ZERO_BUCKET
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 with no samples).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 with no samples).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Occupied `(exponent, count)` buckets in ascending exponent order;
    /// the underflow bucket (samples ≤ 0) reports exponent `i32::MIN`.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&e, &c)| (e, c))
    }

    /// A bucket-resolution estimate of the `q`-quantile (`q` in `[0, 1]`):
    /// the sample at rank `⌈q·n⌉` is located in its power-of-two bucket
    /// and the bucket's span is interpolated linearly by the rank's
    /// position inside it, clamped to the recorded `min`/`max`. Exact for
    /// the extremes (`q = 0` → min, `q = 1` → max); within a factor of 2
    /// elsewhere, which is all a log₂ sketch can promise. Returns 0 with
    /// no samples; NaN `q` is treated as 1.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the target sample, 1-based: ceil(q * n), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&e, &c) in &self.buckets {
            if seen + c >= rank {
                if e == ZERO_BUCKET {
                    // All non-positive samples collapse into one bucket;
                    // min is the only bound we kept for them.
                    return self.min.min(0.0);
                }
                let lo = (e as f64).exp2();
                let hi = (e as f64 + 1.0).exp2();
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (see [`quantile`](Self::quantile)).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (see [`quantile`](Self::quantile)).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (&e, &c) in &other.buckets {
            *self.buckets.entry(e).or_insert(0) += c;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    fn render_into(&self, out: &mut String, indent: &str) {
        let peak = self.buckets.values().copied().max().unwrap_or(0).max(1);
        for (&e, &c) in &self.buckets {
            let label = if e == ZERO_BUCKET {
                "        <= 0".to_owned()
            } else {
                format!("[2^{e}, 2^{})", e + 1)
            };
            let bar = "#".repeat(((c * 32).div_ceil(peak)) as usize);
            let _ = writeln!(out, "{indent}{label:>14} {c:>10} {bar}");
        }
    }
}

/// A registry of named counters, byte counters and [`Log2Histogram`]s —
/// the in-process metrics store behind
/// [`StatsObserver`](crate::StatsObserver) and the CLI's
/// `--obs-dir` summaries.
///
/// # Examples
///
/// ```
/// use pscd_obs::Registry;
/// use pscd_types::Bytes;
///
/// let mut reg = Registry::new();
/// reg.inc("request.hits");
/// reg.add_bytes("bytes.fetched", Bytes::new(512));
/// reg.observe("page_size", 512.0);
/// assert_eq!(reg.counter("request.hits"), 1);
/// assert_eq!(reg.bytes("bytes.fetched"), 512);
/// assert_eq!(reg.histogram("page_size").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    bytes: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.bytes.is_empty() && self.histograms.is_empty()
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &str, n: u64) {
        bump(&mut self.counters, name, n);
    }

    /// Adds to byte counter `name`.
    #[inline]
    pub fn add_bytes(&mut self, name: &str, bytes: Bytes) {
        bump(&mut self.bytes, name, bytes.as_u64());
    }

    /// Records a sample into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// The value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of byte counter `name` (0 if never touched).
    pub fn bytes(&self, name: &str) -> u64 {
        self.bytes.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Folds another registry into this one (counters add up, histograms
    /// merge).
    pub fn merge(&mut self, other: &Registry) {
        for (name, &v) in &other.counters {
            bump(&mut self.counters, name, v);
        }
        for (name, &v) in &other.bytes {
            bump(&mut self.bytes, name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Plain-text report: counters, byte counters, histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {v:>12}");
            }
        }
        if !self.bytes.is_empty() {
            out.push_str("bytes:\n");
            for (name, v) in &self.bytes {
                let _ = writeln!(out, "  {name:<40} {v:>12}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} (n={}, mean={:.2}, min={:.2}, max={:.2}, \
                 ~p50={:.2}, ~p90={:.2}, ~p99={:.2}):",
                h.count(),
                h.mean(),
                h.min(),
                h.max(),
                h.p50(),
                h.p90(),
                h.p99()
            );
            h.render_into(&mut out, "  ");
        }
        out
    }
}

fn bump(map: &mut BTreeMap<String, u64>, name: &str, n: u64) {
    match map.get_mut(name) {
        Some(v) => *v += n,
        None => {
            map.insert(name.to_owned(), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0.0, -1.0, 0.3, 1.0, 1.9, 2.0, 3.99, 1024.0] {
            h.record(v);
        }
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 8);
        let buckets: Vec<(i32, u64)> = h.buckets().collect();
        assert_eq!(
            buckets,
            [(ZERO_BUCKET, 2), (-2, 1), (0, 2), (1, 2), (10, 1)]
        );
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 1024.0);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_merge_adds_up() {
        let mut a = Log2Histogram::new();
        a.record(1.0);
        a.record(5.0);
        let mut b = Log2Histogram::new();
        b.record(5.5);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.min(), 1.0);
        let by_exp: BTreeMap<i32, u64> = a.buckets().collect();
        assert_eq!(by_exp[&2], 2); // 5.0 and 5.5 share [4, 8)
    }

    #[test]
    fn quantile_estimates_land_in_the_right_bucket() {
        let mut h = Log2Histogram::new();
        // 100 samples: 89 in [1, 2), 10 in [8, 16), 1 at 1000.
        for _ in 0..89 {
            h.record(1.5);
        }
        for _ in 0..10 {
            h.record(10.0);
        }
        h.record(1000.0);
        // p50 sits in the [1, 2) bucket.
        assert!((1.0..2.0).contains(&h.p50()), "p50 = {}", h.p50());
        // p90 is the 90th sample: first of the [8, 16) bucket.
        assert!((8.0..16.0).contains(&h.p90()), "p90 = {}", h.p90());
        // p99 is the 99th sample: last of the [8, 16) bucket (the linear
        // interpolation may land exactly on the upper edge).
        assert!((8.0..=16.0).contains(&h.p99()), "p99 = {}", h.p99());
        // The extremes are exact.
        assert_eq!(h.quantile(0.0), 1.5);
        assert_eq!(h.quantile(1.0), 1000.0);
        // Out-of-range and NaN q clamp instead of panicking.
        assert_eq!(h.quantile(7.0), 1000.0);
        assert_eq!(h.quantile(-3.0), 1.5);
        assert_eq!(h.quantile(f64::NAN), 1000.0);
    }

    #[test]
    fn quantiles_handle_edge_shapes() {
        // Empty histogram.
        assert_eq!(Log2Histogram::new().p50(), 0.0);
        // Single sample: every quantile is that sample.
        let mut one = Log2Histogram::new();
        one.record(42.0);
        assert_eq!(one.p50(), 42.0);
        assert_eq!(one.p99(), 42.0);
        // Non-positive samples report through the underflow bucket.
        let mut neg = Log2Histogram::new();
        neg.record(-5.0);
        neg.record(-1.0);
        neg.record(0.0);
        assert_eq!(neg.p50(), -5.0, "underflow bucket reports min");
        // Mixed: the positive tail still resolves.
        let mut mixed = Log2Histogram::new();
        mixed.record(0.0);
        mixed.record(512.0);
        assert!((256.0..=512.0).contains(&mixed.p99()), "{}", mixed.p99());
    }

    #[test]
    fn counters_and_prefixes() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.inc("evict.access");
        r.add("evict.access", 2);
        r.inc("evict.push");
        r.inc("admit.push");
        r.add_bytes("bytes.pushed", Bytes::new(100));
        r.add_bytes("bytes.pushed", Bytes::new(50));
        assert_eq!(r.counter("evict.access"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.bytes("bytes.pushed"), 150);
        assert_eq!(r.bytes("missing"), 0);
        let evictions: Vec<(&str, u64)> = r.counters_with_prefix("evict.").collect();
        assert_eq!(evictions, [("evict.access", 3), ("evict.push", 1)]);
        assert!(!r.is_empty());
    }

    #[test]
    fn render_lists_counters_and_histograms() {
        let mut r = Registry::new();
        r.observe("page_size", 512.0);
        r.inc("request.hits");
        let text = r.render();
        assert!(text.contains("request.hits"));
        assert!(text.contains("histogram page_size"));
        assert!(text.contains("[2^9, 2^10)"));
    }

    #[test]
    fn registry_merge() {
        let mut a = Registry::new();
        a.inc("x");
        a.observe("h", 2.0);
        let mut b = Registry::new();
        b.add("x", 4);
        b.inc("y");
        b.add_bytes("bb", Bytes::new(7));
        b.observe("h", 3.0);
        b.observe("h2", 1.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.bytes("bb"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
    }
}
