//! Simulation metrics: global/hourly hit ratios and traffic series.

use serde::{Deserialize, Serialize};

use pscd_broker::Traffic;
use pscd_types::{Bytes, SimTime};

/// Per-hour counters over the simulation horizon (the paper's figures 6
/// and 7 are drawn from exactly these series).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HourlySeries {
    /// Cache hits per hour.
    pub hits: Vec<u64>,
    /// Requests per hour.
    pub requests: Vec<u64>,
    /// Pages pushed (publisher→proxy transfers) per hour.
    pub pushed_pages: Vec<u64>,
    /// Bytes pushed per hour.
    pub pushed_bytes: Vec<u64>,
    /// Pages fetched on misses per hour.
    pub fetched_pages: Vec<u64>,
    /// Bytes fetched on misses per hour.
    pub fetched_bytes: Vec<u64>,
}

impl HourlySeries {
    /// Creates zeroed series covering `hours` buckets.
    pub fn new(hours: usize) -> Self {
        Self {
            hits: vec![0; hours],
            requests: vec![0; hours],
            pushed_pages: vec![0; hours],
            pushed_bytes: vec![0; hours],
            fetched_pages: vec![0; hours],
            fetched_bytes: vec![0; hours],
        }
    }

    /// Number of hour buckets.
    pub fn hours(&self) -> usize {
        self.requests.len()
    }

    /// Records one request at `time` (`hit` says whether it was served
    /// locally; misses also record the fetched page). A no-op on a series
    /// with zero buckets.
    pub fn record_request(&mut self, time: SimTime, hit: bool, size: Bytes) {
        let Some(last) = self.hours().checked_sub(1) else {
            return;
        };
        let h = time.hour_index().min(last);
        self.requests[h] += 1;
        if hit {
            self.hits[h] += 1;
        } else {
            self.fetched_pages[h] += 1;
            self.fetched_bytes[h] += size.as_u64();
        }
    }

    /// Records one pushed page at `time`. A no-op on a series with zero
    /// buckets.
    pub fn record_push(&mut self, time: SimTime, size: Bytes) {
        let Some(last) = self.hours().checked_sub(1) else {
            return;
        };
        let h = time.hour_index().min(last);
        self.pushed_pages[h] += 1;
        self.pushed_bytes[h] += size.as_u64();
    }

    /// Hourly hit ratio in percent; `None` for hours with no requests.
    pub fn hit_ratio_percent(&self) -> Vec<Option<f64>> {
        self.hits
            .iter()
            .zip(&self.requests)
            .map(|(&h, &r)| (r > 0).then(|| 100.0 * h as f64 / r as f64))
            .collect()
    }

    /// Total publisher→proxy pages per hour (pushed + fetched), the series
    /// of figure 7.
    pub fn traffic_pages(&self) -> Vec<u64> {
        self.pushed_pages
            .iter()
            .zip(&self.fetched_pages)
            .map(|(&p, &f)| p + f)
            .collect()
    }
}

/// The outcome of one simulation run: one strategy, one capacity setting,
/// one subscription quality, one pushing scheme, over one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Display name of the strategy ("GD*", "SG2", …).
    pub strategy: String,
    /// Total cache hits across all proxies.
    pub hits: u64,
    /// Total requests across all proxies.
    pub requests: u64,
    /// Aggregate publisher→proxy traffic.
    pub traffic: Traffic,
    /// Per-hour series.
    pub hourly: HourlySeries,
    /// Per-proxy `(hits, requests)`.
    pub per_server: Vec<(u64, u64)>,
}

impl SimResult {
    /// Global hit ratio `H` (eq. 8) in `[0, 1]`; 0 with no requests.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Global hit ratio in percent, as the paper reports it.
    pub fn hit_ratio_percent(&self) -> f64 {
        100.0 * self.hit_ratio()
    }

    /// Relative improvement of this run's hit ratio over a baseline run,
    /// in percent (Table 2's quantity: `100·(H − H_base)/H_base`).
    pub fn relative_improvement_percent(&self, baseline: &SimResult) -> f64 {
        let base = baseline.hit_ratio();
        if base == 0.0 {
            0.0
        } else {
            100.0 * (self.hit_ratio() - base) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_records_bucket_correctly() {
        let mut s = HourlySeries::new(3);
        s.record_request(SimTime::from_hours(0), true, Bytes::new(10));
        s.record_request(SimTime::from_hours(1), false, Bytes::new(20));
        s.record_push(SimTime::from_hours(2), Bytes::new(30));
        // Out-of-range hour clamps to the last bucket.
        s.record_push(SimTime::from_hours(99), Bytes::new(5));
        assert_eq!(s.hits, [1, 0, 0]);
        assert_eq!(s.requests, [1, 1, 0]);
        assert_eq!(s.fetched_pages, [0, 1, 0]);
        assert_eq!(s.fetched_bytes, [0, 20, 0]);
        assert_eq!(s.pushed_pages, [0, 0, 2]);
        assert_eq!(s.pushed_bytes, [0, 0, 35]);
        assert_eq!(s.traffic_pages(), [0, 1, 2]);
    }

    #[test]
    fn zero_bucket_series_ignores_records() {
        // Regression: these used to panic on the empty bucket vectors.
        let mut s = HourlySeries::new(0);
        s.record_request(SimTime::from_hours(0), true, Bytes::new(10));
        s.record_push(SimTime::from_hours(5), Bytes::new(10));
        assert_eq!(s.hours(), 0);
        assert!(s.traffic_pages().is_empty());
        assert!(s.hit_ratio_percent().is_empty());
    }

    #[test]
    fn hourly_hit_ratio_handles_empty_hours() {
        let mut s = HourlySeries::new(2);
        s.record_request(SimTime::from_hours(0), true, Bytes::new(1));
        s.record_request(SimTime::from_hours(0), false, Bytes::new(1));
        let hr = s.hit_ratio_percent();
        assert_eq!(hr[0], Some(50.0));
        assert_eq!(hr[1], None);
    }

    #[test]
    fn result_ratios() {
        let base = SimResult {
            strategy: "GD*".into(),
            hits: 40,
            requests: 100,
            traffic: Traffic::ZERO,
            hourly: HourlySeries::new(1),
            per_server: vec![(40, 100), (0, 0)],
        };
        let better = SimResult {
            strategy: "SG2".into(),
            hits: 60,
            requests: 100,
            ..base.clone()
        };
        assert!((base.hit_ratio() - 0.4).abs() < 1e-12);
        assert!((better.hit_ratio_percent() - 60.0).abs() < 1e-12);
        assert!((better.relative_improvement_percent(&base) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = SimResult {
            strategy: "SUB".into(),
            hits: 0,
            requests: 0,
            traffic: Traffic::ZERO,
            hourly: HourlySeries::new(0),
            per_server: vec![],
        };
        assert_eq!(r.hit_ratio(), 0.0);
        assert_eq!(r.relative_improvement_percent(&r), 0.0);
    }
}
