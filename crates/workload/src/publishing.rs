//! Publishing-stream generation (paper §4.1).

use pscd_pool::parallel_chunked;
use rand::seq::SliceRandom;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use pscd_types::{Bytes, PageId, PageKind, PageMeta, PublishEvent, PublishingStream, SimTime};

use crate::{seeds, LogNormal, StepwiseInterval, WorkloadError};

/// Entities per pool job in the parallel publishing fan-outs. Purely a
/// scheduling granularity: every entity draws from its own substream, so
/// the output is identical at any chunk size or thread count.
const ENTITY_CHUNK: usize = 1024;

/// Configuration of the publishing stream.
///
/// Defaults reproduce the paper's MSNBC-derived numbers: 30,147 pages over
/// 7 days, of which 6,000 are distinct originals and 2,400 of those receive
/// the ~24,000 modified versions; log-normal sizes with `mu = 9.357`,
/// `sigma = 1.318`; step-wise modification intervals (5% < 1 h, 5% > 1 day).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishingConfig {
    /// Number of distinct original pages (paper: 6,000).
    pub distinct_pages: usize,
    /// How many of the originals receive modified versions (paper: 2,400).
    pub updated_pages: usize,
    /// Total pages published, originals + modified versions (paper: 30,147).
    pub total_pages: usize,
    /// Simulation horizon (paper: 7 days).
    pub horizon: SimTime,
    /// Location of `ln(bytes)` for page sizes (paper: 9.357).
    pub size_mu: f64,
    /// Scale of `ln(bytes)` for page sizes (paper: 1.318).
    pub size_sigma: f64,
    /// Smallest page size generated (floor applied after sampling).
    pub min_page_bytes: u64,
    /// Largest page size generated (cap applied after sampling).
    pub max_page_bytes: u64,
    /// Modification-interval distribution.
    pub intervals: StepwiseInterval,
}

impl PublishingConfig {
    /// The paper's full-scale configuration.
    pub fn paper() -> Self {
        Self {
            distinct_pages: 6_000,
            updated_pages: 2_400,
            total_pages: 30_147,
            horizon: SimTime::from_days(7),
            size_mu: 9.357,
            size_sigma: 1.318,
            min_page_bytes: 128,
            max_page_bytes: 64 * 1024 * 1024,
            intervals: StepwiseInterval::paper(),
        }
    }

    /// A proportionally scaled-down configuration (`factor` in `(0, 1]`),
    /// for fast tests and benches. The horizon stays 7 days; page counts
    /// shrink.
    pub fn scaled(factor: f64) -> Self {
        let p = Self::paper();
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        Self {
            distinct_pages: scale(p.distinct_pages),
            updated_pages: scale(p.updated_pages).min(scale(p.distinct_pages)),
            total_pages: scale(p.total_pages).max(scale(p.distinct_pages)),
            ..p
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.distinct_pages == 0 {
            return Err(WorkloadError::invalid("distinct_pages", ">= 1"));
        }
        if self.updated_pages > self.distinct_pages {
            return Err(WorkloadError::invalid("updated_pages", "<= distinct_pages"));
        }
        if self.total_pages < self.distinct_pages {
            return Err(WorkloadError::invalid("total_pages", ">= distinct_pages"));
        }
        if self.total_pages > self.distinct_pages && self.updated_pages == 0 {
            return Err(WorkloadError::invalid(
                "updated_pages",
                ">= 1 when total_pages > distinct_pages",
            ));
        }
        if self.horizon == SimTime::ZERO {
            return Err(WorkloadError::invalid("horizon", "> 0"));
        }
        if !self.size_sigma.is_finite() || self.size_sigma < 0.0 || !self.size_mu.is_finite() {
            return Err(WorkloadError::invalid(
                "size_mu/size_sigma",
                "finite, sigma >= 0",
            ));
        }
        if self.min_page_bytes == 0 || self.max_page_bytes < self.min_page_bytes {
            return Err(WorkloadError::invalid(
                "min_page_bytes/max_page_bytes",
                "0 < min <= max",
            ));
        }
        Ok(())
    }
}

impl Default for PublishingConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The generated page table plus the time-ordered publishing stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishingOutput {
    /// All pages, indexed by [`PageId`].
    pub pages: Vec<PageMeta>,
    /// Publish events sorted by time.
    pub stream: PublishingStream,
}

/// Generates the publishing stream (deterministic in `seed`).
///
/// Original pages appear at uniformly random instants within the horizon;
/// each *updated* page has a fixed modification interval drawn from the
/// step-wise distribution, and its modified versions appear at multiples of
/// that interval after first publication. The natural number of modified
/// versions is then adjusted (by uniform subsampling or by adding extra
/// versions of random updated pages) to hit `total_pages` exactly, as the
/// paper fixes the 7-day stream at 30,147 pages.
///
/// Randomness comes from per-entity substreams ([`crate::seeds`]): each
/// original's first-publish instant, each origin's modification interval,
/// and each page's size draw from an independently seeded child stream, so
/// the output is **bit-identical** on any number of `threads` pool workers
/// (`0` = auto, `1` = inline).
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidConfig`] for inconsistent configs.
///
/// # Examples
///
/// ```
/// use pscd_workload::{generate_publishing, PublishingConfig};
/// let out = generate_publishing(&PublishingConfig::scaled(0.01), 7, 1)?;
/// assert_eq!(out.pages.len(), out.stream.len());
/// # Ok::<(), pscd_workload::WorkloadError>(())
/// ```
pub fn generate_publishing(
    config: &PublishingConfig,
    seed: u64,
    threads: usize,
) -> Result<PublishingOutput, WorkloadError> {
    config.validate()?;
    let sizes =
        LogNormal::new(config.size_mu, config.size_sigma).expect("validated size parameters");
    let horizon_ms = config.horizon.as_millis();

    // 1. Originals: uniform first-publish times, one substream each.
    let mut first_pub: Vec<SimTime> =
        parallel_chunked(config.distinct_pages, ENTITY_CHUNK, threads, |range| {
            range
                .map(|i| {
                    let mut rng = seeds::stream_rng(seed, seeds::PUB_TIME, i as u64);
                    SimTime::from_millis(rng.random_range(0..horizon_ms))
                })
                .collect()
        });
    first_pub.sort_unstable();

    // 2. Pick which originals get updated (structural draw, sequential —
    //    one shuffle of the index vector).
    let mut indices: Vec<usize> = (0..config.distinct_pages).collect();
    indices.shuffle(&mut seeds::stream_rng(seed, seeds::PUB_STRUCT, 0));
    let updated: Vec<usize> = indices[..config.updated_pages].to_vec();

    // 3. Natural modification times from fixed per-origin intervals, one
    //    substream per origin.
    let mut mods: Vec<(usize, SimTime)> =
        parallel_chunked(updated.len(), ENTITY_CHUNK, threads, |range| {
            let mut out = Vec::new();
            for k in range {
                let orig = updated[k];
                let mut rng = seeds::stream_rng(seed, seeds::PUB_INTERVAL, orig as u64);
                let interval = SimTime::from_hours_f64(config.intervals.sample_hours(&mut rng));
                if interval == SimTime::ZERO {
                    continue;
                }
                let mut t = first_pub[orig] + interval;
                while t < config.horizon {
                    out.push((orig, t));
                    t += interval;
                }
            }
            out
        });

    // 4. Adjust to exactly `total_pages` (sequential — the adjustment is a
    //    single global decision over the concatenated mod list).
    let mut rng = seeds::stream_rng(seed, seeds::PUB_ADJUST, 0);
    let needed = config.total_pages - config.distinct_pages;
    if mods.len() > needed {
        mods.shuffle(&mut rng);
        mods.truncate(needed);
    } else {
        while mods.len() < needed {
            let orig = updated[rng.random_range(0..updated.len())];
            let lo = first_pub[orig].as_millis();
            if lo + 1 >= horizon_ms {
                // Original published at the very end; pick another.
                continue;
            }
            let t = SimTime::from_millis(rng.random_range(lo + 1..horizon_ms));
            mods.push((orig, t));
        }
    }
    mods.sort_unstable_by_key(|&(orig, t)| (t, orig));

    // 5. Page sizes: one substream per final page id.
    let size_of: Vec<Bytes> =
        parallel_chunked(config.total_pages, ENTITY_CHUNK, threads, |range| {
            range
                .map(|id| {
                    let mut rng = seeds::stream_rng(seed, seeds::PUB_SIZE, id as u64);
                    let raw = sizes.sample(&mut rng).round().max(0.0) as u64;
                    Bytes::new(raw.clamp(config.min_page_bytes, config.max_page_bytes))
                })
                .collect()
        });

    // 6. Materialize page metadata: originals first, then modifications in
    //    publish order; version numbers count per origin.
    let mut pages: Vec<PageMeta> = Vec::with_capacity(config.total_pages);
    for (i, &t) in first_pub.iter().enumerate() {
        pages.push(PageMeta::new(
            PageId::new(i as u32),
            size_of[i],
            t,
            PageKind::Original,
        ));
    }
    let mut version_counter = vec![0u32; config.distinct_pages];
    for (k, &(orig, t)) in mods.iter().enumerate() {
        version_counter[orig] += 1;
        let id = config.distinct_pages + k;
        pages.push(PageMeta::new(
            PageId::new(id as u32),
            size_of[id],
            t,
            PageKind::Modified {
                origin: PageId::new(orig as u32),
                version: version_counter[orig],
            },
        ));
    }

    let events: Vec<PublishEvent> = pages
        .iter()
        .map(|p| PublishEvent::new(p.publish_time(), p.id()))
        .collect();
    let stream = PublishingStream::from_unsorted(events);
    Ok(PublishingOutput { pages, stream })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PublishingConfig {
        PublishingConfig {
            distinct_pages: 100,
            updated_pages: 40,
            total_pages: 400,
            ..PublishingConfig::paper()
        }
    }

    #[test]
    fn exact_page_count_and_sorted_stream() {
        let out = generate_publishing(&small(), 1, 1).unwrap();
        assert_eq!(out.pages.len(), 400);
        assert_eq!(out.stream.len(), 400);
        let times: Vec<_> = out.stream.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_publishing(&small(), 5, 1).unwrap();
        let b = generate_publishing(&small(), 5, 1).unwrap();
        let c = generate_publishing(&small(), 6, 1).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_generation_is_bit_identical() {
        for seed in [0, 5, 99] {
            let seq = generate_publishing(&small(), seed, 1).unwrap();
            for threads in [2, 4, 0] {
                let par = generate_publishing(&small(), seed, threads).unwrap();
                assert_eq!(seq, par, "threads = {threads}, seed = {seed}");
            }
        }
    }

    #[test]
    fn originals_then_modifications() {
        let cfg = small();
        let out = generate_publishing(&cfg, 2, 1).unwrap();
        for (i, p) in out.pages.iter().enumerate() {
            assert_eq!(p.id().as_usize(), i);
            if i < cfg.distinct_pages {
                assert!(p.kind().is_original());
            } else {
                let origin = p.kind().origin().expect("modified pages have origins");
                assert!(origin.as_usize() < cfg.distinct_pages);
                // Modified versions publish strictly after their original.
                assert!(p.publish_time() > out.pages[origin.as_usize()].publish_time());
            }
        }
    }

    #[test]
    fn versions_count_up_per_origin() {
        let out = generate_publishing(&small(), 3, 1).unwrap();
        use std::collections::HashMap;
        let mut seen: HashMap<PageId, u32> = HashMap::new();
        // Modified pages are ordered by publish time, so versions of one
        // origin must increase by 1 each.
        for p in &out.pages[100..] {
            if let PageKind::Modified { origin, version } = p.kind() {
                let next = seen.entry(origin).or_insert(0);
                *next += 1;
                assert_eq!(version, *next);
            }
        }
    }

    #[test]
    fn sizes_within_bounds_and_within_horizon() {
        let cfg = small();
        let out = generate_publishing(&cfg, 4, 1).unwrap();
        for p in &out.pages {
            assert!(p.size().as_u64() >= cfg.min_page_bytes);
            assert!(p.size().as_u64() <= cfg.max_page_bytes);
            assert!(p.publish_time() < cfg.horizon);
        }
    }

    #[test]
    fn paper_scale_counts() {
        let cfg = PublishingConfig::paper();
        let out = generate_publishing(&cfg, 0, 1).unwrap();
        assert_eq!(out.pages.len(), 30_147);
        let originals = out.pages.iter().filter(|p| p.kind().is_original()).count();
        assert_eq!(originals, 6_000);
        // The ~24k modified versions must come from <= 2,400 origins. The
        // truncation in step 4 drops a sparse-origin tail whose exact size
        // depends on the RNG stream, so the lower bound is a sanity floor
        // (most update-eligible origins keep at least one version), not a
        // pinned count.
        use std::collections::HashSet;
        let origins: HashSet<_> = out.pages.iter().filter_map(|p| p.kind().origin()).collect();
        assert!(origins.len() <= 2_400);
        assert!(origins.len() > 1_800, "origins = {}", origins.len());
    }

    #[test]
    fn scaled_config_shrinks() {
        let s = PublishingConfig::scaled(0.1);
        assert_eq!(s.distinct_pages, 600);
        assert_eq!(s.updated_pages, 240);
        assert_eq!(s.total_pages, 3_015);
        assert!(generate_publishing(&s, 1, 1).is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = small();
        c.distinct_pages = 0;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.updated_pages = c.distinct_pages + 1;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.total_pages = c.distinct_pages - 1;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.updated_pages = 0;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.horizon = SimTime::ZERO;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.size_sigma = -1.0;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.min_page_bytes = 0;
        assert!(generate_publishing(&c, 0, 1).is_err());
        let mut c = small();
        c.max_page_bytes = c.min_page_bytes - 1;
        assert!(generate_publishing(&c, 0, 1).is_err());
    }

    #[test]
    fn no_modifications_case() {
        let cfg = PublishingConfig {
            distinct_pages: 50,
            updated_pages: 0,
            total_pages: 50,
            ..PublishingConfig::paper()
        };
        let out = generate_publishing(&cfg, 9, 1).unwrap();
        assert_eq!(out.pages.len(), 50);
        assert!(out.pages.iter().all(|p| p.kind().is_original()));
    }
}
