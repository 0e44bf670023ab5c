//! Request-stream generation (paper §4.2).

use pscd_pool::parallel_chunked;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use pscd_types::{count, PageMeta, RequestEvent, RequestTrace, ServerId, SimTime};

use crate::{seeds, AgeDecay, WorkloadError, Zipf};

/// Multinomial draws per substream chunk. Unlike the per-entity chunking
/// elsewhere, each chunk here *is* the substream entity (one RNG per
/// `ZIPF_CHUNK` consecutive draws), so this constant is part of the
/// deterministic output: changing it reshuffles which popularity draws
/// share a stream. Thread count and scheduling still never matter.
const ZIPF_CHUNK: usize = 8_192;

/// Pages per pool job in the per-page placement fan-out. Purely a
/// scheduling granularity (each page has its own substream).
const PAGE_CHUNK: usize = 256;

/// Configuration of the request stream.
///
/// Defaults reproduce the paper: ~195,000 requests over 7 days spread over
/// 100 proxy servers (a 1/1000 scale-down of MSNBC's 25M requests/day),
/// Zipf popularity with `alpha = 1.5` (the NEWS trace; the ALTERNATIVE
/// trace uses 1.0), age-decaying request times with one decay exponent per
/// popularity class, per-day server pools sized by `sqrt` of relative
/// popularity, and 60% day-over-day pool overlap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestConfig {
    /// Number of proxy servers (paper: 100).
    pub servers: u16,
    /// Total requests over the horizon (paper: ~195,000).
    pub total_requests: u64,
    /// Zipf exponent of the popularity distribution (1.5 NEWS, 1.0 ALT).
    pub zipf_alpha: f64,
    /// Simulation horizon (paper: 7 days).
    pub horizon: SimTime,
    /// Age-decay exponents for the four popularity classes, most popular
    /// first ("the more popular a page is, the stronger the negative
    /// correlation between access probability and age", §4.2).
    pub class_gammas: [f64; 4],
    /// Fraction of a page's candidate-server pool kept from one day to the
    /// next (paper: 0.6).
    pub day_overlap: f64,
    /// Exponent of the popularity→server-spread law, eq. 6 (paper: 0.5).
    pub server_exponent: f64,
    /// Mandelbrot plateau of the popularity distribution:
    /// `P(rank i) ∝ 1/(shift + i)^alpha`. Zero is pure Zipf. The default is
    /// calibrated so the trace's (page, server) pair density matches the
    /// traffic volumes of the paper's figure 7 (see DESIGN.md).
    pub zipf_shift: f64,
}

impl RequestConfig {
    /// The paper's NEWS trace (α = 1.5).
    pub fn news() -> Self {
        Self {
            servers: 100,
            total_requests: 195_000,
            zipf_alpha: 1.5,
            horizon: SimTime::from_days(7),
            class_gammas: [2.0, 1.4, 0.8, 0.3],
            day_overlap: 0.6,
            server_exponent: 0.5,
            zipf_shift: 100.0,
        }
    }

    /// The paper's ALTERNATIVE trace (α = 1.0).
    pub fn alternative() -> Self {
        Self {
            zipf_alpha: 1.0,
            ..Self::news()
        }
    }

    /// Proportionally scaled-down request volume for tests/benches.
    pub fn scaled(factor: f64) -> Self {
        let p = Self::news();
        Self {
            total_requests: ((p.total_requests as f64 * factor).round() as u64).max(1),
            ..p
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.servers == 0 {
            return Err(WorkloadError::invalid("servers", ">= 1"));
        }
        if self.total_requests == 0 {
            return Err(WorkloadError::invalid("total_requests", ">= 1"));
        }
        if !self.zipf_alpha.is_finite() || self.zipf_alpha < 0.0 {
            return Err(WorkloadError::invalid("zipf_alpha", "finite and >= 0"));
        }
        if self.horizon == SimTime::ZERO {
            return Err(WorkloadError::invalid("horizon", "> 0"));
        }
        if self.class_gammas.iter().any(|g| !g.is_finite() || *g < 0.0) {
            return Err(WorkloadError::invalid("class_gammas", "finite and >= 0"));
        }
        if !(0.0..=1.0).contains(&self.day_overlap) {
            return Err(WorkloadError::invalid("day_overlap", "in [0, 1]"));
        }
        if !self.server_exponent.is_finite() || self.server_exponent <= 0.0 {
            return Err(WorkloadError::invalid("server_exponent", "> 0"));
        }
        if !self.zipf_shift.is_finite() || self.zipf_shift < 0.0 {
            return Err(WorkloadError::invalid("zipf_shift", "finite and >= 0"));
        }
        Ok(())
    }
}

impl Default for RequestConfig {
    fn default() -> Self {
        Self::news()
    }
}

/// The popularity class of a page: request rates drop roughly one order of
/// magnitude from one class to the next (paper §4.2). With Zipf weights
/// `w(r) = r^-alpha`, the class is `floor(alpha * log10(rank))`, clamped to
/// four classes.
pub fn popularity_class(rank: usize, alpha: f64) -> usize {
    popularity_class_shifted(rank, alpha, 0.0)
}

/// [`popularity_class`] for a shifted (Zipf–Mandelbrot) distribution: the
/// class boundary is where the *weight* drops by an order of magnitude
/// relative to rank 1, `floor(alpha · log10((shift + rank)/(shift + 1)))`.
pub fn popularity_class_shifted(rank: usize, alpha: f64, shift: f64) -> usize {
    debug_assert!(rank >= 1);
    ((alpha * ((shift + rank as f64) / (shift + 1.0)).log10()).floor() as usize).min(3)
}

/// Generates a request trace for the given page table (deterministic in
/// `seed`).
///
/// The generator follows the paper's pipeline: (1) assign popularity ranks
/// to pages uniformly at random; (2) multinomially draw `total_requests`
/// page references from the Zipf distribution; (3) place each page's
/// references in time with the age-decay law of its popularity class,
/// starting at its publish time; (4) split references across per-day
/// candidate-server pools sized by eq. 6 with 60% day-over-day overlap.
///
/// Randomness comes from per-entity substreams ([`crate::seeds`]): the
/// multinomial draw is chunked into fixed-size substream blocks and each
/// page's placement (times, pools, server picks) draws from that page's
/// own child stream, so the trace is **bit-identical** on any number of
/// `threads` pool workers (`0` = auto, `1` = inline).
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidConfig`] for invalid configs or an empty
/// page table.
pub fn generate_requests(
    pages: &[PageMeta],
    config: &RequestConfig,
    seed: u64,
    threads: usize,
) -> Result<RequestTrace, WorkloadError> {
    let stream = RequestStream::prepare(pages.len(), config, seed, threads)?;
    let events: Vec<RequestEvent> = parallel_chunked(pages.len(), PAGE_CHUNK, threads, |range| {
        let mut out = Vec::with_capacity(range.clone().map(|p| stream.count(p) as usize).sum());
        let mut scratch = PageScratch::default();
        for page_idx in range {
            stream.append_page_requests(pages, page_idx, &mut scratch, &mut out);
        }
        out
    });
    Ok(RequestTrace::from_unsorted(events))
}

/// The structural phase of request generation, separated from the
/// per-page placement phase so callers can regenerate any page's requests
/// independently — the streaming replay source regenerates one
/// time-window's worth of pages at a time instead of materializing the
/// whole trace.
///
/// [`prepare`](RequestStream::prepare) runs the trace-wide draws (the
/// rank permutation and the multinomial popularity counts — phases 1–2 of
/// the pipeline); [`append_page_requests`](RequestStream::append_page_requests)
/// then replays phase 3–4 for a single page from that page's own RNG
/// substream. Because every per-page draw is keyed only by `(seed,
/// page_idx)` and the prepared counts, generating pages in any grouping
/// yields exactly the events of [`generate_requests`] — the
/// generator itself is now just `prepare` + a parallel loop over all
/// pages.
#[derive(Debug, Clone)]
pub struct RequestStream {
    config: RequestConfig,
    seed: u64,
    /// `rank_of[page_index]` = popularity rank in `1..=n`.
    rank_of: Vec<usize>,
    /// Multinomially drawn request count per page.
    counts: Vec<u64>,
    /// `max(counts)`, floored at 1 (the eq. 6 normalizer).
    max_count: u64,
    decays: Vec<AgeDecay>,
}

impl RequestStream {
    /// Runs the trace-wide structural draws for a `page_count`-page table:
    /// (1) the rank permutation and (2) the multinomial request counts, in
    /// fixed-size substream chunks on up to `threads` workers (`0` = auto,
    /// `1` = inline). Deterministic in `seed` at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid configs or an
    /// empty page table.
    pub fn prepare(
        page_count: usize,
        config: &RequestConfig,
        seed: u64,
        threads: usize,
    ) -> Result<Self, WorkloadError> {
        config.validate()?;
        if page_count == 0 {
            return Err(WorkloadError::invalid("pages", "non-empty page table"));
        }
        let n = page_count;

        // (1) Random rank permutation: rank_of[page] in 1..=n (structural
        //     draw, one sequential substream).
        let mut ranks: Vec<usize> = (1..=n).collect();
        ranks.shuffle(&mut seeds::stream_rng(seed, seeds::REQ_RANK, 0));
        let rank_of = ranks; // rank_of[page_index] = rank

        // (2) Multinomial draw of per-page request counts, in fixed-size
        //     substream chunks. The accumulation into `counts` is
        //     sequential and chunk-ordered, so the sum is identical at any
        //     thread count.
        let zipf = Zipf::with_shift(n, config.zipf_alpha, config.zipf_shift)
            .expect("validated zipf parameters");
        let mut page_of_rank = vec![0usize; n + 1];
        for (page, &rank) in rank_of.iter().enumerate() {
            page_of_rank[rank] = page;
        }
        let total = config.total_requests as usize;
        let drawn: Vec<u32> = parallel_chunked(total, ZIPF_CHUNK, threads, |range| {
            let mut rng =
                seeds::stream_rng(seed, seeds::REQ_ZIPF, (range.start / ZIPF_CHUNK) as u64);
            range.map(|_| zipf.sample(&mut rng) as u32).collect()
        });
        let mut counts = vec![0u64; n];
        for rank in drawn {
            counts[page_of_rank[rank as usize]] += 1;
        }
        let max_count = counts.iter().copied().max().unwrap_or(0).max(1);

        let decays: Vec<AgeDecay> = config
            .class_gammas
            .iter()
            .map(|&g| AgeDecay::new(g).expect("validated gammas"))
            .collect();
        Ok(Self {
            config: config.clone(),
            seed,
            rank_of,
            counts,
            max_count,
            decays,
        })
    }

    /// Number of pages the stream was prepared for.
    pub fn page_count(&self) -> usize {
        self.rank_of.len()
    }

    /// The multinomially drawn request count of one page (zero for pages
    /// that draw no requests — the cheap skip test before regeneration).
    pub fn count(&self, page_idx: usize) -> u64 {
        self.counts[page_idx]
    }

    /// The request config the stream draws from.
    pub fn config(&self) -> &RequestConfig {
        &self.config
    }

    /// Appends all of page `page_idx`'s request events to `out` (phases
    /// 3–4: age-decay times, per-day server pools), drawing from that
    /// page's own substream. A no-op for pages with no drawn requests.
    /// Events are time-sorted within the page but unsorted against other
    /// pages; callers sort (stably) after concatenation, exactly like the
    /// full generator.
    ///
    /// `scratch` holds the draw's working buffers. Whatever it held
    /// before never reaches the output, so one scratch serves any
    /// sequence of pages; a caller loop that keeps it stops allocating
    /// once it has drawn its largest page.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` is outside the prepared page table or `pages`
    /// is shorter than it.
    pub fn append_page_requests(
        &self,
        pages: &[PageMeta],
        page_idx: usize,
        scratch: &mut PageScratch,
        out: &mut Vec<RequestEvent>,
    ) {
        let count = self.counts[page_idx];
        if count == 0 {
            return;
        }
        count!(Counter::PagesDrawn, 1);
        count!(Counter::RequestsDrawn, count);
        let mut rng = seeds::stream_rng(self.seed, seeds::REQ_PAGE, page_idx as u64);
        place_page_requests(
            out,
            scratch,
            &mut rng,
            &pages[page_idx],
            count,
            self.max_count,
            self.rank_of[page_idx],
            &self.config,
            &self.decays,
        );
    }
}

/// The working buffers of one page's draw
/// ([`RequestStream::append_page_requests`]): request instants, the
/// server pool and its next day's roll, the fleet list a pool is sampled
/// from, and a pool-membership bitset over the fleet. Owned by the
/// caller's loop so pages draw without allocating; reusing one never
/// changes what is drawn.
#[derive(Debug, Clone, Default)]
pub struct PageScratch {
    times: Vec<SimTime>,
    pool: Vec<u16>,
    rolled: Vec<u16>,
    fleet: Vec<u16>,
    members: Vec<u64>,
}

impl PageScratch {
    /// Bytes the buffers hold (their capacity).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let servers = self.pool.capacity() + self.rolled.capacity() + self.fleet.capacity();
        self.times.capacity() * size_of::<SimTime>()
            + servers * size_of::<u16>()
            + self.members.capacity() * size_of::<u64>()
    }
}

/// Emits `count` requests for one page: age-decay times plus the per-day
/// candidate-server pools of eq. 6. All randomness comes from the
/// caller's `rng`; the working buffers are `scratch`'s.
#[allow(clippy::too_many_arguments)]
fn place_page_requests(
    out: &mut Vec<RequestEvent>,
    scratch: &mut PageScratch,
    rng: &mut StdRng,
    page: &PageMeta,
    count: u64,
    max_count: u64,
    rank: usize,
    config: &RequestConfig,
    decays: &[AgeDecay],
) {
    let horizon_h = config.horizon.as_hours_f64();
    let total_days = (config.horizon.as_days_f64().ceil() as usize).max(1);
    let class = popularity_class_shifted(rank, config.zipf_alpha, config.zipf_shift);
    let publish_h = page.publish_time().as_hours_f64();
    let span_h = (horizon_h - publish_h).max(0.0);
    let PageScratch {
        times,
        pool,
        rolled,
        fleet,
        members,
    } = scratch;

    // Request instants: the span's terms once, then one draw each.
    let ages = decays[class].over_span(span_h);
    let last = config.horizon.saturating_since(SimTime::from_millis(1));
    times.clear();
    times.extend(
        (0..count).map(|_| SimTime::from_hours_f64(publish_h + ages.sample(rng)).min(last)),
    );
    times.sort_unstable();

    // Per-day server pools (eq. 6 + 60% overlap).
    let servers = config.servers as usize;
    let rel = count as f64 / max_count as f64;
    count!(Counter::GeneratorPow, 1);
    let pool_size =
        ((servers as f64 * rel.powf(config.server_exponent)).ceil() as usize).clamp(1, servers);
    sample_distinct(rng, servers, pool_size, pool);
    let mut pool_day = times
        .first()
        .map(|t| t.day_index())
        .unwrap_or(0)
        .min(total_days - 1);

    for &t in times.iter() {
        let day = t.day_index().min(total_days - 1);
        if day != pool_day {
            // Roll the pool forward day by day, applying the overlap.
            for _ in pool_day..day {
                roll_pool(
                    rng,
                    pool,
                    servers,
                    config.day_overlap,
                    rolled,
                    fleet,
                    members,
                );
                std::mem::swap(pool, rolled);
            }
            pool_day = day;
        }
        let server = pool[rng.random_range(0..pool.len())];
        out.push(RequestEvent::new(t, ServerId::new(server), page.id()));
    }
}

/// Draws `k` distinct values from `0..n` into `out`.
fn sample_distinct(rng: &mut StdRng, n: usize, k: usize, out: &mut Vec<u16>) {
    debug_assert!(k <= n);
    out.clear();
    out.extend(0..n as u16);
    let _ = out.partial_shuffle(rng, k);
    out.truncate(k);
}

/// Writes into `rolled` the next day's pool: `overlap` of `pool` kept,
/// the rest replaced with servers outside it (when available). `fleet`
/// and `members` are working buffers (see [`outside`]).
fn roll_pool(
    rng: &mut StdRng,
    pool: &[u16],
    n: usize,
    overlap: f64,
    rolled: &mut Vec<u16>,
    fleet: &mut Vec<u16>,
    members: &mut Vec<u64>,
) {
    count!(Counter::PoolRolls, 1);
    let keep = ((pool.len() as f64 * overlap).round() as usize).min(pool.len());
    rolled.clear();
    rolled.extend_from_slice(pool);
    let _ = rolled.partial_shuffle(rng, keep);
    rolled.truncate(keep);
    let need = pool.len() - keep;
    if need == 0 {
        return;
    }
    outside(pool, n, members, fleet);
    if fleet.len() >= need {
        let _ = fleet.partial_shuffle(rng, need);
        rolled.extend_from_slice(&fleet[..need]);
    } else {
        // Not enough outsiders (pool ~ whole population): refill from
        // anywhere while keeping entries distinct.
        rolled.extend_from_slice(fleet);
        outside(rolled, n, members, fleet);
        let take = (pool.len() - rolled.len()).min(fleet.len());
        let _ = fleet.partial_shuffle(rng, take);
        rolled.extend_from_slice(&fleet[..take]);
    }
}

/// Lists into `fleet`, ascending, the servers of `0..n` not in `taken`.
/// `members` is rebuilt as the bitset of `taken`, so each server's check
/// is one bit, not a scan of `taken`.
fn outside(taken: &[u16], n: usize, members: &mut Vec<u64>, fleet: &mut Vec<u16>) {
    members.clear();
    members.resize(n.div_ceil(64), 0);
    for &s in taken {
        members[s as usize / 64] |= 1 << (s % 64);
    }
    fleet.clear();
    fleet.extend((0..n as u16).filter(|&s| members[s as usize / 64] & 1 << (s % 64) == 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_publishing, PublishingConfig};
    use rand::SeedableRng;

    fn pages() -> Vec<PageMeta> {
        let cfg = PublishingConfig {
            distinct_pages: 200,
            updated_pages: 80,
            total_pages: 600,
            ..PublishingConfig::paper()
        };
        generate_publishing(&cfg, 11, 1).unwrap().pages
    }

    fn small_config() -> RequestConfig {
        RequestConfig {
            servers: 20,
            total_requests: 5_000,
            ..RequestConfig::news()
        }
    }

    #[test]
    fn exact_request_count_sorted_and_valid() {
        let pages = pages();
        let trace = generate_requests(&pages, &small_config(), 1, 1).unwrap();
        assert_eq!(trace.len(), 5_000);
        assert!(trace.validate(pages.len(), 20).is_ok());
        let times: Vec<_> = trace.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn requests_start_after_publication() {
        let pages = pages();
        let cfg = small_config();
        let trace = generate_requests(&pages, &cfg, 2, 1).unwrap();
        for ev in &trace {
            let page = &pages[ev.page.as_usize()];
            assert!(ev.time >= page.publish_time());
            assert!(ev.time < cfg.horizon);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let pages = pages();
        let a = generate_requests(&pages, &small_config(), 3, 1).unwrap();
        let b = generate_requests(&pages, &small_config(), 3, 1).unwrap();
        let c = generate_requests(&pages, &small_config(), 4, 1).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_generation_is_bit_identical() {
        let pages = pages();
        // Spans multiple ZIPF_CHUNK blocks to exercise chunk seeding.
        let cfg = RequestConfig {
            servers: 20,
            total_requests: 20_000,
            ..RequestConfig::news()
        };
        for seed in [0, 3, 77] {
            let seq = generate_requests(&pages, &cfg, seed, 1).unwrap();
            for threads in [2, 4, 0] {
                let par = generate_requests(&pages, &cfg, seed, threads).unwrap();
                assert_eq!(seq, par, "threads = {threads}, seed = {seed}");
            }
        }
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let pages = pages();
        let trace = generate_requests(&pages, &small_config(), 5, 1).unwrap();
        let mut counts = vec![0u64; pages.len()];
        for ev in &trace {
            counts[ev.page.as_usize()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Head pages well above the tail (Zipf-Mandelbrot body/tail skew).
        let head_mean: f64 = counts[..20].iter().map(|&c| c as f64).sum::<f64>() / 20.0;
        let tail_mean: f64 = counts[counts.len() / 2..]
            .iter()
            .map(|&c| c as f64)
            .sum::<f64>()
            / (counts.len() - counts.len() / 2) as f64;
        assert!(
            head_mean > 5.0 * tail_mean.max(0.05),
            "head mean {head_mean} vs tail mean {tail_mean}"
        );
    }

    #[test]
    fn popular_pages_touch_more_servers() {
        let pages = pages();
        let trace = generate_requests(&pages, &small_config(), 6, 1).unwrap();
        use std::collections::{HashMap, HashSet};
        let mut counts: HashMap<u32, u64> = HashMap::new();
        let mut servers: HashMap<u32, HashSet<u16>> = HashMap::new();
        for ev in &trace {
            *counts.entry(ev.page.index()).or_default() += 1;
            servers
                .entry(ev.page.index())
                .or_default()
                .insert(ev.server.index());
        }
        let top = counts
            .iter()
            .max_by_key(|&(_, c)| *c)
            .map(|(p, _)| *p)
            .unwrap();
        let singles: Vec<u32> = counts
            .iter()
            .filter(|&(_, c)| *c <= 2)
            .map(|(p, _)| *p)
            .collect();
        let avg_single: f64 = singles.iter().map(|p| servers[p].len() as f64).sum::<f64>()
            / singles.len().max(1) as f64;
        assert!(servers[&top].len() as f64 > avg_single);
    }

    #[test]
    fn popularity_class_thresholds() {
        // alpha=1.5: class 0 while 1.5*log10(r) < 1 -> r <= 4.
        assert_eq!(popularity_class(1, 1.5), 0);
        assert_eq!(popularity_class(4, 1.5), 0);
        assert_eq!(popularity_class(5, 1.5), 1);
        assert_eq!(popularity_class(10_000, 1.5), 3);
        // alpha=1.0: decade boundaries.
        assert_eq!(popularity_class(9, 1.0), 0);
        assert_eq!(popularity_class(10, 1.0), 1);
        assert_eq!(popularity_class(100, 1.0), 2);
        assert_eq!(popularity_class(1_000, 1.0), 3);
        assert_eq!(popularity_class(100_000, 1.0), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        let pages = pages();
        let mut c = small_config();
        c.servers = 0;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        let mut c = small_config();
        c.total_requests = 0;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        let mut c = small_config();
        c.zipf_alpha = -0.5;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        let mut c = small_config();
        c.day_overlap = 1.5;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        let mut c = small_config();
        c.class_gammas[2] = f64::NAN;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        let mut c = small_config();
        c.server_exponent = 0.0;
        assert!(generate_requests(&pages, &c, 0, 1).is_err());
        assert!(generate_requests(&[], &small_config(), 0, 1).is_err());
    }

    #[test]
    fn single_server_population_works() {
        let pages = pages();
        let cfg = RequestConfig {
            servers: 1,
            total_requests: 500,
            ..RequestConfig::news()
        };
        let trace = generate_requests(&pages, &cfg, 7, 1).unwrap();
        assert!(trace.iter().all(|e| e.server == ServerId::new(0)));
    }

    #[test]
    fn roll_pool_keeps_size_and_distinctness() {
        let mut rng = StdRng::seed_from_u64(9);
        let pool = distinct(&mut rng, 50, 10);
        assert_eq!(pool.len(), 10);
        let rolled = rolled(&mut rng, &pool, 50, 0.6);
        assert_eq!(rolled.len(), 10);
        let distinct: std::collections::HashSet<_> = rolled.iter().collect();
        assert_eq!(distinct.len(), 10);
        let kept = rolled.iter().filter(|s| pool.contains(s)).count();
        assert_eq!(kept, 6);
    }

    #[test]
    fn roll_pool_full_population_degenerates_gracefully() {
        let mut rng = StdRng::seed_from_u64(10);
        let pool: Vec<u16> = (0..10).collect();
        let rolled = rolled(&mut rng, &pool, 10, 0.6);
        assert_eq!(rolled.len(), 10);
        let distinct: std::collections::HashSet<_> = rolled.iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    /// [`sample_distinct`] into a fresh vector.
    fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<u16> {
        let mut out = Vec::new();
        sample_distinct(rng, n, k, &mut out);
        out
    }

    /// [`roll_pool`] with fresh buffers, returning the next day's pool.
    fn rolled(rng: &mut StdRng, pool: &[u16], n: usize, overlap: f64) -> Vec<u16> {
        let mut out = Vec::new();
        roll_pool(
            rng,
            pool,
            n,
            overlap,
            &mut out,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        out
    }

    /// The roll as it was written before the membership bitset: every
    /// membership check a scan of the pool (or of the kept servers).
    fn roll_pool_by_scans(rng: &mut StdRng, pool: &[u16], n: usize, overlap: f64) -> Vec<u16> {
        let keep = ((pool.len() as f64 * overlap).round() as usize).min(pool.len());
        let mut kept: Vec<u16> = pool.to_vec();
        let _ = kept.partial_shuffle(rng, keep);
        kept.truncate(keep);
        let need = pool.len() - keep;
        if need > 0 {
            let mut outside: Vec<u16> = (0..n as u16).filter(|s| !pool.contains(s)).collect();
            if outside.len() >= need {
                let _ = outside.partial_shuffle(rng, need);
                outside.truncate(need);
                kept.extend(outside);
            } else {
                kept.extend(outside);
                let mut rest: Vec<u16> = (0..n as u16).filter(|s| !kept.contains(s)).collect();
                let take = (pool.len() - kept.len()).min(rest.len());
                let _ = rest.partial_shuffle(rng, take);
                kept.extend(rest.into_iter().take(take));
            }
        }
        kept
    }

    #[test]
    fn the_bitset_roll_draws_what_the_scanning_roll_drew() {
        let mut degenerate = 0;
        // One set of buffers for every roll: a stale bitset or fleet list
        // from an earlier, larger fleet must not leak into a later roll.
        let (mut out, mut fleet, mut members) = (Vec::new(), Vec::new(), Vec::new());
        for n in [300, 1, 63, 64, 65, 100] {
            let mut pick = StdRng::seed_from_u64(n as u64);
            for case in 0..200u64 {
                let size = pick.random_range(1..=n);
                let overlap = [0.0, 0.3, 0.6, 0.95, 1.0][case as usize % 5];
                let pool = distinct(&mut pick, n, size);
                let keep = ((size as f64 * overlap).round() as usize).min(size);
                degenerate += usize::from(n - size < size - keep);
                let mut a = StdRng::seed_from_u64(case);
                let mut b = a.clone();
                let expected = roll_pool_by_scans(&mut a, &pool, n, overlap);
                roll_pool(
                    &mut b,
                    &pool,
                    n,
                    overlap,
                    &mut out,
                    &mut fleet,
                    &mut members,
                );
                assert_eq!(out, expected, "n = {n}, pool {pool:?}, overlap {overlap}");
                assert_eq!(a.random::<u64>(), b.random::<u64>(), "same draws consumed");
            }
        }
        assert!(
            degenerate > 50,
            "the not-enough-outsiders branch ran {degenerate} times"
        );
    }

    #[test]
    fn a_shared_scratch_draws_every_page_as_a_fresh_one_does() {
        let pages = pages();
        let stream = RequestStream::prepare(pages.len(), &small_config(), 21, 1).unwrap();
        let fresh: Vec<Vec<RequestEvent>> = (0..pages.len())
            .map(|page| {
                let mut out = Vec::new();
                stream.append_page_requests(&pages, page, &mut PageScratch::default(), &mut out);
                out
            })
            .collect();
        assert!(fresh.iter().filter(|e| e.len() > 1).count() > 20);
        let mut order: Vec<usize> = (0..pages.len()).collect();
        let mut scratch = PageScratch::default();
        for round in 0..3u64 {
            order.shuffle(&mut StdRng::seed_from_u64(round));
            // Groups of 1, 2, … pages, each group into one output vector.
            let mut rest = &order[..];
            let mut width = 1;
            while !rest.is_empty() {
                let (group, tail) = rest.split_at(width.min(rest.len()));
                let mut out = Vec::new();
                for &page in group {
                    let before = out.len();
                    stream.append_page_requests(&pages, page, &mut scratch, &mut out);
                    assert_eq!(out[before..], fresh[page][..], "page {page}, round {round}");
                }
                (rest, width) = (tail, width + 1);
            }
        }
    }
}
