//! Subscription generation through the subscription-quality model (§4.3).

use pscd_pool::parallel_chunked;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

use pscd_types::{RequestTrace, SubscriptionTable, SubscriptionTableBuilder};

use crate::{seeds, WorkloadError};

/// Floor on a sampled per-pair subscription quality. Eq. 7 with `SQ <= 0.5`
/// draws `SQ_{i,j}` uniformly from `(0, 2·SQ]`, which is unbounded in
/// `1/SQ_{i,j}`; the floor caps a page's inferred subscription count at
/// 100× its request count, keeping the synthetic population finite without
/// affecting the achievable qualities the paper evaluates (SQ >= 0.25).
const MIN_PAIR_QUALITY: f64 = 0.01;

/// Page groups per pool job in the parallel fan-out. Purely a scheduling
/// granularity (each page has its own substream).
const GROUP_CHUNK: usize = 512;

/// Derives the per-(page, server) subscription counts from a request trace
/// using the paper's subscription-quality model (eq. 7):
///
/// * For each (page `i`, server `j`) with `P_{i,j}` requests, a local
///   quality `SQ_{i,j}` is drawn around the target `quality`: uniformly in
///   `[2·SQ − 1, 1]` when `SQ > 0.5`, uniformly in `(0, 2·SQ]` otherwise.
/// * The subscription count is `S_{i,j} = round(P_{i,j} / SQ_{i,j})`.
///
/// `quality == 1` is the ideal case where subscriptions predict requests
/// exactly (`S_{i,j} = P_{i,j}`).
///
/// Only a `coverage` fraction of the (page, server) request pairs carries
/// subscriptions at all (`1` = every pair, the paper's setting). This
/// models the scenario the paper leaves to future work — "more general
/// scenarios in which not all requests to pages are driven through
/// notification services": pairs outside the covered set have requests
/// (walk-in readers) but zero matching subscriptions, so the push-time
/// modules are blind to them.
///
/// The coverage and quality draws of one page's (page, server) pairs come
/// from that page's own RNG substream ([`crate::seeds`]), in ascending
/// server order, so the table is **bit-identical** on any number of
/// `threads` pool workers (`0` = auto, `1` = inline).
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidConfig`] unless `0 < quality <= 1` and
/// `0 <= coverage <= 1`.
///
/// # Examples
///
/// ```
/// use pscd_types::{PageId, RequestEvent, RequestTrace, ServerId, SimTime};
/// use pscd_workload::generate_subscriptions;
/// let trace = RequestTrace::from_unsorted(vec![
///     RequestEvent::new(SimTime::from_secs(1), ServerId::new(0), PageId::new(0)),
///     RequestEvent::new(SimTime::from_secs(2), ServerId::new(0), PageId::new(0)),
/// ]);
/// let subs = generate_subscriptions(&trace, 1, 1.0, 1.0, 7, 1)?;
/// assert_eq!(subs.count(PageId::new(0), ServerId::new(0)), 2);
/// # Ok::<(), pscd_workload::WorkloadError>(())
/// ```
pub fn generate_subscriptions(
    trace: &RequestTrace,
    page_count: usize,
    quality: f64,
    coverage: f64,
    seed: u64,
    threads: usize,
) -> Result<SubscriptionTable, WorkloadError> {
    generate_subscriptions_from_counts(
        &request_groups(trace),
        page_count,
        quality,
        coverage,
        seed,
        threads,
    )
}

/// Groups a request trace into the `P_{i,j}` counts the quality model
/// consumes: one entry per requested page in ascending page order, each
/// holding that page's `(server, request count)` pairs in ascending
/// server order.
pub fn request_groups(trace: &RequestTrace) -> Vec<(u32, Vec<(u16, u64)>)> {
    let mut requests: HashMap<(u32, u16), u64> = HashMap::new();
    for ev in trace {
        *requests
            .entry((ev.page.index(), ev.server.index()))
            .or_default() += 1;
    }
    let mut pairs: Vec<((u32, u16), u64)> = requests.into_iter().collect();
    pairs.sort_unstable();
    let mut groups: Vec<(u32, Vec<(u16, u64)>)> = Vec::new();
    for ((page, server), p_ij) in pairs {
        match groups.last_mut() {
            Some((p, servers)) if *p == page => servers.push((server, p_ij)),
            _ => groups.push((page, vec![(server, p_ij)])),
        }
    }
    groups
}

/// [`generate_subscriptions`] from precomputed `P_{i,j}` counts (the
/// [`request_groups`] shape) instead of a materialized trace — what lets a streaming workload build its
/// subscription table from a single per-page counting pass without ever
/// holding the request events. Each page's quality draws come from that
/// page's own substream, so the table is bit-identical to the trace-based
/// entry point given the same counts.
///
/// `groups` must be in ascending page order with each group's servers in
/// ascending server order, pages within `0..page_count` (debug-asserted).
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidConfig`] unless `0 < quality <= 1` and
/// `0 <= coverage <= 1`.
pub fn generate_subscriptions_from_counts(
    groups: &[(u32, Vec<(u16, u64)>)],
    page_count: usize,
    quality: f64,
    coverage: f64,
    seed: u64,
    threads: usize,
) -> Result<SubscriptionTable, WorkloadError> {
    if !(quality > 0.0 && quality <= 1.0) {
        return Err(WorkloadError::invalid("quality", "0 < quality <= 1"));
    }
    if !(0.0..=1.0).contains(&coverage) {
        return Err(WorkloadError::invalid("coverage", "0 <= coverage <= 1"));
    }
    debug_assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));

    // One substream per page: coverage gate + quality draw over that
    // page's servers in ascending order.
    let rows: Vec<(u32, u16, u32)> =
        parallel_chunked(groups.len(), GROUP_CHUNK, threads, |range| {
            let mut out = Vec::new();
            for gi in range {
                let (page, servers) = &groups[gi];
                let mut rng = seeds::stream_rng(seed, seeds::SUBS, u64::from(*page));
                for &(server, p_ij) in servers {
                    if coverage < 1.0 && rng.random::<f64>() >= coverage {
                        continue;
                    }
                    let sq = sample_pair_quality(&mut rng, quality);
                    let count = ((p_ij as f64 / sq).round() as u64)
                        .max(1)
                        .min(u32::MAX as u64) as u32;
                    out.push((*page, server, count));
                }
            }
            out
        });

    let mut builder = SubscriptionTableBuilder::new(page_count);
    for (page, server, count) in rows {
        builder.add(page.into(), server.into(), count);
    }
    Ok(builder.build())
}

/// Draws `SQ_{i,j}` around the target quality per eq. 7.
fn sample_pair_quality(rng: &mut StdRng, quality: f64) -> f64 {
    let sq = if quality > 0.5 {
        let lo = 2.0 * quality - 1.0;
        lo + rng.random::<f64>() * (1.0 - lo)
    } else {
        // Uniform in (0, 2*quality]: 1 - random() is in (0, 1].
        (1.0 - rng.random::<f64>()) * 2.0 * quality
    };
    sq.clamp(MIN_PAIR_QUALITY, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{PageId, RequestEvent, ServerId, SimTime};

    fn trace() -> RequestTrace {
        let mut events = Vec::new();
        for (t, s, p, n) in [(1u64, 0u16, 0u32, 5usize), (2, 1, 0, 3), (3, 0, 2, 1)] {
            for k in 0..n {
                events.push(RequestEvent::new(
                    SimTime::from_secs(t * 100 + k as u64),
                    ServerId::new(s),
                    PageId::new(p),
                ));
            }
        }
        RequestTrace::from_unsorted(events)
    }

    #[test]
    fn perfect_quality_equals_request_counts() {
        let subs = generate_subscriptions(&trace(), 3, 1.0, 1.0, 1, 1).unwrap();
        assert_eq!(subs.count(PageId::new(0), ServerId::new(0)), 5);
        assert_eq!(subs.count(PageId::new(0), ServerId::new(1)), 3);
        assert_eq!(subs.count(PageId::new(2), ServerId::new(0)), 1);
        assert_eq!(subs.count(PageId::new(1), ServerId::new(0)), 0);
        assert_eq!(subs.count(PageId::new(0), ServerId::new(5)), 0);
    }

    #[test]
    fn lower_quality_inflates_counts() {
        let subs = generate_subscriptions(&trace(), 3, 0.5, 1.0, 2, 1).unwrap();
        assert!(subs.count(PageId::new(0), ServerId::new(0)) >= 5);
        assert!(subs.count(PageId::new(0), ServerId::new(1)) >= 3);
        // Statistically: across many pairs, counts well above requests.
        let total: u64 = subs.iter().map(|(_, _, c)| c as u64).sum();
        assert!(total > 9, "total = {total}");
    }

    #[test]
    fn quality_mid_band_bounds() {
        // quality = 0.75 -> SQ_{i,j} in [0.5, 1] -> S in [P, 2P].
        let mut events = Vec::new();
        for k in 0..100u64 {
            events.push(RequestEvent::new(
                SimTime::from_secs(k),
                ServerId::new(0),
                PageId::new(0),
            ));
        }
        let t = RequestTrace::from_unsorted(events);
        let subs = generate_subscriptions(&t, 1, 0.75, 1.0, 3, 1).unwrap();
        let s = subs.count(PageId::new(0), ServerId::new(0));
        assert!((100..=200).contains(&s), "s = {s}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_subscriptions(&trace(), 3, 0.25, 1.0, 9, 1).unwrap();
        let b = generate_subscriptions(&trace(), 3, 0.25, 1.0, 9, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_generation_is_bit_identical() {
        for (quality, coverage) in [(1.0, 1.0), (0.5, 1.0), (0.25, 0.6)] {
            let seq = generate_subscriptions(&trace(), 3, quality, coverage, 9, 1).unwrap();
            for threads in [2, 4, 0] {
                let par =
                    generate_subscriptions(&trace(), 3, quality, coverage, 9, threads).unwrap();
                assert_eq!(seq, par, "threads = {threads}, quality = {quality}");
            }
        }
    }

    #[test]
    fn from_counts_matches_trace_based_generation() {
        let t = trace();
        let groups = request_groups(&t);
        assert_eq!(groups, vec![(0, vec![(0, 5), (1, 3)]), (2, vec![(0, 1)])]);
        for (quality, coverage) in [(1.0, 1.0), (0.5, 1.0), (0.25, 0.6)] {
            let via_trace = generate_subscriptions(&t, 3, quality, coverage, 9, 1).unwrap();
            let via_counts =
                generate_subscriptions_from_counts(&groups, 3, quality, coverage, 9, 2).unwrap();
            assert_eq!(via_trace, via_counts, "quality = {quality}");
        }
        assert!(generate_subscriptions_from_counts(&groups, 3, 0.0, 1.0, 0, 1).is_err());
    }

    #[test]
    fn invalid_quality_rejected() {
        assert!(generate_subscriptions(&trace(), 3, 0.0, 1.0, 0, 1).is_err());
        assert!(generate_subscriptions(&trace(), 3, -0.1, 1.0, 0, 1).is_err());
        assert!(generate_subscriptions(&trace(), 3, 1.1, 1.0, 0, 1).is_err());
    }

    #[test]
    fn partial_coverage_drops_pairs() {
        let full = generate_subscriptions(&trace(), 3, 1.0, 1.0, 4, 1).unwrap();
        let none = generate_subscriptions(&trace(), 3, 1.0, 0.0, 4, 1).unwrap();
        let half = generate_subscriptions(&trace(), 3, 1.0, 0.5, 4, 1).unwrap();
        assert_eq!(full.iter().count(), 3);
        assert_eq!(none.iter().count(), 0);
        let h = half.iter().count();
        assert!(h <= 3);
        // Covered pairs keep their exact counts at SQ = 1.
        for (page, server, count) in half.iter() {
            assert_eq!(count, full.count(page, server));
        }
        // Invalid coverage rejected.
        assert!(generate_subscriptions(&trace(), 3, 1.0, 1.5, 0, 1).is_err());
        assert!(generate_subscriptions(&trace(), 3, 1.0, -0.1, 0, 1).is_err());
    }

    #[test]
    fn empty_trace_gives_empty_table() {
        let t = RequestTrace::default();
        let subs = generate_subscriptions(&t, 4, 1.0, 1.0, 0, 1).unwrap();
        assert_eq!(subs.iter().count(), 0);
        assert_eq!(subs.page_count(), 4);
    }
}
