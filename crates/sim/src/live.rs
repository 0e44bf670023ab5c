//! Single-event apply steps shared by batch replay and the live service.
//!
//! Batch replay ([`crate::Simulation`]) and the live broker service
//! (`pscd-service`) must process an identical event through identical
//! engine and accounting mutations — the service's differential test
//! asserts the two modes end bit-identical. These free functions are that
//! shared step: the replay loop calls them per timeline event, the service
//! workers per ingested [`LiveEvent`](pscd_types::LiveEvent), so the
//! semantics cannot drift apart.

use pscd_broker::{BrokerError, DeliveryEngine, PushRecord, RequestRecord};
use pscd_obs::Observer;
use pscd_types::{PageMeta, ServerId, SimTime};

use crate::HourlySeries;

/// Delivers one published page to its matched proxies and records the
/// resulting push traffic into `hourly`. `matched` lists `(server,
/// subscription count)` pairs restricted to the engine's server range;
/// `push_scratch` is the caller's reused record buffer (cleared by the
/// engine on entry). Returns the number of proxies the page's content was
/// actually transferred to.
///
/// Stale-version invalidation is *not* part of this step: callers decide
/// whether to [`invalidate_everywhere`](DeliveryEngine::invalidate_everywhere)
/// first, because only they know the invalidation option and the
/// superseded page.
///
/// # Panics
///
/// Panics if a matched server is outside the engine's range.
pub fn apply_publish<O: Observer>(
    engine: &mut DeliveryEngine<O>,
    hourly: &mut HourlySeries,
    meta: &PageMeta,
    time: SimTime,
    matched: &[(ServerId, u32)],
    push_scratch: &mut Vec<PushRecord>,
) -> usize {
    engine.publish(meta, matched, push_scratch);
    let mut pushed = 0;
    for record in push_scratch.iter() {
        if record.transferred {
            hourly.record_push(time, meta.size());
            pushed += 1;
        }
    }
    pushed
}

/// Serves one subscriber request at `server` and records the outcome into
/// `hourly` (a miss also records the publisher fetch).
///
/// # Errors
///
/// Returns [`BrokerError::UnknownServer`] if `server` is outside the
/// engine's range.
pub fn apply_request<O: Observer>(
    engine: &mut DeliveryEngine<O>,
    hourly: &mut HourlySeries,
    server: ServerId,
    meta: &PageMeta,
    time: SimTime,
    subs: u32,
) -> Result<RequestRecord, BrokerError> {
    let record = engine.request(server, meta, subs)?;
    hourly.record_request(time, record.hit, meta.size());
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_broker::PushScheme;
    use pscd_core::StrategyKind;
    use pscd_obs::{ObsHandle, SharedObserver};
    use pscd_types::{Bytes, PageId, PageKind, PageMeta, SimTime};

    fn engine(kind: StrategyKind, proxies: usize) -> DeliveryEngine {
        DeliveryEngine::new(
            (0..proxies)
                .map(|_| kind.build(Bytes::new(1_000), 0, ObsHandle::disabled()))
                .collect(),
            vec![1.0; proxies],
            PushScheme::Always,
            SharedObserver::disabled(),
            ServerId::new(0),
        )
        .unwrap()
    }

    fn page(i: u32, size: u64) -> PageMeta {
        PageMeta::new(
            PageId::new(i),
            Bytes::new(size),
            SimTime::ZERO,
            PageKind::Original,
        )
    }

    #[test]
    fn apply_publish_counts_transfers_and_hourly_pushes() {
        let mut engine = engine(StrategyKind::Sub, 2);
        let mut hourly = HourlySeries::new(2);
        let mut scratch = Vec::new();
        let p = page(0, 100);
        let pushed = apply_publish(
            &mut engine,
            &mut hourly,
            &p,
            SimTime::from_secs(10),
            &[(ServerId::new(0), 3), (ServerId::new(1), 1)],
            &mut scratch,
        );
        assert_eq!(pushed, 2);
        assert_eq!(hourly.pushed_pages[0], 2);
        assert_eq!(engine.total_traffic().pushed_pages, 2);
    }

    #[test]
    fn apply_request_records_hits_misses_and_fetches() {
        let mut engine = engine(StrategyKind::GdStar { beta: 2.0 }, 1);
        let mut hourly = HourlySeries::new(2);
        let p = page(0, 100);
        let t = SimTime::from_secs(5);
        let miss = apply_request(&mut engine, &mut hourly, ServerId::new(0), &p, t, 0).unwrap();
        assert!(!miss.hit);
        let hit = apply_request(&mut engine, &mut hourly, ServerId::new(0), &p, t, 0).unwrap();
        assert!(hit.hit);
        assert_eq!(hourly.requests[0], 2);
        assert_eq!(hourly.hits[0], 1);
        assert_eq!(hourly.fetched_pages[0], 1);
        assert!(apply_request(&mut engine, &mut hourly, ServerId::new(7), &p, t, 0).is_err());
    }
}
