//! [`StatsObserver`]: folds the event stream into a [`Registry`] of
//! counters, byte totals and distributions — no per-event storage.

use pscd_types::{Bytes, PageId, ServerId, SimTime};

use crate::observer::{AdmitOrigin, EvictReason, MergeableObserver, Observer, RelabelDirection};
use crate::registry::Registry;

/// Counter key for cache hits; `request.hits + request.misses` must equal
/// the run's `SimResult::requests` (checked by the end-to-end tests).
pub const K_REQUEST_HITS: &str = "request.hits";
/// Counter key for cache misses.
pub const K_REQUEST_MISSES: &str = "request.misses";
/// Counter key for push offers whose content crossed the network.
pub const K_PUSH_TRANSFERS: &str = "push.transfers";

/// An [`Observer`] that aggregates every event into a [`Registry`]:
/// request hit/miss counters, push/fetch byte breakdowns, per-reason
/// eviction counts, relabel churn, and log₂ histograms of eviction
/// values and page sizes.
///
/// Because it only aggregates, its memory use is constant in the length
/// of the run — suitable for full-scale simulations where
/// [`JsonlObserver`](crate::JsonlObserver) event logs would be huge.
#[derive(Debug, Clone, Default)]
pub struct StatsObserver {
    registry: Registry,
}

impl StatsObserver {
    /// A fresh observer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the collected metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds another observer's registry into this one (counters and byte
    /// totals add up exactly; histograms merge). Used
    /// to combine the per-shard observers of a sharded simulation run.
    pub fn merge(&mut self, other: &StatsObserver) {
        self.registry.merge(&other.registry);
    }

    /// Total requests observed (hits + misses).
    pub fn requests(&self) -> u64 {
        self.registry.counter(K_REQUEST_HITS) + self.registry.counter(K_REQUEST_MISSES)
    }

    /// Total cache hits observed.
    pub fn hits(&self) -> u64 {
        self.registry.counter(K_REQUEST_HITS)
    }

    /// Total push transfers observed (content actually sent).
    pub fn push_transfers(&self) -> u64 {
        self.registry.counter(K_PUSH_TRANSFERS)
    }

    /// Plain-text summary: derived ratios first, then the full registry.
    pub fn summary(&self) -> String {
        let requests = self.requests();
        let hits = self.hits();
        let ratio = if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        };
        let mut out = String::new();
        out.push_str(&format!(
            "requests {requests}  hits {hits}  hit_ratio {ratio:.4}\n"
        ));
        out.push_str(&format!(
            "push: offers {}  transfers {}  stored {}\n",
            self.registry.counter("push.offers"),
            self.push_transfers(),
            self.registry.counter("push.stored"),
        ));
        let evictions: u64 = self
            .registry
            .counters_with_prefix("evict.")
            .map(|(_, v)| v)
            .sum();
        let relabels: u64 = self
            .registry
            .counters_with_prefix("relabel.")
            .map(|(_, v)| v)
            .sum();
        out.push_str(&format!("evictions {evictions}  relabels {relabels}\n\n"));
        out.push_str(&self.registry.render());
        out
    }
}

impl Observer for StatsObserver {
    #[inline]
    fn on_publish(
        &mut self,
        _time: SimTime,
        _page: PageId,
        size: Bytes,
        matched: usize,
        _pushed: usize,
    ) {
        self.registry.inc("publish.events");
        self.registry.observe("page_size", size.as_f64());
        self.registry.observe("publish.match_count", matched as f64);
    }

    #[inline]
    fn on_notify(&mut self, _time: SimTime, _page: PageId, match_count: usize) {
        self.registry.inc("notify.events");
        self.registry.add("notify.matches", match_count as u64);
    }

    #[inline]
    fn on_request(
        &mut self,
        _time: SimTime,
        _server: ServerId,
        _page: PageId,
        size: Bytes,
        hit: bool,
    ) {
        if hit {
            self.registry.inc(K_REQUEST_HITS);
        } else {
            self.registry.inc(K_REQUEST_MISSES);
            // A miss fetches the page from the publisher.
            self.registry.add_bytes("bytes.fetched", size);
        }
    }

    #[inline]
    fn on_push(
        &mut self,
        _server: ServerId,
        _page: PageId,
        size: Bytes,
        transferred: bool,
        stored: bool,
    ) {
        self.registry.inc("push.offers");
        if transferred {
            self.registry.inc(K_PUSH_TRANSFERS);
            self.registry.add_bytes("bytes.pushed", size);
        }
        if stored {
            self.registry.inc("push.stored");
        }
    }

    #[inline]
    fn on_admit(
        &mut self,
        _server: ServerId,
        _page: PageId,
        _size: Bytes,
        value: f64,
        origin: AdmitOrigin,
    ) {
        self.registry.inc(&format!("admit.{}", origin.as_str()));
        self.registry.observe("admit.value", value);
    }

    #[inline]
    fn on_evict(
        &mut self,
        _server: ServerId,
        _page: PageId,
        size: Bytes,
        value: f64,
        reason: EvictReason,
    ) {
        self.registry.inc(&format!("evict.{}", reason.as_str()));
        self.registry.add_bytes("bytes.evicted", size);
        self.registry.observe("evict.value", value);
    }

    #[inline]
    fn on_relabel(
        &mut self,
        _server: ServerId,
        _page: PageId,
        size: Bytes,
        direction: RelabelDirection,
    ) {
        self.registry
            .inc(&format!("relabel.{}", direction.as_str()));
        self.registry
            .add_bytes(&format!("bytes.relabeled.{}", direction.as_str()), size);
    }

    #[inline]
    fn on_crash(&mut self, _time: SimTime, victims: &[ServerId]) {
        self.registry.inc("crash.events");
        self.registry.add("crash.victims", victims.len() as u64);
    }

    #[inline]
    fn on_restart(&mut self, _time: SimTime, _server: ServerId) {
        self.registry.inc("restart.events");
    }

    #[inline]
    fn on_invalidate(&mut self, _time: SimTime, _stale: PageId, dropped: usize) {
        self.registry.inc("invalidate.events");
        self.registry.add("invalidate.dropped", dropped as u64);
    }
}

impl MergeableObserver for StatsObserver {
    #[inline]
    fn absorb(&mut self, other: Self) {
        self.registry.merge(&other.registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_shard_totals_exactly() {
        let mut a = StatsObserver::new();
        let mut b = StatsObserver::new();
        let p = PageId::new(1);
        a.on_request(SimTime::ZERO, ServerId::new(0), p, Bytes::new(100), true);
        a.on_request(SimTime::ZERO, ServerId::new(0), p, Bytes::new(100), false);
        b.on_request(SimTime::ZERO, ServerId::new(1), p, Bytes::new(50), false);
        b.on_push(ServerId::new(1), p, Bytes::new(50), true, true);
        a.absorb(b);
        assert_eq!(a.requests(), 3);
        assert_eq!(a.hits(), 1);
        assert_eq!(a.push_transfers(), 1);
        assert_eq!(a.registry().bytes("bytes.fetched"), 150);
        // Absorbing a fresh observer is the identity.
        let before = a.requests();
        a.absorb(StatsObserver::default());
        assert_eq!(a.requests(), before);
    }

    #[test]
    fn counters_track_the_event_stream() {
        let mut s = StatsObserver::new();
        let t = SimTime::ZERO;
        let p = PageId::new(1);
        s.on_publish(t, p, Bytes::new(1000), 3, 2);
        s.on_request(t, ServerId::new(0), p, Bytes::new(1000), true);
        s.on_request(t, ServerId::new(1), p, Bytes::new(1000), false);
        s.on_request(t, ServerId::new(1), p, Bytes::new(1000), false);
        s.on_push(ServerId::new(0), p, Bytes::new(1000), true, true);
        s.on_push(ServerId::new(1), p, Bytes::new(1000), true, false);
        s.on_push(ServerId::new(2), p, Bytes::new(1000), false, false);
        s.on_admit(
            ServerId::new(0),
            p,
            Bytes::new(1000),
            2.5,
            AdmitOrigin::Push,
        );
        s.on_evict(
            ServerId::new(0),
            p,
            Bytes::new(1000),
            0.5,
            EvictReason::Access,
        );
        s.on_evict(
            ServerId::new(0),
            p,
            Bytes::new(1000),
            0.0,
            EvictReason::Repartition,
        );
        s.on_relabel(
            ServerId::new(0),
            p,
            Bytes::new(1000),
            RelabelDirection::AcToPc,
        );
        s.on_crash(t, &[ServerId::new(3), ServerId::new(4)]);
        s.on_restart(t, ServerId::new(3));
        s.on_invalidate(t, p, 5);

        assert_eq!(s.requests(), 3);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.push_transfers(), 2);
        let r = s.registry();
        assert_eq!(r.counter("push.offers"), 3);
        assert_eq!(r.counter("push.stored"), 1);
        assert_eq!(r.counter("evict.access"), 1);
        assert_eq!(r.counter("evict.repartition"), 1);
        assert_eq!(r.counter("relabel.ac_to_pc"), 1);
        assert_eq!(r.counter("crash.victims"), 2);
        assert_eq!(r.counter("invalidate.dropped"), 5);
        assert_eq!(r.bytes("bytes.pushed"), 2000);
        assert_eq!(r.bytes("bytes.fetched"), 2000);
        assert_eq!(r.bytes("bytes.evicted"), 2000);
        assert_eq!(r.histogram("evict.value").unwrap().count(), 2);
        assert_eq!(r.histogram("page_size").unwrap().count(), 1);

        let text = s.summary();
        assert!(text.contains("hit_ratio 0.3333"));
        assert!(text.contains("evictions 2"));
        assert!(text.contains("relabels 1"));
        assert!(text.contains("evict.access"));
    }
}
