//! SUB: push-time-only placement driven by subscription matching (§3.2).

use pscd_cache::{AccessOutcome, GreedyDualEngine, PageRef};
use pscd_obs::{NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::{PushOutcome, Strategy, StrategyClass};

/// The paper's pure pushing strategy:
///
/// ```text
/// V(p) = f_S(p) · c(p) / s(p)                    (eq. 2)
/// ```
///
/// where `f_S(p)` is the number of subscriptions matching `p` at this
/// proxy. A pushed page is stored only if the cache has room after evicting
/// strictly-less-valuable pages; on a cache miss the requested page is
/// forwarded to the user **without** being cached (push-time is the only
/// placement opportunity).
///
/// # Examples
///
/// ```
/// use pscd_core::{Strategy, Sub};
/// use pscd_cache::PageRef;
/// use pscd_types::{Bytes, PageId};
///
/// let mut sub = Sub::new(Bytes::from_kib(4));
/// let mut evicted = Vec::new();
/// let page = PageRef::new(PageId::new(0), Bytes::new(512), 1.0);
/// assert!(sub.on_push(&page, 3, &mut evicted).is_stored());
/// assert!(sub.on_access(&page, 3, &mut evicted).is_hit());
/// ```
#[derive(Debug)]
pub struct Sub<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
}

impl Sub {
    /// Creates a SUB proxy cache with the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            engine: GreedyDualEngine::new(capacity),
        }
    }
}

impl<O: Observer> Sub<O> {
    /// An empty cache of this one's capacity over the page ordinals
    /// `0..page_count`, reporting cache decisions to `obs`. Every table
    /// is preallocated for the universe, so steady-state operation never
    /// allocates (`0` preallocates nothing and grows on demand).
    pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> Sub<P> {
        Sub {
            engine: GreedyDualEngine::with_observer(self.capacity(), page_count, obs),
        }
    }

    /// Eq. 2: the subscription-based page value.
    fn value(page: &PageRef, subs: u32) -> f64 {
        subs as f64 * page.cost / page.size.as_f64()
    }

    /// Serializes the cache's mutable state for a snapshot.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.engine.encode_state(out);
    }

    /// The cached pages, in arbitrary order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.engine.store().iter().map(|p| p.page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        &mut self,
        r: &mut pscd_cache::SnapshotReader<'_>,
    ) -> Result<(), pscd_cache::SnapshotError> {
        self.engine.decode_state(r)
    }
}

impl<O: Observer> Strategy for Sub<O> {
    fn name(&self) -> &'static str {
        "SUB"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::PushTime
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        if self
            .engine
            .push_valued(page, Self::value(page, subs), evicted)
        {
            PushOutcome::Stored
        } else {
            PushOutcome::Declined
        }
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        let store = self.engine.store();
        if store.contains(page.page) {
            return true;
        }
        if page.size > store.capacity() {
            return false;
        }
        store.free() + store.candidate_size_below(Self::value(page, subs)) >= page.size
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        if self.engine.store().contains(page.page) {
            AccessOutcome::Hit
        } else {
            // Push-time-only: fetch, forward, never cache on access.
            AccessOutcome::MissBypassed
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.engine.store().contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        self.engine.evict(page)
    }

    fn capacity(&self) -> Bytes {
        self.engine.store().capacity()
    }

    fn used(&self) -> Bytes {
        self.engine.store().used()
    }

    fn len(&self) -> usize {
        self.engine.store().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    #[test]
    fn stores_by_subscription_value() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(20));
        // Two pages fill the cache; values 10*1/10 = 1.0 and 2.0.
        assert!(sub.on_push(&page(1, 10, 1.0), 10, &mut ev).is_stored());
        assert!(sub.on_push(&page(2, 10, 1.0), 20, &mut ev).is_stored());
        // Low-value page declined.
        assert_eq!(
            sub.on_push(&page(3, 10, 1.0), 5, &mut ev),
            PushOutcome::Declined
        );
        assert!(!sub.contains(PageId::new(3)));
        // High-value page evicts the weakest.
        let out = sub.on_push(&page(4, 10, 1.0), 30, &mut ev);
        assert_eq!(out, PushOutcome::Stored);
        assert_eq!(ev, vec![PageId::new(1)]);
    }

    #[test]
    fn declines_when_candidates_too_small() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(30));
        sub.on_push(&page(1, 10, 1.0), 10, &mut ev); // v = 1.0
        sub.on_push(&page(2, 20, 1.0), 40, &mut ev); // v = 2.0
                                                     // New 20-byte page worth 1.5: only page 1 (10 bytes) is a weaker
                                                     // candidate -> total candidate size 10 < 20 -> declined (§3.2).
        assert_eq!(
            sub.on_push(&page(3, 20, 1.0), 30, &mut ev),
            PushOutcome::Declined
        );
        assert!(!sub.would_store(&page(3, 20, 1.0), 30));
        assert!(sub.would_store(&page(4, 10, 1.0), 20));
    }

    #[test]
    fn misses_never_cache() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(100));
        let p = page(1, 10, 1.0);
        assert_eq!(sub.on_access(&p, 50, &mut ev), AccessOutcome::MissBypassed);
        assert_eq!(sub.on_access(&p, 50, &mut ev), AccessOutcome::MissBypassed);
        assert!(sub.is_empty());
    }

    #[test]
    fn hits_on_pushed_pages() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(100));
        let p = page(1, 10, 1.0);
        sub.on_push(&p, 2, &mut ev);
        assert_eq!(sub.on_access(&p, 2, &mut ev), AccessOutcome::Hit);
        assert_eq!(sub.used(), Bytes::new(10));
        assert_eq!(sub.capacity(), Bytes::new(100));
        assert_eq!(sub.name(), "SUB");
        assert_eq!(sub.class(), StrategyClass::PushTime);
        assert!(sub.uses_push());
    }

    #[test]
    fn would_store_matches_on_push() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(20));
        let cases = [
            (page(1, 10, 1.0), 10u32),
            (page(2, 10, 1.0), 5),
            (page(3, 10, 1.0), 1),
            (page(4, 15, 1.0), 30),
            (page(5, 25, 1.0), 99),
        ];
        for (p, subs) in cases {
            let predicted = sub.would_store(&p, subs);
            let actual = sub.on_push(&p, subs, &mut ev).is_stored();
            assert_eq!(predicted, actual, "page {:?} subs {subs}", p.page);
        }
    }

    #[test]
    fn zero_subscriptions_zero_value() {
        let mut ev = Vec::new();
        let mut sub = Sub::new(Bytes::new(10));
        // Empty cache: free space admits even a zero-value page.
        assert!(sub.on_push(&page(1, 10, 1.0), 0, &mut ev).is_stored());
        // Another zero-value page cannot displace it (not strictly less).
        assert_eq!(
            sub.on_push(&page(2, 10, 1.0), 0, &mut ev),
            PushOutcome::Declined
        );
    }
}
