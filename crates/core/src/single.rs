//! The one-cache strategies: eight cells of the paper's Table 1 over one
//! greedy-dual engine.

use pscd_cache::{
    AccessOutcome, GreedyDualEngine, PageCounts, PageRef, PageUniverse, SnapshotError,
    SnapshotReader,
};
use pscd_obs::{NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::{value, PushOutcome, Strategy, StrategyClass};

/// How a [`SingleCache`] values a page and when it places one: its cell
/// of Table 1.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Model {
    /// `V = L + 1` (Cao & Irani's greedy-dual reading of LRU).
    Lru,
    /// GreedyDual-Size (Cao & Irani, USITS'97): `V = L + c/s`.
    Gds,
    /// LFU with dynamic aging: `V = L + f`.
    LfuDa,
    /// GD\* (Jin & Bestavros), the paper's access-time baseline (eq. 1);
    /// `β` balances long-term popularity against short-term temporal
    /// correlation (β = 2 for NEWS, §5.1).
    GdStar { beta: f64 },
    /// SUB, the pure pushing strategy (eq. 2).
    Sub,
    /// SG1: GD\* over `f = s + a` (eq. 3).
    Sg1 { beta: f64 },
    /// SG2: GD\* over `f = s − a` (eq. 4).
    Sg2 { beta: f64 },
    /// SR: `(s − a)·c/s` with no GD\* framework (eq. 5).
    Sr,
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Lru => "LRU",
            Model::Gds => "GDS",
            Model::LfuDa => "LFU-DA",
            Model::GdStar { .. } => "GD*",
            Model::Sub => "SUB",
            Model::Sg1 { .. } => "SG1",
            Model::Sg2 { .. } => "SG2",
            Model::Sr => "SR",
        }
    }

    /// When the model places a page, which for one cache under one
    /// method is also how: access-time models admit every miss and
    /// decline every push; SUB admits a push over strictly weaker
    /// residents and never a miss; the combined models admit both over
    /// strictly weaker residents (§3.2, §3.3).
    fn class(self) -> StrategyClass {
        match self {
            Model::Lru | Model::Gds | Model::LfuDa | Model::GdStar { .. } => {
                StrategyClass::AccessTime
            }
            Model::Sub => StrategyClass::PushTime,
            Model::Sg1 { .. } | Model::Sg2 { .. } | Model::Sr => StrategyClass::Combined,
        }
    }

    /// Which count [`value`](Self::value) takes. Eq. 3–5 count every
    /// request since the start (`a`): `s − a` estimates the requests still
    /// to come, which must not reset when a page is evicted and fetched
    /// again, so the cache keeps that count itself. The other models
    /// count references while cached (`f`, In-Cache LFU), which the
    /// engine keeps and drops at eviction.
    fn counts_every_request(self) -> bool {
        self.class() == StrategyClass::Combined
    }

    /// The page's value with `subs` matching subscriptions, `count`
    /// references or requests, and inflation `l`.
    fn value(self, page: &PageRef, subs: u32, count: u32, l: f64) -> f64 {
        match self {
            Model::Lru => l + 1.0,
            Model::Gds => l + page.cost / page.size.as_f64(),
            Model::LfuDa => l + count as f64,
            Model::GdStar { beta } => value::gd_star(l, count, page, beta),
            Model::Sub => value::sub(subs, page),
            Model::Sg1 { beta } => value::sg1(l, subs, count, page, beta),
            Model::Sg2 { beta } => value::sg2(l, subs, count, page, beta),
            Model::Sr => value::sr(subs, count, page),
        }
    }
}

/// One cache under one evaluation function — eight of the twelve
/// strategies, built by [`StrategyKind`](crate::StrategyKind):
///
/// * **LRU, GDS, LFU-DA, GD\*** place at access time only: every miss is
///   admitted, evicting the least valuable pages; pushes are declined
///   (Table 1's baseline row). GD\* is the paper's baseline,
///   `V(p) = L + (f(p)·c(p)/s(p))^(1/β)` (eq. 1).
/// * **SUB** places at push time only, `V(p) = f_S(p)·c(p)/s(p)` (eq. 2):
///   a pushed page is stored only if free space plus the pages worth
///   strictly less cover it (§3.2); a missed page is forwarded to the
///   user without being cached.
/// * **SG1, SG2, SR** place at both, under that same test (§3.3: "the
///   replacement module discards the requested page immediately after
///   forwarding it to the user if the page's value is not high enough").
///   SG1 adds subscription and request counts inside the GD\* value,
///   `f = s + a` (eq. 3); SG2 uses their difference `f = s − a` — if
///   every subscriber reads a matching page once, exactly the requests
///   still to come (eq. 4); SR drops the GD\* recency machinery and
///   values pages by that prediction alone, `V = (s − a)·c/s` (eq. 5).
///
/// # Examples
///
/// ```
/// use pscd_cache::{PageRef, PageUniverse};
/// use pscd_core::{Strategy, StrategyKind};
/// use pscd_obs::ObsHandle;
/// use pscd_types::{Bytes, PageId};
///
/// let universe = PageUniverse::default();
/// let build = |kind: StrategyKind| kind.build(Bytes::from_kib(4), &universe, ObsHandle::disabled());
/// let mut sg2 = build(StrategyKind::Sg2 { beta: 2.0 });
/// let mut evicted = Vec::new();
/// let page = PageRef::new(PageId::new(0), Bytes::new(256), 1.0);
/// assert!(sg2.on_push(&page, 5, &mut evicted).is_stored());
/// assert!(sg2.on_access(&page, 5, &mut evicted).is_hit());
///
/// // An access-time strategy has no push module.
/// let mut gd = build(StrategyKind::GdStar { beta: 2.0 });
/// assert!(!gd.on_push(&page, 5, &mut evicted).is_stored());
/// assert!(gd.on_access(&page, 0, &mut evicted).is_miss());
/// assert!(gd.on_access(&page, 0, &mut evicted).is_hit());
/// ```
#[derive(Debug)]
pub struct SingleCache<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
    /// Requests per page since the start, for the models that count them
    /// (see [`Model::counts_every_request`]); empty, never written,
    /// otherwise. A row per page this proxy was ever asked for.
    requests: PageCounts,
    model: Model,
}

impl<O: Observer> SingleCache<O> {
    /// An empty cache under `model` over the pages of `universe`,
    /// reporting cache decisions to `obs`. The store is reserved for the
    /// most pages the capacity can hold and the request counts, as address
    /// space, for the universe, so steady-state operation never allocates
    /// (the empty universe reserves nothing and grows on demand).
    ///
    /// # Panics
    ///
    /// Panics unless the model's `beta`, if it has one, is positive and
    /// finite.
    pub(crate) fn new(
        model: Model,
        capacity: Bytes,
        universe: &PageUniverse,
        obs: ObsHandle<O>,
    ) -> Self {
        if let Model::GdStar { beta } | Model::Sg1 { beta } | Model::Sg2 { beta } = model {
            assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        }
        let requests = if model.counts_every_request() {
            PageCounts::new(universe)
        } else {
            PageCounts::default()
        };
        Self {
            engine: GreedyDualEngine::with_observer(capacity, universe, obs),
            requests,
            model,
        }
    }

    /// The wire tag of this cache's snapshot layout: the model's, so that
    /// an LRU blob is refused by a GDS cache. SG1, SG2 and SR share one —
    /// an engine followed by the request-count table.
    pub(crate) fn snapshot_tag(&self) -> u8 {
        match self.model {
            Model::Lru => 0,
            Model::Gds => 1,
            Model::LfuDa => 2,
            Model::GdStar { .. } => 3,
            Model::Sub => 4,
            Model::Sg1 { .. } | Model::Sg2 { .. } | Model::Sr => 5,
        }
    }

    /// Serializes the mutable state: the engine, then — for the models
    /// that keep one — the request-count table (which, unlike the
    /// engine's In-Cache LFU counts, covers evicted pages too). Capacity
    /// and β are configuration, not state.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.engine.encode_state(out);
        if self.model.counts_every_request() {
            self.requests.encode_state(out);
        }
    }

    /// The cached pages, in arbitrary order — what an owner that tracks
    /// residency outside the cache re-reads after a
    /// [`decode_state`](Self::decode_state).
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.engine.store().iter().map(|p| p.page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state),
    /// replacing the cache's contents. On error they are unspecified —
    /// discard the cache.
    pub(crate) fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.engine.decode_state(r)?;
        if self.model.counts_every_request() {
            self.requests.decode_state(r)?;
        }
        Ok(())
    }

    /// What a page pushed now would be worth: no reference yet, and the
    /// requests seen so far where the model counts them.
    fn push_value(&self, page: &PageRef, subs: u32) -> f64 {
        let a = self.requests.get(page.page);
        self.model.value(page, subs, a, self.engine.inflation())
    }
}

impl<O: Observer> Strategy for SingleCache<O> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn class(&self) -> StrategyClass {
        self.model.class()
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        if self.class() == StrategyClass::AccessTime {
            evicted.clear();
            return PushOutcome::Declined;
        }
        let v = self.push_value(page, subs);
        if self.engine.push_valued(page, v, evicted) {
            PushOutcome::Stored
        } else {
            PushOutcome::Declined
        }
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        self.class() != StrategyClass::AccessTime
            && (self.contains(page.page)
                || self.engine.would_admit(page, self.push_value(page, subs)))
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        let model = self.model;
        match model.class() {
            StrategyClass::AccessTime => {
                self.engine
                    .access(page, |f, l| model.value(page, subs, f, l), evicted)
            }
            // Push time is the only placement opportunity, and eq. 2 has
            // no access term: a request changes nothing in the cache.
            StrategyClass::PushTime => {
                evicted.clear();
                if self.contains(page.page) {
                    AccessOutcome::Hit
                } else {
                    AccessOutcome::MissBypassed
                }
            }
            StrategyClass::Combined => {
                let a = self.requests.increment(page.page);
                self.engine
                    .access_gated(page, |_, l| model.value(page, subs, a, l), evicted)
            }
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
    use std::collections::HashMap;

    use pscd_cache::snapshot::put_u32;

    use super::*;

    const SG1: Model = Model::Sg1 { beta: 2.0 };
    const SG2: Model = Model::Sg2 { beta: 2.0 };
    const GD_STAR: Model = Model::GdStar { beta: 2.0 };

    fn cache(model: Model, capacity: u64) -> SingleCache {
        SingleCache::new(
            model,
            Bytes::new(capacity),
            &PageUniverse::default(),
            ObsHandle::disabled(),
        )
    }

    fn page(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    impl SingleCache {
        /// The stored value of a cached page.
        fn value_of(&self, page: PageId) -> f64 {
            self.engine.store().value(page).expect("page cached")
        }
    }

    #[test]
    fn names_and_classes() {
        let table = [
            (Model::Lru, "LRU", StrategyClass::AccessTime),
            (Model::Gds, "GDS", StrategyClass::AccessTime),
            (Model::LfuDa, "LFU-DA", StrategyClass::AccessTime),
            (GD_STAR, "GD*", StrategyClass::AccessTime),
            (Model::Sub, "SUB", StrategyClass::PushTime),
            (SG1, "SG1", StrategyClass::Combined),
            (SG2, "SG2", StrategyClass::Combined),
            (Model::Sr, "SR", StrategyClass::Combined),
        ];
        for (model, name, class) in table {
            let s = cache(model, 10);
            assert_eq!((s.name(), s.class()), (name, class));
            assert_eq!(s.uses_push(), class != StrategyClass::AccessTime, "{name}");
            assert_eq!(s.capacity(), Bytes::new(10));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut ev = Vec::new();
        let mut lru = cache(Model::Lru, 30);
        lru.on_access(&page(1, 10, 1.0), 0, &mut ev);
        lru.on_access(&page(2, 10, 1.0), 0, &mut ev);
        lru.on_access(&page(3, 10, 1.0), 0, &mut ev);
        lru.on_access(&page(1, 10, 1.0), 0, &mut ev); // refresh 1
        let out = lru.on_access(&page(4, 10, 1.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.used(), Bytes::new(30));
    }

    #[test]
    fn gds_prefers_cheap_small_eviction() {
        let mut ev = Vec::new();
        let mut gds = cache(Model::Gds, 20);
        // Page 1: c/s = 0.1 (cheap to refetch); page 2: c/s = 1.0.
        gds.on_access(&page(1, 10, 1.0), 0, &mut ev);
        gds.on_access(&page(2, 10, 10.0), 0, &mut ev);
        let out = gds.on_access(&page(3, 10, 5.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(1)]);
    }

    #[test]
    fn lfu_da_protects_frequent_pages() {
        let mut ev = Vec::new();
        let mut lfu = cache(Model::LfuDa, 20);
        let hot = page(1, 10, 1.0);
        lfu.on_access(&hot, 0, &mut ev);
        lfu.on_access(&hot, 0, &mut ev);
        lfu.on_access(&hot, 0, &mut ev); // f = 3
        lfu.on_access(&page(2, 10, 1.0), 0, &mut ev); // f = 1
        let out = lfu.on_access(&page(3, 10, 1.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        assert!(lfu.contains(PageId::new(1)));
    }

    #[test]
    fn gdstar_combines_frequency_and_cost() {
        let mut ev = Vec::new();
        let mut gd = cache(GD_STAR, 20);
        // Page 1 accessed twice (f=2, c/s=1): weight sqrt(2) ≈ 1.41.
        let p1 = page(1, 10, 10.0);
        gd.on_access(&p1, 0, &mut ev);
        gd.on_access(&p1, 0, &mut ev);
        // Page 2 once, cheap (f=1, c/s=0.1): weight ≈ 0.32.
        gd.on_access(&page(2, 10, 1.0), 0, &mut ev);
        // Page 3 arrives: evicts page 2 (lowest value).
        let out = gd.on_access(&page(3, 10, 5.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        // Inflation rose to page 2's value.
        assert!(gd.engine.inflation() > 0.0);
    }

    #[test]
    fn gdstar_inflation_ages_old_pages() {
        let mut ev = Vec::new();
        let mut gd = cache(Model::GdStar { beta: 1.0 }, 20);
        // Hot page with moderate value.
        let old = page(1, 10, 2.0); // weight f*0.2
        gd.on_access(&old, 0, &mut ev);
        // Fill and churn the other slot repeatedly with cheap pages.
        for i in 2..30 {
            gd.on_access(&page(i, 10, 4.0), 0, &mut ev);
        }
        // After enough churn, inflation L exceeds the old page's static
        // value and a newcomer evicts it even with f = 1.
        assert!(
            !gd.contains(PageId::new(1)),
            "aged-out page should eventually be evicted (L = {})",
            gd.engine.inflation()
        );
    }

    #[test]
    fn access_time_models_have_no_push_module() {
        for model in [Model::Lru, Model::Gds, Model::LfuDa, GD_STAR] {
            let mut ev = vec![PageId::new(9)];
            let mut s = cache(model, 100);
            let p = page(1, 10, 1.0);
            assert_eq!(s.on_push(&p, 100, &mut ev), PushOutcome::Declined);
            assert!(ev.is_empty(), "the scratch is cleared");
            assert!(!s.would_store(&p, 100));
            assert_eq!(s.len(), 0);
            // Requests place, whatever the subscription count.
            assert!(s.on_access(&p, 7, &mut ev).is_miss());
            assert!(s.contains(p.page));
            assert!(s.on_access(&p, 0, &mut ev).is_hit());
            assert_eq!(s.used(), Bytes::new(10));
            assert_eq!(s.requests.get(p.page), 0);
            assert_eq!(
                s.on_access(&page(2, 101, 1.0), 0, &mut ev),
                AccessOutcome::MissBypassed
            );
        }
    }

    #[test]
    fn observed_cache_reports_events() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        let mut ev = Vec::new();
        let shared = SharedObserver::new(StatsObserver::new());
        let mut lru = SingleCache::new(
            Model::Lru,
            Bytes::new(20),
            &PageUniverse::default(),
            shared.handle(ServerId::new(0)),
        );
        lru.on_access(&page(1, 10, 1.0), 0, &mut ev);
        lru.on_access(&page(2, 10, 1.0), 0, &mut ev);
        lru.on_access(&page(3, 10, 1.0), 0, &mut ev); // evicts page 1
        lru.invalidate(PageId::new(3));
        drop(lru);
        let stats = shared.try_unwrap().unwrap();
        assert_eq!(stats.registry().counter("admit.access"), 3);
        assert_eq!(stats.registry().counter("evict.access"), 1);
        assert_eq!(stats.registry().counter("evict.invalidate"), 1);
    }

    #[test]
    fn sub_stores_by_subscription_value() {
        let mut ev = Vec::new();
        let mut sub = cache(Model::Sub, 20);
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
    fn sub_declines_when_candidates_too_small() {
        let mut ev = Vec::new();
        let mut sub = cache(Model::Sub, 30);
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
    fn sub_misses_never_cache() {
        let mut ev = Vec::new();
        let mut sub = cache(Model::Sub, 100);
        let p = page(1, 10, 1.0);
        assert_eq!(sub.on_access(&p, 50, &mut ev), AccessOutcome::MissBypassed);
        assert_eq!(sub.on_access(&p, 50, &mut ev), AccessOutcome::MissBypassed);
        assert!(sub.is_empty());
    }

    #[test]
    fn sub_hits_on_pushed_pages_and_leaves_them_as_valued() {
        let mut ev = Vec::new();
        let mut sub = cache(Model::Sub, 100);
        let p = page(1, 10, 1.0);
        sub.on_push(&p, 2, &mut ev);
        let stamp = sub.engine.store().next_stamp();
        assert_eq!(sub.on_access(&p, 9, &mut ev), AccessOutcome::Hit);
        assert_eq!(sub.used(), Bytes::new(10));
        // Neither re-valued nor re-stamped: among equals it stays the
        // oldest, as if never requested.
        assert_eq!(sub.value_of(p.page), 0.2);
        assert_eq!(sub.engine.store().next_stamp(), stamp);
    }

    #[test]
    fn sub_zero_subscriptions_zero_value() {
        let mut ev = Vec::new();
        let mut sub = cache(Model::Sub, 10);
        // Empty cache: free space admits even a zero-value page.
        assert!(sub.on_push(&page(1, 10, 1.0), 0, &mut ev).is_stored());
        // Another zero-value page cannot displace it (not strictly less).
        assert_eq!(
            sub.on_push(&page(2, 10, 1.0), 0, &mut ev),
            PushOutcome::Declined
        );
    }

    #[test]
    fn push_then_access_hits() {
        let mut ev = Vec::new();
        for model in [SG1, SG2, Model::Sr] {
            let mut s = cache(model, 100);
            let p = page(1, 10, 1.0);
            assert!(s.on_push(&p, 4, &mut ev).is_stored());
            assert!(s.on_access(&p, 4, &mut ev).is_hit());
            assert_eq!(s.requests.get(p.page), 1);
        }
    }

    #[test]
    fn sg2_value_decays_with_accesses() {
        let mut ev = Vec::new();
        let mut sg2 = cache(Model::Sg2 { beta: 1.0 }, 30);
        let p = page(1, 10, 10.0);
        sg2.on_push(&p, 2, &mut ev); // f = 2 - 0 = 2 -> value 2*1 = 2
        let v0 = sg2.value_of(p.page);
        sg2.on_access(&p, 2, &mut ev); // a = 1, f = 1
        let v1 = sg2.value_of(p.page);
        sg2.on_access(&p, 2, &mut ev); // a = 2, f = 0
        let v2 = sg2.value_of(p.page);
        assert!(v0 > v1 && v1 > v2, "{v0} > {v1} > {v2} expected");
    }

    #[test]
    fn sg1_value_grows_with_accesses() {
        let mut ev = Vec::new();
        let mut sg1 = cache(Model::Sg1 { beta: 1.0 }, 30);
        let p = page(1, 10, 10.0);
        sg1.on_push(&p, 2, &mut ev);
        let v0 = sg1.value_of(p.page);
        sg1.on_access(&p, 2, &mut ev);
        let v1 = sg1.value_of(p.page);
        assert!(v1 > v0);
    }

    #[test]
    fn access_counts_survive_eviction() {
        let mut ev = Vec::new();
        let mut sr = cache(Model::Sr, 10);
        let p = page(1, 10, 1.0);
        sr.on_push(&p, 3, &mut ev);
        sr.on_access(&p, 3, &mut ev); // a = 1

        // Displace it with a much more valuable page.
        assert!(sr.on_push(&page(2, 10, 1.0), 100, &mut ev).is_stored());
        assert!(!sr.contains(p.page));
        // The count is still there: a = 1 persists.
        assert_eq!(sr.requests.get(p.page), 1);
        sr.on_access(&p, 3, &mut ev); // a = 2, f = 1, value small -> gated out
        assert_eq!(sr.requests.get(p.page), 2);
    }

    #[test]
    fn sr_exhausted_pages_are_not_admitted() {
        let mut ev = Vec::new();
        let mut sr = cache(Model::Sr, 20);
        let hot = page(1, 10, 1.0);
        sr.on_push(&hot, 1, &mut ev);
        // One subscriber, one read: future refs 0 after this access.
        assert!(sr.on_access(&hot, 1, &mut ev).is_hit());
        // Now fill with a valuable page, then re-request the dead page:
        sr.on_push(&page(2, 10, 1.0), 50, &mut ev);
        assert!(sr.on_push(&page(3, 10, 1.0), 50, &mut ev).is_stored()); // evicts hot (v=0)
        assert!(!sr.contains(hot.page));
        // Re-access: s - a = 1 - 2 -> clamped 0; value 0; cache full with
        // positive-valued pages -> bypassed.
        assert_eq!(sr.on_access(&hot, 1, &mut ev), AccessOutcome::MissBypassed);
    }

    #[test]
    fn gated_miss_admission_requires_value() {
        let mut ev = Vec::new();
        let mut sg2 = cache(Model::Sg2 { beta: 1.0 }, 20);
        sg2.on_push(&page(1, 10, 1.0), 100, &mut ev);
        sg2.on_push(&page(2, 10, 1.0), 100, &mut ev);
        // Page with zero subscriptions missing: f = 0 - 1 -> 0 -> low value.
        assert_eq!(
            sg2.on_access(&page(3, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissBypassed
        );
        // Page with many subscriptions missing: admitted over weaker... none
        // weaker here (both 100-sub pages), so still bypassed.
        assert_eq!(
            sg2.on_access(&page(4, 10, 1.0), 50, &mut ev),
            AccessOutcome::MissBypassed
        );
        // Against low-value residents it is admitted.
        let mut sg2 = cache(Model::Sg2 { beta: 1.0 }, 20);
        sg2.on_push(&page(1, 10, 1.0), 1, &mut ev);
        sg2.on_push(&page(2, 10, 1.0), 1, &mut ev);
        assert_eq!(
            sg2.on_access(&page(4, 10, 1.0), 50, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert!(!ev.is_empty());
    }

    #[test]
    fn only_the_counting_models_keep_and_encode_a_request_table() {
        let mut ev = Vec::new();
        for model in [Model::Lru, Model::Gds, Model::LfuDa, GD_STAR, Model::Sub] {
            let mut s = counting(model, 8);
            s.on_push(&page(1, 10, 1.0), 4, &mut ev);
            s.on_access(&page(1, 10, 1.0), 4, &mut ev);
            s.on_access(&page(2, 10, 1.0), 4, &mut ev);
            assert!(s.requests.is_empty(), "{}", s.name());
            let reserved = s.requests.storage().map(|(_, capacity)| capacity);
            assert_eq!(reserved, [0, 0], "{}: nothing reserved", s.name());
            let (mut blob, mut engine) = (Vec::new(), Vec::new());
            s.encode_state(&mut blob);
            s.engine.encode_state(&mut engine);
            assert_eq!(blob, engine, "{}", s.name());
        }
        let mut sr = counting(Model::Sr, 8);
        sr.on_access(&page(2, 10, 1.0), 4, &mut ev);
        let (mut blob, mut engine) = (Vec::new(), Vec::new());
        sr.encode_state(&mut blob);
        sr.engine.encode_state(&mut engine);
        // One row: a count of rows, then (page, requests).
        assert_eq!(blob.len(), engine.len() + 4 + 8);
    }

    #[test]
    fn decode_rejects_an_access_count_out_of_range() {
        let mut ev = Vec::new();
        let mut sg2 = cache(SG2, 100);
        sg2.on_access(&page(1, 10, 1.0), 4, &mut ev);
        let mut blob = Vec::new();
        sg2.encode_state(&mut blob);
        let decode = |blob: &[u8]| counting(SG2, 8).decode_state(&mut SnapshotReader::new(blob));
        assert_eq!(decode(&blob), Ok(()));
        // The table's one row, (page, count), is the blob's last 8 bytes.
        let at = blob.len() - 4;
        blob[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&blob);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    /// A 100-byte cache over `pages` one-byte ordinals (0: grown on
    /// write).
    fn counting(model: Model, pages: usize) -> SingleCache {
        let universe = PageUniverse::new(vec![Bytes::new(1); pages]);
        SingleCache::new(model, Bytes::new(100), &universe, ObsHandle::disabled())
    }

    /// An SR blob: an empty engine, then the given request-count rows.
    fn blob_with_rows(rows: &[(u32, u32)]) -> Vec<u8> {
        let mut blob = Vec::new();
        counting(Model::Sr, 8).encode_state(&mut blob);
        blob.truncate(blob.len() - 4);
        put_u32(&mut blob, rows.len() as u32);
        for &(page, a) in rows {
            put_u32(&mut blob, page);
            put_u32(&mut blob, a);
        }
        blob
    }

    #[test]
    fn decode_rejects_a_request_table_the_encoder_cannot_have_written() {
        let mut sr = counting(Model::Sr, 8);
        let built = sr.requests.storage();
        let mut decode = |rows: &[(u32, u32)]| {
            let blob = blob_with_rows(rows);
            let decoded = sr.decode_state(&mut SnapshotReader::new(&blob));
            // Corrupt or not, the rows never outgrow their reservation.
            assert_eq!(sr.requests.storage(), built, "{rows:?}");
            assert!(sr.requests.len() <= 8, "{rows:?}");
            let mut again = Vec::new();
            sr.encode_state(&mut again);
            decoded.map(|()| again == blob)
        };
        assert_eq!(decode(&[(2, 5), (7, 1)]), Ok(true));
        let every_page: Vec<(u32, u32)> = (0..8).map(|p| (p, 1)).collect();
        assert_eq!(decode(&every_page), Ok(true));
        let one_too_many: Vec<(u32, u32)> = (0..9).map(|p| (p, 1)).collect();
        // Regression: a zero wrote the table's absent value, so the row
        // after it passed the duplicate check and the cache re-encoded to
        // other bytes than it was given.
        let zero: [&[(u32, u32)]; 2] = [&[(2, 0), (2, 5)], &[(2, 0)]];
        let past_the_universe: [&[(u32, u32)]; 2] = [&[(2, 5), (8, 1)], &[(u32::MAX, 1)]];
        let duplicate_or_descending: [&[(u32, u32)]; 2] = [&[(2, 5), (2, 5)], &[(7, 1), (2, 5)]];
        let corrupt = [&one_too_many[..]]
            .into_iter()
            .chain(zero)
            .chain(past_the_universe)
            .chain(duplicate_or_descending);
        for rows in corrupt {
            let err = decode(rows);
            assert!(
                matches!(err, Err(SnapshotError::Corrupt(_))),
                "{rows:?}: {err:?}"
            );
        }
    }

    /// Every counted page has a row, and no other page has one.
    fn assert_rows_match_counts(s: &SingleCache, pages: u32) {
        let counted = (0..pages + 70)
            .filter(|&p| s.requests.get(PageId::new(p)) != 0)
            .count();
        assert_eq!(s.requests.len(), counted);
    }

    #[test]
    fn request_counts_survive_a_snapshot_into_a_used_cache() {
        // 0 grows the map on write.
        for universe in [100usize, 0] {
            let mut ev = Vec::new();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut a = counting(SG2, universe);
            let mut b = counting(SG2, 100);
            let built = b.requests.storage();
            assert_eq!(a.requests.storage()[0].1, universe);
            for round in 0..6 {
                for _ in 0..40 {
                    let id = (rng() % 100) as u32;
                    a.on_access(&page(id, 10, 1.0), 3, &mut ev);
                }
                assert_rows_match_counts(&a, 100);
                // Into a used cache: what `b` counted before must go.
                let stale = (rng() % 100) as u32;
                b.on_access(&page(stale, 10, 1.0), 3, &mut ev);
                let mut blob = Vec::new();
                a.encode_state(&mut blob);
                b.decode_state(&mut SnapshotReader::new(&blob)).unwrap();
                assert_rows_match_counts(&b, 100);
                assert_eq!(b.requests.storage(), built);
                let mut again = Vec::new();
                b.encode_state(&mut again);
                assert_eq!(again, blob, "universe {universe}, round {round}");
                for p in 0..100 {
                    let p = PageId::new(p);
                    assert_eq!(a.requests.get(p), b.requests.get(p));
                }
            }
        }
    }

    #[test]
    fn request_counts_take_room_for_the_pages_asked_for_not_the_universe() {
        let universe = PageUniverse::new(vec![Bytes::new(100); 1_000_000]);
        let mut sg2 = SingleCache::new(SG2, Bytes::new(1_000), &universe, ObsHandle::disabled());
        let mut rng = {
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }
        };
        let asked: Vec<u32> = (0..500).map(|_| (rng() % 1_000_000) as u32).collect();
        let mut tally = HashMap::<u32, u32>::new();
        let mut ev = Vec::new();
        for _ in 0..5_000 {
            let id = asked[(rng() % 500) as usize];
            *tally.entry(id).or_default() += 1;
            sg2.on_access(&page(id, 100, 1.0), 2, &mut ev);
        }
        assert_eq!(tally.len(), 500, "the draw repeats no page");
        assert_eq!(sg2.requests.len(), 500);
        assert!(sg2.requests.index_slots() <= 2_048);
        for p in (0..1_000_000).step_by(997).chain(asked.iter().copied()) {
            let want = tally.get(&p).copied().unwrap_or(0);
            assert_eq!(sg2.requests.get(PageId::new(p)), want, "page {p}");
        }
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_nan_beta() {
        let _ = cache(Model::Sg1 { beta: f64::NAN }, 10);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_zero_beta() {
        let _ = cache(Model::GdStar { beta: 0.0 }, 10);
    }
}
