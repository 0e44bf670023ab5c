//! Single-cache, single-replacement combined strategies: SG1, SG2, SR (§3.3).

use pscd_cache::{AccessOutcome, GreedyDualEngine, PageRef, PageTable};
use pscd_obs::{NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::{PushOutcome, Strategy, StrategyClass};

/// The evaluation function of a [`SingleCache`] strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    /// SG1: GD\* with `f(p) = s + a` (eq. 3).
    Sg1 { beta: f64 },
    /// SG2: GD\* with `f(p) = s − a` (eq. 4, clamped at 0).
    Sg2 { beta: f64 },
    /// SR: `V(p) = (s − a) · c(p)/s(p)` (eq. 5, clamped at 0; no GD\*
    /// framework — pure future-frequency prediction).
    Sr,
}

/// The paper's single-cache/single-method combined strategies. One cache,
/// one evaluation function applied at both push time and access time:
///
/// * **SG1** (*Subscription-GD\*-1*): adds subscription and access counts,
///   `f(p) = s + a`, inside the GD\* value (eq. 1 + eq. 3).
/// * **SG2** (*Subscription-GD\*-2*): uses the *difference* `f(p) = s − a`
///   — if every subscriber reads a matching page once, that difference is
///   exactly the page's future reference count (eq. 4).
/// * **SR** (*subscription-request*): drops the GD\* recency machinery and
///   values pages purely by predicted future frequency,
///   `V(p) = (s − a)·c/s` (eq. 5).
///
/// Placement is value-gated at both opportunities: a pushed page (or a
/// fetched-on-miss page) enters the cache only if enough strictly-less-
/// valuable residents can be evicted for it (§3.3, "Single Cache and Single
/// Replacement Method").
///
/// Unlike GD\*'s In-Cache LFU reference counts, the access count `a` is
/// cumulative across evictions: `s − a` estimates *remaining* future
/// references, which must not reset when a page is evicted and later
/// re-fetched.
///
/// # Examples
///
/// ```
/// use pscd_core::{SingleCache, Strategy};
/// use pscd_cache::PageRef;
/// use pscd_types::{Bytes, PageId};
///
/// let mut sg2 = SingleCache::sg2(Bytes::from_kib(4), 2.0);
/// let mut evicted = Vec::new();
/// let page = PageRef::new(PageId::new(0), Bytes::new(256), 1.0);
/// assert!(sg2.on_push(&page, 5, &mut evicted).is_stored());
/// assert!(sg2.on_access(&page, 5, &mut evicted).is_hit());
/// ```
#[derive(Debug)]
pub struct SingleCache<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
    /// Cumulative access counts per page (not reset on eviction).
    accesses: PageTable<u32>,
    model: Model,
    name: &'static str,
}

impl SingleCache {
    /// Creates an SG1 cache (`f = s + a` in the GD\* value).
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn sg1(capacity: Bytes, beta: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self::with_model(capacity, Model::Sg1 { beta }, "SG1")
    }

    /// Creates an SG2 cache (`f = s − a` in the GD\* value).
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn sg2(capacity: Bytes, beta: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self::with_model(capacity, Model::Sg2 { beta }, "SG2")
    }

    /// Creates an SR cache (`V = (s − a)·c/s`, no GD\* framework).
    pub fn sr(capacity: Bytes) -> Self {
        Self::with_model(capacity, Model::Sr, "SR")
    }

    fn with_model(capacity: Bytes, model: Model, name: &'static str) -> Self {
        Self {
            engine: GreedyDualEngine::new(capacity),
            accesses: PageTable::new(0, 0),
            model,
            name,
        }
    }
}

impl<O: Observer> SingleCache<O> {
    /// An empty cache with this one's model and capacity over the page
    /// ordinals `0..page_count`, reporting cache decisions to `obs`.
    /// Every table is preallocated for the universe, so steady-state
    /// operation never allocates (`0` preallocates nothing and grows on
    /// demand).
    pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> SingleCache<P> {
        SingleCache {
            engine: GreedyDualEngine::with_observer(self.capacity(), page_count, obs),
            accesses: PageTable::new(page_count, 0),
            model: self.model,
            name: self.name,
        }
    }

    /// The cumulative access count recorded for a page.
    pub fn access_count(&self, page: PageId) -> u32 {
        self.accesses.get(page)
    }

    /// Serializes the mutable state — the engine plus the cumulative
    /// access-count table (which, unlike the engine's In-Cache LFU
    /// counts, covers evicted pages too).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use pscd_cache::snapshot::put_u32;
        self.engine.encode_state(out);
        let counts = self.accesses.entries();
        put_u32(out, counts.len() as u32);
        for (page, a) in counts {
            put_u32(out, page.index());
            put_u32(out, a);
        }
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
        use pscd_cache::SnapshotError;
        self.engine.decode_state(r)?;
        let n = r.read_u32()? as usize;
        if n > r.remaining() / 8 {
            return Err(SnapshotError::Corrupt("access-count table overruns buffer"));
        }
        self.accesses.clear();
        for _ in 0..n {
            let page = PageId::new(r.read_u32()?);
            let a = r.read_count()?;
            self.accesses.try_insert(page, a)?;
        }
        Ok(())
    }

    /// The strategy's page value given subscription count `subs`, access
    /// count `a` and inflation `l`.
    fn value(&self, page: &PageRef, subs: u32, a: u32, l: f64) -> f64 {
        let cs = page.cost / page.size.as_f64();
        match self.model {
            Model::Sg1 { beta } => {
                let f = subs as f64 + a as f64;
                l + (f * cs).max(0.0).powf(1.0 / beta)
            }
            Model::Sg2 { beta } => {
                let f = (subs as f64 - a as f64).max(0.0);
                l + (f * cs).powf(1.0 / beta)
            }
            Model::Sr => (subs as f64 - a as f64).max(0.0) * cs,
        }
    }
}

impl<O: Observer> Strategy for SingleCache<O> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        let a = self.access_count(page.page);
        let v = self.value(page, subs, a, self.engine.inflation());
        if self.engine.push_valued(page, v, evicted) {
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
        let a = self.access_count(page.page);
        let v = self.value(page, subs, a, self.engine.inflation());
        store.free() + store.candidate_size_below(v) >= page.size
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        let a = self.accesses.get(page.page) + 1;
        self.accesses.set(page.page, a);
        // The closure ignores the engine's in-cache count: this family
        // tracks cumulative accesses itself (see type docs).
        let model = self.model;
        let name_value = |l: f64| {
            let cs = page.cost / page.size.as_f64();
            match model {
                Model::Sg1 { beta } => {
                    l + ((subs as f64 + a as f64) * cs).max(0.0).powf(1.0 / beta)
                }
                Model::Sg2 { beta } => {
                    l + (((subs as f64 - a as f64).max(0.0)) * cs).powf(1.0 / beta)
                }
                Model::Sr => (subs as f64 - a as f64).max(0.0) * cs,
            }
        };
        self.engine
            .access_gated(page, |_, l| name_value(l), evicted)
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
    fn names_and_class() {
        assert_eq!(SingleCache::sg1(Bytes::new(10), 2.0).name(), "SG1");
        assert_eq!(SingleCache::sg2(Bytes::new(10), 2.0).name(), "SG2");
        assert_eq!(SingleCache::sr(Bytes::new(10)).name(), "SR");
        assert_eq!(
            SingleCache::sr(Bytes::new(10)).class(),
            StrategyClass::Combined
        );
    }

    #[test]
    fn push_then_access_hits() {
        let mut ev = Vec::new();
        for mut s in [
            SingleCache::sg1(Bytes::new(100), 2.0),
            SingleCache::sg2(Bytes::new(100), 2.0),
            SingleCache::sr(Bytes::new(100)),
        ] {
            let p = page(1, 10, 1.0);
            assert!(s.on_push(&p, 4, &mut ev).is_stored());
            assert!(s.on_access(&p, 4, &mut ev).is_hit());
            assert_eq!(s.access_count(p.page), 1);
        }
    }

    #[test]
    fn sg2_value_decays_with_accesses() {
        let mut ev = Vec::new();
        let mut sg2 = SingleCache::sg2(Bytes::new(30), 1.0);
        let p = page(1, 10, 10.0);
        sg2.on_push(&p, 2, &mut ev); // f = 2 - 0 = 2 -> value 2*1 = 2
        let v0 = sg2.engineer_value(p.page);
        sg2.on_access(&p, 2, &mut ev); // a = 1, f = 1
        let v1 = sg2.engineer_value(p.page);
        sg2.on_access(&p, 2, &mut ev); // a = 2, f = 0
        let v2 = sg2.engineer_value(p.page);
        assert!(v0 > v1 && v1 > v2, "{v0} > {v1} > {v2} expected");
    }

    #[test]
    fn sg1_value_grows_with_accesses() {
        let mut ev = Vec::new();
        let mut sg1 = SingleCache::sg1(Bytes::new(30), 1.0);
        let p = page(1, 10, 10.0);
        sg1.on_push(&p, 2, &mut ev);
        let v0 = sg1.engineer_value(p.page);
        sg1.on_access(&p, 2, &mut ev);
        let v1 = sg1.engineer_value(p.page);
        assert!(v1 > v0);
    }

    #[test]
    fn access_counts_survive_eviction() {
        let mut ev = Vec::new();
        let mut sr = SingleCache::sr(Bytes::new(10));
        let p = page(1, 10, 1.0);
        sr.on_push(&p, 3, &mut ev);
        sr.on_access(&p, 3, &mut ev); // a = 1
                                      // Displace it with a much more valuable page.
        assert!(sr.on_push(&page(2, 10, 1.0), 100, &mut ev).is_stored());
        assert!(!sr.contains(p.page));
        // The count is still there: a = 1 persists.
        assert_eq!(sr.access_count(p.page), 1);
        sr.on_access(&p, 3, &mut ev); // a = 2, f = 1, value small -> gated out
        assert_eq!(sr.access_count(p.page), 2);
    }

    #[test]
    fn sr_exhausted_pages_are_not_admitted() {
        let mut ev = Vec::new();
        let mut sr = SingleCache::sr(Bytes::new(20));
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
        let mut sg2 = SingleCache::sg2(Bytes::new(20), 1.0);
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
        let mut sg2 = SingleCache::sg2(Bytes::new(20), 1.0);
        sg2.on_push(&page(1, 10, 1.0), 1, &mut ev);
        sg2.on_push(&page(2, 10, 1.0), 1, &mut ev);
        assert_eq!(
            sg2.on_access(&page(4, 10, 1.0), 50, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert!(!ev.is_empty());
    }

    #[test]
    fn would_store_matches_on_push() {
        let mut ev = Vec::new();
        let mut sg1 = SingleCache::sg1(Bytes::new(20), 2.0);
        let cases = [
            (page(1, 10, 1.0), 10u32),
            (page(2, 10, 1.0), 5),
            (page(3, 10, 1.0), 1),
            (page(4, 15, 1.0), 30),
            (page(5, 25, 1.0), 99),
        ];
        for (p, subs) in cases {
            assert_eq!(
                sg1.would_store(&p, subs),
                sg1.on_push(&p, subs, &mut ev).is_stored(),
                "page {:?}",
                p.page
            );
        }
    }

    #[test]
    fn decode_rejects_an_access_count_out_of_range() {
        let mut ev = Vec::new();
        let mut sg2 = SingleCache::sg2(Bytes::new(100), 2.0);
        sg2.on_access(&page(1, 10, 1.0), 4, &mut ev);
        let mut blob = Vec::new();
        sg2.encode_state(&mut blob);
        let decode = |blob: &[u8]| {
            SingleCache::sg2(Bytes::new(100), 2.0)
                .observed(8, ObsHandle::<NullObserver>::disabled())
                .decode_state(&mut pscd_cache::SnapshotReader::new(blob))
        };
        assert_eq!(decode(&blob), Ok(()));
        // The table's one row, (page, count), is the blob's last 8 bytes.
        let at = blob.len() - 4;
        blob[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&blob);
        assert!(
            matches!(err, Err(pscd_cache::SnapshotError::Corrupt(_))),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_bad_beta() {
        let _ = SingleCache::sg1(Bytes::new(10), f64::NAN);
    }

    impl SingleCache {
        /// Test helper: the stored value of a cached page.
        fn engineer_value(&self, page: PageId) -> f64 {
            self.engine.store().value(page).expect("page cached")
        }
    }
}
