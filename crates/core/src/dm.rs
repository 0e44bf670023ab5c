//! DM: single cache, dual replacement methods (§3.3).

use pscd_cache::{AccessOutcome, CacheStore, PageRef, PageUniverse, SnapshotError, SnapshotReader};
use pscd_obs::{AdmitOrigin, EvictReason, NullObserver, ObsHandle, Observer};
use pscd_types::{count, Bytes, PageId};

use crate::{value, PushOutcome, Strategy, StrategyClass};

/// The paper's *Dual-Methods* strategy: one shared cache, but **two
/// independent replacement algorithms** — GD\* handles access-time
/// replacement, SUB handles push-time placement. Every page is labeled
/// with two values (its GD\* value and its SUB value); each module sorts
/// and evicts by its own value only.
///
/// This exposes the interference the paper discusses: a page in hot use can
/// be evicted by a push-time placement if few subscriptions match it, and a
/// freshly pushed page with high predicted use can be evicted on a cache
/// miss because it has no access history yet — the motivation for the
/// Dual-Caches family.
///
/// The one population lives in two [`CacheStore`]s, each built over the
/// whole capacity and each holding every resident: `by_access` orders
/// them by GD\* value, `by_sub` by SUB value. A module evicts by popping
/// its own store and removing the victim from the other. A page's
/// in-cache reference count (0 for a page pushed and not yet requested)
/// rides in its `by_access` slot and leaves the cache with it.
#[derive(Debug)]
pub struct DualMethods<O: Observer = NullObserver> {
    by_access: CacheStore,
    by_sub: CacheStore,
    inflation: f64,
    beta: f64,
    obs: ObsHandle<O>,
}

impl DualMethods {
    /// Creates a DM proxy cache.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn new(capacity: Bytes, beta: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self::build(
            capacity,
            beta,
            &PageUniverse::default(),
            ObsHandle::disabled(),
        )
    }
}

impl<O: Observer> DualMethods<O> {
    /// An empty cache with this one's capacity and β over the pages of
    /// `universe`, reporting cache decisions to `obs`. Both stores are
    /// reserved for the most pages the capacity can hold, so steady-state
    /// operation never allocates (the empty universe reserves nothing and
    /// grows on demand).
    pub fn observed<P: Observer>(
        self,
        universe: &PageUniverse,
        obs: ObsHandle<P>,
    ) -> DualMethods<P> {
        DualMethods::build(self.by_access.capacity(), self.beta, universe, obs)
    }

    fn build(capacity: Bytes, beta: f64, universe: &PageUniverse, obs: ObsHandle<O>) -> Self {
        Self {
            by_access: CacheStore::dense(capacity, universe),
            by_sub: CacheStore::dense(capacity, universe),
            inflation: 0.0,
            beta,
            obs,
        }
    }

    /// Serializes the mutable state for a snapshot: inflation, the two
    /// stores, and the reference count of every resident in `by_access`'s
    /// slot order.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        pscd_cache::snapshot::put_f64(out, self.inflation);
        self.by_access.encode_state(out);
        self.by_sub.encode_state(out);
        self.by_access.encode_refs(out);
    }

    /// The cached pages, in arbitrary order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.by_access.iter().map(|p| p.page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let inflation = r.read_f64()?;
        if inflation.is_nan() {
            return Err(SnapshotError::Corrupt("NaN inflation"));
        }
        let Self {
            by_access, by_sub, ..
        } = self;
        by_access.decode_state(r)?;
        by_sub.decode_state(r)?;
        // Neither store repeats a page, so equal lengths and one-way
        // agreement make the two populations the same set.
        if by_access.len() != by_sub.len()
            || by_access
                .iter()
                .any(|p| by_sub.size(p.page) != Some(p.size))
        {
            return Err(SnapshotError::Corrupt(
                "DM's two orders hold different pages",
            ));
        }
        by_access.decode_refs(r)?;
        self.inflation = inflation;
        Ok(())
    }

    fn insert(&mut self, page: &PageRef, access_value: f64, sub_value: f64, freq: u32) {
        count!(Counter::DmAccessHeapOps, 1);
        count!(Counter::DmSubHeapOps, 1);
        self.by_access
            .insert_with_refs(page.page, page.size, access_value, freq);
        self.by_sub.insert(page.page, page.size, sub_value);
    }
}

impl<O: Observer> Strategy for DualMethods<O> {
    fn name(&self) -> &'static str {
        "DM"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        evicted.clear();
        if self.by_sub.contains(page.page) {
            return PushOutcome::Stored;
        }
        if !self.would_store(page, subs) {
            return PushOutcome::Declined;
        }
        let v = value::sub(subs, page);
        while self.by_sub.free() < page.size {
            let victim = self
                .by_sub
                .pop_min()
                .expect("candidate check guarantees room");
            self.by_access.remove(victim.page);
            count!(Counter::DmSubHeapOps, 1);
            count!(Counter::DmAccessHeapOps, 1);
            if O::ENABLED {
                self.obs
                    .evict(victim.page, victim.size, victim.value, EvictReason::Push);
            }
            evicted.push(victim.page);
        }
        // A pushed page has no access history: its GD* value is just L
        // (f = 0), so the access module treats it as cold until requested.
        let cold = value::gd_star(self.inflation, 0, page, self.beta);
        self.insert(page, cold, v, 0);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Push);
        }
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        let store = &self.by_sub;
        if store.contains(page.page) {
            return true;
        }
        if page.size > store.capacity() {
            return false;
        }
        store.candidates_cover(
            value::sub(subs, page),
            page.size.saturating_sub(store.free()),
        )
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        evicted.clear();
        let gd_value = |freq| value::gd_star(self.inflation, freq, page, self.beta);
        if self.by_access.hit(page.page, gd_value) {
            count!(Counter::DmAccessHeapOps, 1);
            return AccessOutcome::Hit;
        }
        // GD* replacement on miss: always admit (classic), evicting by
        // access value; inflation rises to the last victim's access value.
        if page.size > self.by_access.capacity() {
            return AccessOutcome::MissBypassed;
        }
        while self.by_access.free() < page.size {
            let victim = self
                .by_access
                .pop_min()
                .expect("cache not empty while free < size <= capacity");
            self.by_sub.remove(victim.page);
            count!(Counter::DmAccessHeapOps, 1);
            count!(Counter::DmSubHeapOps, 1);
            self.inflation = victim.value;
            if O::ENABLED {
                self.obs
                    .evict(victim.page, victim.size, victim.value, EvictReason::Access);
            }
            evicted.push(victim.page);
        }
        let v = value::gd_star(self.inflation, 1, page, self.beta);
        self.insert(page, v, value::sub(subs, page), 1);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Access);
        }
        AccessOutcome::MissAdmitted
    }

    fn contains(&self, page: PageId) -> bool {
        self.by_access.contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let Some(removed) = self.by_access.remove(page) else {
            return false;
        };
        self.by_sub.remove(page);
        count!(Counter::DmAccessHeapOps, 1);
        count!(Counter::DmSubHeapOps, 1);
        if O::ENABLED {
            self.obs
                .evict(page, removed.size, removed.value, EvictReason::Invalidate);
        }
        true
    }

    fn capacity(&self) -> Bytes {
        self.by_access.capacity()
    }

    fn used(&self) -> Bytes {
        self.by_access.used()
    }

    fn len(&self) -> usize {
        self.by_access.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    #[test]
    fn push_and_access_modules_use_their_own_values() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(20), 1.0);
        // Page 1: hot in use (2 accesses), but zero subscriptions.
        let p1 = page(1, 10, 10.0);
        dm.on_access(&p1, 0, &mut ev);
        dm.on_access(&p1, 0, &mut ev);
        // Page 2: pushed with low subscription value.
        assert!(dm.on_push(&page(2, 10, 10.0), 1, &mut ev).is_stored());
        // Push module sees p1's sub value (0) as weakest: a push evicts the
        // hot page — exactly the DM interference the paper describes.
        let out = dm.on_push(&page(3, 10, 10.0), 2, &mut ev);
        assert_eq!(out, PushOutcome::Stored);
        assert_eq!(ev, vec![PageId::new(1)]);
    }

    #[test]
    fn access_module_evicts_unaccessed_pushed_pages_first() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(20), 1.0);
        // Highly subscribed pushed page (no accesses yet).
        dm.on_push(&page(1, 10, 10.0), 100, &mut ev);
        // Accessed page.
        dm.on_access(&page(2, 10, 10.0), 0, &mut ev);
        // Miss forces access-time replacement: victim is the pushed page
        // (access value = L + 0) despite its high subscription value.
        let out = dm.on_access(&page(3, 10, 10.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(1)]);
    }

    #[test]
    fn push_declines_when_candidates_insufficient() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(20), 1.0);
        dm.on_push(&page(1, 10, 1.0), 10, &mut ev);
        dm.on_push(&page(2, 10, 1.0), 10, &mut ev);
        assert_eq!(
            dm.on_push(&page(3, 10, 1.0), 5, &mut ev),
            PushOutcome::Declined
        );
        assert!(!dm.would_store(&page(3, 10, 1.0), 5));
        assert!(dm.would_store(&page(4, 10, 1.0), 50));
        // Re-push of a cached page is a trivial success.
        assert_eq!(
            dm.on_push(&page(1, 10, 1.0), 1, &mut ev),
            PushOutcome::Stored
        );
        assert!(ev.is_empty());
    }

    #[test]
    fn hits_update_access_value() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(20), 1.0);
        let p = page(1, 10, 10.0);
        dm.on_push(&p, 1, &mut ev);
        assert!(dm.on_access(&p, 1, &mut ev).is_hit());
        assert!(dm.on_access(&p, 1, &mut ev).is_hit());
        assert_eq!(dm.len(), 1);
        assert_eq!(dm.used(), Bytes::new(10));
        // After two accesses, p survives an access-time replacement against
        // a single-access newcomer even though another page is present.
        dm.on_access(&page(2, 10, 1.0), 0, &mut ev);
        let out = dm.on_access(&page(3, 10, 5.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        assert!(dm.contains(p.page));
    }

    #[test]
    fn oversized_pages_bypassed() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(10), 2.0);
        assert_eq!(
            dm.on_access(&page(1, 11, 1.0), 0, &mut ev),
            AccessOutcome::MissBypassed
        );
        assert_eq!(
            dm.on_push(&page(2, 11, 1.0), 5, &mut ev),
            PushOutcome::Declined
        );
        assert!(dm.len() == 0);
        assert_eq!(dm.capacity(), Bytes::new(10));
        assert_eq!(dm.name(), "DM");
        assert_eq!(dm.class(), StrategyClass::Combined);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_bad_beta() {
        let _ = DualMethods::new(Bytes::new(10), -1.0);
    }

    #[test]
    fn accounting_invariants_hold_under_churn() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(300), 2.0);
        for i in 0..300u32 {
            let id = i % 41;
            let p = page(id, 10 + (id as u64 % 7) * 17, 1.0 + (id % 3) as f64);
            if i % 2 == 0 {
                let _ = dm.on_push(&p, id % 9, &mut ev);
            } else {
                let _ = dm.on_access(&p, id % 9, &mut ev);
            }
            assert!(dm.used() <= dm.capacity(), "over capacity at step {i}");
            // Both orders hold the same population.
            assert_eq!(dm.by_sub.used(), dm.used(), "accounting drift at step {i}");
            assert_eq!(dm.by_sub.len(), dm.len(), "population drift at step {i}");
            assert!(dm.by_access.iter().all(|p| dm.by_sub.contains(p.page)));
        }
        assert!(dm.len() > 0);
    }

    /// `n` one-byte pages.
    fn units(n: usize) -> PageUniverse {
        PageUniverse::new(vec![Bytes::new(1); n])
    }

    /// Two pushed pages, then whatever `damage` does to the SUB order,
    /// encoded and decoded into a fresh cache over the same universe.
    fn decode_after(damage: impl FnOnce(&mut CacheStore)) -> Result<(), SnapshotError> {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(100), 1.0);
        dm.on_push(&page(1, 10, 1.0), 1, &mut ev);
        dm.on_push(&page(2, 10, 1.0), 1, &mut ev);
        damage(&mut dm.by_sub);
        let mut blob = Vec::new();
        dm.encode_state(&mut blob);
        DualMethods::new(Bytes::new(100), 1.0)
            .observed(&units(8), ObsHandle::<NullObserver>::disabled())
            .decode_state(&mut SnapshotReader::new(&blob))
    }

    #[test]
    fn decode_rejects_a_page_only_one_order_holds() {
        assert_eq!(decode_after(|_| ()), Ok(()));
        let swapped = decode_after(|by_sub| {
            by_sub.remove(PageId::new(2));
            by_sub.insert(PageId::new(3), Bytes::new(10), 0.1);
        });
        assert!(
            matches!(swapped, Err(SnapshotError::Corrupt(_))),
            "{swapped:?}"
        );
        let missing = decode_after(|by_sub| {
            by_sub.remove(PageId::new(2));
        });
        assert!(
            matches!(missing, Err(SnapshotError::Corrupt(_))),
            "{missing:?}"
        );
    }

    #[test]
    fn decode_rejects_nan_inflation_and_a_wild_reference_count() {
        let mut ev = Vec::new();
        let mut dm = DualMethods::new(Bytes::new(100), 1.0);
        dm.on_access(&page(1, 10, 1.0), 1, &mut ev);
        let mut blob = Vec::new();
        dm.encode_state(&mut blob);
        let decode = |blob: &[u8]| {
            DualMethods::new(Bytes::new(100), 1.0)
                .observed(&units(8), ObsHandle::<NullObserver>::disabled())
                .decode_state(&mut SnapshotReader::new(blob))
        };
        assert_eq!(decode(&blob), Ok(()));
        // The inflation is the blob's first word, the one resident's
        // reference count its last four bytes.
        let mut nan = blob.clone();
        nan[..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(decode(&nan), Err(SnapshotError::Corrupt(_))));
        let at = blob.len() - 4;
        blob[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&blob), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_a_size_the_two_orders_disagree_on() {
        let resized = decode_after(|by_sub| by_sub.insert(PageId::new(2), Bytes::new(11), 0.1));
        assert!(
            matches!(resized, Err(SnapshotError::Corrupt(_))),
            "{resized:?}"
        );
    }
}
