//! The shared greedy-dual replacement engine.

use pscd_obs::{AdmitOrigin, EvictReason, NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::snapshot::{put_f64, SnapshotError, SnapshotReader};
use crate::{AccessOutcome, CacheStore, PageRef, PageUniverse};

/// The greedy-dual family's shared machinery: an *inflation* value `L` that
/// rises to the value of the last evicted page, in-cache reference counts
/// (In-Cache LFU: a page's count lives in its store record and so is
/// discarded when it is evicted, as the paper's GD\* implementation
/// does), and value-ordered eviction.
///
/// Every greedy-dual policy values pages as `V(p) = L + g(p)` for some
/// weight `g`; the engine is parameterized by `g` per call so one engine
/// serves LRU (`g = 1`), GDS (`g = c/s`), LFU-DA (`g = f`), GD\*
/// (`g = (f·c/s)^(1/β)`) and the subscription-aware variants built in
/// `pscd-core`.
///
/// Evicted pages are reported through caller-owned scratch buffers (a
/// `&mut Vec<PageId>` per operation, cleared on entry): with the store
/// reserved over its page universe and a warm scratch buffer, no engine
/// operation allocates.
///
/// The observer parameter defaults to [`NullObserver`], whose hooks are
/// compile-time disabled: uninstrumented engines pay nothing. An engine
/// built via [`with_observer`](GreedyDualEngine::with_observer) reports
/// every admission and eviction (with the victim's dying value and an
/// [`EvictReason`]) through its [`ObsHandle`].
#[derive(Debug)]
pub struct GreedyDualEngine<O: Observer = NullObserver> {
    store: CacheStore,
    inflation: f64,
    obs: ObsHandle<O>,
}

impl<O: Observer> Clone for GreedyDualEngine<O> {
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            inflation: self.inflation,
            obs: self.obs.clone(),
        }
    }
}

impl GreedyDualEngine {
    /// Creates an unobserved engine with the given capacity; `L` starts
    /// at 0.
    pub fn new(capacity: Bytes) -> Self {
        Self::with_observer(capacity, &PageUniverse::default(), ObsHandle::disabled())
    }
}

impl Default for GreedyDualEngine {
    fn default() -> Self {
        Self::new(Bytes::new(0))
    }
}

impl<O: Observer> GreedyDualEngine<O> {
    /// Creates an engine over the pages of `universe`, reporting
    /// admissions and evictions to `obs`. The store is reserved for the
    /// most pages the capacity can hold
    /// ([`CacheStore::dense`]), so steady-state operation never
    /// allocates; the empty universe reserves nothing and grows on demand.
    pub fn with_observer(capacity: Bytes, universe: &PageUniverse, obs: ObsHandle<O>) -> Self {
        Self {
            store: CacheStore::dense(capacity, universe),
            inflation: 0.0,
            obs,
        }
    }

    /// The current inflation value `L`.
    #[inline]
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The in-cache reference count of a page (0 if absent).
    #[inline]
    pub fn frequency(&self, page: PageId) -> u32 {
        self.store.refs(page).unwrap_or(0)
    }

    /// Read access to the underlying store.
    #[inline]
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// Records an access under `V(p) = value(f, L)`, where `value` receives
    /// the page's updated in-cache reference count and the current
    /// inflation `L` and returns the page's absolute value (greedy-dual
    /// policies return `L + g(p)`; absolute-valued policies ignore `L`).
    /// Misses always admit the page (evicting as needed), matching the
    /// classic GD\* pseudo-code; pages larger than the whole cache are
    /// bypassed.
    ///
    /// `evicted` is cleared on entry and filled with the evicted pages.
    pub fn access<W: FnMut(u32, f64) -> f64>(
        &mut self,
        page: &PageRef,
        mut value: W,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        if self.store.hit(page.page, |f| value(f, self.inflation)) {
            return AccessOutcome::Hit;
        }
        if page.size > self.store.capacity() {
            return AccessOutcome::MissBypassed;
        }
        self.make_room(page.size, evicted);
        let v = value(1, self.inflation);
        self.store.insert_with_refs(page.page, page.size, v, 1);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Access);
        }
        AccessOutcome::MissAdmitted
    }

    /// Records an access under a *value-gated* admission: on a miss the
    /// page enters the cache only if its value `L + weight(f)` exceeds the
    /// values of enough current residents (the paper's single-cache
    /// combined schemes, §3.3: "the replacement module discards the
    /// requested page immediately after forwarding it to the user if the
    /// page's value is not high enough").
    ///
    /// `evicted` is cleared on entry and filled with the evicted pages.
    pub fn access_gated<W: FnMut(u32, f64) -> f64>(
        &mut self,
        page: &PageRef,
        mut value: W,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        if self.store.hit(page.page, |f| value(f, self.inflation)) {
            return AccessOutcome::Hit;
        }
        let v = value(1, self.inflation);
        if self.try_admit(page, v, 1, EvictReason::Access, evicted) {
            if O::ENABLED {
                self.obs.admit(page.page, page.size, v, AdmitOrigin::Access);
            }
            AccessOutcome::MissAdmitted
        } else {
            AccessOutcome::MissBypassed
        }
    }

    /// Push-time placement of a page valued at `value` (absolute, not
    /// relative to `L`): stores it only if free space plus the total size
    /// of strictly-less-valuable residents covers the page (§3.2/§3.3).
    /// Returns `true` if the page is cached afterwards (trivially so when
    /// it already was), `false` if it was declined. `evicted` is cleared
    /// on entry and filled with the evicted pages.
    pub fn push_valued(&mut self, page: &PageRef, value: f64, evicted: &mut Vec<PageId>) -> bool {
        evicted.clear();
        if self.store.contains(page.page) {
            return true;
        }
        if !self.try_admit(page, value, 0, EvictReason::Push, evicted) {
            return false;
        }
        if O::ENABLED {
            self.obs
                .admit(page.page, page.size, value, AdmitOrigin::Push);
        }
        true
    }

    /// The paper's placement test (§3.2/§3.3), asked without placing: an
    /// absent page valued at `value` fits the cache, and free space plus
    /// the total size of strictly-less-valuable residents covers it. What
    /// [`push_valued`](Self::push_valued) and
    /// [`access_gated`](Self::access_gated) decide by.
    pub fn would_admit(&self, page: &PageRef, value: f64) -> bool {
        let store = &self.store;
        page.size <= store.capacity()
            && store.candidates_cover(value, page.size.saturating_sub(store.free()))
    }

    /// Removes a page (without touching `L`), returning `true` if present.
    /// Reported to the observer as an [`EvictReason::Invalidate`].
    pub fn evict(&mut self, page: PageId) -> bool {
        match self.store.remove(page) {
            Some(removed) => {
                if O::ENABLED {
                    self.obs.evict(
                        removed.page,
                        removed.size,
                        removed.value,
                        EvictReason::Invalidate,
                    );
                }
                true
            }
            None => false,
        }
    }

    /// Serializes the engine's mutable state — inflation `L`, the store,
    /// and the in-cache reference count of every resident — for a
    /// snapshot. Capacity, universe and observer are configuration and
    /// are not encoded.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        put_f64(out, self.inflation);
        self.store.encode_state(out);
        self.store.encode_refs(out);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state),
    /// replacing the engine's current contents. The engine keeps its own
    /// capacity, universe and observer.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on truncated or corrupt input; the
    /// engine's contents are then unspecified — discard it.
    pub fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let inflation = r.read_f64()?;
        if inflation.is_nan() {
            return Err(SnapshotError::Corrupt("NaN inflation"));
        }
        self.store.decode_state(r)?;
        self.store.decode_refs(r)?;
        self.inflation = inflation;
        Ok(())
    }

    /// Evicts least-valuable pages until `size` fits, raising `L` to the
    /// value of the last eviction (classic greedy-dual replacement).
    /// Appends the victims to `evicted`.
    fn make_room(&mut self, size: Bytes, evicted: &mut Vec<PageId>) {
        while self.store.free() < size {
            let victim = self
                .store
                .pop_min()
                .expect("cache cannot be empty while free < size <= capacity");
            self.inflation = victim.value;
            if O::ENABLED {
                self.obs
                    .evict(victim.page, victim.size, victim.value, EvictReason::Access);
            }
            evicted.push(victim.page);
        }
    }

    /// Admits a page valued `value`, with `refs` references counted, only
    /// over strictly-less-valuable residents; raises `L` on evictions
    /// (reported under `reason`, appended to `evicted`). Returns `false`
    /// if the page was declined.
    fn try_admit(
        &mut self,
        page: &PageRef,
        value: f64,
        refs: u32,
        reason: EvictReason,
        evicted: &mut Vec<PageId>,
    ) -> bool {
        if !self.would_admit(page, value) {
            return false;
        }
        while self.store.free() < page.size {
            let victim = self
                .store
                .pop_min()
                .expect("candidate check guarantees enough evictable bytes");
            debug_assert!(victim.value < value);
            self.inflation = victim.value;
            if O::ENABLED {
                self.obs
                    .evict(victim.page, victim.size, victim.value, reason);
            }
            evicted.push(victim.page);
        }
        self.store
            .insert_with_refs(page.page, page.size, value, refs);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(i: u32, size: u64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), 1.0)
    }

    #[test]
    fn hit_updates_frequency_and_value() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(100));
        let p = pref(1, 10);
        assert_eq!(
            e.access(&p, |f, l| l + f as f64, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert_eq!(e.frequency(p.page), 1);
        assert_eq!(e.store().value(p.page), Some(1.0));
        assert!(e.access(&p, |f, l| l + f as f64, &mut ev).is_hit());
        assert_eq!(e.frequency(p.page), 2);
        assert_eq!(e.store().value(p.page), Some(2.0));
    }

    #[test]
    fn eviction_raises_inflation() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(20));
        e.access(&pref(1, 10), |_, l| l + 1.0, &mut ev);
        e.access(&pref(2, 10), |_, l| l + 2.0, &mut ev);
        assert_eq!(e.inflation(), 0.0);
        // Page 3 forces one eviction: victim is page 1 (value 1.0).
        let out = e.access(&pref(3, 10), |_, l| l + 5.0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(1)]);
        assert_eq!(e.inflation(), 1.0);
        // New insertions start from L: value = 1.0 + 5.0.
        assert_eq!(e.store().value(PageId::new(3)), Some(6.0));
    }

    #[test]
    fn frequency_discarded_on_eviction() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(20));
        let p1 = pref(1, 10);
        e.access(&p1, |f, l| l + f as f64, &mut ev);
        e.access(&p1, |f, l| l + f as f64, &mut ev);
        assert_eq!(e.frequency(p1.page), 2);
        e.access(&pref(2, 10), |_, l| l + 10.0, &mut ev);
        e.access(&pref(3, 10), |_, l| l + 10.0, &mut ev); // evicts page 1
        assert_eq!(e.frequency(p1.page), 0);
        // Re-access restarts at f = 1 (In-Cache LFU).
        e.access(&p1, |f, l| l + f as f64, &mut ev);
        assert_eq!(e.frequency(p1.page), 1);
    }

    #[test]
    fn oversized_page_bypassed() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(10));
        assert_eq!(
            e.access(&pref(1, 11), |_, l| l + 1.0, &mut ev),
            AccessOutcome::MissBypassed
        );
        assert_eq!(e.store().len(), 0);
    }

    #[test]
    fn gated_access_declines_low_value() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(20));
        e.access(&pref(1, 10), |_, l| l + 5.0, &mut ev);
        e.access(&pref(2, 10), |_, l| l + 5.0, &mut ev);
        // Value 1.0 < both residents: declined.
        assert_eq!(
            e.access_gated(&pref(3, 10), |_, l| l + 1.0, &mut ev),
            AccessOutcome::MissBypassed
        );
        assert!(!e.store().contains(PageId::new(3)));
        // Value 9.0 beats one resident: admitted.
        let out = e.access_gated(&pref(4, 10), |_, l| l + 9.0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn gated_access_hits_like_normal() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(20));
        e.access_gated(&pref(1, 10), |f, l| l + f as f64, &mut ev);
        assert!(e
            .access_gated(&pref(1, 10), |f, l| l + f as f64, &mut ev)
            .is_hit());
        assert_eq!(e.frequency(PageId::new(1)), 2);
    }

    #[test]
    fn push_valued_admission_rules() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(30));
        // Free space: no eviction needed.
        assert!(e.push_valued(&pref(1, 10), 2.0, &mut ev));
        assert!(ev.is_empty());
        assert!(e.push_valued(&pref(2, 20), 3.0, &mut ev));
        assert!(ev.is_empty());
        // Full. New page worth less than all residents: declined.
        assert!(!e.would_admit(&pref(3, 10), 1.0));
        assert!(!e.push_valued(&pref(3, 10), 1.0, &mut ev));
        // Worth more than page 1 but candidates too small for 20 bytes.
        assert!(!e.would_admit(&pref(4, 20), 2.5));
        assert!(!e.push_valued(&pref(4, 20), 2.5, &mut ev));
        // Worth more than page 1, fits in its 10 bytes.
        assert!(e.would_admit(&pref(5, 10), 2.5));
        assert!(e.push_valued(&pref(5, 10), 2.5, &mut ev));
        assert_eq!(ev, vec![PageId::new(1)]);
        assert_eq!(e.inflation(), 2.0);
        // Already cached: no-op success.
        assert!(e.push_valued(&pref(5, 10), 9.9, &mut ev));
        assert!(ev.is_empty());
        // Larger than the whole cache: declined.
        assert!(!e.would_admit(&pref(6, 31), 99.0));
        assert!(!e.push_valued(&pref(6, 31), 99.0, &mut ev));
    }

    #[test]
    fn pushed_pages_start_at_zero_frequency() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(30));
        e.push_valued(&pref(1, 10), 2.0, &mut ev);
        assert_eq!(e.frequency(PageId::new(1)), 0);
        assert!(e
            .access(&pref(1, 10), |f, l| l + f as f64, &mut ev)
            .is_hit());
        assert_eq!(e.frequency(PageId::new(1)), 1);
    }

    #[test]
    fn observer_sees_admissions_and_evictions() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        let mut ev = Vec::new();
        let shared = SharedObserver::new(StatsObserver::new());
        let mut e = GreedyDualEngine::with_observer(
            Bytes::new(20),
            &PageUniverse::default(),
            shared.handle(ServerId::new(5)),
        );
        e.access(&pref(1, 10), |_, l| l + 1.0, &mut ev);
        e.access(&pref(2, 10), |_, l| l + 2.0, &mut ev);
        e.access(&pref(3, 10), |_, l| l + 5.0, &mut ev); // evicts page 1 (access)
        e.push_valued(&pref(4, 10), 9.0, &mut ev); // evicts page 2 (push), admits via push
        e.evict(PageId::new(4)); // invalidate
        drop(e);
        let stats = shared.try_unwrap().unwrap();
        let r = stats.registry();
        assert_eq!(r.counter("admit.access"), 3);
        assert_eq!(r.counter("admit.push"), 1);
        assert_eq!(r.counter("evict.access"), 1);
        assert_eq!(r.counter("evict.push"), 1);
        assert_eq!(r.counter("evict.invalidate"), 1);
        assert_eq!(r.bytes("bytes.evicted"), 30);
        // The eviction-value histogram saw the victims' dying values.
        assert_eq!(r.histogram("evict.value").unwrap().count(), 3);
    }

    #[test]
    fn decode_rejects_nan_inflation_and_a_wild_reference_count() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(30));
        e.access(&pref(1, 10), |f, l| l + f as f64, &mut ev);
        let mut blob = Vec::new();
        e.encode_state(&mut blob);
        let decode = |blob: &[u8]| {
            GreedyDualEngine::with_observer(
                Bytes::new(30),
                &PageUniverse::new(vec![Bytes::new(10); 8]),
                ObsHandle::<NullObserver>::disabled(),
            )
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
    fn evict_removes_a_page_once() {
        let mut ev = Vec::new();
        let mut e = GreedyDualEngine::new(Bytes::new(30));
        e.access(&pref(1, 10), |f, l| l + f as f64, &mut ev);
        assert!(e.evict(PageId::new(1)));
        assert!(!e.evict(PageId::new(1)));
        assert_eq!(e.frequency(PageId::new(1)), 0);
        assert!(e.store().is_empty());
    }
}
