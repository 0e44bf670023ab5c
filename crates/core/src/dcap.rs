//! DC-FP, DC-AP and DC-LAP: dual caches with a fixed or moving partition (§3.3).

use std::cell::RefCell;

use pscd_cache::{
    AccessOutcome, CacheStore, HeapSlot, PageRef, PageUniverse, SnapshotError, SnapshotReader,
};
use pscd_obs::{AdmitOrigin, EvictReason, NullObserver, ObsHandle, Observer, RelabelDirection};
use pscd_types::{count, Bytes, PageId};

use crate::{value, PushOutcome, Strategy, StrategyClass};

/// The paper's *Dual-Caches*: a **Push-Cache (PC)** under SUB (eq. 2)
/// and an **Access-Cache (AC)** under GD\*, the split between them a
/// *label* on each page's storage. DC-FP, DC-AP and DC-LAP differ only in
/// where the PC fraction starts and the bounds it may move between:
/// `(f, f, f)`, `(0.5, 0, 1)` and `(0.5, lo, hi)` (paper: 0.25, 0.75).
///
/// * **Placing** (push): if SUB cannot store a page within the current PC
///   allocation, AC pages that have not been referenced *since the last
///   replacement in AC* become eviction candidates; the storage of the
///   least-valuable such pages is relabeled PC and used for the new page.
/// * **Locating** (access): when a PC page is requested, its storage is
///   relabeled AC in place — no move, no spurious AC replacement.
///
/// A re-partition that would leave the bounds is skipped: the push is
/// declined, the requested page *moves* into AC's present allocation
/// (which may replace pages there). For DC-FP that is every operation.
///
/// Each side is a [`CacheStore`] built over the whole capacity; what a
/// side may actually use is its *allocation*, which this type tracks
/// (`pc_alloc`, the rest is AC's) and moves. A page is in exactly one of
/// the two stores.
#[derive(Debug)]
pub struct DcAdaptive<O: Observer = NullObserver> {
    /// Bytes currently allocated to the PC side (the rest is AC).
    pc_alloc: Bytes,
    /// Push-Cache residents under their SUB values.
    pc: CacheStore,
    /// Access-Cache residents under their GD\* values, each slot holding
    /// the page's in-cache reference count.
    ac: CacheStore,
    /// GD\* inflation of the AC module.
    inflation: f64,
    beta: f64,
    /// `ac`'s stamp counter as of the most recent replacement (eviction)
    /// in AC. A reference re-stamps the page, so an AC slot stamped below
    /// the mark has not been referenced since that replacement.
    ac_mark: u64,
    /// The PC fraction's `[start, lo, hi]`, and the two bounds in bytes.
    split: [f64; 3],
    lo: Bytes,
    hi: Bytes,
    name: &'static str,
    /// Scratch for the adaptive step (the frontier of the walk over AC
    /// and the planned victims), reused across calls so `plan_relabel` is
    /// allocation-free in steady state. `RefCell` because `would_store`
    /// plans through `&self`; never borrowed across a public call
    /// boundary.
    frontier_scratch: RefCell<Vec<u32>>,
    victims_scratch: RefCell<Vec<PageId>>,
    obs: ObsHandle<O>,
}

impl DcAdaptive {
    /// Creates a DC-FP cache: `pc_fraction` of the capacity (paper: 0.5)
    /// is the push cache's for good — both bounds sit on the start.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite and
    /// `0 < pc_fraction < 1`.
    pub fn fp(capacity: Bytes, beta: f64, pc_fraction: f64) -> Self {
        assert!(
            pc_fraction > 0.0 && pc_fraction < 1.0,
            "pc_fraction must be in (0, 1)"
        );
        let pinned = [pc_fraction; 3];
        Self::configured(capacity, beta, pinned, "DC-FP")
    }

    /// Creates a DC-AP cache (unbounded adaptive partition, 50/50 start).
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn ap(capacity: Bytes, beta: f64) -> Self {
        let split = [0.5, 0.0, 1.0];
        Self::configured(capacity, beta, split, "DC-AP")
    }

    /// Creates a DC-LAP cache with the paper's PC-fraction bounds
    /// `[0.25, 0.75]`.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn lap(capacity: Bytes, beta: f64) -> Self {
        Self::lap_with_bounds(capacity, beta, 0.25, 0.75)
    }

    /// Creates a DC-LAP cache with custom PC-fraction bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite and
    /// `0 <= lo <= 0.5 <= hi <= 1` (the cache starts at 50/50).
    pub fn lap_with_bounds(capacity: Bytes, beta: f64, lo: f64, hi: f64) -> Self {
        let split = [0.5, lo, hi];
        Self::configured(capacity, beta, split, "DC-LAP")
    }

    /// An unobserved cache over the empty universe; `split` is the PC
    /// fraction's `[start, lo, hi]`.
    fn configured(capacity: Bytes, beta: f64, split: [f64; 3], name: &'static str) -> Self {
        let (universe, obs) = (PageUniverse::default(), ObsHandle::disabled());
        Self::new(capacity, beta, split, name, &universe, obs)
    }
}

impl<O: Observer> DcAdaptive<O> {
    /// An empty cache with this one's capacity, β and partition bounds
    /// over the pages of `universe`, reporting cache decisions to `obs`.
    /// Both stores and the relabel pools are reserved for the most pages
    /// the capacity can hold, so steady-state operation never allocates
    /// (the empty universe reserves nothing and grows on demand).
    pub fn observed<P: Observer>(
        self,
        universe: &PageUniverse,
        obs: ObsHandle<P>,
    ) -> DcAdaptive<P> {
        let capacity = self.pc.capacity();
        DcAdaptive::new(capacity, self.beta, self.split, self.name, universe, obs)
    }

    /// `split` is the PC fraction's `[start, lo, hi]`.
    fn new(
        capacity: Bytes,
        beta: f64,
        split: [f64; 3],
        name: &'static str,
        universe: &PageUniverse,
        obs: ObsHandle<O>,
    ) -> Self {
        let [start, lo, hi] = split;
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        assert!(
            (0.0..=start).contains(&lo) && (start..=1.0).contains(&hi),
            "bounds must satisfy 0 <= lo <= start <= hi <= 1"
        );
        let bound = universe.resident_bound(capacity);
        Self {
            pc_alloc: capacity.scaled(start),
            pc: CacheStore::dense(capacity, universe),
            ac: CacheStore::dense(capacity, universe),
            inflation: 0.0,
            beta,
            ac_mark: 0,
            split,
            lo: capacity.scaled(lo),
            hi: capacity.scaled(hi),
            name,
            // The adaptive-step pools hold at most one item per resident
            // page, and the two sides share the capacity.
            frontier_scratch: RefCell::new(Vec::with_capacity(bound)),
            victims_scratch: RefCell::new(Vec::with_capacity(bound)),
            obs,
        }
    }

    /// Bytes currently allocated to the push cache.
    pub fn pc_allocation(&self) -> Bytes {
        self.pc_alloc
    }

    /// Bytes currently allocated to the access cache.
    pub fn ac_allocation(&self) -> Bytes {
        self.pc.capacity() - self.pc_alloc
    }

    fn free_pc(&self) -> Bytes {
        self.pc_alloc.saturating_sub(self.pc.used())
    }

    fn free_ac(&self) -> Bytes {
        self.ac_allocation().saturating_sub(self.ac.used())
    }

    /// Serializes the mutable state for a snapshot: the partition point,
    /// the AC module's GD\* registers, the two stores, and the reference
    /// count of every AC resident in `ac`'s slot order.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use pscd_cache::snapshot::{put_f64, put_u64};
        put_u64(out, self.pc_alloc.as_u64());
        put_f64(out, self.inflation);
        put_u64(out, self.ac_mark);
        self.pc.encode_state(out);
        self.ac.encode_state(out);
        self.ac.encode_refs(out);
    }

    /// The cached pages, in arbitrary order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pc.iter().chain(self.ac.iter()).map(|p| p.page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let pc_alloc = Bytes::new(r.read_u64()?);
        let inflation = r.read_f64()?;
        let ac_mark = r.read_u64()?;
        if pc_alloc < self.lo || pc_alloc > self.hi {
            return Err(SnapshotError::Corrupt("PC allocation outside its bounds"));
        }
        if inflation.is_nan() {
            return Err(SnapshotError::Corrupt("NaN inflation"));
        }
        let Self { pc, ac, .. } = self;
        pc.decode_state(r)?;
        ac.decode_state(r)?;
        if pc.used() > pc_alloc || ac.used() > ac.capacity() - pc_alloc {
            return Err(SnapshotError::Corrupt(
                "a side holds more than its allocation",
            ));
        }
        if pc.iter().any(|p| ac.contains(p.page)) {
            return Err(SnapshotError::Corrupt(
                "page on both sides of the partition",
            ));
        }
        if ac_mark > ac.next_stamp() {
            return Err(SnapshotError::Corrupt("AC mark beyond the stamp counter"));
        }
        ac.decode_refs(r)?;
        self.pc_alloc = pc_alloc;
        self.inflation = inflation;
        self.ac_mark = ac_mark;
        Ok(())
    }

    /// SUB can place the page within the current PC allocation (a page
    /// that fits the free bytes needs no sweep).
    fn sub_fits(&self, page: &PageRef, v: f64) -> bool {
        page.size <= self.pc_alloc
            && self
                .pc
                .candidates_cover(v, page.size.saturating_sub(self.free_pc()))
    }

    /// Plans the adaptive relabeling for a page needing `needed` extra PC
    /// bytes. Returns whether it is feasible within the `hi` bound; on
    /// success the victims are left in `self.victims_scratch`.
    ///
    /// The eviction pool `S` is the set of AC pages not referenced since
    /// the last AC replacement, taken in ascending GD\* value off a walk
    /// of AC's heap that stops once `needed` is freed.
    fn plan_relabel(&self, needed: Bytes) -> bool {
        if self.pc_alloc + needed > self.hi {
            // Every accepted victim keeps the allocation at or under `hi`,
            // so the pool cannot free this much: skip collecting it.
            count!(Counter::RelabelRefused, 1);
            return false;
        }
        let stale = |slot: &&HeapSlot| slot.stamp < self.ac_mark;
        let stale_bytes: u64 = self
            .ac
            .slots()
            .iter()
            .filter(stale)
            .map(|s| s.size.as_u64())
            .sum();
        if stale_bytes < needed.as_u64() {
            // Not even the whole pool frees enough: refuse without a walk.
            count!(Counter::RelabelRefused, 1);
            return false;
        }
        let mut frontier = self.frontier_scratch.borrow_mut();
        let mut victims = self.victims_scratch.borrow_mut();
        victims.clear();
        let mut alloc = self.pc_alloc;
        let mut freed = Bytes::ZERO;
        let mut pool = self.ac.ascending(&mut frontier).filter(stale);
        while freed < needed {
            let Some(slot) = pool.next() else {
                break;
            };
            if alloc + slot.size > self.hi {
                // Relabeling this page would violate the PC upper bound
                // (DC-LAP); skip it — a smaller stale page may still fit.
                continue;
            }
            alloc += slot.size;
            freed += slot.size;
            victims.push(slot.page);
        }
        count!(Counter::RelabelRefused, u64::from(freed < needed));
        freed >= needed
    }

    /// GD\* placement of a requested page in AC: evicts by value until
    /// `size` fits the AC allocation (which must be able to hold it),
    /// raising `L` and moving the mark at each replacement, then inserts
    /// the page with one reference. Appends the victims to `evicted` and
    /// returns the page's value.
    fn place_in_ac(&mut self, page: &PageRef, size: Bytes, evicted: &mut Vec<PageId>) -> f64 {
        while self.free_ac() < size {
            let victim = self.ac.pop_min().expect("AC holds enough bytes");
            self.inflation = victim.value;
            self.ac_mark = self.ac.next_stamp();
            if O::ENABLED {
                self.obs
                    .evict(victim.page, victim.size, victim.value, EvictReason::Access);
            }
            evicted.push(victim.page);
        }
        let value = value::gd_star(self.inflation, 1, page, self.beta);
        self.ac.insert_with_refs(page.page, size, value, 1);
        value
    }
}

impl<O: Observer> Strategy for DcAdaptive<O> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        evicted.clear();
        if self.contains(page.page) {
            return PushOutcome::Stored;
        }
        let v = value::sub(subs, page);
        if self.sub_fits(page, v) {
            // SUB within the current PC allocation.
            while self.free_pc() < page.size {
                let victim = self.pc.pop_min().expect("candidates suffice");
                if O::ENABLED {
                    self.obs
                        .evict(victim.page, victim.size, victim.value, EvictReason::Push);
                }
                evicted.push(victim.page);
            }
        } else {
            // Adaptive re-partition over stale AC pages.
            let needed = page.size.saturating_sub(self.free_pc());
            if !self.plan_relabel(needed) {
                return PushOutcome::Declined;
            }
            // Take the planned victims out of the scratch so `self` stays
            // mutably borrowable; restore it after (capacity preserved).
            let victims = std::mem::take(&mut *self.victims_scratch.borrow_mut());
            for &victim in &victims {
                let removed = self.ac.remove(victim).expect("planned victim");
                self.pc_alloc += removed.size;
                if O::ENABLED {
                    // The stale page dies and its storage switches
                    // sides: one eviction, one relabel.
                    self.obs.evict(
                        victim,
                        removed.size,
                        removed.value,
                        EvictReason::Repartition,
                    );
                    self.obs
                        .relabel(victim, removed.size, RelabelDirection::AcToPc);
                }
                evicted.push(victim);
            }
            *self.victims_scratch.borrow_mut() = victims;
            debug_assert!(self.free_pc() >= page.size);
        }
        self.pc.insert(page.page, page.size, v);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Push);
        }
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        if self.contains(page.page) {
            return true;
        }
        if page.size > self.pc.capacity() {
            return false;
        }
        self.sub_fits(page, value::sub(subs, page))
            || self.plan_relabel(page.size.saturating_sub(self.free_pc()))
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        let gd_value = |freq| value::gd_star(self.inflation, freq, page, self.beta);
        if self.ac.hit(page.page, gd_value) {
            return AccessOutcome::Hit;
        }
        if let Some(moved) = self.pc.remove(page.page) {
            // Locating: the storage is relabeled AC in place when the
            // bounds allow, so AC grows by exactly what it takes in;
            // otherwise the page moves into AC as allocated, which may
            // replace pages there.
            let new_pc = self.pc_alloc.saturating_sub(moved.size);
            if new_pc >= self.lo {
                self.pc_alloc = new_pc;
            }
            if moved.size > self.ac_allocation() {
                // AC could never hold the page: it leaves the cache, and
                // no storage changes sides.
                if O::ENABLED {
                    self.obs
                        .evict(page.page, moved.size, moved.value, EvictReason::Access);
                }
                return AccessOutcome::Hit;
            }
            if O::ENABLED {
                self.obs
                    .relabel(page.page, moved.size, RelabelDirection::PcToAc);
            }
            self.place_in_ac(page, moved.size, evicted);
            // The request was a hit: pages the move displaced inside AC
            // are not reported.
            evicted.clear();
            return AccessOutcome::Hit;
        }
        // Miss: classic GD* placement within the AC allocation.
        if page.size > self.ac_allocation() {
            return AccessOutcome::MissBypassed;
        }
        let value = self.place_in_ac(page, page.size, evicted);
        if O::ENABLED {
            self.obs
                .admit(page.page, page.size, value, AdmitOrigin::Access);
        }
        AccessOutcome::MissAdmitted
    }

    fn contains(&self, page: PageId) -> bool {
        self.pc.contains(page) || self.ac.contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let Some(removed) = self.pc.remove(page).or_else(|| self.ac.remove(page)) else {
            return false;
        };
        if O::ENABLED {
            self.obs
                .evict(page, removed.size, removed.value, EvictReason::Invalidate);
        }
        true
    }

    fn capacity(&self) -> Bytes {
        self.pc.capacity()
    }

    fn used(&self) -> Bytes {
        self.pc.used() + self.ac.used()
    }

    fn len(&self) -> usize {
        self.pc.len() + self.ac.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    #[test]
    fn starts_half_and_half() {
        let d = DcAdaptive::ap(Bytes::new(100), 2.0);
        assert_eq!(d.pc_allocation(), Bytes::new(50));
        assert_eq!(d.ac_allocation(), Bytes::new(50));
        assert_eq!(d.capacity(), Bytes::new(100));
        assert_eq!(d.name(), "DC-AP");
        assert_eq!(DcAdaptive::lap(Bytes::new(100), 2.0).name(), "DC-LAP");
    }

    #[test]
    fn sub_placement_within_pc() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 2.0);
        assert!(d.on_push(&page(1, 50, 1.0), 5, &mut ev).is_stored());
        // PC full; low-value push declined (no stale AC pages to take).
        assert_eq!(
            d.on_push(&page(2, 50, 1.0), 1, &mut ev),
            PushOutcome::Declined
        );
        // Higher-value push displaces within PC.
        let out = d.on_push(&page(3, 50, 1.0), 50, &mut ev);
        assert_eq!(out, PushOutcome::Stored);
        assert_eq!(ev, vec![PageId::new(1)]);
        assert_eq!(d.pc_allocation(), Bytes::new(50));
    }

    #[test]
    fn access_relabels_pc_storage_to_ac() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 2.0);
        let p = page(1, 30, 1.0);
        d.on_push(&p, 5, &mut ev);
        assert_eq!(d.used(), Bytes::new(30));
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
        // Storage followed the page: PC shrank, AC grew, nothing was evicted.
        assert_eq!(d.pc_allocation(), Bytes::new(20));
        assert_eq!(d.ac_allocation(), Bytes::new(80));
        assert_eq!(d.len(), 1);
        // Second access: plain AC hit.
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
    }

    #[test]
    fn relabel_avoids_spurious_ac_replacement() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 2.0);
        // Fill AC (50 bytes) with misses.
        d.on_access(&page(1, 25, 1.0), 0, &mut ev);
        d.on_access(&page(2, 25, 1.0), 0, &mut ev);
        // Push and access a PC page: with DC-FP this would evict from AC;
        // DC-AP relabels instead and keeps all three pages.
        d.on_push(&page(3, 40, 1.0), 9, &mut ev);
        assert_eq!(
            d.on_access(&page(3, 40, 1.0), 9, &mut ev),
            AccessOutcome::Hit
        );
        assert_eq!(d.len(), 3);
        assert_eq!(d.ac_allocation(), Bytes::new(90));
    }

    #[test]
    fn failed_push_takes_stale_ac_storage() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 1.0);
        // AC pages via misses: p1 hot (two accesses), p2 cold, p3 medium.
        d.on_access(&page(1, 20, 1.0), 0, &mut ev);
        d.on_access(&page(1, 20, 1.0), 0, &mut ev); // value 2/20 = 0.1
        d.on_access(&page(2, 20, 1.0), 0, &mut ev); // value 0.05
        d.on_access(&page(3, 10, 1.0), 0, &mut ev); // value 0.1
                                                    // No AC replacement has happened yet -> no stale pages -> a push
                                                    // too large for the whole PC allocation is declined.
        assert_eq!(
            d.on_push(&page(5, 60, 1.0), 9, &mut ev),
            PushOutcome::Declined
        );
        // A 10-byte miss forces an AC replacement (AC is full at 50):
        // the cold p2 is evicted and the replacement mark advances.
        assert_eq!(
            d.on_access(&page(6, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert_eq!(ev, vec![PageId::new(2)]);
        // p1 and p3 now predate the last AC replacement -> stale. A push
        // needing 5 bytes beyond the free PC can relabel their storage.
        let before_pc = d.pc_allocation();
        let out = d.on_push(&page(7, 55, 2.0), 9, &mut ev);
        assert!(out.is_stored(), "adaptive relabel should admit: {out:?}");
        assert!(d.pc_allocation() > before_pc);
        assert_eq!(d.pc_allocation(), Bytes::new(70)); // took p1's 20 bytes
        assert!(!d.contains(PageId::new(1)));
    }

    #[test]
    fn lap_bounds_limit_relabel() {
        // DC-LAP with bounds [0.25, 0.75] of 100 bytes: PC in [25, 75].
        let mut ev = Vec::new();
        let mut d = DcAdaptive::lap(Bytes::new(100), 2.0);
        // One 30-byte PC page; accessing it would shrink PC to 20 < 25:
        // bounds forbid the relabel, so the page *moves* (DC-FP style).
        d.on_push(&page(1, 30, 1.0), 5, &mut ev);
        assert_eq!(
            d.on_access(&page(1, 30, 1.0), 5, &mut ev),
            AccessOutcome::Hit
        );
        assert_eq!(d.pc_allocation(), Bytes::new(50)); // unchanged
        assert!(d.contains(PageId::new(1))); // moved into AC
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn miss_replacement_confined_to_ac() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 2.0);
        d.on_push(&page(1, 50, 1.0), 100, &mut ev); // PC full, high value
                                                    // Misses cycle through AC (50 bytes) without touching the PC page.
        for i in 2..8 {
            d.on_access(&page(i, 30, 1.0), 0, &mut ev);
        }
        assert!(d.contains(PageId::new(1)));
        // AC larger than allocation is bypassed.
        assert_eq!(
            d.on_access(&page(99, 60, 1.0), 0, &mut ev),
            AccessOutcome::MissBypassed
        );
    }

    #[test]
    fn accounting_invariants_hold_under_churn() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::lap(Bytes::new(200), 2.0);
        for i in 0..200u32 {
            let id = i % 37;
            // Size and cost are functions of the page id: a page's
            // PageRef must be stable across calls.
            let p = page(id, 10 + (id as u64 % 5) * 13, 1.0 + (id % 3) as f64);
            if i % 3 == 0 {
                d.on_push(&p, i % 11, &mut ev);
            } else {
                d.on_access(&p, i % 7, &mut ev);
            }
            assert!(d.used() <= d.capacity(), "over capacity at step {i}");
            assert!(d.pc_allocation() <= d.capacity());
            let lo = d.capacity().scaled(0.25);
            let hi = d.capacity().scaled(0.75);
            assert!(
                d.pc_allocation() >= lo && d.pc_allocation() <= hi,
                "LAP bounds violated at step {i}: {}",
                d.pc_allocation()
            );
        }
    }

    /// DC-FP over 40 bytes at the paper's 50/50 split.
    fn fp40() -> DcAdaptive {
        DcAdaptive::fp(Bytes::new(40), 2.0, 0.5)
    }

    #[test]
    fn partition_sizes() {
        let d = DcAdaptive::fp(Bytes::new(100), 2.0, 0.5);
        assert_eq!(d.pc_allocation(), Bytes::new(50));
        assert_eq!(d.ac_allocation(), Bytes::new(50));
        assert_eq!(d.capacity(), Bytes::new(100));
        assert_eq!(d.name(), "DC-FP");
        assert_eq!(d.class(), StrategyClass::Combined);
        assert!(d.is_empty());
        let d = DcAdaptive::fp(Bytes::new(100), 2.0, 0.25);
        assert_eq!(d.pc_allocation(), Bytes::new(25));
        assert_eq!(d.ac_allocation(), Bytes::new(75));
    }

    #[test]
    fn pushes_confined_to_pc() {
        let mut ev = Vec::new();
        let mut d = fp40();
        assert!(d.on_push(&page(1, 20, 1.0), 5, &mut ev).is_stored());
        // PC (20 bytes) is full; equal-value page declined even though AC
        // is empty: pushes never use AC space.
        assert_eq!(
            d.on_push(&page(2, 20, 1.0), 5, &mut ev),
            PushOutcome::Declined
        );
        // More valuable page displaces the first within PC.
        assert!(d.on_push(&page(3, 20, 1.0), 50, &mut ev).is_stored());
        assert!(!d.contains(PageId::new(1)));
        // Nor do they take stale AC storage: two misses fill AC, a third
        // replaces there, and the survivor predates that replacement.
        for id in 4..7 {
            d.on_access(&page(id, 10, 1.0), 0, &mut ev);
        }
        assert!(!d.would_store(&page(7, 20, 1.0), 50));
        assert_eq!(
            d.on_push(&page(7, 20, 1.0), 50, &mut ev),
            PushOutcome::Declined
        );
        assert_eq!(d.pc_allocation(), Bytes::new(20));
    }

    #[test]
    fn pc_hit_moves_page_to_ac() {
        let mut ev = Vec::new();
        let mut d = fp40();
        let p = page(1, 10, 1.0);
        d.on_push(&p, 5, &mut ev);
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
        // Page now lives in AC: PC has room again for an equal-value push.
        assert_eq!(d.pc_allocation(), Bytes::new(20));
        assert!(d.on_push(&page(2, 20, 1.0), 5, &mut ev).is_stored());
        assert!(d.contains(p.page));
        assert_eq!(d.len(), 2);
        // Second access is an AC hit.
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
    }

    #[test]
    fn re_push_after_promotion_is_noop() {
        let mut ev = Vec::new();
        let mut d = fp40();
        let p = page(1, 10, 1.0);
        d.on_push(&p, 5, &mut ev);
        d.on_access(&p, 5, &mut ev); // promoted to AC
        assert_eq!(d.on_push(&p, 5, &mut ev), PushOutcome::Stored);
        assert!(ev.is_empty());
        assert!(d.would_store(&p, 0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn misses_use_gdstar_on_ac() {
        let mut ev = Vec::new();
        let mut d = fp40();
        // Fill AC (20 bytes) through misses.
        assert_eq!(
            d.on_access(&page(1, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert_eq!(
            d.on_access(&page(2, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissAdmitted
        );
        // Third miss evicts within AC only.
        let out = d.on_access(&page(3, 10, 1.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev.len(), 1);
        assert_eq!(d.used(), Bytes::new(20));
    }

    #[test]
    fn move_can_trigger_ac_replacement() {
        let mut ev = Vec::new();
        let mut d = fp40();
        // Fill AC with two cold pages.
        d.on_access(&page(1, 10, 1.0), 0, &mut ev);
        d.on_access(&page(2, 10, 1.0), 0, &mut ev);
        // Push then access page 3: the PC->AC move must evict from AC.
        d.on_push(&page(3, 20, 1.0), 9, &mut ev);
        assert_eq!(
            d.on_access(&page(3, 20, 1.0), 9, &mut ev),
            AccessOutcome::Hit
        );
        assert!(d.contains(PageId::new(3)));
        assert_eq!(d.ac_allocation(), Bytes::new(20));
        assert!(!d.contains(PageId::new(1)) && !d.contains(PageId::new(2)));
        // The request was a hit: the displaced pages are not reported.
        assert!(ev.is_empty());
    }

    #[test]
    #[should_panic(expected = "pc_fraction")]
    fn rejects_bad_fraction() {
        let _ = DcAdaptive::fp(Bytes::new(10), 2.0, 1.0);
    }

    /// A 100-byte cache holding a 30-byte PC page and a 40-byte AC page
    /// with one reference, encoded: the partition point, the inflation
    /// and the mark are the blob's first three words, the AC page's
    /// reference count its last four bytes.
    fn encoded() -> Vec<u8> {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::ap(Bytes::new(100), 2.0);
        d.on_push(&page(1, 30, 1.0), 5, &mut ev);
        d.on_access(&page(2, 40, 1.0), 0, &mut ev);
        let mut blob = Vec::new();
        d.encode_state(&mut blob);
        blob
    }

    fn with_word(blob: &[u8], at: usize, word: u64) -> Vec<u8> {
        let mut blob = blob.to_vec();
        blob[at..at + 8].copy_from_slice(&word.to_le_bytes());
        blob
    }

    /// Decodes into a fresh cache of `like`'s configuration over 8
    /// one-byte pages.
    fn decode(like: DcAdaptive, blob: &[u8]) -> Result<(), SnapshotError> {
        let universe = PageUniverse::new(vec![Bytes::new(1); 8]);
        like.observed(&universe, ObsHandle::<NullObserver>::disabled())
            .decode_state(&mut SnapshotReader::new(blob))
    }

    fn ap() -> DcAdaptive {
        DcAdaptive::ap(Bytes::new(100), 2.0)
    }

    #[test]
    fn decode_rejects_a_partition_point_outside_its_bounds() {
        let blob = encoded();
        assert_eq!(decode(ap(), &blob), Ok(()));
        // Regression: u64::MAX used to decode, and the next access
        // computed `capacity - pc_alloc`.
        for pc_alloc in [u64::MAX, 101] {
            let err = decode(ap(), &with_word(&blob, 0, pc_alloc));
            assert!(
                matches!(err, Err(SnapshotError::Corrupt(_))),
                "{pc_alloc}: {err:?}"
            );
        }
        let lap = || DcAdaptive::lap(Bytes::new(100), 2.0);
        for pc_alloc in [24, 76] {
            let err = decode(lap(), &with_word(&blob, 0, pc_alloc));
            assert!(
                matches!(err, Err(SnapshotError::Corrupt(_))),
                "{pc_alloc}: {err:?}"
            );
        }
        for pc_alloc in [30, 60] {
            assert_eq!(decode(lap(), &with_word(&blob, 0, pc_alloc)), Ok(()));
        }
    }

    #[test]
    fn decode_rejects_a_side_holding_more_than_its_allocation() {
        let blob = encoded();
        // PC holds 30 bytes, AC 40 of the other 100 - pc_alloc.
        for pc_alloc in [29, 61] {
            let err = decode(ap(), &with_word(&blob, 0, pc_alloc));
            assert!(
                matches!(err, Err(SnapshotError::Corrupt(_))),
                "{pc_alloc}: {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_a_page_on_both_sides() {
        let mut ev = Vec::new();
        let mut d = ap();
        d.on_push(&page(1, 10, 1.0), 5, &mut ev);
        d.ac.insert(PageId::new(1), Bytes::new(10), 0.5);
        let mut blob = Vec::new();
        d.encode_state(&mut blob);
        let err = decode(ap(), &blob);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn decode_rejects_a_mark_beyond_the_stamp_counter() {
        let blob = encoded();
        // AC stamped one insert: its counter reads 1.
        assert_eq!(decode(ap(), &with_word(&blob, 16, 1)), Ok(()));
        let err = decode(ap(), &with_word(&blob, 16, 2));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn decode_rejects_nan_inflation_and_a_wild_reference_count() {
        let blob = encoded();
        let err = decode(ap(), &with_word(&blob, 8, f64::NAN.to_bits()));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
        let mut wild = blob.clone();
        let at = wild.len() - 4;
        wild[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(ap(), &wild);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn rejects_bad_bounds() {
        let _ = DcAdaptive::lap_with_bounds(Bytes::new(10), 2.0, 0.8, 0.9);
    }
}
