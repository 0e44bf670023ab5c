//! DC-AP and DC-LAP: dual caches with (limited) adaptive partition (§3.3).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pscd_cache::{AccessOutcome, PageRef};
use pscd_obs::{AdmitOrigin, EvictReason, NullObserver, ObsHandle, Observer, RelabelDirection};
use pscd_types::{Bytes, PageId};

use crate::table::EntryTable;
use crate::{PushOutcome, Strategy, StrategyClass};

/// Which portion of the storage a page's bytes are labeled as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Push-Cache: managed by SUB (subscription value).
    Pc,
    /// Access-Cache: managed by GD\* (access value).
    Ac,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: Bytes,
    side: Side,
    value: f64,
    stamp: u64,
    freq: u32,
    last_access_tick: u64,
}

#[derive(Debug, Clone, Copy)]
struct HeapItem {
    value: f64,
    stamp: u64,
    page: PageId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .value
            .partial_cmp(&self.value)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.stamp.cmp(&self.stamp))
            .then_with(|| other.page.cmp(&self.page))
    }
}

/// The paper's *Dual-Caches with Adaptive Partition* (DC-AP) and its
/// bounded variant *DC-LAP*.
///
/// Like DC-FP, the storage is split into a Push-Cache (SUB) and an
/// Access-Cache (GD\*), but the split is a *label* on each page's storage
/// rather than a wall:
///
/// * **Placing** (push): if SUB cannot store a page within the current PC
///   allocation, AC pages that have not been referenced *since the last
///   replacement in AC* become eviction candidates; the storage of the
///   least-valuable such pages is relabeled PC and used for the new page.
/// * **Locating** (access): when a PC page is requested, its storage is
///   relabeled AC in place — no move, no spurious AC replacement (the
///   fix over DC-FP the paper motivates).
///
/// DC-LAP additionally bounds the PC fraction of the storage (paper: 25% to
/// 75%); a re-partition that would violate the bounds is skipped, falling
/// back to DC-FP behaviour for that operation.
///
/// Because a page's value is refreshed on every access, the two eviction
/// orders are maintained as lazy-deletion heaps. The heaps are
/// preallocated to twice the page universe and compact stale items in
/// place when full, and the adaptive step's scratch pools are
/// preallocated too — over a preallocated universe DC-AP/DC-LAP are
/// *strictly* allocation-free in steady state (see DESIGN.md §12).
#[derive(Debug)]
pub struct DcAdaptive<O: Observer = NullObserver> {
    capacity: Bytes,
    /// Bytes currently allocated to the PC side (the rest is AC).
    pc_alloc: Bytes,
    used_pc: Bytes,
    used_ac: Bytes,
    entries: EntryTable<Entry>,
    pc_heap: BinaryHeap<HeapItem>,
    ac_heap: BinaryHeap<HeapItem>,
    /// GD\* inflation of the AC module.
    inflation: f64,
    beta: f64,
    tick: u64,
    /// Tick of the most recent replacement (eviction) in AC.
    ac_last_replacement: u64,
    /// Bounds on the PC fraction (DC-AP: (0, 1); DC-LAP: (0.25, 0.75)).
    lo: f64,
    hi: f64,
    name: &'static str,
    next_stamp: u64,
    /// Scratch for the adaptive step (the stale-AC pool and the planned
    /// victims), reused across calls so `plan_relabel` is allocation-free
    /// in steady state. `RefCell` because `would_store` plans through
    /// `&self`; never borrowed across a public call boundary.
    stale_scratch: RefCell<Vec<(PageId, f64, Bytes, u64)>>,
    victims_scratch: RefCell<Vec<PageId>>,
    obs: ObsHandle<O>,
}

impl DcAdaptive {
    /// Creates a DC-AP cache (unbounded adaptive partition, 50/50 start).
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn ap(capacity: Bytes, beta: f64) -> Self {
        Self::with_bounds(capacity, beta, 0.0, 1.0, "DC-AP", 0, ObsHandle::disabled())
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
    /// `0 <= lo <= 0.5 <= hi <= 1`.
    pub fn lap_with_bounds(capacity: Bytes, beta: f64, lo: f64, hi: f64) -> Self {
        Self::with_bounds(capacity, beta, lo, hi, "DC-LAP", 0, ObsHandle::disabled())
    }
}

impl<O: Observer> DcAdaptive<O> {
    /// An empty cache with this one's capacity, β and partition bounds
    /// over the page ordinals `0..page_count`, reporting cache decisions
    /// to `obs`. Every table is preallocated for the universe, so
    /// steady-state operation never allocates (`0` preallocates nothing
    /// and grows on demand).
    pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> DcAdaptive<P> {
        DcAdaptive::with_bounds(
            self.capacity,
            self.beta,
            self.lo,
            self.hi,
            self.name,
            page_count,
            obs,
        )
    }

    fn with_bounds(
        capacity: Bytes,
        beta: f64,
        lo: f64,
        hi: f64,
        name: &'static str,
        page_count: usize,
        obs: ObsHandle<O>,
    ) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        assert!(
            (0.0..=0.5).contains(&lo) && (0.5..=1.0).contains(&hi),
            "bounds must satisfy 0 <= lo <= 0.5 <= hi <= 1"
        );
        // Live entries are bounded by the page universe, so heaps
        // preallocated to twice that never grow: when one fills, stale
        // lazy-deletion items are compacted in place (see `push_heap`),
        // leaving at least half the slots free. Strictly alloc-free in
        // steady state, compaction amortized O(1) per push.
        let heap_capacity = page_count.saturating_mul(2);
        Self {
            capacity,
            pc_alloc: capacity.scaled(0.5),
            used_pc: Bytes::ZERO,
            used_ac: Bytes::ZERO,
            entries: EntryTable::new(page_count),
            pc_heap: BinaryHeap::with_capacity(heap_capacity),
            ac_heap: BinaryHeap::with_capacity(heap_capacity),
            inflation: 0.0,
            beta,
            tick: 0,
            ac_last_replacement: 0,
            lo,
            hi,
            name,
            next_stamp: 0,
            // The adaptive-step pools hold at most one item per resident page.
            stale_scratch: RefCell::new(Vec::with_capacity(page_count)),
            victims_scratch: RefCell::new(Vec::with_capacity(page_count)),
            obs,
        }
    }

    /// Bytes currently allocated to the push cache.
    pub fn pc_allocation(&self) -> Bytes {
        self.pc_alloc
    }

    /// Bytes currently allocated to the access cache.
    pub fn ac_allocation(&self) -> Bytes {
        self.capacity - self.pc_alloc
    }

    fn lo_bytes(&self) -> Bytes {
        self.capacity.scaled(self.lo)
    }

    fn hi_bytes(&self) -> Bytes {
        self.capacity.scaled(self.hi)
    }

    fn free_pc(&self) -> Bytes {
        self.pc_alloc.saturating_sub(self.used_pc)
    }

    fn free_ac(&self) -> Bytes {
        self.ac_allocation().saturating_sub(self.used_ac)
    }

    fn sub_value(page: &PageRef, subs: u32) -> f64 {
        subs as f64 * page.cost / page.size.as_f64()
    }

    fn gd_value(&self, freq: u32, page: &PageRef) -> f64 {
        self.inflation
            + (freq as f64 * page.cost / page.size.as_f64())
                .max(0.0)
                .powf(1.0 / self.beta)
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Serializes the mutable state for a snapshot: the partition point,
    /// the AC module's GD\* registers, and every resident entry in
    /// live-list order (see [`DualMethods::encode_state`] on why stale
    /// lazy-deletion heap items need not be encoded).
    ///
    /// [`DualMethods::encode_state`]: crate::DualMethods
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use pscd_cache::snapshot::{put_f64, put_u32, put_u64, put_u8};
        put_u64(out, self.pc_alloc.as_u64());
        put_f64(out, self.inflation);
        put_u64(out, self.tick);
        put_u64(out, self.ac_last_replacement);
        put_u64(out, self.next_stamp);
        put_u32(out, self.entries.len() as u32);
        for (page, e) in self.entries.iter() {
            put_u32(out, page.index());
            put_u64(out, e.size.as_u64());
            put_u8(out, matches!(e.side, Side::Ac) as u8);
            put_f64(out, e.value);
            put_u64(out, e.stamp);
            put_u32(out, e.freq);
            put_u64(out, e.last_access_tick);
        }
    }

    /// The cached pages, in arbitrary order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.entries.iter().map(|(page, _)| page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        &mut self,
        r: &mut pscd_cache::SnapshotReader<'_>,
    ) -> Result<(), pscd_cache::SnapshotError> {
        use pscd_cache::SnapshotError;
        let pc_alloc = Bytes::new(r.read_u64()?);
        let inflation = r.read_f64()?;
        let tick = r.read_u64()?;
        let ac_last_replacement = r.read_u64()?;
        let next_stamp = r.read_u64()?;
        let n = r.read_u32()? as usize;
        if n > r.remaining() / 41 {
            return Err(SnapshotError::Corrupt("DC entry count overruns buffer"));
        }
        self.entries.clear();
        self.pc_heap.clear();
        self.ac_heap.clear();
        self.used_pc = Bytes::ZERO;
        self.used_ac = Bytes::ZERO;
        for _ in 0..n {
            let page = PageId::new(r.read_u32()?);
            let size = Bytes::new(r.read_u64()?);
            let side = match r.read_u8()? {
                0 => Side::Pc,
                1 => Side::Ac,
                _ => return Err(SnapshotError::Corrupt("bad DC side tag")),
            };
            let entry = Entry {
                size,
                side,
                value: r.read_f64()?,
                stamp: r.read_u64()?,
                freq: r.read_u32()?,
                last_access_tick: r.read_u64()?,
            };
            self.entries.try_insert(page, entry)?;
            let item = HeapItem {
                value: entry.value,
                stamp: entry.stamp,
                page,
            };
            let used = match side {
                Side::Pc => &mut self.used_pc,
                Side::Ac => &mut self.used_ac,
            };
            let total = used.as_u64().checked_add(size.as_u64());
            *used = Bytes::new(total.ok_or(SnapshotError::Corrupt("resident bytes overflow"))?);
            self.push_heap(side, item);
        }
        self.pc_alloc = pc_alloc;
        self.inflation = inflation;
        self.tick = tick;
        self.ac_last_replacement = ac_last_replacement;
        self.next_stamp = next_stamp;
        Ok(())
    }

    fn insert(&mut self, page: &PageRef, side: Side, value: f64, freq: u32) {
        let stamp = self.stamp();
        self.entries.insert(
            page.page,
            Entry {
                size: page.size,
                side,
                value,
                stamp,
                freq,
                last_access_tick: self.tick,
            },
        );
        let item = HeapItem {
            value,
            stamp,
            page: page.page,
        };
        match side {
            Side::Pc => self.used_pc += page.size,
            Side::Ac => self.used_ac += page.size,
        }
        self.push_heap(side, item);
    }

    /// Pushes a lazy-deletion item under `side`'s heap, compacting stale
    /// items in place first whenever the heap is at capacity. Live items
    /// are bounded by resident entries, so a heap preallocated for the
    /// page universe never reallocates.
    fn push_heap(&mut self, side: Side, item: HeapItem) {
        let heap = match side {
            Side::Pc => &mut self.pc_heap,
            Side::Ac => &mut self.ac_heap,
        };
        if heap.len() == heap.capacity() {
            let entries = &self.entries;
            heap.retain(|it| {
                entries
                    .get(it.page)
                    .is_some_and(|e| e.side == side && e.stamp == it.stamp)
            });
        }
        match side {
            Side::Pc => self.pc_heap.push(item),
            Side::Ac => self.ac_heap.push(item),
        }
    }

    /// Pops the minimum live page of `side`. Removes it from the entry map
    /// and byte accounting.
    fn pop_min(&mut self, side: Side) -> Option<(PageId, Entry)> {
        loop {
            let item = match side {
                Side::Pc => self.pc_heap.pop()?,
                Side::Ac => self.ac_heap.pop()?,
            };
            let live = self
                .entries
                .get(item.page)
                .is_some_and(|e| e.side == side && e.stamp == item.stamp);
            if live {
                let entry = self.entries.remove(item.page).expect("live entry");
                match side {
                    Side::Pc => self.used_pc -= entry.size,
                    Side::Ac => self.used_ac -= entry.size,
                }
                return Some((item.page, entry));
            }
        }
    }

    fn candidate_size_below(&self, side: Side, v: f64) -> Bytes {
        self.entries
            .iter()
            .filter(|(_, e)| e.side == side && e.value < v)
            .map(|(_, e)| e.size)
            .sum()
    }

    /// Plans the adaptive relabeling for a page needing `needed` extra PC
    /// bytes. Returns whether it is feasible within the `hi` bound; on
    /// success the victims are left in `self.victims_scratch`.
    ///
    /// The eviction pool `S` is the set of AC pages not referenced since
    /// the last AC replacement, walked in ascending GD\* value.
    fn plan_relabel(&self, needed: Bytes) -> bool {
        let mut stale = self.stale_scratch.borrow_mut();
        stale.clear();
        stale.extend(
            self.entries
                .iter()
                .filter(|(_, e)| {
                    e.side == Side::Ac && e.last_access_tick < self.ac_last_replacement
                })
                .map(|(p, e)| (p, e.value, e.size, e.stamp)),
        );
        stale.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.3.cmp(&b.3))
        });
        let mut victims = self.victims_scratch.borrow_mut();
        victims.clear();
        let hi = self.hi_bytes();
        let mut alloc = self.pc_alloc;
        let mut freed = Bytes::ZERO;
        for &(page, _v, size, _s) in stale.iter() {
            if freed >= needed {
                break;
            }
            if alloc + size > hi {
                // Relabeling this page would violate the PC upper bound
                // (DC-LAP); skip it — a smaller stale page may still fit.
                continue;
            }
            alloc += size;
            freed += size;
            victims.push(page);
        }
        freed >= needed
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
        self.tick += 1;
        if self.entries.contains(page.page) {
            return PushOutcome::Stored;
        }
        let v = Self::sub_value(page, subs);
        // Phase 1: SUB within the current PC allocation.
        if self.free_pc() >= page.size
            || self.free_pc() + self.candidate_size_below(Side::Pc, v) >= page.size
        {
            if page.size > self.pc_alloc {
                // Even an empty PC cannot hold it; fall through to phase 2.
            } else {
                while self.free_pc() < page.size {
                    let (victim, entry) = self.pop_min(Side::Pc).expect("candidates suffice");
                    if O::ENABLED {
                        self.obs
                            .evict(victim, entry.size, entry.value, EvictReason::Push);
                    }
                    evicted.push(victim);
                }
                self.insert(page, Side::Pc, v, 0);
                if O::ENABLED {
                    self.obs.admit(page.page, page.size, v, AdmitOrigin::Push);
                }
                return PushOutcome::Stored;
            }
        }
        // Phase 2: adaptive re-partition over stale AC pages.
        let needed = page.size.saturating_sub(self.free_pc());
        if self.plan_relabel(needed) {
            // Take the planned victims out of the scratch so `self` stays
            // mutably borrowable; restore it after (capacity preserved).
            let victims = std::mem::take(&mut *self.victims_scratch.borrow_mut());
            for &victim in &victims {
                let entry = self.entries.remove(victim).expect("planned victim");
                self.used_ac -= entry.size;
                self.pc_alloc += entry.size;
                if O::ENABLED {
                    // The stale page dies and its storage switches
                    // sides: one eviction, one relabel.
                    self.obs
                        .evict(victim, entry.size, entry.value, EvictReason::Repartition);
                    self.obs
                        .relabel(victim, entry.size, RelabelDirection::AcToPc);
                }
                evicted.push(victim);
            }
            *self.victims_scratch.borrow_mut() = victims;
            debug_assert!(self.free_pc() >= page.size);
            self.insert(page, Side::Pc, v, 0);
            if O::ENABLED {
                self.obs.admit(page.page, page.size, v, AdmitOrigin::Push);
            }
            PushOutcome::Stored
        } else {
            PushOutcome::Declined
        }
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        if self.entries.contains(page.page) {
            return true;
        }
        if page.size > self.capacity {
            return false;
        }
        let v = Self::sub_value(page, subs);
        let sub_fits = page.size <= self.pc_alloc
            && self.free_pc() + self.candidate_size_below(Side::Pc, v) >= page.size;
        if sub_fits {
            return true;
        }
        let needed = page.size.saturating_sub(self.free_pc());
        self.plan_relabel(needed)
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        self.tick += 1;
        if let Some(entry) = self.entries.get(page.page).copied() {
            debug_assert_eq!(
                entry.size, page.size,
                "a page's size must be stable across calls"
            );
            match entry.side {
                Side::Pc => {
                    // Locating: relabel the storage AC in place when the
                    // bounds allow; otherwise fall back to a DC-FP move.
                    let new_pc = self.pc_alloc.saturating_sub(entry.size);
                    if new_pc >= self.lo_bytes() {
                        self.pc_alloc = new_pc;
                        self.used_pc -= entry.size;
                        // Re-insert under the new side (the stale PC heap
                        // item is skimmed by stamp on a later pop).
                        self.entries.remove(page.page);
                        let value = self.gd_value(1, page);
                        self.insert(page, Side::Ac, value, 1);
                        if O::ENABLED {
                            self.obs
                                .relabel(page.page, entry.size, RelabelDirection::PcToAc);
                        }
                    } else {
                        // Remove from PC and run a GD* placement in AC.
                        self.used_pc -= entry.size;
                        self.entries.remove(page.page);
                        if O::ENABLED {
                            // Even the bounded fallback moves the page
                            // across the partition.
                            self.obs
                                .relabel(page.page, entry.size, RelabelDirection::PcToAc);
                        }
                        if entry.size <= self.ac_allocation() {
                            while self.free_ac() < entry.size {
                                let (victim_page, victim) =
                                    self.pop_min(Side::Ac).expect("AC not empty");
                                self.inflation = victim.value;
                                self.ac_last_replacement = self.tick;
                                if O::ENABLED {
                                    self.obs.evict(
                                        victim_page,
                                        victim.size,
                                        victim.value,
                                        EvictReason::Access,
                                    );
                                }
                            }
                            let value = self.gd_value(1, page);
                            self.insert(page, Side::Ac, value, 1);
                        }
                        // else: page cannot fit in AC at all; it is served
                        // but dropped from the cache.
                    }
                    AccessOutcome::Hit
                }
                Side::Ac => {
                    let freq = entry.freq + 1;
                    let value = self.gd_value(freq, page);
                    let stamp = self.stamp();
                    let e = self.entries.get_mut(page.page).expect("present");
                    e.freq = freq;
                    e.value = value;
                    e.stamp = stamp;
                    e.last_access_tick = self.tick;
                    self.push_heap(
                        Side::Ac,
                        HeapItem {
                            value,
                            stamp,
                            page: page.page,
                        },
                    );
                    AccessOutcome::Hit
                }
            }
        } else {
            // Miss: classic GD* placement within the AC allocation.
            if page.size > self.ac_allocation() {
                return AccessOutcome::MissBypassed;
            }
            while self.free_ac() < page.size {
                let (victim, entry) = self.pop_min(Side::Ac).expect("AC holds enough bytes");
                self.inflation = entry.value;
                self.ac_last_replacement = self.tick;
                if O::ENABLED {
                    self.obs
                        .evict(victim, entry.size, entry.value, EvictReason::Access);
                }
                evicted.push(victim);
            }
            let value = self.gd_value(1, page);
            self.insert(page, Side::Ac, value, 1);
            if O::ENABLED {
                self.obs
                    .admit(page.page, page.size, value, AdmitOrigin::Access);
            }
            AccessOutcome::MissAdmitted
        }
    }

    fn contains(&self, page: PageId) -> bool {
        self.entries.contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        match self.entries.remove(page) {
            Some(entry) => {
                match entry.side {
                    Side::Pc => self.used_pc -= entry.size,
                    Side::Ac => self.used_ac -= entry.size,
                }
                if O::ENABLED {
                    self.obs
                        .evict(page, entry.size, entry.value, EvictReason::Invalidate);
                }
                true
            }
            None => false,
        }
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn used(&self) -> Bytes {
        self.used_pc + self.used_ac
    }

    fn len(&self) -> usize {
        self.entries.len()
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
        // the cold p2 is evicted and the replacement tick advances.
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
    fn would_store_matches_on_push() {
        let mut ev = Vec::new();
        let mut d = DcAdaptive::lap(Bytes::new(100), 2.0);
        let pushes = [
            (page(1, 40, 1.0), 10u32),
            (page(2, 30, 1.0), 2),
            (page(3, 30, 1.0), 50),
            (page(4, 80, 1.0), 90),
            (page(5, 10, 1.0), 0),
        ];
        for (p, subs) in pushes {
            assert_eq!(
                d.would_store(&p, subs),
                d.on_push(&p, subs, &mut ev).is_stored(),
                "page {:?}",
                p.page
            );
        }
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

    #[test]
    #[should_panic(expected = "bounds")]
    fn rejects_bad_bounds() {
        let _ = DcAdaptive::lap_with_bounds(Bytes::new(10), 2.0, 0.8, 0.9);
    }
}
