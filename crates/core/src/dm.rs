//! DM: single cache, dual replacement methods (§3.3).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pscd_cache::{AccessOutcome, PageRef};
use pscd_obs::{AdmitOrigin, EvictReason, NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::table::EntryTable;
use crate::{PushOutcome, Strategy, StrategyClass};

/// Which of the two replacement modules is evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    Access,
    Push,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: Bytes,
    access_value: f64,
    sub_value: f64,
    access_stamp: u64,
    sub_stamp: u64,
    freq: u32,
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
/// Because every page carries two independently-refreshed values, the two
/// eviction orders are maintained as lazy-deletion heaps. The heaps are
/// preallocated to twice the page universe and compact stale items in
/// place when full, so over a preallocated universe DM is *strictly*
/// allocation-free in steady state (see DESIGN.md §12).
#[derive(Debug)]
pub struct DualMethods<O: Observer = NullObserver> {
    capacity: Bytes,
    used: Bytes,
    entries: EntryTable<Entry>,
    access_heap: BinaryHeap<HeapItem>,
    sub_heap: BinaryHeap<HeapItem>,
    inflation: f64,
    beta: f64,
    next_stamp: u64,
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
        Self::build(capacity, beta, 0, ObsHandle::disabled())
    }
}

impl<O: Observer> DualMethods<O> {
    /// An empty cache with this one's capacity and β over the page
    /// ordinals `0..page_count`, reporting cache decisions to `obs`.
    /// Every table is preallocated for the universe, so steady-state
    /// operation never allocates (`0` preallocates nothing and grows on
    /// demand).
    pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> DualMethods<P> {
        DualMethods::build(self.capacity, self.beta, page_count, obs)
    }

    fn build(capacity: Bytes, beta: f64, page_count: usize, obs: ObsHandle<O>) -> Self {
        // Live entries are bounded by the page universe, so heaps
        // preallocated to twice that never grow: when one fills, stale
        // lazy-deletion items are compacted in place (see `push_heap`),
        // leaving at least half the slots free. Strictly alloc-free in
        // steady state, compaction amortized O(1) per push.
        let heap_capacity = page_count.saturating_mul(2);
        Self {
            capacity,
            used: Bytes::ZERO,
            entries: EntryTable::new(page_count),
            access_heap: BinaryHeap::with_capacity(heap_capacity),
            sub_heap: BinaryHeap::with_capacity(heap_capacity),
            inflation: 0.0,
            beta,
            next_stamp: 0,
            obs,
        }
    }

    /// GD\* weight `(f·c/s)^(1/β)`.
    fn gd_weight(&self, freq: u32, page: &PageRef) -> f64 {
        (freq as f64 * page.cost / page.size.as_f64())
            .max(0.0)
            .powf(1.0 / self.beta)
    }

    /// SUB value `f_S·c/s`.
    fn sub_value(page: &PageRef, subs: u32) -> f64 {
        subs as f64 * page.cost / page.size.as_f64()
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Total size of pages whose value *under the given module* is below `v`.
    fn candidate_size_below(&self, module: Module, v: f64) -> Bytes {
        self.entries
            .iter()
            .filter(|(_, e)| match module {
                Module::Access => e.access_value < v,
                Module::Push => e.sub_value < v,
            })
            .map(|(_, e)| e.size)
            .sum()
    }

    /// Pushes a lazy-deletion item under `module`'s heap, compacting stale
    /// items in place first whenever the heap is at capacity. Live items
    /// are bounded by resident entries, so a heap preallocated for the
    /// page universe never reallocates.
    fn push_heap(&mut self, module: Module, item: HeapItem) {
        let heap = match module {
            Module::Access => &mut self.access_heap,
            Module::Push => &mut self.sub_heap,
        };
        if heap.len() == heap.capacity() {
            let entries = &self.entries;
            heap.retain(|it| {
                entries.get(it.page).is_some_and(|e| match module {
                    Module::Access => e.access_stamp == it.stamp,
                    Module::Push => e.sub_stamp == it.stamp,
                })
            });
        }
        match module {
            Module::Access => self.access_heap.push(item),
            Module::Push => self.sub_heap.push(item),
        }
    }

    /// Pops the minimum-valued live page under `module`'s ordering.
    fn pop_min(&mut self, module: Module) -> Option<(PageId, Entry)> {
        loop {
            let item = match module {
                Module::Access => self.access_heap.pop()?,
                Module::Push => self.sub_heap.pop()?,
            };
            let live = self.entries.get(item.page).is_some_and(|e| match module {
                Module::Access => e.access_stamp == item.stamp,
                Module::Push => e.sub_stamp == item.stamp,
            });
            if live {
                let entry = self.entries.remove(item.page).expect("live entry");
                self.used -= entry.size;
                return Some((item.page, entry));
            }
        }
    }

    /// Serializes the mutable state for a snapshot: inflation, the stamp
    /// counter, and every resident entry in live-list order. Live-list
    /// order is history-determined, so two caches that processed the same
    /// operation stream encode identically. Stale lazy-deletion heap
    /// items are deliberately not encoded: stamps give each live entry a
    /// unique key, so heaps rebuilt from live entries pop in exactly the
    /// same order the originals would (stale items are skimmed either way).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use pscd_cache::snapshot::{put_f64, put_u32, put_u64};
        put_f64(out, self.inflation);
        put_u64(out, self.next_stamp);
        put_u32(out, self.entries.len() as u32);
        for (page, e) in self.entries.iter() {
            put_u32(out, page.index());
            put_u64(out, e.size.as_u64());
            put_f64(out, e.access_value);
            put_f64(out, e.sub_value);
            put_u64(out, e.access_stamp);
            put_u64(out, e.sub_stamp);
            put_u32(out, e.freq);
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
        let inflation = r.read_f64()?;
        let next_stamp = r.read_u64()?;
        let n = r.read_u32()? as usize;
        if n > r.remaining() / 48 {
            return Err(SnapshotError::Corrupt("DM entry count overruns buffer"));
        }
        self.entries.clear();
        self.access_heap.clear();
        self.sub_heap.clear();
        self.used = Bytes::ZERO;
        for _ in 0..n {
            let page = PageId::new(r.read_u32()?);
            let entry = Entry {
                size: Bytes::new(r.read_u64()?),
                access_value: r.read_f64()?,
                sub_value: r.read_f64()?,
                access_stamp: r.read_u64()?,
                sub_stamp: r.read_u64()?,
                freq: r.read_u32()?,
            };
            self.entries.try_insert(page, entry)?;
            let total = self.used.as_u64().checked_add(entry.size.as_u64());
            self.used = Bytes::new(total.ok_or(SnapshotError::Corrupt("resident bytes overflow"))?);
            self.push_heap(
                Module::Access,
                HeapItem {
                    value: entry.access_value,
                    stamp: entry.access_stamp,
                    page,
                },
            );
            self.push_heap(
                Module::Push,
                HeapItem {
                    value: entry.sub_value,
                    stamp: entry.sub_stamp,
                    page,
                },
            );
        }
        self.inflation = inflation;
        self.next_stamp = next_stamp;
        Ok(())
    }

    fn insert(&mut self, page: &PageRef, access_value: f64, sub_value: f64, freq: u32) {
        let access_stamp = self.stamp();
        let sub_stamp = self.stamp();
        self.entries.insert(
            page.page,
            Entry {
                size: page.size,
                access_value,
                sub_value,
                access_stamp,
                sub_stamp,
                freq,
            },
        );
        self.used += page.size;
        self.push_heap(
            Module::Access,
            HeapItem {
                value: access_value,
                stamp: access_stamp,
                page: page.page,
            },
        );
        self.push_heap(
            Module::Push,
            HeapItem {
                value: sub_value,
                stamp: sub_stamp,
                page: page.page,
            },
        );
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
        if self.entries.contains(page.page) {
            return PushOutcome::Stored;
        }
        if !self.would_store(page, subs) {
            return PushOutcome::Declined;
        }
        let v = Self::sub_value(page, subs);
        while self.free() < page.size {
            let (victim, entry) = self
                .pop_min(Module::Push)
                .expect("candidate check guarantees room");
            if O::ENABLED {
                self.obs
                    .evict(victim, entry.size, entry.sub_value, EvictReason::Push);
            }
            evicted.push(victim);
        }
        // A pushed page has no access history: its GD* value is just L
        // (f = 0), so the access module treats it as cold until requested.
        let (l, zero_weight) = (self.inflation, self.gd_weight(0, page));
        self.insert(page, l + zero_weight, v, 0);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Push);
        }
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        if self.entries.contains(page.page) {
            return true;
        }
        if page.size > self.capacity {
            return false;
        }
        let v = Self::sub_value(page, subs);
        self.free() + self.candidate_size_below(Module::Push, v) >= page.size
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        evicted.clear();
        if let Some(entry) = self.entries.get_mut(page.page) {
            entry.freq += 1;
            let freq = entry.freq;
            let stamp = {
                let s = self.next_stamp;
                self.next_stamp += 1;
                s
            };
            let v = self.inflation + self.gd_weight(freq, page);
            let entry = self.entries.get_mut(page.page).expect("present");
            entry.access_value = v;
            entry.access_stamp = stamp;
            self.push_heap(
                Module::Access,
                HeapItem {
                    value: v,
                    stamp,
                    page: page.page,
                },
            );
            return AccessOutcome::Hit;
        }
        // GD* replacement on miss: always admit (classic), evicting by
        // access value; inflation rises to the last victim's access value.
        if page.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        while self.free() < page.size {
            let (victim, entry) = self
                .pop_min(Module::Access)
                .expect("cache not empty while free < size <= capacity");
            self.inflation = entry.access_value;
            if O::ENABLED {
                self.obs
                    .evict(victim, entry.size, entry.access_value, EvictReason::Access);
            }
            evicted.push(victim);
        }
        let v = self.inflation + self.gd_weight(1, page);
        let sv = Self::sub_value(page, subs);
        self.insert(page, v, sv, 1);
        if O::ENABLED {
            self.obs.admit(page.page, page.size, v, AdmitOrigin::Access);
        }
        AccessOutcome::MissAdmitted
    }

    fn contains(&self, page: PageId) -> bool {
        self.entries.contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        match self.entries.remove(page) {
            Some(entry) => {
                self.used -= entry.size;
                if O::ENABLED {
                    self.obs.evict(
                        page,
                        entry.size,
                        entry.access_value,
                        EvictReason::Invalidate,
                    );
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
        self.used
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
            // Byte accounting equals the sum of resident entry sizes.
            let sum: Bytes = dm.entries.iter().map(|(_, e)| e.size).sum();
            assert_eq!(sum, dm.used(), "accounting drift at step {i}");
        }
        assert!(dm.len() > 0);
    }
}
