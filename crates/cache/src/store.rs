//! Byte-capacity cache store with value-ordered eviction.

use pscd_types::{count, Bytes, PageId};

use crate::index::{PageUniverse, PositionIndex};
use crate::keyheap::{HeapSlot, KeyHeap};
use crate::snapshot::{put_f64, put_u32, put_u64, SnapshotError, SnapshotReader};

/// One cached page with its current value under the owning policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredPage {
    /// The cached page.
    pub page: PageId,
    /// Bytes occupied.
    pub size: Bytes,
    /// Current value; eviction removes the smallest first.
    pub value: f64,
}

/// A capacity-limited page store whose entries carry a scalar *value*;
/// eviction always removes the least valuable page first (ties: least
/// recently (re)valued).
///
/// This is the substrate under every replacement policy in `pscd`: the
/// policy decides the values, the store tracks bytes and keeps the
/// min-value order in an eager handle-addressed heap, so updates are
/// `O(log n)` with no stale-entry churn and
/// [`peek_min`](CacheStore::peek_min) is a `&self` read. The heap slots
/// *are* the entries, so the live population sits in one compact array:
/// the push-time placement question,
/// [`candidates_cover`](CacheStore::candidates_cover), is a sweep of
/// that array that stops as soon as it has its answer, and
/// [`ascending`](CacheStore::ascending) walks it in eviction order
/// without popping.
///
/// The page → handle index is an open-addressing hash table, written
/// once when a page is inserted and once when it leaves; a handle
/// addresses a record of the page's heap position and reference count,
/// which the heap keeps current as slots move. A store built with
/// [`dense`](CacheStore::dense) over a [`PageUniverse`] reserves the
/// index, the slots and the records for the most pages its capacity can
/// hold at once, and so never allocates again; the index starts empty
/// and doubles inside its reservation as the store fills, so it is sized
/// by the pages the store holds, not by what it could hold.
///
/// # Examples
///
/// ```
/// use pscd_cache::CacheStore;
/// use pscd_types::{Bytes, PageId};
///
/// let mut store = CacheStore::new(Bytes::new(100));
/// store.insert(PageId::new(1), Bytes::new(60), 1.0);
/// store.insert(PageId::new(2), Bytes::new(40), 2.0);
/// assert!(store.free().is_zero());
/// let evicted = store.pop_min().unwrap();
/// assert_eq!(evicted.page, PageId::new(1));
/// assert_eq!(store.free(), Bytes::new(60));
/// ```
#[derive(Debug, Clone)]
pub struct CacheStore {
    capacity: Bytes,
    used: Bytes,
    positions: PositionIndex,
    heap: KeyHeap,
    next_stamp: u64,
    /// The most pages the capacity can hold (`usize::MAX` over an unsized
    /// universe): a snapshot with more slots is corrupt.
    bound: usize,
}

impl Default for CacheStore {
    fn default() -> Self {
        Self::new(Bytes::ZERO)
    }
}

impl CacheStore {
    /// Creates an empty store with the given byte capacity that
    /// preallocates nothing and grows as pages are inserted.
    pub fn new(capacity: Bytes) -> Self {
        Self::dense(capacity, &PageUniverse::default())
    }

    /// Creates an empty store with the given byte capacity over the pages
    /// of `universe`. Its index and heap are reserved, as address space,
    /// for the most pages of the universe the capacity can hold
    /// ([`resident_bound`](PageUniverse::resident_bound)), so no operation
    /// on those pages allocates; over the empty universe nothing is
    /// reserved and the store grows on write.
    pub fn dense(capacity: Bytes, universe: &PageUniverse) -> Self {
        let bound = universe.resident_bound(capacity);
        Self {
            capacity,
            used: Bytes::ZERO,
            positions: PositionIndex::reserved(bound, universe.page_count()),
            heap: KeyHeap::with_capacity(bound),
            next_stamp: 0,
            bound: if universe.page_count() == 0 {
                usize::MAX
            } else {
                bound
            },
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    #[inline]
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Remaining free bytes.
    #[inline]
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of cached pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of slots in the page index's table:
    /// `max(8, (2 * peak).next_power_of_two())` for the most pages held
    /// since the store was built or decoded into, none before the first.
    pub fn index_slots(&self) -> usize {
        self.positions.slot_count()
    }

    /// `true` if nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` if `page` is cached.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.positions.get(page).is_some()
    }

    /// The live heap slot of a cached page.
    #[inline]
    fn slot(&self, page: PageId) -> Option<&HeapSlot> {
        Some(self.heap.slot(self.positions.get(page)?))
    }

    /// The references counted to a cached page since it was cached.
    #[inline]
    pub fn refs(&self, page: PageId) -> Option<u32> {
        Some(self.heap.refs(self.positions.get(page)?))
    }

    /// The current value of a cached page.
    pub fn value(&self, page: PageId) -> Option<f64> {
        self.slot(page).map(|s| s.value)
    }

    /// The size of a cached page.
    pub fn size(&self, page: PageId) -> Option<Bytes> {
        self.slot(page).map(|s| s.size)
    }

    /// Inserts a page with an initial value and no references counted
    /// (see [`insert_with_refs`](Self::insert_with_refs)).
    pub fn insert(&mut self, page: PageId, size: Bytes, value: f64) {
        self.insert_with_refs(page, size, value, 0);
    }

    /// Inserts a page with an initial value and `refs` references already
    /// counted (1 when a request brings it in). Replaces (and re-sizes)
    /// the page if already present.
    ///
    /// The store intentionally allows transient over-capacity — policies
    /// make room *before* inserting — but panics in debug builds if the
    /// page alone exceeds capacity, which every policy must reject earlier.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn insert_with_refs(&mut self, page: PageId, size: Bytes, value: f64, refs: u32) {
        assert!(!value.is_nan(), "page value must not be NaN");
        debug_assert!(size <= self.capacity, "page larger than the whole cache");
        self.detach(page);
        self.make_room();
        let stamp = self.bump();
        let handle = self.heap.push(value, stamp, page, size, refs);
        self.positions.set(page, handle);
        self.used += size;
    }

    /// A reference to a cached page, in one visit to its slot: counts it,
    /// re-values the page at `value(count)` and re-stamps it. Returns
    /// `false`, touching nothing, if the page is absent.
    ///
    /// # Panics
    ///
    /// Panics if `value` returns NaN.
    pub fn hit(&mut self, page: PageId, value: impl FnOnce(u32) -> f64) -> bool {
        self.rekey(page, |refs| (value(refs + 1), refs + 1))
    }

    /// Updates the value of a cached page, leaving its reference count.
    /// Returns `false` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn update_value(&mut self, page: PageId, value: f64) -> bool {
        self.rekey(page, |refs| (value, refs))
    }

    /// Gives a cached page the value and reference count `rekey` makes of
    /// its present count, and a fresh stamp.
    fn rekey(&mut self, page: PageId, rekey: impl FnOnce(u32) -> (f64, u32)) -> bool {
        // Look up before bumping: a miss must not burn a stamp (stamps
        // order eviction ties, so phantom bumps would shift tie-breaks
        // between otherwise identical histories).
        let Some(handle) = self.positions.get(page) else {
            return false;
        };
        count!(Counter::Revalues, 1);
        let (value, refs) = rekey(self.heap.refs(handle));
        assert!(!value.is_nan(), "page value must not be NaN");
        let stamp = self.bump();
        self.heap.update(handle, value, stamp, refs);
        true
    }

    /// Removes a page, returning its record if present.
    pub fn remove(&mut self, page: PageId) -> Option<StoredPage> {
        self.detach(page).map(|slot| StoredPage {
            page,
            size: slot.size,
            value: slot.value,
        })
    }

    /// The least valuable page without removing it.
    pub fn peek_min(&self) -> Option<StoredPage> {
        self.heap.peek().map(|slot| StoredPage {
            page: slot.page,
            size: slot.size,
            value: slot.value,
        })
    }

    /// Removes and returns the least valuable page.
    pub fn pop_min(&mut self) -> Option<StoredPage> {
        let page = self.heap.peek()?.page;
        self.remove(page)
    }

    /// `true` if the cached pages whose value is strictly below `value` —
    /// the *candidate pages* of the paper's push-time placement (§3.2) —
    /// hold at least `need` bytes between them.
    ///
    /// `false` at once when even the least valuable page is no candidate;
    /// otherwise one sweep of the heap's compact slot array that stops at
    /// the first slot where the candidates seen so far cover `need`, with
    /// *no* auxiliary index to maintain on the insert/update/evict paths.
    /// Byte sizes sum in `u64`, so visit order cannot change the answer.
    pub fn candidates_cover(&self, value: f64, need: Bytes) -> bool {
        if need.is_zero() {
            return true;
        }
        if !self.heap.peek().is_some_and(|min| min.value < value) {
            return false;
        }
        let mut covered = 0u64;
        self.heap
            .slots()
            .iter()
            .filter(|slot| {
                count!(Counter::SlotsSwept, 1);
                slot.value < value
            })
            .any(|slot| {
                covered += slot.size.as_u64();
                covered >= need.as_u64()
            })
    }

    /// The cached pages in eviction order — least valuable first, ties
    /// to the oldest stamp — without popping any: each step yields the
    /// least valuable slot not yet yielded, so a caller that stops after
    /// `k` slots visits `O(k log k)` of the heap. `frontier` is the
    /// caller's scratch, cleared on entry; it holds at most one entry per
    /// cached page, so one reserved for the universe's
    /// [`resident_bound`](PageUniverse::resident_bound) never regrows.
    pub fn ascending<'a>(
        &'a self,
        frontier: &'a mut Vec<u32>,
    ) -> impl Iterator<Item = &'a HeapSlot> + 'a {
        self.heap.ascending(frontier)
    }

    /// Iterates over all cached pages (arbitrary order). Cost is
    /// proportional to the live population in both layouts.
    pub fn iter(&self) -> impl Iterator<Item = StoredPage> + '_ {
        self.heap.slots().iter().map(|slot| StoredPage {
            page: slot.page,
            size: slot.size,
            value: slot.value,
        })
    }

    /// The live slots in heap order, stamps included: a slot's stamp is
    /// the value [`next_stamp`](Self::next_stamp) had when the page was
    /// last inserted or re-valued. A page's reference count is not in its
    /// slot: [`refs`](Self::refs) reads it.
    #[inline]
    pub fn slots(&self) -> &[HeapSlot] {
        self.heap.slots()
    }

    /// The stamp the next insert or value update will carry. Every live
    /// slot is stamped below it.
    #[inline]
    pub fn next_stamp(&self) -> u64 {
        self.next_stamp
    }

    /// Serializes the complete mutable state — stamp counter plus every
    /// heap slot in heap order — for a snapshot. Capacity and universe are
    /// configuration, not state: they come from the owner at restore
    /// time. The dump is canonical (heap order is deterministic), so
    /// identical stores encode to identical bytes.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.next_stamp);
        put_u32(out, self.heap.len() as u32);
        for slot in self.heap.slots() {
            put_f64(out, slot.value);
            put_u64(out, slot.stamp);
            put_u32(out, slot.page.index());
            put_u64(out, slot.size.as_u64());
        }
    }

    /// Appends every live slot's reference count, in slot order: not part
    /// of [`encode_state`](Self::encode_state), because an owner that
    /// counts references writes them where its own layout has them.
    pub fn encode_refs(&self, out: &mut Vec<u8>) {
        for slot in self.heap.slots() {
            put_u32(out, self.heap.refs(slot.handle));
        }
    }

    /// Reads [`encode_refs`](Self::encode_refs)' counts back onto the
    /// slots a [`decode_state`](Self::decode_state) has restored.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] for a truncated buffer or a count out of range.
    pub fn decode_refs(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for at in 0..self.heap.len() {
            let handle = self.heap.slots()[at].handle;
            self.heap.set_refs(handle, r.read_count()?);
        }
        Ok(())
    }

    /// Restores state captured by [`encode_state`](Self::encode_state)
    /// into this store, replacing its current contents. The store keeps
    /// its own capacity and page universe (a page id outside it, or more
    /// slots than the capacity can hold, is corrupt, never a reason to
    /// grow) and its own storage; the snapshot's slots go back position
    /// for position, so the restored eviction order is bit-identical to
    /// the encoded one.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the buffer is truncated or the
    /// encoded population cannot be valid. On error the store's contents
    /// are unspecified (memory-safe, but partially restored) — discard it.
    pub fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let next_stamp = r.read_u64()?;
        // No run gets near it, and a counter read this high would
        // overflow on the operations that follow.
        if next_stamp > u64::MAX / 2 {
            return Err(SnapshotError::Corrupt("stamp counter out of range"));
        }
        let n = r.read_u32()? as usize;
        // Fixed 24-byte minimum per slot bounds n against garbage counts.
        if n > r.remaining() / 24 {
            return Err(SnapshotError::Corrupt("slot count exceeds snapshot size"));
        }
        if n > self.bound {
            return Err(SnapshotError::Corrupt("more slots than the capacity holds"));
        }
        // Empty the store's own tables and refill them: a store built over
        // a universe keeps the room it was built with, and its index
        // regrows for the decoded population alone.
        self.positions.clear();
        self.heap.clear();
        let mut used = 0u64;
        for pos in 0..n {
            let value = r.read_f64()?;
            let stamp = r.read_u64()?;
            let page = PageId::new(r.read_u32()?);
            let size = Bytes::new(r.read_u64()?);
            if value.is_nan() {
                return Err(SnapshotError::Corrupt("NaN page value"));
            }
            self.make_room();
            // Handles are issued in slot order, from 0: the one a slot
            // gets is its position.
            self.positions.try_insert(page, pos as u32)?;
            used = used
                .checked_add(size.as_u64())
                .ok_or(SnapshotError::Corrupt("resident bytes overflow"))?;
            let handle = self.heap.push_unordered(value, stamp, page, size);
            debug_assert_eq!(handle, pos as u32);
        }
        if used > self.capacity.as_u64() {
            return Err(SnapshotError::Corrupt("resident bytes exceed capacity"));
        }
        if !self.heap.in_heap_order() {
            return Err(SnapshotError::Corrupt("slots are not in heap order"));
        }
        self.used = Bytes::new(used);
        self.next_stamp = next_stamp;
        Ok(())
    }

    /// Unlinks a live entry from both structures, returning its slot.
    fn detach(&mut self, page: PageId) -> Option<HeapSlot> {
        let slot = self.heap.remove(self.positions.remove(page)?);
        self.used -= slot.size;
        Some(slot)
    }

    /// Regrows a full index from the heap's slots before it takes a new
    /// page.
    #[inline]
    fn make_room(&mut self) {
        if self.positions.is_full() {
            let slots = self.heap.slots().iter();
            self.positions
                .regrow(slots.map(|slot| (slot.page, slot.handle)));
        }
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u32) -> PageId {
        PageId::new(i)
    }

    /// A universe of `n` one-byte pages: a store over it with capacity
    /// `c` is reserved for `min(n, c)` pages.
    fn units(n: usize) -> PageUniverse {
        PageUniverse::new(vec![Bytes::new(1); n])
    }

    /// Every store test runs against a growing and a preallocated store.
    fn both(capacity: u64) -> [CacheStore; 2] {
        [
            CacheStore::new(Bytes::new(capacity)),
            CacheStore::dense(Bytes::new(capacity), &units(64)),
        ]
    }

    #[test]
    fn insert_and_accounting() {
        for mut s in both(100) {
            assert!(s.is_empty());
            s.insert(page(1), Bytes::new(30), 1.0);
            s.insert(page(2), Bytes::new(20), 2.0);
            assert_eq!(s.len(), 2);
            assert_eq!(s.used(), Bytes::new(50));
            assert_eq!(s.free(), Bytes::new(50));
            assert!(s.contains(page(1)));
            assert_eq!(s.value(page(1)), Some(1.0));
            assert_eq!(s.size(page(2)), Some(Bytes::new(20)));
            assert_eq!(s.value(page(9)), None);
        }
    }

    #[test]
    fn reinsert_replaces() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(30), 1.0);
            s.insert(page(1), Bytes::new(50), 9.0);
            assert_eq!(s.len(), 1);
            assert_eq!(s.used(), Bytes::new(50));
            assert_eq!(s.value(page(1)), Some(9.0));
        }
    }

    #[test]
    fn pop_min_orders_by_value() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(10), 3.0);
            s.insert(page(2), Bytes::new(10), 1.0);
            s.insert(page(3), Bytes::new(10), 2.0);
            assert_eq!(s.pop_min().unwrap().page, page(2));
            assert_eq!(s.pop_min().unwrap().page, page(3));
            assert_eq!(s.pop_min().unwrap().page, page(1));
            assert!(s.pop_min().is_none());
            assert!(s.used().is_zero());
        }
    }

    #[test]
    fn equal_values_pop_oldest_first() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(10), 1.0);
            s.insert(page(2), Bytes::new(10), 1.0);
            assert_eq!(s.pop_min().unwrap().page, page(1));
        }
        // Re-valuing refreshes recency: page 3 older stamp than re-valued 2.
        for mut s in both(100) {
            s.insert(page(2), Bytes::new(10), 1.0);
            s.insert(page(3), Bytes::new(10), 1.0);
            s.update_value(page(2), 1.0);
            assert_eq!(s.pop_min().unwrap().page, page(3));
        }
    }

    #[test]
    fn update_value_reorders() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(10), 1.0);
            s.insert(page(2), Bytes::new(10), 2.0);
            assert!(s.update_value(page(1), 5.0));
            assert_eq!(s.peek_min().unwrap().page, page(2));
            assert_eq!(s.pop_min().unwrap().page, page(2));
            assert!(!s.update_value(page(9), 1.0));
        }
    }

    #[test]
    fn remove_then_pop_skips_removed() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(10), 1.0);
            s.insert(page(2), Bytes::new(10), 2.0);
            assert_eq!(s.remove(page(1)).unwrap().size, Bytes::new(10));
            assert_eq!(s.pop_min().unwrap().page, page(2));
            assert!(s.remove(page(1)).is_none());
        }
    }

    #[test]
    fn candidates_count_strictly() {
        for mut s in both(100) {
            assert!(s.candidates_cover(1.0, Bytes::ZERO), "nothing is needed");
            assert!(!s.candidates_cover(1.0, Bytes::new(1)), "an empty store");
            s.insert(page(1), Bytes::new(10), 1.0);
            s.insert(page(2), Bytes::new(20), 2.0);
            s.insert(page(3), Bytes::new(30), 3.0);
            assert!(s.candidates_cover(3.0, Bytes::new(30)));
            assert!(!s.candidates_cover(3.0, Bytes::new(31)));
            assert!(s.candidates_cover(3.1, Bytes::new(60)));
            assert!(!s.candidates_cover(3.1, Bytes::new(61)));
            assert!(!s.candidates_cover(1.0, Bytes::new(1)));
            assert!(s.candidates_cover(1.0, Bytes::ZERO));
        }
    }

    #[test]
    fn iter_sees_all() {
        for mut s in both(100) {
            s.insert(page(1), Bytes::new(10), 1.0);
            s.insert(page(2), Bytes::new(20), 2.0);
            let mut pages: Vec<u32> = s.iter().map(|p| p.page.index()).collect();
            pages.sort_unstable();
            assert_eq!(pages, [1, 2]);
        }
    }

    #[test]
    fn many_updates_stay_consistent() {
        for mut s in both(1_000) {
            for i in 0..50 {
                s.insert(page(i), Bytes::new(10), i as f64);
            }
            for i in 0..50 {
                s.update_value(page(i), (50 - i) as f64);
            }
            // Min should now be the page with value 1 (i = 49).
            assert_eq!(s.peek_min().unwrap().page, page(49));
            assert_eq!(s.len(), 50);
            assert_eq!(s.used(), Bytes::new(500));
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_values_rejected() {
        let mut s = CacheStore::new(Bytes::new(100));
        s.insert(page(1), Bytes::new(10), f64::NAN);
    }

    #[test]
    fn dense_rejects_out_of_universe_inserts() {
        // A decoded page id never grows the position table: one past the
        // universe is corrupt, whether 4 pages were preallocated or none.
        let mut donor = CacheStore::dense(Bytes::new(100), &units(8));
        donor.insert(page(4), Bytes::new(10), 1.0);
        let mut bytes = Vec::new();
        donor.encode_state(&mut bytes);
        for mut s in [
            CacheStore::dense(Bytes::new(100), &units(4)),
            CacheStore::new(Bytes::new(100)),
        ] {
            let err = s.decode_state(&mut SnapshotReader::new(&bytes));
            assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
        }
        let mut s = CacheStore::dense(Bytes::new(100), &units(5));
        s.decode_state(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(s.value(page(4)), Some(1.0));
    }

    #[test]
    fn a_decoded_store_keeps_the_room_it_was_built_with() {
        // Regression: decode adopted a slot array sized to the snapshot's
        // population, so a restored `dense` store reallocated on its next
        // insert past that population.
        let mut donor = CacheStore::dense(Bytes::new(100), &units(64));
        donor.insert(page(4), Bytes::new(10), 1.0);
        donor.insert(page(9), Bytes::new(10), 2.0);
        let mut bytes = Vec::new();
        donor.encode_state(&mut bytes);
        let mut s = CacheStore::dense(Bytes::new(100), &units(64));
        let built = s.heap.storage();
        assert!(built.iter().all(|&(_, capacity)| capacity >= 64));
        let index = s.positions.storage();
        s.insert(page(1), Bytes::new(10), 1.0);
        s.decode_state(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(s.heap.storage(), built);
        assert_eq!(s.positions.storage(), index);
        // What the store held before is gone, index entry included.
        assert!(!s.contains(page(1)));
        assert_eq!((s.len(), s.used()), (2, Bytes::new(20)));
        let mut again = Vec::new();
        s.encode_state(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn the_root_position_is_not_mistaken_for_absence() {
        // The index holds position + 1 and 0 for "not cached": the one
        // resident of a one-page store sits at position 0.
        for mut s in [
            CacheStore::dense(Bytes::new(10), &units(1)),
            CacheStore::new(Bytes::new(10)),
        ] {
            assert!(!s.contains(page(0)));
            s.insert(page(0), Bytes::new(10), 1.0);
            assert!(s.contains(page(0)));
            assert_eq!(s.value(page(0)), Some(1.0));
            assert!(s.update_value(page(0), 2.0));
            let mut bytes = Vec::new();
            s.encode_state(&mut bytes);
            s.decode_state(&mut SnapshotReader::new(&bytes)).unwrap();
            assert_eq!(s.value(page(0)), Some(2.0));
            assert_eq!(s.remove(page(0)).map(|p| p.page), Some(page(0)));
            assert!(!s.contains(page(0)) && s.is_empty());
        }
    }

    #[test]
    fn decode_rejects_resident_bytes_above_capacity() {
        let mut donor = CacheStore::dense(Bytes::new(100), &units(8));
        donor.insert(page(1), Bytes::new(60), 1.0);
        donor.insert(page(2), Bytes::new(40), 2.0);
        let mut bytes = Vec::new();
        donor.encode_state(&mut bytes);
        let mut exact = CacheStore::dense(Bytes::new(100), &units(8));
        exact
            .decode_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(exact.used(), Bytes::new(100));
        let err = CacheStore::dense(Bytes::new(99), &units(8))
            .decode_state(&mut SnapshotReader::new(&bytes));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn decode_rejects_a_stamp_counter_about_to_overflow() {
        let mut bytes = Vec::new();
        CacheStore::dense(Bytes::new(100), &units(8)).encode_state(&mut bytes);
        // The counter is the blob's first word.
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = CacheStore::dense(Bytes::new(100), &units(8))
            .decode_state(&mut SnapshotReader::new(&bytes));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn missed_update_burns_no_stamp() {
        // Regression: update_value on an absent page used to bump the
        // stamp counter, silently shifting later eviction tie-breaks.
        for [mut s, mut clean] in [both(100), both(100)] {
            s.insert(page(1), Bytes::new(10), 1.0);
            assert!(!s.update_value(page(9), 5.0));
            // If the miss had burned a stamp, page 2 would now carry stamp 2
            // and the tie-break below would be unaffected — so instead compare
            // against a store that never saw the miss.
            s.insert(page(2), Bytes::new(10), 1.0);
            clean.insert(page(1), Bytes::new(10), 1.0);
            clean.insert(page(2), Bytes::new(10), 1.0);
            assert_eq!(s.pop_min().unwrap().page, clean.pop_min().unwrap().page);
            assert_eq!(s.pop_min().unwrap().page, clean.pop_min().unwrap().page);
        }
    }

    #[test]
    fn candidates_cover_matches_a_full_scan_under_churn() {
        // The early-exit query must answer what the full sum would, at a
        // need of nothing, one byte, exactly the candidates' bytes and one
        // byte more, across inserts, re-inserts, updates and evictions.
        let scan = |s: &CacheStore, v: f64| -> u64 {
            s.iter()
                .filter(|p| p.value < v)
                .map(|p| p.size.as_u64())
                .sum()
        };
        for mut s in both(10_000) {
            let mut rng = xorshift(0x9e37_79b9);
            for step in 0..1_500u64 {
                match rng() % 4 {
                    0 | 1 => {
                        let p = page((rng() % 60) as u32);
                        let size = Bytes::new(rng() % 50 + 1);
                        let value = ((rng() % 24) as f64) / 8.0;
                        s.insert(p, size, value);
                    }
                    2 => {
                        let p = page((rng() % 60) as u32);
                        let value = ((rng() % 24) as f64) / 8.0;
                        s.update_value(p, value);
                    }
                    _ => {
                        s.pop_min();
                    }
                }
                let q = ((rng() % 32) as f64) / 8.0;
                let exact = scan(&s, q);
                for need in [0, 1, exact, exact + 1] {
                    assert_eq!(
                        s.candidates_cover(q, Bytes::new(need)),
                        exact >= need,
                        "step {step}, need {need}"
                    );
                }
            }
            let used = s.used();
            assert!(
                s.candidates_cover(f64::INFINITY, used),
                "everything is below +inf"
            );
            assert!(!s.candidates_cover(f64::INFINITY, used + Bytes::new(1)));
        }
    }

    /// Where the store's index and heap live: unchanged across any run of
    /// operations that did not reallocate them.
    fn storage(s: &mut CacheStore) -> [(usize, usize); 3] {
        let [slots, records] = s.heap.storage();
        [s.positions.storage(), slots, records]
    }

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A universe of `n` pages sized 1 to 97 bytes, and those sizes.
    fn mixed(n: u32) -> (PageUniverse, Vec<Bytes>) {
        let sizes: Vec<Bytes> = (0..n)
            .map(|i| Bytes::new(1 + (i as u64 * 37) % 97))
            .collect();
        (PageUniverse::new(sizes.iter().copied()), sizes)
    }

    #[test]
    fn the_resident_bound_is_exact() {
        // Filled with the k smallest pages, a store holds all k; the next
        // smallest forces an eviction, so no capacity holds k + 1.
        let (universe, sizes) = mixed(300);
        let mut by_size: Vec<u32> = (0..300).collect();
        by_size.sort_by_key(|&i| (sizes[i as usize], i));
        for capacity in [1u64, 50, 97, 500, 2_000, 9_999] {
            let capacity = Bytes::new(capacity);
            let k = universe.resident_bound(capacity);
            let mut engine = crate::GreedyDualEngine::with_observer(
                capacity,
                &universe,
                pscd_obs::ObsHandle::<pscd_obs::NullObserver>::disabled(),
            );
            let mut evicted = Vec::new();
            let page_ref = |i: u32| crate::PageRef::new(page(i), sizes[i as usize], 1.0);
            for &i in &by_size[..k] {
                engine.access(&page_ref(i), |_, l| l + 1.0, &mut evicted);
                assert!(
                    evicted.is_empty(),
                    "capacity {capacity:?}: page {i} evicted"
                );
            }
            assert_eq!(engine.store().len(), k, "capacity {capacity:?}");
            let next = by_size[k];
            engine.access(&page_ref(next), |_, l| l + 1.0, &mut evicted);
            assert!(
                !evicted.is_empty() || sizes[next as usize] > capacity,
                "capacity {capacity:?} held {} pages",
                k + 1
            );
        }
    }

    #[test]
    fn churn_within_capacity_never_reallocates_and_agrees_with_a_map() {
        use std::collections::HashMap;

        let (universe, sizes) = mixed(400);
        let mut rng = xorshift(0x2545_f491_4f6c_dd1d);
        for capacity in [97u64, 1_000, 6_000] {
            let mut s = CacheStore::dense(Bytes::new(capacity), &universe);
            let built = storage(&mut s);
            let mut model: HashMap<u32, (Bytes, f64)> = HashMap::new();
            for step in 0..20_000 {
                let p = (rng() % 400) as u32;
                let value = (rng() % 64) as f64 / 4.0;
                match rng() % 5 {
                    0 | 1 => {
                        // An insert that makes room first, as every
                        // policy does.
                        let size = sizes[p as usize];
                        if size <= s.capacity() {
                            model.remove(&p);
                            s.remove(page(p));
                            while s.free() < size {
                                let victim = s.pop_min().unwrap();
                                model.remove(&victim.page.index());
                            }
                            s.insert(page(p), size, value);
                            model.insert(p, (size, value));
                        }
                    }
                    2 => {
                        let hit = s.hit(page(p), |_| value);
                        assert_eq!(hit, model.contains_key(&p));
                        if let Some(entry) = model.get_mut(&p) {
                            entry.1 = value;
                        }
                    }
                    3 => {
                        let gone = s.remove(page(p)).map(|r| (r.size, r.value));
                        assert_eq!(gone, model.remove(&p));
                    }
                    _ => {
                        if let Some(min) = s.pop_min() {
                            assert!(model.remove(&min.page.index()).is_some());
                        }
                    }
                }
                assert_eq!(storage(&mut s), built, "capacity {capacity}, step {step}");
                assert_eq!(s.len(), model.len());
                let probe = (rng() % 400) as u32;
                let got = s.size(page(probe)).zip(s.value(page(probe)));
                assert_eq!(got, model.get(&probe).copied(), "page {probe}");
            }
            for p in 0..400 {
                let got = s.size(page(p)).zip(s.value(page(p)));
                assert_eq!(got, model.get(&p).copied(), "page {p}");
            }
        }
    }

    #[test]
    fn the_index_is_sized_by_the_pages_held_not_by_the_bound() {
        use std::collections::BTreeMap;

        // A million one-byte pages and room for all of them: the bound is
        // the universe, the population a few hundred at most.
        let mut s = CacheStore::dense(Bytes::new(1_000_000), &units(1_000_000));
        let built = storage(&mut s);
        assert_eq!(built[0].1, 1 << 21, "the index reserves the bound");
        assert_eq!(s.index_slots(), 0, "nothing written before a page");
        let mut rng = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        let mut peak = 0;
        for (phase, limit) in [40usize, 600, 12, 300, 1].into_iter().enumerate() {
            for step in 0..6_000 {
                let p = (rng() % 1_000_000) as u32;
                let value = (rng() % 64) as f64;
                match rng() % 4 {
                    0 | 1 => {
                        while s.len() >= limit {
                            let victim = s.pop_min().unwrap();
                            assert!(model.remove(&victim.page.index()).is_some());
                        }
                        s.insert(page(p), Bytes::new(1), value);
                        model.insert(p, value);
                    }
                    2 => {
                        // A cached page if there is one: the first at or
                        // after `p`.
                        let old = model.range(p..).next().map_or(p, |(&old, _)| old);
                        assert_eq!(s.hit(page(old), |_| value), model.contains_key(&old));
                        model.entry(old).and_modify(|v| *v = value);
                    }
                    _ => {
                        let old = model.range(p..).next().map_or(p, |(&old, _)| old);
                        let gone = s.remove(page(old)).map(|r| r.value);
                        assert_eq!(gone, model.remove(&old));
                    }
                }
                peak = peak.max(s.len());
                let slots = s.index_slots();
                assert!(
                    slots <= (2 * peak).next_power_of_two().max(8) && 2 * s.len() <= slots,
                    "phase {phase}, step {step}: {slots} slots for {} pages (peak {peak})",
                    s.len()
                );
                assert_eq!(storage(&mut s), built, "phase {phase}, step {step}");
            }
            assert_eq!(s.len(), model.len());
            for (&p, &value) in &model {
                assert_eq!(s.value(page(p)), Some(value), "page {p}");
            }
        }
        assert_eq!(s.index_slots(), 2_048, "600 pages at the peak");
    }

    #[test]
    fn decode_sizes_the_index_for_the_decoded_count_and_keeps_the_storage() {
        let blob = |pages: u32| {
            let mut donor = CacheStore::new(Bytes::new(u64::MAX));
            for p in 0..pages {
                donor.insert(page(p * 3), Bytes::new(1), p as f64);
            }
            let mut out = Vec::new();
            donor.encode_state(&mut out);
            out
        };
        let (hundred, none) = (blob(100), blob(0));
        let mut fresh = CacheStore::dense(Bytes::new(5_000), &units(10_000));
        let mut used = CacheStore::dense(Bytes::new(5_000), &units(10_000));
        for p in 0..3_000 {
            used.insert(page(p), Bytes::new(1), 1.0);
        }
        assert_eq!(used.index_slots(), 8_192);
        for s in [&mut fresh, &mut used] {
            let built = storage(s);
            s.decode_state(&mut SnapshotReader::new(&hundred)).unwrap();
            assert_eq!((s.len(), s.index_slots()), (100, 256));
            assert_eq!(storage(s), built);
            let mut again = Vec::new();
            s.encode_state(&mut again);
            assert_eq!(again, hundred);
            s.decode_state(&mut SnapshotReader::new(&none)).unwrap();
            assert_eq!((s.len(), s.index_slots()), (0, 0));
            s.insert(page(7), Bytes::new(1), 1.0);
            assert_eq!((s.value(page(7)), s.index_slots()), (Some(1.0), 8));
            assert_eq!(storage(s), built);
        }
    }

    #[test]
    fn a_corrupt_blob_is_refused_without_touching_the_storage() {
        let (universe, sizes) = mixed(64);
        let capacity = Bytes::new(200);
        let k = universe.resident_bound(capacity);
        let mut by_size: Vec<u32> = (0..64).collect();
        by_size.sort_by_key(|&i| (sizes[i as usize], i));
        let blob = |pages: &[u32]| {
            let mut donor = CacheStore::new(Bytes::new(u64::MAX));
            for (v, &i) in pages.iter().enumerate() {
                donor.insert(page(i), sizes[i as usize], v as f64);
            }
            let mut out = Vec::new();
            donor.encode_state(&mut out);
            out
        };
        let valid = blob(&by_size[..k]);
        let one_too_many = blob(&by_size[..k + 1]);
        let mut outside = blob(&by_size[..2]);
        let mut twice = outside.clone();
        // Header (stamp u64, count u32), then per slot value, stamp, page.
        let page_word = |slot: usize| 12 + slot * 28 + 16;
        outside[page_word(1)..page_word(1) + 4].copy_from_slice(&64u32.to_le_bytes());
        let first = twice[page_word(0)..page_word(0) + 4].to_vec();
        twice[page_word(1)..page_word(1) + 4].copy_from_slice(&first);

        let mut s = CacheStore::dense(capacity, &universe);
        s.decode_state(&mut SnapshotReader::new(&valid)).unwrap();
        assert_eq!(s.len(), k);
        let built = storage(&mut s);
        let err = s.decode_state(&mut SnapshotReader::new(&one_too_many));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
        assert_eq!(s.len(), k, "refused before anything was touched");
        assert_eq!(storage(&mut s), built);
        for bad in [outside, twice] {
            let err = s.decode_state(&mut SnapshotReader::new(&bad));
            assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
            assert_eq!(storage(&mut s), built);
        }
    }
}
