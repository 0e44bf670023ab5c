//! An eager, handle-addressed min-heap over `(value, stamp, page)` keys
//! — the only eviction order in the workspace.
//!
//! [`KeyHeap`] holds exactly the live entries. Each entry gets a stable
//! *handle* when it is pushed and gives it back when it is removed; a
//! per-handle record holds the entry's heap position and its reference
//! count. A sift moves a hole rather than swapping, and writes each
//! moved slot's new position straight into that slot's record, so an
//! owner that maps pages to handles
//! ([`CacheStore`](crate::CacheStore)'s index) writes its map once per
//! insert and once per removal, never inside a sift. That makes `peek` a
//! `&self` read, `remove`/`update` `O(log n)` without tombstones, and the
//! heap's footprint proportional to the cache's live population — the
//! properties the allocation-free replay loop is built on.
//!
//! The comparator: smallest value first, ties broken by smallest stamp
//! (oldest (re)valuation), then smallest page id. Stamps are unique
//! within one owner, so the pop sequence is a total order — it depends
//! on the keys alone, never on the order operations reached the heap,
//! nor on which handles the entries hold.

use std::cmp::Ordering;

use pscd_types::{count, Bytes, PageId};

/// One live heap element: the eviction key plus the page it belongs to,
/// its size and its handle. The slot is all a peek, a comparison or an
/// eviction reads: 32 bytes, but only 8-aligned in a `Vec`, so up to
/// half the slots straddle two cache lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapSlot {
    /// Current policy value; eviction pops the smallest first.
    pub value: f64,
    /// Monotone (re)valuation stamp; ties pop oldest first.
    pub stamp: u64,
    /// The page this key belongs to.
    pub page: PageId,
    /// Bytes the page occupies (payload — never compared).
    pub size: Bytes,
    /// The entry's record: its position and reference count (never
    /// compared).
    pub(crate) handle: u32,
}

impl HeapSlot {
    /// `true` if `self` pops before `other`.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        // NaN values are rejected upstream, so the Equal fallback is moot.
        match self
            .value
            .partial_cmp(&other.value)
            .unwrap_or(Ordering::Equal)
        {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => (self.stamp, self.page) < (other.stamp, other.page),
        }
    }
}

/// What a handle addresses: the entry's heap position and the references
/// counted to its page since it was cached (In-Cache LFU; whoever owns
/// the store decides what counts). A free record's `pos` links to the
/// next free handle instead.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    pos: u32,
    refs: u32,
}

/// No handle: the end of the free list.
const NONE: u32 = u32::MAX;

/// A handle-addressed binary min-heap (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct KeyHeap {
    slots: Vec<HeapSlot>,
    /// One record per handle ever issued and not reclaimed by a
    /// [`clear`](Self::clear): as many as the most entries held at once.
    records: Vec<Record>,
    /// The most recently freed handle, or [`NONE`].
    free: u32,
}

impl KeyHeap {
    /// An empty heap with room for `n` entries before reallocating.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            records: Vec::with_capacity(n),
            free: NONE,
        }
    }

    /// Number of live slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the heap holds nothing.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The live slots in heap order (position `i`'s children sit at
    /// `2i + 1` and `2i + 2`).
    #[inline]
    pub(crate) fn slots(&self) -> &[HeapSlot] {
        &self.slots
    }

    /// The live slot a handle addresses.
    #[inline]
    pub(crate) fn slot(&self, handle: u32) -> &HeapSlot {
        &self.slots[self.records[handle as usize].pos as usize]
    }

    /// The reference count a handle's record holds.
    #[inline]
    pub(crate) fn refs(&self, handle: u32) -> u32 {
        self.records[handle as usize].refs
    }

    /// Sets the reference count a handle's record holds.
    #[inline]
    pub(crate) fn set_refs(&mut self, handle: u32, refs: u32) {
        self.records[handle as usize].refs = refs;
    }

    /// The storage's addresses and capacities: unchanged across any run of
    /// operations that did not reallocate it.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> [(usize, usize); 2] {
        [
            (self.slots.as_ptr() as usize, self.slots.capacity()),
            (self.records.as_ptr() as usize, self.records.capacity()),
        ]
    }

    /// Drops every entry and reclaims every handle, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.records.clear();
        self.free = NONE;
    }

    /// Appends a slot at the next position without ordering it, for a
    /// restore: a dump of a valid heap put back position for position
    /// reproduces its ordering bit for bit, which
    /// [`in_heap_order`](Self::in_heap_order) checks afterwards. Returns
    /// the slot's handle.
    pub(crate) fn push_unordered(
        &mut self,
        value: f64,
        stamp: u64,
        page: PageId,
        size: Bytes,
    ) -> u32 {
        let handle = self.issue(self.slots.len() as u32, 0);
        self.slots.push(HeapSlot {
            value,
            stamp,
            page,
            size,
            handle,
        });
        handle
    }

    /// `false` if some slot pops before its parent (the bytes the slots
    /// were read from were corrupt).
    pub(crate) fn in_heap_order(&self) -> bool {
        (1..self.slots.len()).all(|i| !self.slots[i].before(&self.slots[(i - 1) / 2]))
    }

    /// The minimum slot, without mutating anything.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&HeapSlot> {
        self.slots.first()
    }

    /// Inserts an entry with `refs` references counted, returning its
    /// handle.
    pub(crate) fn push(
        &mut self,
        value: f64,
        stamp: u64,
        page: PageId,
        size: Bytes,
        refs: u32,
    ) -> u32 {
        let handle = self.issue(0, refs);
        self.slots.push(HeapSlot {
            value,
            stamp,
            page,
            size,
            handle,
        });
        self.sift_up(self.slots.len() - 1);
        handle
    }

    /// Removes the entry a handle addresses and reclaims the handle.
    ///
    /// # Panics
    ///
    /// Panics if `handle` addresses no live entry.
    pub(crate) fn remove(&mut self, handle: u32) -> HeapSlot {
        let i = self.records[handle as usize].pos as usize;
        let removed = self.slots.swap_remove(i);
        debug_assert_eq!(removed.handle, handle, "a stale handle");
        self.records[handle as usize].pos = self.free;
        self.free = handle;
        if i < self.slots.len() {
            // The former tail landed mid-heap; it may belong either way.
            self.resift(i);
        }
        removed
    }

    /// Re-keys the entry a handle addresses, sets its reference count
    /// and restores heap order.
    ///
    /// # Panics
    ///
    /// Panics if `handle` addresses no live entry.
    pub(crate) fn update(&mut self, handle: u32, value: f64, stamp: u64, refs: u32) {
        let record = &mut self.records[handle as usize];
        record.refs = refs;
        let i = record.pos as usize;
        let slot = &mut self.slots[i];
        (slot.value, slot.stamp) = (value, stamp);
        self.resift(i);
    }

    /// The live slots in pop order, without popping: a frontier of
    /// positions — the children of every slot yielded so far that have
    /// not been yielded themselves — ordered by the heap's own
    /// comparator. `frontier` is the caller's scratch; it holds at most
    /// one position per live slot.
    pub(crate) fn ascending<'a>(
        &'a self,
        frontier: &'a mut Vec<u32>,
    ) -> impl Iterator<Item = &'a HeapSlot> + 'a {
        frontier.clear();
        if !self.slots.is_empty() {
            frontier.push(0);
        }
        let slots = &self.slots[..];
        let before = move |a: u32, b: u32| slots[a as usize].before(&slots[b as usize]);
        std::iter::from_fn(move || {
            let top = *frontier.first()?;
            count!(Counter::HeapNodesWalked, 1);
            // The first child takes the top's place, the second joins.
            let left = 2 * top + 1;
            if (left as usize) < slots.len() {
                frontier[0] = left;
            } else {
                frontier.swap_remove(0);
            }
            sift_down(frontier, 0, before);
            if ((left + 1) as usize) < slots.len() {
                frontier.push(left + 1);
                let last = frontier.len() - 1;
                sift_up(frontier, last, before);
            }
            Some(&slots[top as usize])
        })
    }

    /// A handle for an entry at `pos` with `refs` references: the most
    /// recently freed one, or a new record.
    fn issue(&mut self, pos: u32, refs: u32) -> u32 {
        let record = Record { pos, refs };
        if self.free == NONE {
            self.records.push(record);
            (self.records.len() - 1) as u32
        } else {
            let handle = self.free;
            let slot = &mut self.records[handle as usize];
            self.free = slot.pos;
            *slot = record;
            handle
        }
    }

    /// Writes `slot` at position `i` and into its record.
    #[inline]
    fn place(&mut self, i: usize, slot: HeapSlot) {
        self.records[slot.handle as usize].pos = i as u32;
        self.slots[i] = slot;
    }

    /// Moves `slots[i]` whichever way it belongs.
    #[inline]
    fn resift(&mut self, i: usize) {
        if i > 0 && self.slots[i].before(&self.slots[(i - 1) / 2]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Moves `slots[i]` up to its place: every parent it passes moves
    /// down into the hole, and each moved slot's record learns its new
    /// position.
    fn sift_up(&mut self, mut i: usize) {
        let slot = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !slot.before(&self.slots[parent]) {
                break;
            }
            count!(Counter::SiftMoves, 1);
            self.place(i, self.slots[parent]);
            i = parent;
        }
        self.place(i, slot);
    }

    /// Moves `slots[i]` down to its place: the smaller child that pops
    /// before it moves up into the hole, and each moved slot's record
    /// learns its new position.
    fn sift_down(&mut self, mut i: usize) {
        let slot = self.slots[i];
        let n = self.slots.len();
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut min = &slot;
            let mut at = i;
            if left < n && self.slots[left].before(min) {
                (min, at) = (&self.slots[left], left);
            }
            if right < n && self.slots[right].before(min) {
                at = right;
            }
            if at == i {
                break;
            }
            count!(Counter::SiftMoves, 1);
            self.place(i, self.slots[at]);
            i = at;
        }
        self.place(i, slot);
    }
}

/// Moves `heap[i]` up a binary min-heap of positions ordered by `before`.
fn sift_up(heap: &mut [u32], mut i: usize, before: impl Fn(u32, u32) -> bool) {
    let item = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !before(item, heap[parent]) {
            break;
        }
        count!(Counter::SiftMoves, 1);
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

/// Moves `heap[i]` down a binary min-heap of positions ordered by
/// `before`.
fn sift_down(heap: &mut [u32], mut i: usize, before: impl Fn(u32, u32) -> bool) {
    let Some(&item) = heap.get(i) else {
        return;
    };
    loop {
        let left = 2 * i + 1;
        let right = left + 1;
        let mut at = i;
        let mut min = item;
        if left < heap.len() && before(heap[left], min) {
            (at, min) = (left, heap[left]);
        }
        if right < heap.len() && before(heap[right], min) {
            at = right;
        }
        if at == i {
            break;
        }
        count!(Counter::SiftMoves, 1);
        heap[i] = heap[at];
        i = at;
    }
    heap[i] = item;
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn page(i: u32) -> PageId {
        PageId::new(i)
    }

    /// A payload count: any count must leave every order alone.
    fn refs_of(stamp: u64) -> u32 {
        (stamp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as u32
    }

    /// A reference harness: a `KeyHeap` plus a page → handle map, checked
    /// for consistency after every operation.
    struct Tracked {
        heap: KeyHeap,
        handles: HashMap<PageId, u32>,
        frontier: Vec<u32>,
    }

    impl Default for Tracked {
        fn default() -> Self {
            Self {
                heap: KeyHeap::with_capacity(0),
                handles: HashMap::new(),
                frontier: Vec::new(),
            }
        }
    }

    impl Tracked {
        fn push(&mut self, value: f64, stamp: u64, p: PageId) {
            let handle = self
                .heap
                .push(value, stamp, p, Bytes::new(1), refs_of(stamp));
            self.handles.insert(p, handle);
            self.check();
        }

        fn pop(&mut self) -> Option<HeapSlot> {
            let page = self.heap.peek()?.page;
            Some(self.remove(page))
        }

        fn remove(&mut self, p: PageId) -> HeapSlot {
            let out = self.heap.remove(self.handles.remove(&p).unwrap());
            assert_eq!(out.page, p);
            self.check();
            out
        }

        fn update(&mut self, p: PageId, value: f64, stamp: u64) {
            self.heap
                .update(self.handles[&p], value, stamp, refs_of(stamp));
            self.check();
        }

        fn check(&mut self) {
            let heap = &self.heap;
            assert_eq!(self.handles.len(), heap.len(), "handle map drift");
            for (&p, &h) in &self.handles {
                let slot = heap.slot(h);
                assert_eq!((slot.page, slot.handle), (p, h), "stale position");
                assert_eq!(heap.refs(h), refs_of(slot.stamp), "count moved");
            }
            assert!(heap.in_heap_order());
            // The walk yields every slot once, in pop order.
            let walked: Vec<HeapSlot> = heap.ascending(&mut self.frontier).copied().collect();
            assert_eq!(walked.len(), heap.len());
            assert!(
                walked.windows(2).all(|w| w[0].before(&w[1])),
                "walk out of order"
            );
        }
    }

    #[test]
    fn a_slot_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<HeapSlot>(), 32);
    }

    #[test]
    fn pops_in_value_then_stamp_then_page_order() {
        let mut t = Tracked::default();
        t.push(2.0, 0, page(1));
        t.push(1.0, 1, page(2));
        t.push(1.0, 2, page(3));
        t.push(3.0, 3, page(4));
        let order: Vec<u32> = std::iter::from_fn(|| t.pop())
            .map(|s| s.page.index())
            .collect();
        assert_eq!(order, [2, 3, 1, 4]);
    }

    #[test]
    fn remove_and_update_keep_positions_honest() {
        let mut t = Tracked::default();
        for i in 0..20 {
            t.push((i % 7) as f64, i, page(i as u32));
        }
        assert_eq!(t.remove(page(13)).page, page(13));
        assert_eq!(t.remove(page(0)).page, page(0));
        t.update(page(7), -1.0, 20);
        assert_eq!(t.pop().unwrap().page, page(7));
        t.update(page(14), 99.0, 21);
        let mut rest: Vec<u32> = std::iter::from_fn(|| t.pop())
            .map(|s| s.page.index())
            .collect();
        assert_eq!(rest.pop(), Some(14), "re-keyed to max pops last");
        assert_eq!(rest.len(), 16);
    }

    #[test]
    fn freed_handles_are_reissued_and_records_stay_bounded() {
        let mut t = Tracked::default();
        for i in 0..8 {
            t.push(i as f64, i, page(i as u32));
        }
        for round in 0..50u64 {
            t.pop();
            t.push(round as f64, 8 + round, page(8 + round as u32));
        }
        assert_eq!(t.heap.records.len(), 8, "one record per entry held at once");
    }

    #[test]
    fn matches_reference_binary_heap_under_churn() {
        // Drive the eager heap and a (sort-based) reference through the
        // same operation stream; the pop order must match exactly. The
        // heap's entries carry arbitrary reference counts and the
        // reference's none: a count never changes an ordering.
        let mut t = Tracked::default();
        let mut reference: Vec<(f64, u64, PageId)> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut stamp = 0u64;
        let mut next_page = 0u32;
        for _ in 0..2_000 {
            match rng() % 4 {
                0 | 1 => {
                    let value = ((rng() % 16) as f64) / 4.0;
                    t.push(value, stamp, page(next_page));
                    reference.push((value, stamp, page(next_page)));
                    stamp += 1;
                    next_page += 1;
                }
                2 if !reference.is_empty() => {
                    let k = (rng() as usize) % reference.len();
                    let p = reference[k].2;
                    let value = ((rng() % 16) as f64) / 4.0;
                    t.update(p, value, stamp);
                    (reference[k].0, reference[k].1) = (value, stamp);
                    stamp += 1;
                }
                _ => {
                    let got = t.pop();
                    reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    assert_eq!(got.map(|s| s.page), want.map(|w| w.2));
                }
            }
        }
    }
}
