//! An eager, index-addressable min-heap over `(value, stamp, page)` keys
//! — the only eviction order in the workspace.
//!
//! [`KeyHeap`] holds exactly the live entries: every mutation reports
//! position moves through a caller-supplied writeback so an external
//! table ([`CacheStore`](crate::CacheStore)'s page → position index)
//! can address any element directly. That makes `peek` a `&self` read,
//! `remove`/`update` `O(log n)` without tombstones, and the heap's
//! footprint proportional to the cache's live population — the
//! properties the allocation-free replay loop is built on.
//!
//! The comparator: smallest value first, ties broken by smallest stamp
//! (oldest (re)valuation), then smallest page id. Stamps are unique
//! within one owner, so the pop sequence is a total order — it depends
//! on the keys alone, never on the order operations reached the heap.

use std::cmp::Ordering;

use pscd_types::{Bytes, PageId};

/// One live heap element: the eviction key plus the page it belongs to,
/// its size and its reference count. The slot is the *only* per-page
/// record the store keeps — its index maps pages to heap positions —
/// so everything a lookup, hit, peek or eviction needs travels with the
/// slot, and dies with it: 32 bytes, but only 8-aligned in a `Vec`, so
/// up to half the slots straddle two cache lines.
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
    /// References to the page since it was cached (In-Cache LFU; payload
    /// — never compared). Whoever owns the store decides what counts.
    pub refs: u32,
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

/// An index-addressable binary min-heap (see the module docs).
///
/// Every mutating call takes a `track(page, pos)` writeback closure and
/// invokes it for each slot whose array position changed (including the
/// inserted or re-keyed slot's final position), never for a removed slot.
#[derive(Debug, Clone, Default)]
pub struct KeyHeap {
    slots: Vec<HeapSlot>,
}

impl KeyHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty heap with room for `n` slots before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
        }
    }

    /// Number of live slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the heap holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The live slots in heap order (position `i`'s children sit at
    /// `2i + 1` and `2i + 2`). Useful for iterating the live population
    /// without any notion of sortedness.
    #[inline]
    pub fn slots(&self) -> &[HeapSlot] {
        &self.slots
    }

    /// The slot storage itself, for a restore: a dump of a valid heap put
    /// back position for position reproduces its ordering bit for bit.
    /// Whoever rewrites more than a slot's payload asks
    /// [`in_heap_order`](Self::in_heap_order) afterwards.
    pub(crate) fn slots_mut(&mut self) -> &mut Vec<HeapSlot> {
        &mut self.slots
    }

    /// `false` if some slot pops before its parent (the bytes the slots
    /// were read from were corrupt).
    pub(crate) fn in_heap_order(&self) -> bool {
        (1..self.slots.len()).all(|i| !self.slots[i].before(&self.slots[(i - 1) / 2]))
    }

    /// The minimum slot, without mutating anything.
    #[inline]
    pub fn peek(&self) -> Option<&HeapSlot> {
        self.slots.first()
    }

    /// Inserts a slot, reporting every position move through `track`.
    pub fn push(&mut self, slot: HeapSlot, track: &mut impl FnMut(PageId, u32)) {
        self.slots.push(slot);
        self.sift_up(self.slots.len() - 1, track);
    }

    /// Removes and returns the minimum slot.
    pub fn pop(&mut self, track: &mut impl FnMut(PageId, u32)) -> Option<HeapSlot> {
        if self.slots.is_empty() {
            None
        } else {
            Some(self.remove(0, track))
        }
    }

    /// Removes the slot at `pos` (as last reported through `track`).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn remove(&mut self, pos: u32, track: &mut impl FnMut(PageId, u32)) -> HeapSlot {
        let i = pos as usize;
        let last = self.slots.len() - 1;
        self.slots.swap(i, last);
        let removed = self.slots.pop().expect("remove from a non-empty heap");
        if i < self.slots.len() {
            // The former tail landed mid-heap; it may belong either way.
            if self.sift_up(i, track) == i {
                self.sift_down(i, track);
            }
        }
        removed
    }

    /// Re-keys the slot at `pos`, sets its reference count and restores
    /// heap order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn update(
        &mut self,
        pos: u32,
        value: f64,
        stamp: u64,
        refs: u32,
        track: &mut impl FnMut(PageId, u32),
    ) {
        let i = pos as usize;
        let slot = &mut self.slots[i];
        (slot.value, slot.stamp, slot.refs) = (value, stamp, refs);
        if self.sift_up(i, track) == i {
            self.sift_down(i, track);
        }
    }

    /// Moves `slots[i]` up to its place; reports every move plus the
    /// final resting position. Returns the final position.
    fn sift_up(&mut self, mut i: usize, track: &mut impl FnMut(PageId, u32)) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i].before(&self.slots[parent]) {
                self.slots.swap(i, parent);
                track(self.slots[i].page, i as u32);
                i = parent;
            } else {
                break;
            }
        }
        track(self.slots[i].page, i as u32);
        i
    }

    /// Moves `slots[i]` down to its place; reports every move plus the
    /// final resting position. Returns the final position.
    fn sift_down(&mut self, mut i: usize, track: &mut impl FnMut(PageId, u32)) -> usize {
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut min = i;
            if left < self.slots.len() && self.slots[left].before(&self.slots[min]) {
                min = left;
            }
            if right < self.slots.len() && self.slots[right].before(&self.slots[min]) {
                min = right;
            }
            if min == i {
                break;
            }
            self.slots.swap(i, min);
            track(self.slots[i].page, i as u32);
            i = min;
        }
        track(self.slots[i].page, i as u32);
        i
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn page(i: u32) -> PageId {
        PageId::new(i)
    }

    /// A reference harness: a `KeyHeap` plus a position map maintained
    /// purely through the writeback, checked for consistency after every
    /// operation.
    #[derive(Default)]
    struct Tracked {
        heap: KeyHeap,
        pos: HashMap<PageId, u32>,
    }

    impl Tracked {
        fn push(&mut self, value: f64, stamp: u64, p: PageId) {
            let pos = &mut self.pos;
            self.heap.push(
                HeapSlot {
                    value,
                    stamp,
                    page: p,
                    size: Bytes::new(1),
                    // Payload: any count must leave every order alone.
                    refs: (stamp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as u32,
                },
                &mut |pg, i| {
                    pos.insert(pg, i);
                },
            );
            self.check();
        }

        fn pop(&mut self) -> Option<HeapSlot> {
            let pos = &mut self.pos;
            let out = self.heap.pop(&mut |pg, i| {
                pos.insert(pg, i);
            });
            if let Some(s) = out {
                self.pos.remove(&s.page);
            }
            self.check();
            out
        }

        fn remove(&mut self, p: PageId) -> HeapSlot {
            let at = self.pos[&p];
            let pos = &mut self.pos;
            let out = self.heap.remove(at, &mut |pg, i| {
                pos.insert(pg, i);
            });
            self.pos.remove(&p);
            self.check();
            out
        }

        fn update(&mut self, p: PageId, value: f64, stamp: u64) {
            let at = self.pos[&p];
            let pos = &mut self.pos;
            let refs = (stamp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as u32;
            self.heap.update(at, value, stamp, refs, &mut |pg, i| {
                pos.insert(pg, i);
            });
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.pos.len(), self.heap.len(), "position map drift");
            for (&p, &i) in &self.pos {
                assert_eq!(self.heap.slots()[i as usize].page, p, "stale position");
            }
            for i in 1..self.heap.len() {
                let parent = (i - 1) / 2;
                assert!(
                    !self.heap.slots()[i].before(&self.heap.slots()[parent]),
                    "heap property violated at {i}"
                );
            }
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
    fn matches_reference_binary_heap_under_churn() {
        // Drive the eager heap and a (sort-based) reference through the
        // same operation stream; the pop order must match exactly. The
        // heap's slots carry arbitrary reference counts and the
        // reference's none: a count never changes an ordering.
        let mut t = Tracked::default();
        let mut reference: Vec<HeapSlot> = Vec::new();
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
                    reference.push(HeapSlot {
                        value,
                        stamp,
                        page: page(next_page),
                        size: Bytes::new(1),
                        refs: 0,
                    });
                    stamp += 1;
                    next_page += 1;
                }
                2 if !reference.is_empty() => {
                    let k = (rng() as usize) % reference.len();
                    let p = reference[k].page;
                    let value = ((rng() % 16) as f64) / 4.0;
                    t.update(p, value, stamp);
                    reference[k].value = value;
                    reference[k].stamp = stamp;
                    stamp += 1;
                }
                _ => {
                    let got = t.pop();
                    reference.sort_by(|a, b| {
                        a.value
                            .partial_cmp(&b.value)
                            .unwrap()
                            .then(a.stamp.cmp(&b.stamp))
                    });
                    let want = if reference.is_empty() {
                        None
                    } else {
                        Some(reference.remove(0))
                    };
                    assert_eq!(got.map(|s| s.page), want.map(|s| s.page));
                }
            }
        }
    }
}
