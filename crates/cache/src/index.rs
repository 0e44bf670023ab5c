//! The page → position index behind a store and a request-count map,
//! and the page universe that sizes them.
//!
//! A proxy caches a few percent of the bytes it is asked for, so the
//! pages it can hold at once are a small, bounded share of the universe.
//! [`PageUniverse`] computes that bound exactly from the page sizes: no
//! set of distinct pages whose sizes fit a capacity is larger than the
//! set of the smallest pages that fit it. A store's index is an
//! open-addressing table reserved for the bound, so it never grows and
//! its footprint follows the capacity, not the catalog. A request-count
//! map cannot know in advance how many pages it will be asked for, so
//! its index reserves the universe as address space and doubles inside
//! it (see [`PageCounts`](crate::PageCounts)).

use std::sync::Arc;

use pscd_types::{Bytes, PageId};

use crate::snapshot::SnapshotError;

/// A page universe as the caches over it see it: the number of page
/// ordinals and, for every `k`, the total size of the `k` smallest pages.
/// Computed once per universe and shared by every proxy cache built over
/// it (a clone shares the sums).
///
/// The default universe is empty: a cache built over it knows no bound
/// and grows on write (unit tests, doctests, examples).
///
/// # Examples
///
/// ```
/// use pscd_cache::PageUniverse;
/// use pscd_types::Bytes;
///
/// let universe = PageUniverse::new([40, 10, 30, 20].map(Bytes::new));
/// assert_eq!(universe.page_count(), 4);
/// // 10 + 20 + 30 fit 65 bytes; no four pages do.
/// assert_eq!(universe.resident_bound(Bytes::new(65)), 3);
/// assert_eq!(universe.resident_bound(Bytes::new(9)), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageUniverse {
    /// `ascending[k]`: the total size of the `k + 1` smallest pages.
    ascending: Arc<[u64]>,
}

impl PageUniverse {
    /// The universe of pages `0..n` with the given sizes, in ordinal order.
    pub fn new(sizes: impl IntoIterator<Item = Bytes>) -> Self {
        let mut ascending: Vec<u64> = sizes.into_iter().map(Bytes::as_u64).collect();
        ascending.sort_unstable();
        let mut total = 0u64;
        for size in &mut ascending {
            total = total.saturating_add(*size);
            *size = total;
        }
        Self {
            ascending: ascending.into(),
        }
    }

    /// Number of page ordinals (`0` for the default, unsized universe).
    #[inline]
    pub fn page_count(&self) -> usize {
        self.ascending.len()
    }

    /// The most pages of this universe a cache of `capacity` bytes can
    /// hold at once: the largest `k` whose `k` smallest pages fit.
    pub fn resident_bound(&self, capacity: Bytes) -> usize {
        self.ascending
            .partition_point(|&total| total <= capacity.as_u64())
    }
}

/// One table slot: a page and its heap position plus one; a zero `at`
/// marks the slot empty.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    page: u32,
    at: u32,
}

/// Page → position: linear probing over a power-of-two table kept at
/// most half full, backward-shift deletion (no tombstones). Built with
/// room for a bound it never allocates while it holds no more pages than
/// that; built with none it grows by doubling. Built
/// [`reserved`](Self::reserved), its owner doubles it in place with
/// [`regrow`](Self::regrow).
#[derive(Debug, Clone)]
pub(crate) struct PositionIndex {
    slots: Vec<Entry>,
    len: usize,
    /// `32 - log2(slots.len())`: a page's home is the top bits of its
    /// Fibonacci hash.
    shift: u32,
    /// Page ids at or past this are outside the universe (it follows the
    /// largest id ever indexed when that lies further out).
    universe: usize,
}

impl PositionIndex {
    /// An empty index over `universe` page ordinals with room for `room`
    /// pages.
    pub(crate) fn with_room(room: usize, universe: usize) -> Self {
        let mut index = Self {
            slots: Vec::new(),
            len: 0,
            shift: 32,
            universe,
        };
        if room > 0 {
            index.rebuild((2 * room).next_power_of_two());
        }
        index
    }

    /// An empty table whose storage is reserved, never written, for
    /// every page of a `universe`-page universe: it doubles in place
    /// inside that reservation, so only the prefix in use is touched.
    pub(crate) fn reserved(universe: usize) -> Self {
        Self {
            slots: Vec::with_capacity(if universe > 0 {
                (2 * universe).next_power_of_two().max(8)
            } else {
                0
            }),
            len: 0,
            shift: 32,
            universe,
        }
    }

    /// Number of page ordinals the index accepts from outside (see
    /// [`try_insert`](Self::try_insert)).
    #[inline]
    pub(crate) fn universe(&self) -> usize {
        self.universe
    }

    /// Number of table slots.
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether one more page would fill the table past half: an owner
    /// that [`regrow`](Self::regrow)s calls that first.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        2 * (self.len + 1) > self.slots.len()
    }

    /// Doubles the table (to 8 slots from none) and indexes `entries`,
    /// which must be exactly the pages and positions it holds. Inside a
    /// [`reserved`](Self::reserved) table's storage this reallocates
    /// nothing.
    #[cold]
    pub(crate) fn regrow(&mut self, entries: impl IntoIterator<Item = (PageId, u32)>) {
        let size = (2 * self.slots.len()).max(8);
        self.slots.clear();
        self.slots.resize(size, Entry::default());
        self.shift = 32 - size.trailing_zeros();
        for (page, pos) in entries {
            let i = self.probe(page.index());
            self.slots[i] = Entry {
                page: page.index(),
                at: pos + 1,
            };
        }
    }

    /// The table storage's address and capacity: unchanged across any
    /// run of operations that did not reallocate it.
    pub(crate) fn storage(&self) -> (usize, usize) {
        (self.slots.as_ptr() as usize, self.slots.capacity())
    }

    #[inline]
    fn home(&self, page: u32) -> usize {
        (page.wrapping_mul(0x9e37_79b9) >> self.shift) as usize
    }

    /// The table slot holding `page`, or the empty slot ending its probe.
    #[inline]
    fn probe(&self, page: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(page);
        loop {
            let e = self.slots[i];
            if e.at == 0 || e.page == page {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The heap position of `page`, if indexed.
    #[inline]
    pub(crate) fn get(&self, page: PageId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.probe(page.index())].at.checked_sub(1)
    }

    /// Points `page` at heap position `pos`, indexing it if new.
    #[inline]
    pub(crate) fn set(&mut self, page: PageId, pos: u32) {
        let entry = Entry {
            page: page.index(),
            at: pos + 1,
        };
        if !self.slots.is_empty() {
            let i = self.probe(entry.page);
            if self.slots[i].at != 0 {
                self.slots[i].at = entry.at;
                return;
            }
            if 2 * (self.len + 1) <= self.slots.len() {
                self.slots[i] = entry;
                self.indexed(page);
                return;
            }
        }
        self.grow();
        let i = self.probe(entry.page);
        self.slots[i] = entry;
        self.indexed(page);
    }

    /// Counts a newly indexed page.
    #[inline]
    fn indexed(&mut self, page: PageId) {
        self.len += 1;
        self.universe = self.universe.max(page.as_usize() + 1);
    }

    /// Unindexes `page`, returning the position it had.
    #[inline]
    pub(crate) fn remove(&mut self, page: PageId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.probe(page.index());
        let pos = self.slots[hole].at.checked_sub(1)?;
        // Shift each later entry of the run back into the hole unless the
        // hole lies before its home (it would then be unreachable).
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let e = self.slots[i];
            if e.at == 0 {
                break;
            }
            if (i.wrapping_sub(self.home(e.page)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = e;
                hole = i;
            }
        }
        self.slots[hole] = Entry::default();
        self.len -= 1;
        Some(pos)
    }

    /// Empties the index, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(Entry::default());
        self.len = 0;
    }

    /// The fallible write every `decode_state` uses for a page id read
    /// from snapshot bytes: indexes `page` only if it lies inside the
    /// universe and is not indexed yet.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for an out-of-universe or duplicate id.
    pub(crate) fn try_insert(&mut self, page: PageId, pos: u32) -> Result<(), SnapshotError> {
        if page.as_usize() >= self.universe {
            return Err(SnapshotError::Corrupt("page outside the universe"));
        }
        if self.get(page).is_some() {
            return Err(SnapshotError::Corrupt("duplicate page"));
        }
        self.set(page, pos);
        Ok(())
    }

    #[cold]
    fn grow(&mut self) {
        self.rebuild((2 * self.slots.len()).max(8));
    }

    /// Moves every entry into a fresh table of `size` slots.
    fn rebuild(&mut self, size: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Entry::default(); size]);
        self.shift = 32 - size.trailing_zeros();
        for e in old.into_iter().filter(|e| e.at != 0) {
            let i = self.probe(e.page);
            self.slots[i] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bound_reads_the_ascending_prefix() {
        let universe = PageUniverse::new([5, 1, 3, 3, 8].map(Bytes::new));
        let bounds: Vec<usize> = (0..=21)
            .map(|c| universe.resident_bound(Bytes::new(c)))
            .collect();
        // Prefix sums 1, 4, 7, 12, 20.
        let want = [
            0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5,
        ];
        assert_eq!(bounds, want);
        assert_eq!(
            PageUniverse::default().resident_bound(Bytes::new(u64::MAX)),
            0
        );
        let huge = PageUniverse::new([u64::MAX, u64::MAX].map(Bytes::new));
        assert_eq!(huge.resident_bound(Bytes::new(u64::MAX)), 2);
    }

    #[test]
    fn a_growing_index_doubles_and_keeps_every_entry() {
        let mut index = PositionIndex::with_room(0, 0);
        assert_eq!(index.get(PageId::new(3)), None);
        assert_eq!(index.remove(PageId::new(3)), None);
        for p in 0..1_000u32 {
            index.set(PageId::new(p * 7), p);
        }
        assert_eq!(index.universe, 6_994);
        for p in 0..1_000u32 {
            assert_eq!(index.get(PageId::new(p * 7)), Some(p));
            assert_eq!(index.get(PageId::new(p * 7 + 1)), None);
        }
        for p in (0..1_000u32).step_by(2) {
            assert_eq!(index.remove(PageId::new(p * 7)), Some(p));
        }
        for p in 0..1_000u32 {
            let want = (p % 2 == 1).then_some(p);
            assert_eq!(index.get(PageId::new(p * 7)), want, "page {}", p * 7);
        }
        index.clear();
        assert_eq!(index.get(PageId::new(7)), None);
    }
}
