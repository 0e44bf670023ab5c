//! The page → handle index behind a store and a request-count map, and
//! the page universe that bounds them.
//!
//! A proxy caches a few percent of the bytes it is asked for, so the
//! pages it can hold at once are a small, bounded share of the universe.
//! [`PageUniverse`] computes that bound exactly from the page sizes: no
//! set of distinct pages whose sizes fit a capacity is larger than the
//! set of the smallest pages that fit it. Both owners reserve their
//! index's storage as address space for what they can ever hold (a
//! store its bound, a request-count map the universe), start the table
//! empty and double it in place inside the reservation as their live
//! population grows. The table stays a quarter to a half full, so it is
//! as small as what it indexes, and the owner never allocates after
//! construction.

use std::sync::Arc;

use pscd_types::{count, Bytes, PageId};

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
        let mut scratch: Vec<u64> = sizes.into_iter().map(Bytes::as_u64).collect();
        let mut ascending: Arc<[u64]> = Arc::from(&scratch[..]);
        let sizes = Arc::get_mut(&mut ascending).expect("not shared yet");
        radix_sort(sizes, &mut scratch);
        let mut total = 0u64;
        for size in sizes {
            total = total.saturating_add(*size);
            *size = total;
        }
        Self { ascending }
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

/// Sorts `keys` ascending through `scratch`, a buffer of the same
/// length: a least-significant-digit radix sort over digits of at most
/// [`RADIX_BITS`] bits, as few as the widest key needs (paper-scale page
/// sizes take two), so it costs a few linear passes where a comparison
/// sort of a paper-scale universe costs milliseconds.
fn radix_sort(keys: &mut [u64], scratch: &mut [u64]) {
    let bits = 64 - keys.iter().fold(0, |all, &key| all | key).leading_zeros();
    let passes = bits.div_ceil(RADIX_BITS);
    if passes == 0 {
        return;
    }
    let width = bits.div_ceil(passes);
    let digit = |key: u64, pass: u32| ((key >> (pass * width)) & ((1 << width) - 1)) as usize;
    // Every pass's histogram, taken in one read of the keys.
    let mut counts = vec![0usize; (passes as usize) << width];
    for &key in keys.iter() {
        for pass in 0..passes {
            counts[(pass as usize) << width | digit(key, pass)] += 1;
        }
    }
    let (mut from, mut to) = (&mut *keys, &mut *scratch);
    let mut in_scratch = false;
    for (pass, count) in (0..passes).zip(counts.chunks_exact_mut(1 << width)) {
        if count.contains(&from.len()) {
            continue;
        }
        let mut start = 0;
        for slot in count.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for &key in from.iter() {
            let slot = &mut count[digit(key, pass)];
            to[*slot] = key;
            *slot += 1;
        }
        (from, to) = (to, from);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        to.copy_from_slice(from);
    }
}

/// The widest digit [`radix_sort`] takes: two passes sort keys below
/// 2^26 (64 MiB pages), and a pass's 8192 counts stay in cache.
const RADIX_BITS: u32 = 13;

/// One table slot: a page and its owner's handle for it (a store's heap
/// record, a count map's row) plus one; a zero `at` marks the slot empty.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    page: u32,
    at: u32,
}

/// Page → handle: linear probing over a power-of-two table kept at
/// most half full, backward-shift deletion (no tombstones). The table
/// starts empty; its owner [`regrow`](Self::regrow)s it before indexing
/// a page that would fill it past half, which inside the storage
/// [`reserved`](Self::reserved) for it reallocates nothing.
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
    /// An empty table over `universe` page ordinals whose storage is
    /// reserved, never written, for `room` pages: it doubles in place
    /// inside that reservation, so only the prefix in use is touched.
    /// With no room it allocates as it grows.
    pub(crate) fn reserved(room: usize, universe: usize) -> Self {
        Self {
            slots: Vec::with_capacity(if room > 0 {
                (2 * room).next_power_of_two().max(8)
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
    /// which must be exactly the pages and handles it holds. Inside a
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
        count!(Counter::IndexProbes, 1);
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

    /// The handle of `page`, if indexed.
    #[inline]
    pub(crate) fn get(&self, page: PageId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.probe(page.index())].at.checked_sub(1)
    }

    /// Points `page` at handle `pos`, indexing it if new. A new
    /// page needs room: its owner regrows a [`full`](Self::is_full)
    /// table first.
    #[inline]
    pub(crate) fn set(&mut self, page: PageId, pos: u32) {
        let i = self.probe(page.index());
        if self.slots[i].at == 0 {
            debug_assert!(!self.is_full(), "regrow before indexing a new page");
            self.len += 1;
            self.universe = self.universe.max(page.as_usize() + 1);
        }
        self.slots[i] = Entry {
            page: page.index(),
            at: pos + 1,
        };
    }

    /// Unindexes `page`, returning the handle it had.
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

    /// Empties the index down to no slots, keeping its storage: the next
    /// page indexed regrows it from the start.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.shift = 32;
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

    proptest::proptest! {
        /// The radix-sorted prefix sums are the ones a comparison sort
        /// gives, so every bound is too: over empty lists, repeated sizes
        /// and sizes near `u64::MAX`, whose sums saturate.
        #[test]
        fn the_radix_sort_bounds_as_a_comparison_sort_does(
            sizes in proptest::collection::vec(
                proptest::prop_oneof![
                    0u64..4,
                    0u64..1 << 20,
                    0..=u64::MAX,
                    (u64::MAX - 8)..=u64::MAX,
                ],
                0..300,
            ),
            extra in proptest::collection::vec(0..=u64::MAX, 0..8),
        ) {
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            let mut total = 0u64;
            let want: Vec<u64> = sorted
                .iter()
                .map(|&size| {
                    total = total.saturating_add(size);
                    total
                })
                .collect();
            let universe = PageUniverse::new(sizes.iter().copied().map(Bytes::new));
            proptest::prop_assert_eq!(&universe.ascending[..], &want[..]);
            let edges = want.iter().flat_map(|&t| [t.saturating_sub(1), t, t.saturating_add(1)]);
            for capacity in edges.chain([0, u64::MAX]).chain(extra) {
                let bound = want.partition_point(|&total| total <= capacity);
                proptest::prop_assert_eq!(universe.resident_bound(Bytes::new(capacity)), bound);
            }
        }
    }

    /// Indexes `page` at `pos` the way an owner does: regrowing a full
    /// table from `live`, the pages and positions it holds, first.
    fn add(index: &mut PositionIndex, live: &mut Vec<(PageId, u32)>, page: PageId, pos: u32) {
        if index.is_full() {
            index.regrow(live.iter().copied());
        }
        index.set(page, pos);
        live.push((page, pos));
    }

    #[test]
    fn a_growing_index_doubles_and_keeps_every_entry() {
        let mut index = PositionIndex::reserved(1_000, 7_000);
        let built = index.storage();
        assert_eq!(built.1, 2_048);
        assert_eq!(index.slot_count(), 0, "nothing written before a page");
        assert_eq!(index.get(PageId::new(3)), None);
        assert_eq!(index.remove(PageId::new(3)), None);
        let mut live = Vec::new();
        let mut sizes = Vec::new();
        for p in 0..1_000u32 {
            add(&mut index, &mut live, PageId::new(p * 7), p);
            if sizes.last() != Some(&index.slot_count()) {
                sizes.push(index.slot_count());
            }
        }
        assert_eq!(sizes, [8, 16, 32, 64, 128, 256, 512, 1_024, 2_048]);
        assert_eq!(index.storage(), built, "doubling stays in the reservation");
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
        assert_eq!((index.get(PageId::new(7)), index.slot_count()), (None, 0));
        assert_eq!(index.storage(), built);
    }

    #[test]
    fn an_index_without_room_grows_and_follows_the_largest_page() {
        let mut index = PositionIndex::reserved(0, 0);
        assert_eq!(index.storage().1, 0);
        let mut live = Vec::new();
        for p in 0..100u32 {
            add(&mut index, &mut live, PageId::new(p * 7), p);
        }
        assert_eq!((index.slot_count(), index.universe()), (256, 694));
        for p in 0..100u32 {
            assert_eq!(index.get(PageId::new(p * 7)), Some(p));
        }
    }
}
