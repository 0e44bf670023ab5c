//! The page-major residency index: which proxies may hold each page.

use pscd_types::{count, PageId};

/// One row of `⌈proxies / 64⌉` words per page ordinal; bit `slot` of a
/// page's row is set when proxy `slot` reported storing the page since the
/// row was last taken.
///
/// Evictions do not clear bits, so a row is a superset of the proxies that
/// hold the page — enough for invalidation, which asks each marked proxy
/// and lets the strategy answer exactly.
///
/// The index starts asleep: marks are dropped unwritten until its owner
/// [`wake`](Self::wake)s it, at the first invalidation, and marks every
/// page each proxy holds at that moment. A run that never invalidates
/// never writes a row. Room for a known universe is reserved as address
/// space ([`reserve`](Self::reserve)) and written when the index wakes,
/// after which marking never allocates; without it the index grows on
/// write.
#[derive(Debug)]
pub(crate) struct Residency {
    words_per_page: usize,
    /// Row-major: page `p` owns `bits[p * words_per_page..][..words_per_page]`.
    bits: Vec<u64>,
    /// Words of rows [`reserve`](Self::reserve) made room for.
    reserved: usize,
    awake: bool,
}

impl Residency {
    /// An empty, sleeping index over `proxies` slots, nothing reserved.
    pub(crate) fn new(proxies: usize) -> Self {
        Self {
            words_per_page: proxies.div_ceil(64),
            bits: Vec::new(),
            reserved: 0,
            awake: false,
        }
    }

    /// Reserves, without writing, the rows of the page ordinals
    /// `0..page_count`.
    pub(crate) fn reserve(&mut self, page_count: usize) {
        let len = page_count * self.words_per_page;
        if self.bits.capacity() < len {
            self.bits.reserve_exact(len - self.bits.len());
        }
        self.reserved = self.reserved.max(len);
    }

    /// Starts over, asleep, over `proxies` slots, with room reserved for
    /// the page ordinals this index had room for.
    pub(crate) fn reslot(&mut self, proxies: usize) {
        let pages = self.reserved.checked_div(self.words_per_page);
        *self = Self::new(proxies);
        self.reserve(pages.unwrap_or(0));
    }

    /// Whether marks are being recorded.
    #[inline]
    pub(crate) fn is_awake(&self) -> bool {
        self.awake
    }

    /// Starts recording marks, writing the reserved rows clear inside
    /// the room [`reserve`](Self::reserve) made (no allocation). The
    /// caller then marks every page each proxy holds.
    #[cold]
    pub(crate) fn wake(&mut self) {
        self.awake = true;
        count!(
            Counter::ResidencyWords,
            self.reserved.saturating_sub(self.bits.len())
        );
        if self.bits.len() < self.reserved {
            self.bits.resize(self.reserved, 0);
        }
    }

    /// The row of `page` for marking, growing the index to cover it.
    #[inline]
    fn row_mut(&mut self, page: PageId) -> &mut [u64] {
        let start = page.as_usize() * self.words_per_page;
        let end = start + self.words_per_page;
        if end > self.bits.len() {
            self.grow(end);
        }
        &mut self.bits[start..end]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        self.bits.resize(len, 0);
    }

    /// Records that proxy `slot` may hold `page`.
    #[inline]
    pub(crate) fn mark(&mut self, page: PageId, slot: usize) {
        self.mark_word(page, slot / 64, 1 << (slot % 64));
    }

    /// Records the proxies `word * 64 + i`, for each set bit `i` of `bits`,
    /// as possible holders of `page`; no bits, or a sleeping index, leave
    /// the index untouched.
    /// Bits already set are not rewritten: marks outlive evictions, so a
    /// proxy re-admitting a page usually finds its bit in place, and the
    /// store would only dirty the line again.
    #[inline]
    pub(crate) fn mark_word(&mut self, page: PageId, word: usize, bits: u64) {
        if bits == 0 || !self.awake {
            return;
        }
        let slot = &mut self.row_mut(page)[word];
        if *slot | bits != *slot {
            count!(Counter::ResidencyWords, 1);
            *slot |= bits;
        }
    }

    /// Clears the row of `page`, calling `visit` with each slot that was
    /// marked, in ascending order. A page the index never covered has no
    /// marked slots.
    #[inline]
    pub(crate) fn take(&mut self, page: PageId, mut visit: impl FnMut(usize)) {
        let start = page.as_usize() * self.words_per_page;
        let row = self
            .bits
            .get_mut(start..start + self.words_per_page)
            .unwrap_or_default();
        for (w, word) in row.iter_mut().enumerate() {
            // A clear word is left unwritten: a store would dirty a line
            // of a large, mostly-zero index for a page nobody stored.
            if *word == 0 {
                continue;
            }
            count!(Counter::ResidencyWords, 1);
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken(r: &mut Residency, page: u32) -> Vec<usize> {
        let mut slots = Vec::new();
        r.take(PageId::new(page), |slot| slots.push(slot));
        slots
    }

    #[test]
    fn a_sleeping_index_writes_nothing_and_wakes_inside_its_reservation() {
        let mut r = Residency::new(130);
        r.reserve(8);
        let room = (r.bits.as_ptr(), r.bits.capacity());
        assert_eq!((room.1, r.bits.len()), (24, 0), "reserved, not written");
        r.mark(PageId::new(5), 3);
        r.mark_word(PageId::new(9), 1, 0b11);
        assert_eq!((taken(&mut r, 5), r.bits.len()), (vec![], 0));
        r.wake();
        assert_eq!((r.bits.as_ptr(), r.bits.capacity()), room);
        assert_eq!(r.bits.len(), 24);
        assert_eq!(taken(&mut r, 5), [], "marks made asleep are gone");
        r.mark(PageId::new(5), 3);
        assert_eq!(taken(&mut r, 5), [3]);
    }

    #[test]
    fn take_yields_marked_slots_ascending_and_clears_the_row() {
        for reserved in [0, 8] {
            let mut r = Residency::new(130);
            r.reserve(reserved);
            r.wake();
            for slot in [129, 0, 64, 63, 65, 64] {
                r.mark(PageId::new(5), slot);
            }
            r.mark(PageId::new(4), 7);
            r.mark_word(PageId::new(4), 1, 0b101);
            r.mark_word(PageId::new(6), 2, 0);
            assert_eq!(taken(&mut r, 5), [0, 63, 64, 65, 129]);
            assert_eq!(taken(&mut r, 5), []);
            assert_eq!(taken(&mut r, 4), [7, 64, 66]);
            assert_eq!(r.bits.len(), 3 * 6.max(reserved), "no bits, no growth");
        }
    }

    #[test]
    fn pages_beyond_the_index_are_unmarked_and_reads_never_grow_it() {
        let mut r = Residency::new(3);
        r.reserve(4);
        r.wake();
        assert_eq!(taken(&mut r, 4), []);
        assert_eq!(taken(&mut r, u32::MAX), []);
        assert_eq!(r.bits.len(), 4);
        r.mark(PageId::new(9), 2);
        assert_eq!(r.bits.len(), 10, "a write past the universe grows it");
        assert_eq!(taken(&mut r, 9), [2]);
    }

    #[test]
    fn an_engine_without_proxies_indexes_nothing() {
        let mut r = Residency::new(0);
        r.reserve(100);
        r.wake();
        assert!(r.bits.is_empty());
        assert_eq!(taken(&mut r, 1), []);
    }
}
