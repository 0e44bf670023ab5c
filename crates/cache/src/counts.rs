//! The sparse page → count map for state that outlives a residency.
//!
//! SG1/SG2/SR value a page by the requests a proxy has seen for it since
//! the start, evicted or not. A proxy is asked for a small share of the
//! catalog, so the counts are rows for the pages asked about, not a slot
//! per page ordinal.

use pscd_types::PageId;

use crate::index::{PageUniverse, PositionIndex};
use crate::snapshot::{put_u32, SnapshotError, SnapshotReader};

/// One page's count: a packed `(page, count)` row.
#[derive(Debug, Clone, Copy)]
struct Row {
    page: PageId,
    count: u32,
}

/// A count per page, for the pages ever counted: rows in first-count
/// order behind an open-addressing index (page → row).
///
/// Built over a universe, both are reserved as address space for every
/// page of it (`Vec::with_capacity`, never written), and the index
/// doubles in place inside its reservation by re-indexing the rows. So
/// no count allocates after construction, and only the prefix in use is
/// touched: a proxy asked for a thousand pages of a hundred thousand
/// writes a thousand rows. Built over the empty universe (unit tests,
/// doctests, examples) the map grows on write.
///
/// # Examples
///
/// ```
/// use pscd_cache::{PageCounts, PageUniverse};
/// use pscd_types::{Bytes, PageId};
///
/// let universe = PageUniverse::new(vec![Bytes::new(1); 1_000]);
/// let mut counts = PageCounts::new(&universe);
/// assert_eq!(counts.increment(PageId::new(7)), 1);
/// assert_eq!(counts.increment(PageId::new(7)), 2);
/// assert_eq!(counts.get(PageId::new(7)), 2);
/// assert_eq!(counts.get(PageId::new(8)), 0);
/// assert_eq!(counts.len(), 1);
/// ```
#[derive(Debug)]
pub struct PageCounts {
    rows: Vec<Row>,
    index: PositionIndex,
}

impl Default for PageCounts {
    /// An empty map over the empty universe: it grows on write.
    fn default() -> Self {
        Self::new(&PageUniverse::default())
    }
}

impl PageCounts {
    /// An empty map over the pages of `universe`, its storage reserved
    /// for all of them.
    pub fn new(universe: &PageUniverse) -> Self {
        Self {
            rows: Vec::with_capacity(universe.page_count()),
            index: PositionIndex::reserved(universe.page_count(), universe.page_count()),
        }
    }

    /// The count of `page` (0 if never counted).
    #[inline]
    pub fn get(&self, page: PageId) -> u32 {
        self.index
            .get(page)
            .map_or(0, |row| self.rows[row as usize].count)
    }

    /// Counts one more for `page`, returning its new count.
    #[inline]
    pub fn increment(&mut self, page: PageId) -> u32 {
        if let Some(row) = self.index.get(page) {
            let row = &mut self.rows[row as usize];
            row.count += 1;
            return row.count;
        }
        self.push(page, 1);
        1
    }

    /// Adds a row for a page the map does not hold.
    fn push(&mut self, page: PageId, count: u32) {
        if self.index.is_full() {
            let rows = self.rows.iter().enumerate();
            self.index
                .regrow(rows.map(|(at, row)| (row.page, at as u32)));
        }
        self.index.set(page, self.rows.len() as u32);
        self.rows.push(Row { page, count });
    }

    /// Number of pages counted.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no page is counted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of slots in the index's table: with [`len`](Self::len),
    /// the map's footprint (8 bytes a row, 8 bytes a slot).
    pub fn index_slots(&self) -> usize {
        self.index.slot_count()
    }

    /// Where the rows and the index live, as (address, capacity) pairs:
    /// unchanged across any run of operations that did not reallocate.
    pub fn storage(&self) -> [(usize, usize); 2] {
        let rows = (self.rows.as_ptr() as usize, self.rows.capacity());
        [rows, self.index.storage()]
    }

    /// Forgets every count, keeping the storage.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
    }

    /// The fallible write every `decode_state` uses for a row read from
    /// snapshot bytes: sets `page`'s count only if it lies inside the
    /// universe, is not counted yet and `count` is not zero (the absent
    /// value). A page the universe does not hold never grows the map.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for an out-of-universe, duplicate or
    /// zero row.
    pub fn try_insert(&mut self, page: PageId, count: u32) -> Result<(), SnapshotError> {
        if page.as_usize() >= self.index.universe() {
            return Err(SnapshotError::Corrupt("page outside the universe"));
        }
        if self.index.get(page).is_some() {
            return Err(SnapshotError::Corrupt("duplicate page"));
        }
        if count == 0 {
            return Err(SnapshotError::Corrupt("zero request count"));
        }
        self.push(page, count);
        Ok(())
    }

    /// Serializes the counts: their number, then one `(page, count)` row
    /// each in ascending page order, so equal maps encode to equal bytes
    /// whatever order they were counted in.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.rows.len() as u32);
        let start = out.len();
        for row in &self.rows {
            put_u32(out, row.page.index());
            put_u32(out, row.count);
        }
        let (rows, _) = out[start..].as_chunks_mut::<8>();
        rows.sort_unstable_by_key(|row| u32::from_le_bytes([row[0], row[1], row[2], row[3]]));
    }

    /// Restores counts written by [`encode_state`](Self::encode_state),
    /// replacing the map's. More rows than the universe has pages, and
    /// rows the encoder cannot have written — out of the universe, out of
    /// ascending order, duplicated or zero — are corrupt; the map keeps
    /// its storage either way.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] for a truncated buffer or a corrupt row. The
    /// map's contents are then unspecified — discard its owner.
    pub fn decode_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.read_u32()? as usize;
        if n > r.remaining() / 8 {
            return Err(SnapshotError::Corrupt(
                "request-count table overruns buffer",
            ));
        }
        if n > self.index.universe() {
            return Err(SnapshotError::Corrupt("more request counts than pages"));
        }
        self.clear();
        let mut last = 0;
        for _ in 0..n {
            let page = PageId::new(r.read_u32()?);
            let count = r.read_count()?;
            if page.index() < last {
                return Err(SnapshotError::Corrupt("request counts not canonical"));
            }
            last = page.index();
            self.try_insert(page, count)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use pscd_types::Bytes;

    use super::*;

    fn units(n: usize) -> PageUniverse {
        PageUniverse::new(vec![Bytes::new(1); n])
    }

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn encoded(counts: &PageCounts) -> Vec<u8> {
        let mut out = Vec::new();
        counts.encode_state(&mut out);
        out
    }

    /// Random increments, inserts and clears against a `BTreeMap`, over a
    /// reserved universe (where the storage never moves) and the empty
    /// one (where it grows on write).
    #[test]
    fn counts_agree_with_a_btreemap_model() {
        for pages in [300usize, 0] {
            let mut rng = xorshift(0x2545_f491_4f6c_dd1d ^ pages as u64);
            let mut counts = PageCounts::new(&units(pages));
            let built = counts.storage();
            let mut model = BTreeMap::<u32, u32>::new();
            for step in 0..20_000 {
                let page = (rng() % 300) as u32;
                let id = PageId::new(page);
                match rng() % 100 {
                    0 => {
                        counts.clear();
                        model.clear();
                    }
                    1..=9 => {
                        let count = (rng() % 4) as u32;
                        let got = counts.try_insert(id, count);
                        let fits = (page as usize) < pages.max(counts.index.universe());
                        let ok = fits && count > 0 && !model.contains_key(&page);
                        assert_eq!(got.is_ok(), ok, "step {step}: {got:?}");
                        if ok {
                            model.insert(page, count);
                        }
                    }
                    _ => {
                        let want = model.entry(page).or_default();
                        *want += 1;
                        assert_eq!(counts.increment(id), *want, "step {step}");
                    }
                }
                assert_eq!(counts.len(), model.len());
                assert_eq!(counts.get(id), model.get(&page).copied().unwrap_or(0));
            }
            for page in 0..310 {
                let want = model.get(&page).copied().unwrap_or(0);
                assert_eq!(counts.get(PageId::new(page)), want, "page {page}");
            }
            let mut want = Vec::new();
            put_u32(&mut want, model.len() as u32);
            for (&page, &count) in &model {
                put_u32(&mut want, page);
                put_u32(&mut want, count);
            }
            assert_eq!(encoded(&counts), want, "rows by ascending page");
            if pages > 0 {
                assert_eq!(counts.storage(), built, "a reserved map never moves");
            }
        }
    }

    #[test]
    fn growth_inside_the_reservation_keeps_the_storage() {
        let mut counts = PageCounts::new(&units(100_000));
        let built = counts.storage();
        assert_eq!(built[0].1, 100_000);
        assert_eq!(built[1].1, 262_144);
        assert_eq!(counts.index_slots(), 0, "nothing written before a count");
        let mut slots = Vec::new();
        for p in 0..5_000u32 {
            counts.increment(PageId::new(p * 19));
            if slots.last() != Some(&counts.index_slots()) {
                slots.push(counts.index_slots());
            }
        }
        assert_eq!(
            slots,
            [8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384]
        );
        assert_eq!(counts.storage(), built);
        for p in 0..5_000u32 {
            assert_eq!(counts.get(PageId::new(p * 19)), 1);
            assert_eq!(counts.get(PageId::new(p * 19 + 1)), 0);
        }
        // Every page of the universe still fits the reservation.
        for p in 0..100_000u32 {
            counts.increment(PageId::new(p));
        }
        assert_eq!(counts.len(), 100_000);
        assert_eq!(counts.storage(), built);
    }

    #[test]
    fn decode_refuses_what_the_encoder_cannot_write_without_moving_storage() {
        let blob = |rows: &[(u32, u32)]| {
            let mut out = Vec::new();
            put_u32(&mut out, rows.len() as u32);
            for &(page, count) in rows {
                put_u32(&mut out, page);
                put_u32(&mut out, count);
            }
            out
        };
        let mut counts = PageCounts::new(&units(8));
        let built = counts.storage();
        let good = blob(&[(2, 5), (7, 1)]);
        counts
            .decode_state(&mut SnapshotReader::new(&good))
            .unwrap();
        assert_eq!(encoded(&counts), good);
        let nine: Vec<(u32, u32)> = (0..9).map(|p| (p, 1)).collect();
        let bad = [
            blob(&nine),             // more rows than pages
            blob(&[(2, 5), (8, 1)]), // past the universe
            blob(&[(u32::MAX, 1)]),  // far past it
            blob(&[(2, 5), (2, 5)]), // duplicate
            blob(&[(7, 1), (2, 5)]), // descending
            blob(&[(2, 0)]),         // zero
            blob(&[(2, 0), (2, 5)]), // zero, then the same page
            blob(&[(2, u32::MAX)]),  // count out of range
        ];
        for bytes in &bad {
            let err = counts.decode_state(&mut SnapshotReader::new(bytes));
            assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
            assert_eq!(counts.storage(), built);
            assert!(counts.len() <= 8);
        }
    }
}
