//! The resident-page table shared by the heap-based strategies (DM,
//! DC-AP/DC-LAP).

use pscd_cache::{PageTable, SnapshotError};
use pscd_types::PageId;

/// Live-list position marking a page that is not resident.
const NO_IDX: u32 = u32::MAX;

/// Resident-page table: a page → position index over a compact
/// `(page, entry)` live list, so full scans (candidate sizing,
/// stale-page sweeps) cost O(resident pages) instead of O(page
/// universe). The index is a [`PageTable`] of `u32` positions — one per
/// page ordinal, so preallocating it stays a cheap sentinel fill no
/// matter how fat the entry type is.
#[derive(Debug)]
pub(crate) struct EntryTable<E> {
    index: PageTable<u32>,
    live: Vec<(PageId, E)>,
}

impl<E> EntryTable<E> {
    /// An empty table preallocated for the page ordinals `0..page_count`
    /// (`0`: nothing preallocated, grows on insert).
    pub(crate) fn new(page_count: usize) -> Self {
        Self {
            index: PageTable::new(page_count, NO_IDX),
            live: Vec::with_capacity(page_count),
        }
    }

    fn position(&self, page: PageId) -> Option<usize> {
        self.index.find(page).map(|i| i as usize)
    }

    pub(crate) fn get(&self, page: PageId) -> Option<&E> {
        self.position(page).map(|i| &self.live[i].1)
    }

    pub(crate) fn get_mut(&mut self, page: PageId) -> Option<&mut E> {
        self.position(page).map(|i| &mut self.live[i].1)
    }

    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.position(page).is_some()
    }

    /// Inserts a fresh entry. The page must not be resident.
    pub(crate) fn insert(&mut self, page: PageId, entry: E) {
        debug_assert!(!self.contains(page), "insert over a live entry");
        self.index.set(page, self.live.len() as u32);
        self.live.push((page, entry));
    }

    /// [`insert`](Self::insert) for a page id read from snapshot bytes:
    /// an id outside the universe or already resident is corrupt, and
    /// the table never grows for it.
    pub(crate) fn try_insert(&mut self, page: PageId, entry: E) -> Result<(), SnapshotError> {
        self.index.try_insert(page, self.live.len() as u32)?;
        self.live.push((page, entry));
        Ok(())
    }

    pub(crate) fn remove(&mut self, page: PageId) -> Option<E> {
        let idx = self.index.remove(page)? as usize;
        let (_, entry) = self.live.swap_remove(idx);
        if let Some(&(moved, _)) = self.live.get(idx) {
            self.index.set(moved, idx as u32);
        }
        Some(entry)
    }

    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Removes every entry, keeping the universe.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.live.clear();
    }

    /// Iterates resident entries (arbitrary order — callers must only do
    /// order-insensitive work, e.g. commutative sums or sort-after).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &E)> {
        self.live.iter().map(|(p, e)| (*p, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_indices_stay_honest_after_swap_remove() {
        for mut t in [EntryTable::<u32>::new(8), EntryTable::new(0)] {
            for i in 0..8 {
                t.insert(PageId::new(i), i);
            }
            t.remove(PageId::new(0)); // last entry swaps into slot 0
            assert!(!t.contains(PageId::new(0)));
            for (page, &e) in t.iter() {
                assert_eq!(*t.get(page).unwrap(), e);
            }
            assert_eq!(t.len(), 7);
            // Mutate through get_mut and observe through iter.
            *t.get_mut(PageId::new(7)).unwrap() = 99;
            assert!(t.iter().any(|(_, &e)| e == 99));
        }
    }

    #[test]
    fn decoded_ids_are_checked_and_never_grow_the_table() {
        let mut t = EntryTable::<u32>::new(4);
        t.try_insert(PageId::new(3), 1).unwrap();
        assert!(t.try_insert(PageId::new(3), 2).is_err(), "duplicate");
        assert!(t.try_insert(PageId::new(4), 2).is_err(), "out of universe");
        assert_eq!(t.len(), 1);
        assert!(EntryTable::<u32>::new(0)
            .try_insert(PageId::new(0), 1)
            .is_err());
    }
}
