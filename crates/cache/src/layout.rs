//! The page-keyed table: a flat `Vec` indexed by page ordinal.
//!
//! Every layer names a page by its ordinal in a closed catalog (the
//! `CompiledTrace` ordinal contract: ids are `0..page_count`), so
//! per-page state that outlives a residency — SG1/SG2/SR's request
//! counts — is a [`PageTable`]. A caller that knows its
//! universe passes its size and gets every slot preallocated, after
//! which no operation allocates; a caller that does not (unit tests,
//! examples) passes `0` and the table grows on write. (A store's
//! position index is sized by its capacity instead: `index.rs`.)

use pscd_types::PageId;

use crate::snapshot::SnapshotError;

/// A page-keyed table of plain values in which one value, chosen at
/// construction, means "absent" — `0` for per-page counters: a table
/// whose absent value is all zero bits comes lazily zeroed from the
/// allocator, so the slots of pages never written are never touched. Reads and
/// writes are direct `Vec` indexing by page ordinal.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    slots: Vec<T>,
    absent: T,
}

impl<T: Copy + PartialEq> PageTable<T> {
    /// An empty table with one slot preallocated for each of
    /// `page_count` ordinals. Writes inside that universe never
    /// allocate; `0` preallocates nothing and lets [`set`](Self::set)
    /// grow the table.
    pub fn new(page_count: usize, absent: T) -> Self {
        Self {
            slots: vec![absent; page_count],
            absent,
        }
    }

    /// The value for `page` (the absent value if never set).
    #[inline]
    pub fn get(&self, page: PageId) -> T {
        self.slots
            .get(page.as_usize())
            .copied()
            .unwrap_or(self.absent)
    }

    /// Sets the value for `page`, growing the table to cover it if it
    /// lies outside the current universe. Only for ids the program
    /// produced itself — ids read from outside go through
    /// [`try_insert`](Self::try_insert).
    #[inline]
    pub fn set(&mut self, page: PageId, value: T) {
        match self.slots.get_mut(page.as_usize()) {
            Some(slot) => *slot = value,
            None => self.grow_and_set(page.as_usize(), value),
        }
    }

    #[cold]
    fn grow_and_set(&mut self, i: usize, value: T) {
        self.slots.resize(i + 1, self.absent);
        self.slots[i] = value;
    }

    /// Resets `page` to absent, returning the value it held if one was
    /// present.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> Option<T> {
        // An absent slot is left unwritten: it would dirty a page of a
        // large, mostly-vacant table.
        let slot = self.slots.get_mut(page.as_usize())?;
        (*slot != self.absent).then(|| std::mem::replace(slot, self.absent))
    }

    /// The fallible write every `decode_state` uses for a page id read
    /// from snapshot bytes: stores `value` only if `page` lies inside the
    /// universe the table already covers and is absent. It never grows
    /// the table, so a corrupt id can neither index out of bounds nor
    /// size an allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for an out-of-universe or duplicate id.
    pub fn try_insert(&mut self, page: PageId, value: T) -> Result<(), SnapshotError> {
        match self.slots.get_mut(page.as_usize()) {
            None => Err(SnapshotError::Corrupt("page outside the universe")),
            Some(slot) if *slot != self.absent => Err(SnapshotError::Corrupt("duplicate page")),
            Some(slot) => {
                *slot = value;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_writes_and_removes() {
        for mut t in [PageTable::new(8, 0u32), PageTable::new(0, 0u32)] {
            t.set(PageId::new(3), 7);
            t.set(PageId::new(0), 1);
            t.set(PageId::new(3), t.get(PageId::new(3)) + 1);
            assert_eq!(t.remove(PageId::new(0)), Some(1));
            assert_eq!(t.remove(PageId::new(0)), None);
            assert_eq!(t.get(PageId::new(0)), 0);
            assert_eq!(t.get(PageId::new(3)), 8);
            assert_eq!(t.get(PageId::new(100)), 0, "out-of-range reads miss");
            assert_eq!(t.remove(PageId::new(100)), None);
        }
    }

    #[test]
    fn dense_rejects_out_of_universe_writes() {
        let mut t = PageTable::new(4, u32::MAX);
        assert!(t.try_insert(PageId::new(3), 1).is_ok());
        assert!(matches!(
            t.try_insert(PageId::new(3), 2),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            t.try_insert(PageId::new(4), 1),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(t.try_insert(PageId::new(u32::MAX), 1).is_err());
        assert_eq!(t.slots.len(), 4, "decoded ids never grow the table");
        assert_eq!(t.get(PageId::new(3)), 1);
        assert_eq!(t.get(PageId::new(4)), u32::MAX);
    }
}
