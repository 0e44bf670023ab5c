//! Static subscription information.

use serde::{Deserialize, Serialize};

use crate::{PageId, ServerId};

/// Per-(page, server) subscription counts — the static matching information
/// consumed by push-time placement strategies.
///
/// The paper (§4.3) observes that, with static subscriptions, the only
/// subscription information the strategies need is *the number of
/// subscriptions matching every page at every server* (`f_S(p)` in eq. 2,
/// `s` in eqs. 3–5). This table stores exactly that: one row per page, a
/// `Vec` of `(server, count)` pairs each.
///
/// # Examples
///
/// ```
/// use pscd_types::{PageId, ServerId, SubscriptionTableBuilder};
/// let mut b = SubscriptionTableBuilder::new(2);
/// b.add(PageId::new(0), ServerId::new(1), 3);
/// b.add(PageId::new(0), ServerId::new(1), 2); // accumulates
/// let table = b.build();
/// assert_eq!(table.count(PageId::new(0), ServerId::new(1)), 5);
/// assert_eq!(table.count(PageId::new(1), ServerId::new(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SubscriptionTable {
    /// `rows[page] = sorted [(server, count)]` with only non-zero counts.
    rows: Vec<Vec<(ServerId, u32)>>,
}

impl SubscriptionTable {
    /// An empty table covering `page_count` pages with zero subscriptions.
    pub fn empty(page_count: usize) -> Self {
        Self {
            rows: vec![Vec::new(); page_count],
        }
    }

    /// The table whose row `page` is `rows[page]`: each row's servers
    /// strictly ascending, no count zero. Takes the rows as they are, so a
    /// decoder that checked them builds each row by pushing its pairs in
    /// order, without the builder's search.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of order or holds a zero count.
    pub fn from_rows(rows: Vec<Vec<(ServerId, u32)>>) -> Self {
        assert!(
            rows.iter()
                .all(|row| row.windows(2).all(|w| w[0].0 < w[1].0)
                    && row.iter().all(|&(_, c)| c > 0)),
            "rows sorted by server, without zero counts"
        );
        Self { rows }
    }

    /// Number of pages covered by the table.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.rows.len()
    }

    /// The number of subscriptions at `server` matching `page` (0 if the
    /// page is outside the table).
    #[inline]
    pub fn count(&self, page: PageId, server: ServerId) -> u32 {
        self.rows
            .get(page.as_usize())
            .and_then(|row| {
                row.binary_search_by_key(&server, |&(s, _)| s)
                    .ok()
                    .map(|i| row[i].1)
            })
            .unwrap_or(0)
    }

    /// The servers with at least one subscription matching `page`, with
    /// their counts, sorted by server id. Empty for pages outside the table.
    #[inline]
    pub fn matched_servers(&self, page: PageId) -> &[(ServerId, u32)] {
        self.rows
            .get(page.as_usize())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Sets the count of `(page, server)` to `count` — a live subscribe:
    /// inserts, updates or (at `count == 0`) removes the pair, keeping the
    /// row sorted by server and free of zero counts.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the table.
    #[inline]
    pub fn set(&mut self, page: PageId, server: ServerId, count: u32) {
        let row = &mut self.rows[page.as_usize()];
        match row.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(i) if count == 0 => {
                row.remove(i);
            }
            Ok(i) => row[i].1 = count,
            Err(_) if count == 0 => {}
            Err(i) => row.insert(i, (server, count)),
        }
    }

    /// Iterates over `(page, server, count)` for every non-zero entry.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, ServerId, u32)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(p, row)| row.iter().map(move |&(s, c)| (PageId::new(p as u32), s, c)))
    }
}

/// Incremental builder for a [`SubscriptionTable`].
#[derive(Debug, Clone, Default)]
pub struct SubscriptionTableBuilder {
    rows: Vec<Vec<(ServerId, u32)>>,
}

impl SubscriptionTableBuilder {
    /// Creates a builder covering `page_count` pages.
    pub fn new(page_count: usize) -> Self {
        Self {
            rows: vec![Vec::new(); page_count],
        }
    }

    /// Adds `count` subscriptions at `server` matching `page`, accumulating
    /// with any previous additions. Zero counts are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the page count given to
    /// [`SubscriptionTableBuilder::new`].
    pub fn add(&mut self, page: PageId, server: ServerId, count: u32) -> &mut Self {
        if count == 0 {
            return self;
        }
        let row = &mut self.rows[page.as_usize()];
        match row.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(i) => row[i].1 += count,
            Err(i) => row.insert(i, (server, count)),
        }
        self
    }

    /// Finalizes the table.
    pub fn build(self) -> SubscriptionTable {
        SubscriptionTable { rows: self.rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_is_all_zero() {
        let t = SubscriptionTable::empty(3);
        assert_eq!(t.page_count(), 3);
        assert_eq!(t.count(PageId::new(0), ServerId::new(0)), 0);
        assert!(t.matched_servers(PageId::new(2)).is_empty());
    }

    #[test]
    fn out_of_range_page_reads_as_zero() {
        let t = SubscriptionTable::empty(1);
        assert_eq!(t.count(PageId::new(9), ServerId::new(0)), 0);
        assert!(t.matched_servers(PageId::new(9)).is_empty());
    }

    #[test]
    fn builder_accumulates_and_sorts() {
        let mut b = SubscriptionTableBuilder::new(2);
        b.add(PageId::new(1), ServerId::new(5), 2)
            .add(PageId::new(1), ServerId::new(1), 7)
            .add(PageId::new(1), ServerId::new(5), 3)
            .add(PageId::new(1), ServerId::new(3), 0); // ignored
        let t = b.build();
        assert_eq!(
            t.matched_servers(PageId::new(1)),
            &[(ServerId::new(1), 7), (ServerId::new(5), 5)]
        );
        assert_eq!(t.count(PageId::new(1), ServerId::new(3)), 0);
    }

    #[test]
    fn set_inserts_updates_and_removes_keeping_order() {
        let mut t = SubscriptionTable::empty(2);
        let page = PageId::new(1);
        t.set(page, ServerId::new(5), 3);
        t.set(page, ServerId::new(1), 7);
        t.set(page, ServerId::new(9), 2);
        assert_eq!(
            t.matched_servers(page),
            &[
                (ServerId::new(1), 7),
                (ServerId::new(5), 3),
                (ServerId::new(9), 2)
            ]
        );
        // Update in place.
        t.set(page, ServerId::new(5), 4);
        assert_eq!(t.count(page, ServerId::new(5)), 4);
        // Zero removes; zero on an absent pair is a no-op.
        t.set(page, ServerId::new(1), 0);
        t.set(page, ServerId::new(3), 0);
        assert_eq!(t.count(page, ServerId::new(1)), 0);
        assert!(t.matched_servers(PageId::new(0)).is_empty());
        // The table a builder makes of the same counts.
        let mut b = SubscriptionTableBuilder::new(2);
        b.add(page, ServerId::new(9), 2)
            .add(page, ServerId::new(5), 4);
        assert_eq!(t, b.build());
    }

    #[test]
    fn from_rows_is_the_table_a_builder_makes() {
        let rows = vec![vec![(ServerId::new(1), 7), (ServerId::new(5), 5)], vec![]];
        let mut b = SubscriptionTableBuilder::new(2);
        b.add(PageId::new(0), ServerId::new(5), 5)
            .add(PageId::new(0), ServerId::new(1), 7);
        assert_eq!(SubscriptionTable::from_rows(rows), b.build());
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut b = SubscriptionTableBuilder::new(2);
        b.add(PageId::new(0), ServerId::new(0), 1);
        b.add(PageId::new(1), ServerId::new(2), 4);
        let t = b.build();
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(
            entries,
            vec![
                (PageId::new(0), ServerId::new(0), 1),
                (PageId::new(1), ServerId::new(2), 4),
            ]
        );
    }

    #[test]
    #[should_panic]
    fn builder_rejects_out_of_range_page() {
        let mut b = SubscriptionTableBuilder::new(1);
        b.add(PageId::new(5), ServerId::new(0), 1);
    }
}
