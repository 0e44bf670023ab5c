//! The fan-outs a content-mode service has computed, kept so that a
//! request reads the count its page's publish found.
//!
//! The matcher runs once per publication; `f_S(p)` at a proxy is what
//! that notification carried, and it stays what the matcher would answer
//! until that proxy's own subscriptions change. So a kept row is valid
//! **per proxy**: a content subscribe or unsubscribe stamps its proxy, and
//! a request reads the row only if the row is younger than the stamp.

use pscd_types::{PageId, ServerId};

/// A `(proxy, count)` pair in six bytes where the tuple takes eight: the
/// proxy, then the count's low and high halves. The arena is all of what
/// content mode adds to a round's peak, 1.3 M pairs on `match-churn`.
type Entry = [u16; 3];

/// Where a page's kept row lies in the arena, and when it was computed.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    /// `events_applied` at the publish that computed the row (≥ 1); 0
    /// while nothing is kept for the page.
    kept_at: u64,
    block: u32,
    /// A row has at most one entry per proxy, and a fleet is counted in
    /// `u16`.
    len: u16,
    /// The longest row this span has held: what fits in place.
    room: u16,
}

/// Every page's last fan-out in one arena, and every proxy's last churn.
#[derive(Debug, Default)]
pub(crate) struct KeptFanouts {
    /// The rows, each sorted by proxy. Append-only: a page published again
    /// overwrites its span when the new row fits and takes a fresh span at
    /// the end when it does not, so a page's abandoned spans are each
    /// shorter than the one that replaced them and none is longer than the
    /// fleet. The arena grows by whole blocks, each as large as all before
    /// it together and none ever reallocated: growing the way one `Vec`
    /// does — into a copy twice the size — left a freed hole the size of
    /// the arena beside it (`experiments/log/PR24.md`).
    blocks: Vec<Vec<Entry>>,
    /// Indexed by page.
    spans: Vec<Span>,
    /// Indexed by proxy: `events_applied` at its last accepted content
    /// subscribe or unsubscribe.
    churned_at: Vec<u64>,
}

impl KeptFanouts {
    /// Forgets every row and stamp, for a universe of this size.
    pub(crate) fn reset(&mut self, pages: usize, servers: u16) {
        // An empty first block, for empty rows to lie in.
        self.blocks.clear();
        self.blocks.push(Vec::new());
        self.spans.clear();
        self.spans.resize(pages, Span::default());
        self.churned_at.clear();
        self.churned_at.resize(servers as usize, 0);
    }

    /// Keeps `row` as the fan-out of `page`, computed at event `at`.
    pub(crate) fn keep(&mut self, page: PageId, row: &[(ServerId, u32)], at: u64) {
        let span = &mut self.spans[page.as_usize()];
        let len = row.len() as u16;
        if len > span.room {
            let fits = |block: &Vec<Entry>| block.capacity() - block.len() >= row.len();
            if !self.blocks.last().is_some_and(fits) {
                let held: usize = self.blocks.iter().map(Vec::capacity).sum();
                self.blocks.push(Vec::with_capacity(held.max(row.len())));
            }
            span.block = self.blocks.len() as u32 - 1;
            let block = &mut self.blocks[span.block as usize];
            span.start = block.len();
            span.room = len;
            block.resize(span.start + row.len(), Entry::default());
        }
        let slots = &mut self.blocks[span.block as usize][span.start..][..row.len()];
        for (slot, &(server, count)) in slots.iter_mut().zip(row) {
            *slot = [server.index(), count as u16, (count >> 16) as u16];
        }
        span.len = len;
        span.kept_at = at;
    }

    /// Records that `server`'s subscriptions changed at event `at`.
    pub(crate) fn churned(&mut self, server: ServerId, at: u64) {
        self.churned_at[server.as_usize()] = at;
    }

    /// The count `page`'s last publish found at `server` — `None` if the
    /// page has no kept row or the proxy's subscriptions changed since it
    /// was computed, and the matcher has to answer.
    #[inline]
    pub(crate) fn count(&self, page: PageId, server: ServerId) -> Option<u32> {
        let span = self.spans[page.as_usize()];
        if span.kept_at <= self.churned_at[server.as_usize()] {
            return None;
        }
        let row = &self.blocks[span.block as usize][span.start..][..span.len as usize];
        let at = row.binary_search_by_key(&server.index(), |entry| entry[0]);
        Some(at.map_or(0, |i| u32::from(row[i][1]) | u32::from(row[i][2]) << 16))
    }

    /// Pairs the arena holds, abandoned spans included.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: &[(u16, u32)]) -> Vec<(ServerId, u32)> {
        pairs.iter().map(|&(s, n)| (ServerId::new(s), n)).collect()
    }

    #[test]
    fn a_row_answers_until_its_proxy_churns() {
        let mut kept = KeptFanouts::default();
        kept.reset(2, 3);
        let (page, other) = (PageId::new(1), PageId::new(0));
        assert_eq!(kept.count(page, ServerId::new(0)), None, "nothing kept");
        kept.keep(page, &row(&[(0, 2), (2, 5)]), 1);
        assert_eq!(kept.count(page, ServerId::new(0)), Some(2));
        assert_eq!(kept.count(page, ServerId::new(1)), Some(0), "unmatched");
        assert_eq!(kept.count(page, ServerId::new(2)), Some(5));
        assert_eq!(kept.count(other, ServerId::new(2)), None);

        // Churn after the row, with no event between: the row is stale at
        // that proxy and only there.
        kept.churned(ServerId::new(2), 1);
        assert_eq!(kept.count(page, ServerId::new(2)), None);
        assert_eq!(kept.count(page, ServerId::new(0)), Some(2));
        // The next publish of any page is kept fresh.
        kept.keep(other, &row(&[(2, 1)]), 2);
        assert_eq!(kept.count(other, ServerId::new(2)), Some(1));
        kept.keep(page, &row(&[(2, 6)]), 3);
        assert_eq!(kept.count(page, ServerId::new(2)), Some(6));
        assert_eq!(kept.count(page, ServerId::new(0)), Some(0), "the new len");

        kept.reset(2, 3);
        assert_eq!(kept.arena_len(), 0);
        assert_eq!(kept.count(page, ServerId::new(0)), None);
        assert_eq!(kept.count(page, ServerId::new(2)), None);
        kept.keep(page, &[], 1);
        assert_eq!(
            kept.count(page, ServerId::new(2)),
            Some(0),
            "stamp forgotten"
        );
    }

    #[test]
    fn a_republished_page_is_overwritten_where_it_fits() {
        let mut kept = KeptFanouts::default();
        kept.reset(2, 4);
        let page = PageId::new(0);
        kept.keep(page, &row(&[(0, 1), (1, 1), (3, 1)]), 1);
        kept.keep(PageId::new(1), &row(&[(2, 9)]), 2);
        assert_eq!(kept.arena_len(), 4);
        // Unchanged, shorter, and as long again as the span ever was: in
        // place, whatever the order.
        for (at, pairs) in [
            &[(0, 1), (1, 1), (3, 1)][..],
            &[(1, 7)],
            &[(0, 2), (1, 2), (2, 2)],
            &[],
            &[(1, 3), (3, 3)],
        ]
        .into_iter()
        .enumerate()
        {
            kept.keep(page, &row(pairs), 3 + at as u64);
            assert_eq!(kept.arena_len(), 4, "{pairs:?} fits");
            for server in 0..4 {
                let want = pairs.iter().find(|p| p.0 == server).map_or(0, |p| p.1);
                assert_eq!(kept.count(page, ServerId::new(server)), Some(want));
            }
            assert_eq!(kept.count(PageId::new(1), ServerId::new(2)), Some(9));
        }
        // Longer than the span ever was: a fresh span at the end.
        let grown = row(&[(0, 4), (1, 4), (2, 4), (3, 4)]);
        kept.keep(page, &grown, 9);
        assert_eq!(kept.arena_len(), 8);
        assert_eq!(kept.count(page, ServerId::new(2)), Some(4));
        assert_eq!(kept.count(PageId::new(1), ServerId::new(2)), Some(9));
        kept.keep(page, &grown, 10);
        assert_eq!(kept.arena_len(), 8, "and that one is reused in turn");
    }

    #[test]
    fn the_arena_grows_by_blocks_that_stay_where_they_are() {
        let mut kept = KeptFanouts::default();
        kept.reset(200, 3);
        // Counts on both sides of the entry's sixteen-bit seam.
        let count = |page: u32, server: u16| (page * 40_000 + u32::from(server)) | 1;
        let mut homes = Vec::new();
        for page in 0..200u32 {
            let pairs: Vec<_> = (0..3).map(|s| (s, count(page, s))).collect();
            kept.keep(PageId::new(page), &row(&pairs[..1 + page as usize % 3]), 1);
            homes.push(kept.blocks.iter().map(|b| b.as_ptr()).collect::<Vec<_>>());
        }
        assert_eq!(kept.arena_len(), (0..200).map(|p| 1 + p % 3).sum::<usize>());
        // Each block is as large as all before it: few of them, none moved.
        assert!(kept.blocks.len() <= 12, "{} blocks", kept.blocks.len());
        let last = homes.last().unwrap();
        assert!(homes.iter().all(|h| h[..] == last[..h.len()]));
        for page in 0..200u32 {
            for server in 0..3u16 {
                let held = u32::from(server) < 1 + page % 3;
                let want = if held { count(page, server) } else { 0 };
                let got = kept.count(PageId::new(page), ServerId::new(server));
                assert_eq!(got, Some(want), "page {page} at {server}");
            }
        }
    }
}
