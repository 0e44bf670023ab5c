//! Content mode's matching: what the ingesting thread shares with the
//! shards, and what each shard keeps.
//!
//! The ingesting thread owns the [`Content`] — the attached matcher and
//! every proxy's last churn — and shares it read-only, one `Arc`, with
//! every shard a batch goes to. A shard resolves the batch for its own
//! proxies in its [`ShardMatching`] and lets go of the `Arc`; a content
//! call takes it back only once every shard has, so it changes the
//! matcher alone and no queued event is matched after the change.
//!
//! The matcher runs once per publication per shard; `f_S(p)` at a proxy
//! is what that notification carried, and it stays what the matcher would
//! answer until that proxy's own subscriptions change. So a shard keeps
//! the fan-outs it computed ([`KeptFanouts`]), and a kept row is valid
//! **per proxy**: a content subscribe or unsubscribe stamps its proxy, and
//! a request reads the row only if the row is younger than the stamp.

use std::ops::Range;

use pscd_matching::{EngineMatcher, MatchScratch};
use pscd_sim::{CompiledEventKind, OwnedWindow, TraceWindow};
use pscd_types::{PageId, ServerId};

use crate::config::ServiceConfig;

/// What every shard resolves a content-mode batch against. Changed only
/// by the ingesting thread, while no shard holds it.
#[derive(Debug)]
pub(crate) struct Content {
    pub(crate) matcher: EngineMatcher,
    /// Indexed by proxy: the timeline index of the first event after its
    /// last accepted content subscribe or unsubscribe, or after the
    /// attach. A row kept from an event before it is stale there.
    churned_at: Vec<u64>,
    /// An empty window at the attach's timeline index, where a shard's
    /// first resolved window starts: every batch before it went out in
    /// count-row mode, and every batch from it on in content mode.
    start: OwnedWindow,
}

impl Content {
    /// `matcher`, attached where the empty pending batch `start` lies: a
    /// row kept from an earlier matcher is stale at every proxy.
    pub(crate) fn new(matcher: EngineMatcher, start: &OwnedWindow) -> Self {
        debug_assert!(start.is_empty(), "attached between batches");
        let at = start.view(&[]).start_index() as u64;
        Self {
            churned_at: vec![at; usize::from(matcher.server_count())],
            matcher,
            start: start.clone(),
        }
    }

    /// Records that `server`'s subscriptions changed before timeline
    /// index `at`.
    pub(crate) fn churned(&mut self, server: ServerId, at: u64) {
        self.churned_at[server.as_usize()] = at;
    }
}

/// A shard's share of content mode: it resolves each batch for the
/// shard's proxies — a publish's fan-out over its range, a request's
/// count at its own proxy — into a window of its own, and keeps the
/// fan-outs it computed.
#[derive(Debug)]
pub(crate) struct ShardMatching {
    servers: Range<u16>,
    pub(crate) kept: KeptFanouts,
    scratch: MatchScratch,
    fanout: Vec<(ServerId, u32)>,
    /// The last batch as this shard resolved it.
    pub(crate) window: OwnedWindow,
    /// Requests answered from a kept row, and by the matcher.
    #[cfg(test)]
    pub(crate) reads: [u32; 2],
}

impl ShardMatching {
    /// The matching of the shard owning `servers`, whose first content
    /// batch starts where `content` was attached.
    pub(crate) fn new(servers: Range<u16>, config: &ServiceConfig, content: &Content) -> Self {
        // A publish fans out to at most the range: the same worst-case
        // sizing as the batch's own pair table.
        let pairs = config.batch_size * servers.len();
        let mut window = OwnedWindow::with_capacity(config.batch_size, pairs);
        window.clone_from(&content.start);
        Self {
            fanout: Vec::with_capacity(servers.len()),
            servers,
            kept: KeptFanouts::new(config.pages.len()),
            scratch: MatchScratch::new(),
            window,
            #[cfg(test)]
            reads: [0; 2],
        }
    }

    /// Takes the shard's new range `servers`, with room for its fan-outs,
    /// and keeps every row: a row is still right at the proxies it was
    /// computed for, and a re-plan stamps each proxy that moved churned,
    /// so that no shard reads a row computed without it.
    pub(crate) fn reassign(&mut self, servers: Range<u16>, config: &ServiceConfig) {
        self.fanout.reserve(servers.len());
        let pairs = config.batch_size * servers.len();
        let mut window = OwnedWindow::with_capacity(config.batch_size, pairs);
        window.clone_from(&self.window);
        self.window = window;
        self.servers = servers;
    }

    /// Resolves `batch` — its publishes carry no fan-out and its requests
    /// no count — for the shard's proxies, into the window the shard
    /// steps. A request at another shard's proxy keeps count 0: the step
    /// skips it.
    pub(crate) fn resolve(&mut self, batch: &TraceWindow<'_>, content: &Content) -> &OwnedWindow {
        self.window.clear();
        debug_assert_eq!(
            self.window.view(&[]).start_index(),
            batch.start_index(),
            "a shard resolves every content batch, in order"
        );
        let first = batch.start_index() as u64;
        for (ev, kept_at) in batch.events().iter().zip(first + 1..) {
            match ev.kind {
                CompiledEventKind::Publish { supersedes, .. } => {
                    let (servers, scratch) = (self.servers.clone(), &mut self.scratch);
                    let fanout = &mut self.fanout;
                    content
                        .matcher
                        .matched_servers_in(ev.page, servers, scratch, fanout);
                    self.kept.keep(ev.page, fanout, kept_at);
                    self.window
                        .push_publish(ev.time, ev.page, supersedes, fanout);
                }
                CompiledEventKind::Request { server, .. } => {
                    let subs = match self.servers.contains(&server.index()) {
                        true => self.count(ev.page, server, content),
                        false => 0,
                    };
                    self.window.push_request(ev.time, server, ev.page, subs);
                }
            }
        }
        &self.window
    }

    /// The count `page`'s last publish found at `server` — `None` if the
    /// shard kept none or the proxy's subscriptions changed since.
    pub(crate) fn kept(&self, page: PageId, server: ServerId, content: &Content) -> Option<u32> {
        let churned_at = content.churned_at[server.as_usize()];
        self.kept.count(page, server, churned_at)
    }

    /// What `page`'s publish found at `server`, unless the proxy's
    /// subscriptions changed since; the matcher's answer otherwise.
    fn count(&mut self, page: PageId, server: ServerId, content: &Content) -> u32 {
        let kept = self.kept(page, server, content);
        #[cfg(test)]
        {
            self.reads[usize::from(kept.is_none())] += 1;
        }
        kept.unwrap_or_else(|| {
            content
                .matcher
                .match_count_with(page, server, &mut self.scratch)
        })
    }
}

/// A `(proxy, count)` pair in six bytes where the tuple takes eight: the
/// proxy, then the count's low and high halves. The arena is all of what
/// content mode adds to a round's peak, 1.3 M pairs on `match-churn`.
type Entry = [u16; 3];

/// Where a page's kept row lies in the arena, and when it was computed.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    /// One past the timeline index of the publish that computed the row
    /// (≥ 1); 0 while nothing is kept for the page.
    kept_at: u64,
    block: u32,
    /// A row has at most one entry per proxy, and a fleet is counted in
    /// `u16`.
    len: u16,
    /// The longest row this span has held: what fits in place.
    room: u16,
}

/// Every page's last fan-out at a shard's proxies, in one arena.
#[derive(Debug)]
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
}

impl KeptFanouts {
    /// No row kept yet, for a universe of this size.
    pub(crate) fn new(pages: usize) -> Self {
        Self {
            // An empty first block, for empty rows to lie in.
            blocks: vec![Vec::new()],
            spans: vec![Span::default(); pages],
        }
    }

    /// Keeps `row` as the fan-out of `page`, computed by the event before
    /// timeline index `at`.
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

    /// The count `page`'s last publish found at `server` — `None` if the
    /// page has no kept row or the row was kept before `churned_at`, the
    /// proxy's last churn, and the matcher has to answer.
    #[inline]
    pub(crate) fn count(&self, page: PageId, server: ServerId, churned_at: u64) -> Option<u32> {
        let span = self.spans[page.as_usize()];
        if span.kept_at <= churned_at {
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
        let mut kept = KeptFanouts::new(2);
        // Per proxy, its last churn.
        let mut churned_at = [0; 3];
        let count = |kept: &KeptFanouts, churned_at: &[u64; 3], page, server: u16| {
            kept.count(page, ServerId::new(server), churned_at[usize::from(server)])
        };
        let (page, other) = (PageId::new(1), PageId::new(0));
        assert_eq!(count(&kept, &churned_at, page, 0), None, "nothing kept");
        kept.keep(page, &row(&[(0, 2), (2, 5)]), 1);
        assert_eq!(count(&kept, &churned_at, page, 0), Some(2));
        assert_eq!(count(&kept, &churned_at, page, 1), Some(0), "unmatched");
        assert_eq!(count(&kept, &churned_at, page, 2), Some(5));
        assert_eq!(count(&kept, &churned_at, other, 2), None);

        // Churn after the row, with no event between: the row is stale at
        // that proxy and only there.
        churned_at[2] = 1;
        assert_eq!(count(&kept, &churned_at, page, 2), None);
        assert_eq!(count(&kept, &churned_at, page, 0), Some(2));
        // The next publish of any page is kept fresh.
        kept.keep(other, &row(&[(2, 1)]), 2);
        assert_eq!(count(&kept, &churned_at, other, 2), Some(1));
        kept.keep(page, &row(&[(2, 6)]), 3);
        assert_eq!(count(&kept, &churned_at, page, 2), Some(6));
        assert_eq!(count(&kept, &churned_at, page, 0), Some(0), "the new len");

        kept = KeptFanouts::new(2);
        assert_eq!(kept.arena_len(), 0);
        assert_eq!(count(&kept, &churned_at, page, 0), None);
        assert_eq!(count(&kept, &churned_at, page, 2), None);
        kept.keep(page, &[], 2);
        assert_eq!(count(&kept, &churned_at, page, 2), Some(0));
    }

    #[test]
    fn a_republished_page_is_overwritten_where_it_fits() {
        let mut kept = KeptFanouts::new(2);
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
                assert_eq!(kept.count(page, ServerId::new(server), 0), Some(want));
            }
            assert_eq!(kept.count(PageId::new(1), ServerId::new(2), 0), Some(9));
        }
        // Longer than the span ever was: a fresh span at the end.
        let grown = row(&[(0, 4), (1, 4), (2, 4), (3, 4)]);
        kept.keep(page, &grown, 9);
        assert_eq!(kept.arena_len(), 8);
        assert_eq!(kept.count(page, ServerId::new(2), 0), Some(4));
        assert_eq!(kept.count(PageId::new(1), ServerId::new(2), 0), Some(9));
        kept.keep(page, &grown, 10);
        assert_eq!(kept.arena_len(), 8, "and that one is reused in turn");
    }

    #[test]
    fn the_arena_grows_by_blocks_that_stay_where_they_are() {
        let mut kept = KeptFanouts::new(200);
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
                let got = kept.count(PageId::new(page), ServerId::new(server), 0);
                assert_eq!(got, Some(want), "page {page} at {server}");
            }
        }
    }
}
