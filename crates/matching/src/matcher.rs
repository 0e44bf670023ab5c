//! The content-based matcher: `f_S(p)` from real subscriptions.

use std::ops::Range;

use pscd_types::{PageId, ServerId};

use crate::frozen::{Compiled, FrozenIndex, Operands, Row};
use crate::symbol::{PageViews, SymbolTable, View};
use crate::{Content, MatchError, MatchScratch, Subscription, SubscriptionId};

/// Computes `f_S(p)` of the paper's eq. 2 — how many subscriptions at each
/// proxy match a published page — live, from content-based subscriptions.
/// (The paper's own setting, counts the workload generator synthesizes,
/// is a [`SubscriptionTable`](pscd_types::SubscriptionTable).)
///
/// Everything it holds is in one symbol space: a symbol table that
/// lives as long as the matcher interns each subscription's predicates at
/// [`EngineMatcher::subscribe`] and each page's content at
/// [`EngineMatcher::register_page`], and no query hashes a string. It
/// holds each proxy's subscriptions once, compiled, ascending by id (ids
/// count from 0 per proxy and are never reused), and every page's
/// symbolized content in one arena indexed by page id; memory follows the
/// largest registered id. A subscription of one predicate costs no heap
/// block of its own, a conjunction one, a page none.
///
/// [`EngineMatcher::freeze`] indexes the subscriptions in one frozen
/// kernel for the whole fleet. The kernel stays current across
/// subscription churn: a subscription added since the freeze is evaluated
/// beside the kernel, a frozen one that is removed is masked out of it, and
/// only a burst past what that absorbs drops it. While no kernel answers,
/// a query evaluates every subscription by brute force. All three paths
/// evaluate through the kernel's one symbol-space evaluator.
///
/// # Examples
///
/// ```
/// use pscd_matching::{Content, EngineMatcher, MatchScratch, Predicate, Subscription, Value};
/// use pscd_types::{PageId, ServerId};
///
/// let mut m = EngineMatcher::new(2);
/// m.subscribe(
///     ServerId::new(0),
///     Subscription::new(vec![Predicate::eq("category", Value::str("sports"))]),
/// )?;
/// m.register_page(
///     PageId::new(0),
///     Content::new().with("category", Value::str("sports")),
/// );
/// let mut scratch = MatchScratch::new();
/// let page = PageId::new(0);
/// assert_eq!(m.match_count_with(page, ServerId::new(0), &mut scratch), 1);
/// assert_eq!(m.match_count_with(page, ServerId::new(1), &mut scratch), 0);
/// # Ok::<(), pscd_matching::MatchError>(())
/// ```
#[derive(Debug, Default)]
pub struct EngineMatcher {
    /// Every name and string a subscription or a page carries.
    table: SymbolTable,
    /// Per proxy, its subscriptions ascending by id: the one owner.
    subscriptions: Vec<Vec<Row>>,
    /// The tag-set and prefix operands the subscriptions point into;
    /// compacted when a freeze rebuilds the kernel.
    operands: Operands,
    /// Per proxy, the id its next subscription gets.
    next_id: Vec<u64>,
    pages: PageViews,
    /// The frozen compilation of the whole fleet, kept current across
    /// subscription churn; dropped when churn outgrows it and rebuilt by
    /// [`EngineMatcher::freeze`].
    frozen: Option<Frozen>,
}

/// Every proxy's subscriptions as of the last freeze in one
/// [`FrozenIndex`] — less the ones retired since — and the subscriptions
/// added since.
#[derive(Debug)]
struct Frozen {
    index: FrozenIndex,
    /// The subscriptions the kernel does not hold, ascending by proxy and
    /// then id: evaluated after the kernel has answered. An entry names its
    /// subscription in the owner's rows.
    delta: Vec<(ServerId, SubscriptionId)>,
}

/// The most subscriptions a delta holds; one more thaws the kernel, and
/// the next `freeze` folds them all in. An entry costs a binary search in
/// its proxy's rows and an evaluation of its predicates against the page's
/// stored symbols, so the bound is what keeps a publish near the kernel's
/// cost. At the `match-churn` population (201 k subscriptions over 100
/// proxies), measured in October 2026 on a 2-core host, a full delta of
/// 48 page-equality entries adds 2.6 µs (54 ns an entry) to a 2.8 µs
/// fan-out and 50–60 ns to a 250 ns request. The sweeps behind the bound
/// (16 entries a fifth of a fan-out, 64 entries 81–99 %; one 28–31 ms
/// rebuild per 49 subscribes) were taken when an entry was evaluated over
/// the page's `Content` (`experiments/log/PR21.md` and
/// `experiments/log/PR25.md`). No workload holds more than one entry,
/// so no benchmark could carry a re-tune of the bound.
const DELTA_MAX: usize = 48;

impl EngineMatcher {
    /// Creates a matcher for `servers` proxies with no subscriptions.
    pub fn new(servers: u16) -> Self {
        Self {
            subscriptions: vec![Vec::new(); usize::from(servers)],
            next_id: vec![0; usize::from(servers)],
            ..Self::default()
        }
    }

    /// Number of proxies.
    pub fn server_count(&self) -> u16 {
        self.subscriptions.len() as u16
    }

    /// Registers a subscription for a user attached to `server`, compiling
    /// its predicates into the matcher's symbols.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range.
    pub fn subscribe(
        &mut self,
        server: ServerId,
        subscription: Subscription,
    ) -> Result<SubscriptionId, MatchError> {
        let lane = self.lane(server)?;
        let id = SubscriptionId::new(self.next_id[lane]);
        self.next_id[lane] += 1;
        let compiled = Compiled::new(&mut self.table, &mut self.operands, &subscription);
        // Ids only grow, so the rows stay ascending.
        self.subscriptions[lane].push((id, compiled));
        if let Some(frozen) = &mut self.frozen {
            if frozen.delta.len() < DELTA_MAX {
                // Ids only grow, so the newest goes last among its proxy's.
                let at = frozen.delta.partition_point(|&(s, _)| s <= server);
                frozen.delta.insert(at, (server, id));
            } else {
                self.frozen = None;
            }
        }
        Ok(id)
    }

    /// Removes a subscription previously registered at `server`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range and
    /// [`MatchError::UnknownSubscription`] if the id is not registered there.
    pub fn unsubscribe(&mut self, server: ServerId, id: SubscriptionId) -> Result<(), MatchError> {
        let lane = self.lane(server)?;
        let rows = &mut self.subscriptions[lane];
        let at = rows
            .binary_search_by_key(&id, |row| row.0)
            .map_err(|_| MatchError::UnknownSubscription { id })?;
        let (_, removed) = rows.remove(at);
        if let Some(frozen) = &mut self.frozen {
            match frozen.delta.binary_search(&(server, id)) {
                Ok(at) => {
                    frozen.delta.remove(at);
                }
                Err(_) => {
                    let predicates = removed.preds().len();
                    let retired = frozen.index.retire(server.index(), id, predicates);
                    debug_assert!(retired, "{id} at {server:?} is in neither delta nor base");
                    if frozen.index.mostly_retired() {
                        self.frozen = None;
                    }
                }
            }
        }
        Ok(())
    }

    /// Indexes every proxy's subscriptions in one fleet-wide frozen
    /// kernel; they are already compiled, so this interns nothing. A no-op
    /// while a kernel answers: subscribe/unsubscribe calls keep it current
    /// (the delta and the retired mask), so ordinary churn costs no
    /// rebuild. Only a delta grown past its bound, or a base more than half
    /// retired, drops the kernel; the matcher then answers by brute force
    /// until the next call here folds everything into a fresh compilation.
    pub fn freeze(&mut self) {
        if self.frozen.is_some() {
            return;
        }
        if !self.operands.is_empty() {
            // Removed subscriptions leave their operands behind; keep the
            // live ones only.
            let old = std::mem::take(&mut self.operands);
            for (_, sub) in self.subscriptions.iter_mut().flatten() {
                sub.rehome(&mut self.operands, &old);
            }
        }
        self.frozen = Some(Frozen {
            index: FrozenIndex::freeze_fleet(&self.subscriptions, &self.operands),
            delta: Vec::new(),
        });
    }

    /// `true` while a frozen kernel answers — since the last
    /// [`EngineMatcher::freeze`], across any subscription churn the
    /// kernel absorbed.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Associates content with a page id (typically at publish time),
    /// symbolizing it once: its names and strings are interned, and the
    /// content itself is not kept. Re-registering replaces the previous
    /// content, in place where it fits.
    pub fn register_page(&mut self, page: PageId, content: Content) {
        self.pages.register(page, &mut self.table, &content);
    }

    /// The ids of the subscriptions registered at `server`, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range.
    pub fn subscription_ids(
        &self,
        server: ServerId,
    ) -> Result<impl Iterator<Item = SubscriptionId> + '_, MatchError> {
        Ok(self.subscriptions[self.lane(server)?]
            .iter()
            .map(|row| row.0))
    }

    /// A publish's fan-out, `f_S(page)` at every proxy: writes the
    /// `(server, count)` rows of the servers with at least one matching
    /// subscription into `out` (cleared first), sorted by server id,
    /// counting in the caller's [`MatchScratch`]. While a
    /// kernel answers, the call makes zero allocations after warm-up, so a
    /// publish fan-out loop can evaluate the whole fleet without touching
    /// the allocator. [`EngineMatcher::matched_servers_in`] over the whole
    /// fleet.
    pub fn matched_servers_into(
        &self,
        page: PageId,
        scratch: &mut MatchScratch,
        out: &mut Vec<(ServerId, u32)>,
    ) {
        self.matched_servers_in(page, 0..self.server_count(), scratch, out);
    }

    /// A publish's fan-out at the proxies `servers` only (clipped to the
    /// fleet): the rows [`EngineMatcher::matched_servers_into`] writes for
    /// those proxies, searching only their buckets and, while no kernel
    /// answers, evaluating only their subscriptions — so a shard of the
    /// fleet matches its own proxies, and consecutive ranges joined are the
    /// whole fleet's fan-out.
    pub fn matched_servers_in(
        &self,
        page: PageId,
        servers: Range<u16>,
        scratch: &mut MatchScratch,
        out: &mut Vec<(ServerId, u32)>,
    ) {
        out.clear();
        let servers = servers.start..servers.end.min(self.server_count());
        let Some(view) = self.pages.view(page).filter(|_| !servers.is_empty()) else {
            return;
        };
        if let Some(frozen) = &self.frozen {
            // Frozen fast path: one pass over the range's buckets.
            frozen.index.fanout(view, scratch, servers.clone(), out);
            let delta = &frozen.delta;
            let own = delta.partition_point(|&(s, _)| s.index() < servers.start)
                ..delta.partition_point(|&(s, _)| s.index() < servers.end);
            for run in delta[own].chunk_by(|a, b| a.0 == b.0) {
                let server = run[0].0;
                let n = self.delta_matches(run, view);
                if n > 0 {
                    match out.binary_search_by_key(&server, |&(s, _)| s) {
                        Ok(row) => out[row].1 += n,
                        Err(row) => out.insert(row, (server, n)),
                    }
                }
            }
            return;
        }
        for lane in servers {
            let n = self.brute_force(&self.subscriptions[usize::from(lane)], view);
            if n > 0 {
                out.push((ServerId::new(lane), n));
            }
        }
    }

    /// A request's count: the number of subscriptions at `server` matching
    /// `page` (0 for a proxy outside the fleet or a page without content),
    /// counted in the caller's [`MatchScratch`], so a request-resolution
    /// loop runs alloc-free after warm-up.
    pub fn match_count_with(
        &self,
        page: PageId,
        server: ServerId,
        scratch: &mut MatchScratch,
    ) -> u32 {
        let Some(view) = self.pages.view(page) else {
            return 0;
        };
        if let Some(frozen) = &self.frozen {
            let delta = &frozen.delta;
            let own = delta.partition_point(|&(s, _)| s < server)
                ..delta.partition_point(|&(s, _)| s <= server);
            return frozen.index.count_at(view, scratch, server)
                + self.delta_matches(&delta[own], view);
        }
        let rows = self.subscriptions.get(server.as_usize());
        rows.map_or(0, |rows| self.brute_force(rows, view))
    }

    /// Number of pages with registered content.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// `true` if the registered pages are exactly the dense universe
    /// `0..pages`: that many of them, none with an id outside it — and so
    /// content for every id below `pages`. A page without content fans out
    /// to nobody and counts 0 without an error, so whoever resolves a whole
    /// universe through this matcher checks here first.
    pub fn covers(&self, pages: usize) -> bool {
        self.pages.covers(pages)
    }

    /// How many of these delta entries match `view`.
    fn delta_matches(&self, entries: &[(ServerId, SubscriptionId)], view: View<'_>) -> u32 {
        let live = entries.iter().filter_map(|&(server, id)| {
            let rows = &self.subscriptions[server.as_usize()];
            let at = rows.binary_search_by_key(&id, |row| row.0).ok()?;
            Some(&rows[at].1)
        });
        let matching = live.filter(|sub| self.operands.matches(sub.preds(), view));
        matching.count() as u32
    }

    /// How many of `rows` match `view`: the answer while no kernel does.
    fn brute_force(&self, rows: &[Row], view: View<'_>) -> u32 {
        let matching = rows
            .iter()
            .filter(|(_, sub)| self.operands.matches(sub.preds(), view));
        matching.count() as u32
    }

    /// `server`'s position in the fleet.
    fn lane(&self, server: ServerId) -> Result<usize, MatchError> {
        let server_count = self.server_count();
        if server.index() < server_count {
            Ok(server.as_usize())
        } else {
            Err(MatchError::UnknownServer {
                server,
                server_count,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predicate, Value};

    /// `page`'s fan-out rows.
    fn fanout(m: &EngineMatcher, page: PageId) -> Vec<(ServerId, u32)> {
        let mut out = Vec::new();
        m.matched_servers_into(page, &mut MatchScratch::new(), &mut out);
        out
    }

    /// `page`'s count at `server`.
    fn count(m: &EngineMatcher, page: PageId, server: ServerId) -> u32 {
        m.match_count_with(page, server, &mut MatchScratch::new())
    }

    #[test]
    fn engine_matcher_counts_per_server() {
        let mut m = EngineMatcher::new(3);
        assert_eq!(m.server_count(), 3);
        let sports = Subscription::new(vec![Predicate::eq("cat", Value::str("sports"))]);
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        m.subscribe(ServerId::new(2), sports).unwrap();
        m.register_page(
            PageId::new(7),
            Content::new().with("cat", Value::str("sports")),
        );
        assert_eq!(
            fanout(&m, PageId::new(7)),
            vec![(ServerId::new(0), 2), (ServerId::new(2), 1)]
        );
        assert_eq!(count(&m, PageId::new(7), ServerId::new(0)), 2);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(1)), 0);
    }

    #[test]
    fn unregistered_page_matches_nothing() {
        let mut m = EngineMatcher::new(1);
        m.subscribe(ServerId::new(0), Subscription::wildcard())
            .unwrap();
        assert!(fanout(&m, PageId::new(0)).is_empty());
        assert_eq!(count(&m, PageId::new(0), ServerId::new(0)), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn covers_asks_for_every_id_not_for_their_number() {
        let mut m = EngineMatcher::new(1);
        assert!(m.covers(0));
        for id in [1, 2] {
            m.register_page(PageId::new(id), Content::new());
        }
        assert_eq!(m.page_count(), 2);
        assert!(!m.covers(2), "ids 1 and 2 are not the universe 0..2");
        m.register_page(PageId::new(0), Content::new());
        assert!(m.covers(3));
        assert!(!m.covers(2) && !m.covers(4));
    }

    #[test]
    fn unsubscribe_stops_matching() {
        let mut m = EngineMatcher::new(1);
        let id = m
            .subscribe(ServerId::new(0), Subscription::wildcard())
            .unwrap();
        m.register_page(PageId::new(0), Content::new());
        assert_eq!(count(&m, PageId::new(0), ServerId::new(0)), 1);
        m.unsubscribe(ServerId::new(0), id).unwrap();
        assert_eq!(count(&m, PageId::new(0), ServerId::new(0)), 0);
        assert!(matches!(
            m.unsubscribe(ServerId::new(0), id),
            Err(MatchError::UnknownSubscription { .. })
        ));
    }

    #[test]
    fn unknown_server_errors() {
        let mut m = EngineMatcher::new(1);
        assert!(matches!(
            m.subscribe(ServerId::new(9), Subscription::wildcard()),
            Err(MatchError::UnknownServer { .. })
        ));
        assert!(ids(&m, ServerId::new(0)).is_empty());
        assert!(m.subscription_ids(ServerId::new(9)).is_err());
        assert!(matches!(
            m.unsubscribe(ServerId::new(9), SubscriptionId::new(0)),
            Err(MatchError::UnknownServer { .. })
        ));
        assert_eq!(count(&m, PageId::new(0), ServerId::new(9)), 0);
    }

    #[test]
    fn frozen_matches_brute_force_and_stays_current_across_churn() {
        let mut m = EngineMatcher::new(3);
        let sports = Subscription::new(vec![Predicate::eq("cat", Value::str("sports"))]);
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        let at2 = m.subscribe(ServerId::new(2), sports.clone()).unwrap();
        m.register_page(
            PageId::new(7),
            Content::new().with("cat", Value::str("sports")),
        );
        let brute = fanout(&m, PageId::new(7));
        assert!(!m.is_frozen());
        m.freeze();
        assert!(m.is_frozen());
        m.freeze(); // idempotent
        assert_eq!(fanout(&m, PageId::new(7)), brute);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(0)), 2);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(1)), 0);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(9)), 0);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        m.matched_servers_into(PageId::new(7), &mut scratch, &mut out);
        assert_eq!(out, brute);
        // A frozen subscription is retired; the kernel answers on.
        m.unsubscribe(ServerId::new(2), at2).unwrap();
        assert!(m.is_frozen());
        assert_eq!(fanout(&m, PageId::new(7)), vec![(ServerId::new(0), 2)]);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(2)), 0);
        // A new one answers from the delta: a row of its own at proxy 1,
        // one more match in proxy 0's row.
        let at1 = m.subscribe(ServerId::new(1), sports.clone()).unwrap();
        m.subscribe(ServerId::new(0), sports).unwrap();
        assert!(m.is_frozen());
        assert_eq!(
            fanout(&m, PageId::new(7)),
            vec![(ServerId::new(0), 3), (ServerId::new(1), 1)]
        );
        assert_eq!(count(&m, PageId::new(7), ServerId::new(0)), 3);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(1)), 1);
        assert_eq!(count(&m, PageId::new(7), ServerId::new(2)), 0);
        // ... and leaves it again.
        m.unsubscribe(ServerId::new(1), at1).unwrap();
        assert!(m.is_frozen());
        assert_eq!(fanout(&m, PageId::new(7)), vec![(ServerId::new(0), 3)]);
        assert!(matches!(
            m.unsubscribe(ServerId::new(1), at1),
            Err(MatchError::UnknownSubscription { .. })
        ));
    }

    #[test]
    fn a_delta_past_its_bound_thaws_and_the_next_freeze_folds_it() {
        let mut m = EngineMatcher::new(2);
        let sports = Subscription::new(vec![Predicate::eq("cat", Value::str("sports"))]);
        m.subscribe(ServerId::new(1), sports.clone()).unwrap();
        m.register_page(
            PageId::new(0),
            Content::new().with("cat", Value::str("sports")),
        );
        m.freeze();
        for i in 0..DELTA_MAX {
            m.subscribe(ServerId::new((i % 2) as u16), sports.clone())
                .unwrap();
            assert!(m.is_frozen(), "entry {i} fits the delta");
        }
        let full = vec![
            (ServerId::new(0), DELTA_MAX as u32 / 2),
            (ServerId::new(1), DELTA_MAX as u32 / 2 + 1),
        ];
        assert_eq!(fanout(&m, PageId::new(0)), full);
        let last = m.subscribe(ServerId::new(0), sports).unwrap();
        assert!(!m.is_frozen(), "one more than the bound thaws");
        m.unsubscribe(ServerId::new(0), last).unwrap();
        assert_eq!(fanout(&m, PageId::new(0)), full, "brute force");
        m.freeze();
        assert!(m.is_frozen());
        assert_eq!(fanout(&m, PageId::new(0)), full, "folded");
        assert!(m.frozen.as_ref().unwrap().delta.is_empty());
    }

    #[test]
    fn retiring_more_than_half_of_the_base_thaws() {
        let mut m = EngineMatcher::new(1);
        let server = ServerId::new(0);
        let ids: Vec<_> = [
            Subscription::wildcard(),
            Subscription::new(vec![Predicate::exists("cat")]),
            Subscription::new(vec![Predicate::exists("cat"), Predicate::ge("n", 0)]),
            Subscription::wildcard(),
        ]
        .into_iter()
        .map(|sub| m.subscribe(server, sub).unwrap())
        .collect();
        m.register_page(
            PageId::new(0),
            Content::new()
                .with("cat", Value::str("sports"))
                .with("n", Value::int(1)),
        );
        m.freeze();
        // Delta entries come and go without counting against the base.
        let extra = m.subscribe(server, Subscription::wildcard()).unwrap();
        m.unsubscribe(server, extra).unwrap();
        for (gone, &id) in ids.iter().enumerate() {
            assert_eq!(count(&m, PageId::new(0), server), 4 - gone as u32);
            assert_eq!(m.is_frozen(), gone <= 2, "{gone} of 4 retired");
            m.unsubscribe(server, id).unwrap();
        }
        assert!(!m.is_frozen());
        assert_eq!(count(&m, PageId::new(0), server), 0);
    }

    #[test]
    fn rejected_calls_leave_the_kernel_frozen() {
        let mut m = EngineMatcher::new(2);
        let id = m
            .subscribe(ServerId::new(0), Subscription::wildcard())
            .unwrap();
        m.freeze();
        assert!(matches!(
            m.subscribe(ServerId::new(2), Subscription::wildcard()),
            Err(MatchError::UnknownServer { .. })
        ));
        assert!(m.is_frozen(), "a rejected subscribe changed nothing");
        assert!(matches!(
            m.unsubscribe(ServerId::new(2), id),
            Err(MatchError::UnknownServer { .. })
        ));
        assert!(matches!(
            m.unsubscribe(ServerId::new(1), id),
            Err(MatchError::UnknownSubscription { .. })
        ));
        assert!(m.is_frozen(), "a rejected unsubscribe changed nothing");
        m.unsubscribe(ServerId::new(0), id).unwrap();
        assert!(!m.is_frozen());
    }

    #[test]
    fn reregistering_page_replaces_content() {
        let mut m = EngineMatcher::new(1);
        m.subscribe(
            ServerId::new(0),
            Subscription::new(vec![Predicate::eq("cat", Value::str("a"))]),
        )
        .unwrap();
        m.register_page(PageId::new(0), Content::new().with("cat", Value::str("a")));
        assert_eq!(count(&m, PageId::new(0), ServerId::new(0)), 1);
        m.register_page(PageId::new(0), Content::new().with("cat", Value::str("b")));
        assert_eq!(count(&m, PageId::new(0), ServerId::new(0)), 0);
    }

    /// Every class: singles, pairs, conjunctions with a residual, a range
    /// and wildcards.
    fn shapes() -> Vec<Subscription> {
        let cat = |c: &str| Predicate::eq("cat", Value::str(c));
        let tag = |t: &str| Predicate::contains("tags", t);
        let mut subs = vec![Subscription::wildcard(), Subscription::wildcard()];
        for (c, t) in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")] {
            subs.push(Subscription::new(vec![cat(c)]));
            subs.push(Subscription::new(vec![cat(c), tag(t)]));
            subs.push(Subscription::new(vec![
                tag(t),
                Predicate::ge("n", 2),
                cat(c),
            ]));
        }
        subs.push(Subscription::new(vec![Predicate::lt("n", 3)]));
        subs
    }

    /// An empty page, then each category with a tag and a small or large
    /// `n`.
    fn pages() -> Vec<Content> {
        let mut pages = vec![Content::new()];
        for c in ["a", "b", "c"] {
            for n in [1, 4] {
                let page = Content::new().with("cat", Value::str(c));
                pages.push(
                    page.with("tags", Value::tags(["x"]))
                        .with("n", Value::int(n)),
                );
            }
        }
        pages
    }

    /// A matcher beside what it was given: per proxy the `(id,
    /// subscription)` rows, and the pages' contents, which the oracle
    /// reads.
    struct Fleet {
        m: EngineMatcher,
        rows: Vec<Vec<(SubscriptionId, Subscription)>>,
        pages: Vec<Content>,
    }

    impl Fleet {
        /// [`shapes`] round-robin over three proxies, [`pages`] registered.
        fn new() -> Self {
            let mut fleet = Fleet {
                m: EngineMatcher::new(3),
                rows: vec![Vec::new(); 3],
                pages: pages(),
            };
            for (i, sub) in shapes().into_iter().enumerate() {
                fleet.subscribe(i % 3, sub);
            }
            for (page, content) in fleet.pages.iter().enumerate() {
                fleet
                    .m
                    .register_page(PageId::new(page as u32), content.clone());
            }
            fleet
        }

        fn subscribe(&mut self, at: usize, sub: Subscription) {
            let id = self.m.subscribe(ServerId::new(at as u16), sub.clone());
            self.rows[at].push((id.unwrap(), sub));
        }

        fn unsubscribe(&mut self, at: usize, id: SubscriptionId) {
            self.m.unsubscribe(ServerId::new(at as u16), id).unwrap();
            self.rows[at].retain(|row| row.0 != id);
        }

        /// What [`answers`] must be, by [`Subscription::matches`] over
        /// the rows and contents.
        fn brute(&self) -> Answers {
            let count =
                |page: usize, server: usize| match (self.pages.get(page), self.rows.get(server)) {
                    (Some(content), Some(rows)) => {
                        rows.iter().filter(|(_, sub)| sub.matches(content)).count() as u32
                    }
                    _ => 0,
                };
            let answer = |page| {
                let counts: Vec<_> = (0..=self.rows.len()).map(|s| count(page, s)).collect();
                let rows = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
                let fanout = rows.map(|(s, &n)| (ServerId::new(s as u16), n)).collect();
                (fanout, counts)
            };
            (0..=self.pages.len()).map(answer).collect()
        }
    }

    type Answers = Vec<(Vec<(ServerId, u32)>, Vec<u32>)>;

    /// Per page, one unregistered included: the fan-out and every
    /// proxy's request count, one proxy past the fleet included.
    fn answers(m: &EngineMatcher) -> Answers {
        let mut scratch = MatchScratch::new();
        let pages = (0..=m.page_count() as u32).map(PageId::new);
        let answer = |page| {
            let mut fanout = Vec::new();
            m.matched_servers_into(page, &mut scratch, &mut fanout);
            let servers = (0..=m.server_count()).map(ServerId::new);
            let counts = servers.map(|s| m.match_count_with(page, s, &mut scratch));
            (fanout, counts.collect())
        };
        pages.map(answer).collect()
    }

    fn ids(m: &EngineMatcher, server: ServerId) -> Vec<u64> {
        m.subscription_ids(server)
            .unwrap()
            .map(SubscriptionId::raw)
            .collect()
    }

    #[test]
    fn ids_are_per_proxy_and_never_reused() {
        let mut m = EngineMatcher::new(2);
        let (s0, s1) = (ServerId::new(0), ServerId::new(1));
        for server in [s0, s0, s1, s0] {
            m.subscribe(server, Subscription::wildcard()).unwrap();
        }
        assert_eq!((ids(&m, s0), ids(&m, s1)), (vec![0, 1, 2], vec![0]));
        // The newest leaves; its id does not come back, thawed or frozen.
        m.unsubscribe(s0, SubscriptionId::new(2)).unwrap();
        assert_eq!(m.subscribe(s0, Subscription::wildcard()).unwrap().raw(), 3);
        m.freeze();
        m.unsubscribe(s0, SubscriptionId::new(3)).unwrap();
        m.unsubscribe(s0, SubscriptionId::new(0)).unwrap();
        assert_eq!(m.subscribe(s0, Subscription::wildcard()).unwrap().raw(), 4);
        assert_eq!((ids(&m, s0), ids(&m, s1)), (vec![1, 4], vec![0]));
        assert!(matches!(
            m.unsubscribe(s0, SubscriptionId::new(3)),
            Err(MatchError::UnknownSubscription { .. })
        ));
    }

    #[test]
    fn a_thawed_matcher_answers_like_the_refrozen_kernel() {
        let mut fleet = Fleet::new();
        fleet.m.freeze();
        let before = answers(&fleet.m);
        assert_eq!(before, fleet.brute());
        let shapes = shapes();
        for k in 0..=DELTA_MAX {
            fleet.subscribe(k % 3, shapes[k % shapes.len()].clone());
        }
        assert!(!fleet.m.is_frozen());
        let thawed = answers(&fleet.m);
        assert_ne!(thawed, before, "the burst matches");
        assert_eq!(thawed, fleet.brute());
        fleet.m.freeze();
        assert_eq!(answers(&fleet.m), thawed);
    }

    #[test]
    fn unsubscribing_the_last_first_and_a_middle_id_then_freezing_matches_brute_force() {
        let mut fleet = Fleet::new();
        for at in 0..3 {
            let all = ids(&fleet.m, ServerId::new(at as u16));
            for id in [all[all.len() - 1], all[0], all[all.len() / 2]] {
                fleet.unsubscribe(at, SubscriptionId::new(id));
            }
            let left = ids(&fleet.m, ServerId::new(at as u16));
            assert_eq!(left.len(), all.len() - 3);
            assert!(left.is_sorted());
        }
        assert_eq!(answers(&fleet.m), fleet.brute(), "thawed");
        fleet.m.freeze();
        assert_eq!(answers(&fleet.m), fleet.brute());
    }
}
