//! The matching abstraction consumed by the delivery engine.

use std::collections::HashMap;

use pscd_types::{PageId, ServerId, SubscriptionTable};

use crate::{
    Content, FrozenIndex, MatchError, MatchScratch, Subscription, SubscriptionId,
    SubscriptionIndex, SymbolTable,
};

/// Source of per-(page, server) subscription match counts.
///
/// Push-time placement strategies need to know, for a freshly published
/// page, which proxies have interested subscribers and how many (`f_S(p)`
/// in the paper's eq. 2). Two implementations exist:
///
/// * [`TableMatcher`] — counts precomputed by the workload generator
///   (the paper's setting, where subscriptions are synthesized from the
///   request trace through the subscription-quality model).
/// * [`EngineMatcher`] — counts computed live by the content-based
///   [`SubscriptionIndex`] over registered page content.
pub trait Matcher {
    /// Servers with at least one matching subscription for `page`, with
    /// their counts, sorted by server id.
    fn matched_servers(&self, page: PageId) -> Vec<(ServerId, u32)>;

    /// The number of subscriptions at `server` matching `page`.
    fn match_count(&self, page: PageId, server: ServerId) -> u32;
}

/// [`Matcher`] backed by a precomputed [`SubscriptionTable`].
#[derive(Debug, Clone, Default)]
pub struct TableMatcher {
    table: SubscriptionTable,
}

impl TableMatcher {
    /// Wraps a subscription table.
    pub fn new(table: SubscriptionTable) -> Self {
        Self { table }
    }

    /// The underlying table.
    pub fn table(&self) -> &SubscriptionTable {
        &self.table
    }
}

impl From<SubscriptionTable> for TableMatcher {
    fn from(table: SubscriptionTable) -> Self {
        Self::new(table)
    }
}

impl Matcher for TableMatcher {
    fn matched_servers(&self, page: PageId) -> Vec<(ServerId, u32)> {
        self.table.matched_servers(page).to_vec()
    }

    fn match_count(&self, page: PageId, server: ServerId) -> u32 {
        self.table.count(page, server)
    }
}

/// [`Matcher`] that evaluates real content-based subscriptions: one
/// mutable [`SubscriptionIndex`] per proxy server, compiled by
/// [`EngineMatcher::freeze`] into one [`FrozenIndex`] for the whole fleet.
///
/// # Examples
///
/// ```
/// use pscd_matching::{Content, EngineMatcher, Matcher, Predicate, Subscription, Value};
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
/// assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 1);
/// assert_eq!(m.match_count(PageId::new(0), ServerId::new(1)), 0);
/// # Ok::<(), pscd_matching::MatchError>(())
/// ```
#[derive(Debug, Default)]
pub struct EngineMatcher {
    per_server: Vec<SubscriptionIndex>,
    contents: HashMap<PageId, Content>,
    /// The frozen compilation of the whole fleet; dropped (stale) whenever
    /// a subscription changes and rebuilt by [`EngineMatcher::freeze`].
    frozen: Option<Frozen>,
}

/// Every proxy's subscriptions in one [`FrozenIndex`], with the
/// [`SymbolTable`] its contents are symbolized against.
#[derive(Debug)]
struct Frozen {
    table: SymbolTable,
    index: FrozenIndex,
}

impl EngineMatcher {
    /// Creates a matcher for `servers` proxies with no subscriptions.
    pub fn new(servers: u16) -> Self {
        Self {
            per_server: (0..servers).map(|_| SubscriptionIndex::new()).collect(),
            contents: HashMap::new(),
            frozen: None,
        }
    }

    /// Number of proxies.
    pub fn server_count(&self) -> u16 {
        self.per_server.len() as u16
    }

    /// Registers a subscription for a user attached to `server`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range.
    pub fn subscribe(
        &mut self,
        server: ServerId,
        subscription: Subscription,
    ) -> Result<SubscriptionId, MatchError> {
        let id = self.index_mut(server)?.insert(subscription);
        self.frozen = None;
        Ok(id)
    }

    /// Removes a subscription previously registered at `server`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range and
    /// [`MatchError::UnknownSubscription`] if the id is not registered there.
    pub fn unsubscribe(&mut self, server: ServerId, id: SubscriptionId) -> Result<(), MatchError> {
        self.index_mut(server)?
            .remove(id)
            .ok_or(MatchError::UnknownSubscription { id })?;
        self.frozen = None;
        Ok(())
    }

    /// Compiles every per-server index into one fleet-wide frozen kernel.
    /// A no-op when already frozen; any subsequent successful
    /// subscribe/unsubscribe invalidates the compilation (the rebuild path
    /// for dynamic subscribers), and the matcher transparently falls back
    /// to the mutable indexes until frozen again.
    pub fn freeze(&mut self) {
        if self.frozen.is_some() {
            return;
        }
        let mut table = SymbolTable::new();
        let index = FrozenIndex::freeze_fleet(&self.per_server, &mut table);
        self.frozen = Some(Frozen { table, index });
    }

    /// `true` while the frozen compilation is current (no subscription has
    /// changed since the last [`EngineMatcher::freeze`]).
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Associates content with a page id (typically at publish time).
    /// Re-registering replaces the previous content.
    pub fn register_page(&mut self, page: PageId, content: Content) {
        self.contents.insert(page, content);
    }

    /// The registered content of a page, if any.
    pub fn content(&self, page: PageId) -> Option<&Content> {
        self.contents.get(&page)
    }

    /// The per-server subscription index (read-only view).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::UnknownServer`] if `server` is out of range.
    pub fn index(&self, server: ServerId) -> Result<&SubscriptionIndex, MatchError> {
        self.per_server
            .get(server.as_usize())
            .ok_or(MatchError::UnknownServer {
                server,
                server_count: self.per_server.len() as u16,
            })
    }

    /// The batched form of [`Matcher::matched_servers`]: writes the
    /// matched `(server, count)` rows into `out` (cleared first), sorted
    /// by server id, counting in the caller's [`MatchScratch`]. After
    /// warm-up the call makes zero allocations, so a publish fan-out loop
    /// can evaluate the whole fleet without touching the allocator.
    pub fn matched_servers_into(
        &self,
        page: PageId,
        scratch: &mut MatchScratch,
        out: &mut Vec<(ServerId, u32)>,
    ) {
        out.clear();
        let Some(content) = self.contents.get(&page) else {
            return;
        };
        if let Some(frozen) = &self.frozen {
            // Frozen fast path: symbolize once, one pass over the fleet.
            scratch.symbolize(&frozen.table, content);
            frozen.index.fanout_view(scratch, out);
            return;
        }
        for (i, idx) in self.per_server.iter().enumerate() {
            let n = idx.match_count_scratch(content, scratch) as u32;
            if n > 0 {
                out.push((ServerId::new(i as u16), n));
            }
        }
    }

    /// The batched form of [`Matcher::match_count`]: counts in the
    /// caller's [`MatchScratch`] instead of allocating one per call, so a
    /// request-resolution loop can run alloc-free after warm-up.
    pub fn match_count_with(
        &self,
        page: PageId,
        server: ServerId,
        scratch: &mut MatchScratch,
    ) -> u32 {
        let Some(content) = self.contents.get(&page) else {
            return 0;
        };
        if let Some(frozen) = &self.frozen {
            scratch.symbolize(&frozen.table, content);
            return frozen.index.count_at_view(scratch, server);
        }
        self.per_server
            .get(server.as_usize())
            .map(|idx| idx.match_count_scratch(content, scratch) as u32)
            .unwrap_or(0)
    }

    /// Number of pages with registered content.
    pub fn page_count(&self) -> usize {
        self.contents.len()
    }

    fn index_mut(&mut self, server: ServerId) -> Result<&mut SubscriptionIndex, MatchError> {
        let count = self.per_server.len() as u16;
        self.per_server
            .get_mut(server.as_usize())
            .ok_or(MatchError::UnknownServer {
                server,
                server_count: count,
            })
    }
}

impl Matcher for EngineMatcher {
    fn matched_servers(&self, page: PageId) -> Vec<(ServerId, u32)> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.matched_servers_into(page, &mut scratch, &mut out);
        out
    }

    fn match_count(&self, page: PageId, server: ServerId) -> u32 {
        let mut scratch = MatchScratch::new();
        self.match_count_with(page, server, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predicate, Value};
    use pscd_types::SubscriptionTableBuilder;

    #[test]
    fn table_matcher_delegates() {
        let mut b = SubscriptionTableBuilder::new(2);
        b.add(PageId::new(0), ServerId::new(1), 4);
        let m = TableMatcher::from(b.build());
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(1)), 4);
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 0);
        assert_eq!(
            m.matched_servers(PageId::new(0)),
            vec![(ServerId::new(1), 4)]
        );
        assert!(m.matched_servers(PageId::new(1)).is_empty());
        assert_eq!(m.table().page_count(), 2);
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
            m.matched_servers(PageId::new(7)),
            vec![(ServerId::new(0), 2), (ServerId::new(2), 1)]
        );
        assert_eq!(m.match_count(PageId::new(7), ServerId::new(0)), 2);
        assert_eq!(m.match_count(PageId::new(7), ServerId::new(1)), 0);
    }

    #[test]
    fn unregistered_page_matches_nothing() {
        let mut m = EngineMatcher::new(1);
        m.subscribe(ServerId::new(0), Subscription::wildcard())
            .unwrap();
        assert!(m.matched_servers(PageId::new(0)).is_empty());
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 0);
        assert!(m.content(PageId::new(0)).is_none());
    }

    #[test]
    fn unsubscribe_stops_matching() {
        let mut m = EngineMatcher::new(1);
        let id = m
            .subscribe(ServerId::new(0), Subscription::wildcard())
            .unwrap();
        m.register_page(PageId::new(0), Content::new());
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 1);
        m.unsubscribe(ServerId::new(0), id).unwrap();
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 0);
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
        assert!(m.index(ServerId::new(0)).is_ok());
        assert!(m.index(ServerId::new(9)).is_err());
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(9)), 0);
    }

    #[test]
    fn frozen_matches_legacy_and_invalidates_on_churn() {
        let mut m = EngineMatcher::new(3);
        let sports = Subscription::new(vec![Predicate::eq("cat", Value::str("sports"))]);
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        m.subscribe(ServerId::new(0), sports.clone()).unwrap();
        let at2 = m.subscribe(ServerId::new(2), sports.clone()).unwrap();
        m.register_page(
            PageId::new(7),
            Content::new().with("cat", Value::str("sports")),
        );
        let legacy = m.matched_servers(PageId::new(7));
        assert!(!m.is_frozen());
        m.freeze();
        assert!(m.is_frozen());
        m.freeze(); // idempotent
        assert_eq!(m.matched_servers(PageId::new(7)), legacy);
        assert_eq!(m.match_count(PageId::new(7), ServerId::new(0)), 2);
        assert_eq!(m.match_count(PageId::new(7), ServerId::new(1)), 0);
        assert_eq!(m.match_count(PageId::new(7), ServerId::new(9)), 0);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        m.matched_servers_into(PageId::new(7), &mut scratch, &mut out);
        assert_eq!(out, legacy);
        // Churn invalidates; the matcher falls back to the mutable index.
        m.unsubscribe(ServerId::new(2), at2).unwrap();
        assert!(!m.is_frozen());
        assert_eq!(
            m.matched_servers(PageId::new(7)),
            vec![(ServerId::new(0), 2)]
        );
        m.freeze();
        assert_eq!(
            m.matched_servers(PageId::new(7)),
            vec![(ServerId::new(0), 2)]
        );
        m.subscribe(ServerId::new(1), sports).unwrap();
        assert!(!m.is_frozen());
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
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 1);
        m.register_page(PageId::new(0), Content::new().with("cat", Value::str("b")));
        assert_eq!(m.match_count(PageId::new(0), ServerId::new(0)), 0);
    }
}
