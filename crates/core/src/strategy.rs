//! The content-distribution strategy abstraction.

use std::fmt;

use pscd_types::{Bytes, PageId};

pub use pscd_cache::{AccessOutcome, PageRef};

/// Where a strategy sits in the paper's when/how taxonomy (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyClass {
    /// Placement only when users access pages (traditional caching).
    AccessTime,
    /// Placement only when the matching engine pushes pages.
    PushTime,
    /// Both push-time and access-time placement.
    Combined,
}

/// What happened when a matched page was pushed to a proxy.
///
/// Evicted pages are reported through the caller-provided scratch buffer
/// of [`Strategy::on_push`], not carried here — keeping the outcome a
/// plain enum is what lets the replay hot loop run without heap
/// allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The proxy stored the page, evicting the pages listed in the
    /// operation's scratch buffer (possibly none).
    Stored,
    /// The proxy declined the page (not valuable enough / no push module).
    Declined,
}

impl PushOutcome {
    /// `true` if the page entered the cache.
    pub fn is_stored(&self) -> bool {
        matches!(self, PushOutcome::Stored)
    }
}

/// A per-proxy content-distribution strategy: the paper's unit of
/// comparison.
///
/// Each proxy server runs one `Strategy` instance. The delivery engine
/// drives it through two entry points:
///
/// * [`on_push`](Strategy::on_push) — the matching engine determined that
///   a freshly published page matches `subs` subscriptions at this proxy
///   (push-time placement opportunity);
/// * [`on_access`](Strategy::on_access) — a subscriber attached to this
///   proxy requests the page (access-time placement opportunity).
///
/// `subs` is the number of subscriptions matching the page at this proxy
/// (`f_S(p)` / `s` in the paper's equations 2–5); access-only strategies
/// ignore it.
///
/// # Residency contract
///
/// A strategy holds only pages it reported: a page becomes cached only
/// inside an [`on_push`](Strategy::on_push) that returns
/// [`PushOutcome::Stored`] or an [`on_access`](Strategy::on_access) that
/// returns [`AccessOutcome::MissAdmitted`], and a strategy handed to a
/// delivery engine starts empty. It may drop a page at any time without
/// saying so. The delivery engine records where each page *may* live from
/// those two outcomes and asks only those proxies to
/// [`invalidate`](Strategy::invalidate) a stale version, so a strategy
/// that cached a page behind a `Declined`, `Hit` or `MissBypassed` would
/// keep serving it after it was superseded.
pub trait Strategy: fmt::Debug {
    /// Short stable identifier used in reports ("GD*", "SG2", "DC-LAP", …).
    fn name(&self) -> &'static str;

    /// Taxonomy position (Table 1).
    fn class(&self) -> StrategyClass;

    /// Handles a push-time placement opportunity. `evicted` is a
    /// caller-owned scratch buffer: it is cleared on entry and holds the
    /// evicted pages on return (empty unless the outcome is
    /// [`PushOutcome::Stored`]).
    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome;

    /// Pure predicate: would [`on_push`](Strategy::on_push) store this page
    /// right now? The Pushing-When-Necessary scheme (§5.6) is this
    /// question — the proxy evaluates the page's meta-information before
    /// the publisher transfers any content.
    ///
    /// Contract: `would_store(p, s) == on_push(p, s, ..).is_stored()` in
    /// every state, and an `on_push` that declines changes nothing. So
    /// the delivery engine asks `on_push` alone and transfers only what
    /// it stored; a strategy must keep the two in step.
    fn would_store(&self, page: &PageRef, subs: u32) -> bool;

    /// Handles a user request for `page` at this proxy. `evicted` follows
    /// the same scratch-buffer contract as [`on_push`](Strategy::on_push).
    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome;

    /// `true` if the page is currently cached (in any cache portion).
    fn contains(&self, page: PageId) -> bool;

    /// Total cache capacity.
    fn capacity(&self) -> Bytes;

    /// Bytes in use.
    fn used(&self) -> Bytes;

    /// Number of cached pages.
    fn len(&self) -> usize;

    /// `true` if nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops `page` from the cache (its content became stale: a newer
    /// version was published). Returns `true` if it was cached. The
    /// strategy's statistics for other pages are unaffected.
    ///
    /// The delivery engine calls this only on proxies that reported
    /// storing `page` since it was last invalidated (see the residency
    /// contract above); the check whether the page is still there, and the
    /// observer's invalidation event, stay here.
    fn invalidate(&mut self, page: PageId) -> bool;

    /// `true` if the strategy has a push-time module (i.e. pushes should be
    /// routed to it at all).
    fn uses_push(&self) -> bool {
        !matches!(self.class(), StrategyClass::AccessTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_outcome_predicates() {
        assert!(PushOutcome::Stored.is_stored());
        assert!(!PushOutcome::Declined.is_stored());
    }
}
