//! Strategy-independent event resolution, shared by trace compilation
//! and the live service supervisor.
//!
//! Resolving an event stream means turning raw publish/subscribe/request
//! events into their replayable facts: a publish's matched-proxy fan-out
//! frozen at publish time, the per-origin version head it supersedes
//! (invalidation lineage), and a request's subscription count at request
//! time. Batch compilation ([`CompiledTrace`](crate::CompiledTrace)),
//! the streaming source ([`StreamingTrace`](crate::StreamingTrace)) and
//! the live service (`pscd-service`) all perform exactly this resolution
//! — the service's differential suite proves they end bit-identical. A
//! fan-out and a count come from one of the two ways to answer `f_S(p)`:
//! a [`SubscriptionTable`] (the live service keeps one current with
//! [`SubscriptionTable::set`]) or an [`EngineMatcher`]. The lineage's
//! state machine, [`VersionHeads`], lives here, once.

use pscd_matching::{EngineMatcher, MatchScratch};
use pscd_types::{PageId, PageMeta, ServerId, SubscriptionTable};

/// Where trace compilation looks up a publish's fan-out and a request's
/// subscription count: the static table, or a (frozen) content matcher.
/// The only point at which the monolithic and the per-window compilers
/// differ between the two, so both take one of these.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Matching<'a> {
    Table(&'a SubscriptionTable),
    Matcher(&'a EngineMatcher),
}

/// Per-worker scratch for [`Matching`] lookups; only the matcher arm
/// touches it.
#[derive(Debug, Default)]
pub(crate) struct MatchBuffers {
    scratch: MatchScratch,
    fanout: Vec<(ServerId, u32)>,
}

impl<'a> Matching<'a> {
    /// The matched `(server, count)` list of `page`, sorted by server.
    #[inline]
    pub(crate) fn fanout<'b>(self, page: PageId, buf: &'b mut MatchBuffers) -> &'b [(ServerId, u32)]
    where
        'a: 'b,
    {
        match self {
            Matching::Table(table) => table.matched_servers(page),
            Matching::Matcher(matcher) => {
                matcher.matched_servers_into(page, &mut buf.scratch, &mut buf.fanout);
                &buf.fanout
            }
        }
    }

    /// The subscription count of `(page, server)`.
    #[inline]
    pub(crate) fn count(self, page: PageId, server: ServerId, buf: &mut MatchBuffers) -> u32 {
        match self {
            Matching::Table(table) => table.count(page, server),
            Matching::Matcher(matcher) => matcher.match_count_with(page, server, &mut buf.scratch),
        }
    }
}

/// The invalidation lineage: the latest published version per *origin*
/// page. A publish of page `p` with origin `o` (itself for originals)
/// supersedes whatever version was previously the head of `o`.
///
/// Dense over the page universe — origins are page ids — so lineage
/// lookups are flat indexing and carrying the heads across streaming
/// window boundaries is an explicit, inspectable value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionHeads {
    heads: Vec<Option<PageId>>,
}

impl VersionHeads {
    /// Empty lineage over a `page_count`-page universe (no version
    /// published yet).
    pub fn new(page_count: usize) -> Self {
        Self {
            heads: vec![None; page_count],
        }
    }

    /// Rebuilds carried lineage state (service snapshot recovery).
    pub fn from_heads(heads: Vec<Option<PageId>>) -> Self {
        Self { heads }
    }

    /// Records the publish of `page` (described by `meta`) and returns
    /// the version it supersedes: the previous head of `page`'s origin,
    /// or `None` for a first version.
    ///
    /// # Panics
    ///
    /// Panics if the page's origin is outside the page universe.
    #[inline]
    pub fn publish(&mut self, page: PageId, meta: &PageMeta) -> Option<PageId> {
        let origin = meta.kind().origin().unwrap_or(page);
        self.heads[origin.as_usize()].replace(page)
    }

    /// The raw heads, indexed by origin page (snapshot encoding).
    pub fn heads(&self) -> &[Option<PageId>] {
        &self.heads
    }

    /// Size of the page universe the lineage covers.
    pub fn page_count(&self) -> usize {
        self.heads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{Bytes, PageKind, SimTime};

    fn meta(id: u32, kind: PageKind) -> PageMeta {
        PageMeta::new(PageId::new(id), Bytes::new(100), SimTime::ZERO, kind)
    }

    #[test]
    fn version_heads_track_origin_lineage() {
        let mut heads = VersionHeads::new(4);
        // Original page 0, then two modified versions with origin 0.
        assert_eq!(
            heads.publish(PageId::new(0), &meta(0, PageKind::Original)),
            None
        );
        assert_eq!(
            heads.publish(
                PageId::new(2),
                &meta(
                    2,
                    PageKind::Modified {
                        origin: PageId::new(0),
                        version: 1
                    }
                )
            ),
            Some(PageId::new(0))
        );
        assert_eq!(
            heads.publish(
                PageId::new(3),
                &meta(
                    3,
                    PageKind::Modified {
                        origin: PageId::new(0),
                        version: 1
                    }
                )
            ),
            Some(PageId::new(2))
        );
        // An unrelated original has its own lineage.
        assert_eq!(
            heads.publish(PageId::new(1), &meta(1, PageKind::Original)),
            None
        );
        assert_eq!(heads.heads()[0], Some(PageId::new(3)));
        assert_eq!(heads.heads()[1], Some(PageId::new(1)));
        // Round-trips through raw heads.
        let rebuilt = VersionHeads::from_heads(heads.heads().to_vec());
        assert_eq!(rebuilt, heads);
    }
}
