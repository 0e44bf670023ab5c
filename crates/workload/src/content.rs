//! Synthetic page-content descriptors for the content-based matcher.
//!
//! The paper's workload only models subscription *counts* (§4.3), but the
//! `pscd-matching` crate ships a full content-based engine. This module
//! bridges the two for examples and integration tests: it deterministically
//! assigns each page a news-like attribute map (category, tags, length) so
//! real subscriptions can be matched against the synthetic stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pscd_matching::{Content, EngineMatcher, Predicate, Subscription, Value};
use pscd_types::{PageId, PageKind, PageMeta, SubscriptionTable};

/// News categories used by the synthetic content model.
pub const CATEGORIES: [&str; 10] = [
    "politics",
    "business",
    "technology",
    "sports",
    "health",
    "science",
    "entertainment",
    "world",
    "local",
    "weather",
];

/// Tag vocabulary used by the synthetic content model.
pub const TAGS: [&str; 20] = [
    "breaking", "election", "markets", "startup", "ai", "tennis", "football", "medicine", "space",
    "climate", "movies", "music", "europe", "asia", "americas", "crime", "courts", "storm",
    "economy", "research",
];

/// Deterministic page → attribute-map assignment.
///
/// A page's content depends only on the model seed and the page's *origin*
/// (modified versions keep their original's category and tags — they are
/// updates of the same article), which is what makes subscription counts
/// stable across versions.
///
/// # Examples
///
/// ```
/// use pscd_matching::Value;
/// use pscd_types::{Bytes, PageId, PageKind, PageMeta, SimTime};
/// use pscd_workload::ContentModel;
///
/// let model = ContentModel::new(7);
/// let page = PageMeta::new(PageId::new(3), Bytes::new(4096), SimTime::ZERO, PageKind::Original);
/// let c = model.content_for(&page);
/// assert!(c.get("category").is_some());
/// assert_eq!(c.get("bytes"), Some(&Value::int(4096)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentModel {
    seed: u64,
}

impl ContentModel {
    /// Creates a content model with the given seed.
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The attribute map for one page.
    pub fn content_for(&self, page: &PageMeta) -> Content {
        let origin = match page.kind() {
            PageKind::Original => page.id(),
            PageKind::Modified { origin, .. } => origin,
        };
        let mut rng = self.article_rng(origin);
        let category = CATEGORIES[rng.random_range(0..CATEGORIES.len())];
        let tag_count = rng.random_range(1..=4usize);
        let mut tags: Vec<&str> = Vec::with_capacity(tag_count);
        for _ in 0..tag_count {
            let t = TAGS[rng.random_range(0..TAGS.len())];
            if !tags.contains(&t) {
                tags.push(t);
            }
        }
        let version = match page.kind() {
            PageKind::Original => 0,
            PageKind::Modified { version, .. } => version as i64,
        };
        Content::new()
            .with("category", Value::str(category))
            .with("tags", Value::tags(tags))
            .with("bytes", Value::int(page.size().as_u64() as i64))
            .with("version", Value::int(version))
    }

    fn article_rng(&self, origin: PageId) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(origin.index() as u64),
        )
    }
}

/// Synthesizes an [`EngineMatcher`] whose content-based evaluation
/// reproduces `table` exactly: every page is registered with a content
/// carrying its own id (`page = <id>`), and each `(page, server, count)`
/// row of the table becomes `count` subscriptions equal-matching that id.
///
/// This is the bridge from the paper's count-based subscription model
/// (§4.3) to the content-based engine: a replay resolved through the
/// returned matcher — including its frozen compilation — is bit-identical
/// to one resolved through the table, which is what the engine-backed
/// trace-compile differential asserts.
///
/// The matcher is returned *unfrozen*, answering by brute force over its
/// subscriptions; callers freeze it once after any further synthesis
/// ([`EngineMatcher::freeze`]).
///
/// # Panics
///
/// Panics if a table row references a server at or beyond `servers`.
pub fn matcher_from_table(table: &SubscriptionTable, servers: u16) -> EngineMatcher {
    let mut matcher = EngineMatcher::new(servers);
    for page in 0..table.page_count() {
        matcher.register_page(
            PageId::new(page as u32),
            Content::new().with("page", Value::int(page as i64)),
        );
    }
    for (page, server, count) in table.iter() {
        let sub = Subscription::new(vec![Predicate::eq("page", Value::int(page.index() as i64))]);
        for _ in 0..count {
            matcher
                .subscribe(server, sub.clone())
                .expect("table row references a server inside the fleet");
        }
    }
    matcher
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{Bytes, ServerId, SimTime, SubscriptionTableBuilder};

    fn page(id: u32, kind: PageKind) -> PageMeta {
        PageMeta::new(PageId::new(id), Bytes::new(1000), SimTime::ZERO, kind)
    }

    #[test]
    fn deterministic_per_page() {
        let m = ContentModel::new(1);
        let p = page(5, PageKind::Original);
        assert_eq!(m.content_for(&p), m.content_for(&p));
    }

    #[test]
    fn versions_share_article_attributes() {
        let m = ContentModel::new(2);
        let original = page(3, PageKind::Original);
        let update = page(
            9,
            PageKind::Modified {
                origin: PageId::new(3),
                version: 2,
            },
        );
        let a = m.content_for(&original);
        let b = m.content_for(&update);
        assert_eq!(a.get("category"), b.get("category"));
        assert_eq!(a.get("tags"), b.get("tags"));
        assert_eq!(a.get("version"), Some(&Value::int(0)));
        assert_eq!(b.get("version"), Some(&Value::int(2)));
    }

    #[test]
    fn different_seeds_shuffle_categories() {
        let a = ContentModel::new(10);
        let b = ContentModel::new(11);
        let category = |m: &ContentModel, i| m.content_for(&page(i, PageKind::Original));
        let differs =
            (0..50).any(|i| category(&a, i).get("category") != category(&b, i).get("category"));
        assert!(differs);
    }

    #[test]
    fn matcher_from_table_reproduces_every_row() {
        let mut b = SubscriptionTableBuilder::new(4);
        b.add(PageId::new(0), ServerId::new(1), 3);
        b.add(PageId::new(0), ServerId::new(2), 1);
        b.add(PageId::new(2), ServerId::new(0), 7);
        let table = b.build();
        let mut m = matcher_from_table(&table, 3);
        m.freeze();
        let (mut scratch, mut fanout) = (pscd_matching::MatchScratch::new(), Vec::new());
        for page in 0..4u32 {
            let page = PageId::new(page);
            m.matched_servers_into(page, &mut scratch, &mut fanout);
            assert_eq!(fanout, table.matched_servers(page), "page {page:?}");
            for server in 0..3u16 {
                let server = ServerId::new(server);
                let count = m.match_count_with(page, server, &mut scratch);
                assert_eq!(count, table.count(page, server));
            }
        }
    }

    #[test]
    fn tags_are_nonempty_and_bounded() {
        let m = ContentModel::new(4);
        for i in 0..30 {
            let c = m.content_for(&page(i, PageKind::Original));
            match c.get("tags") {
                Some(Value::Tags(t)) => assert!(!t.is_empty() && t.len() <= 4),
                other => panic!("expected tags, got {other:?}"),
            }
        }
    }
}
