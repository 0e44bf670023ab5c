//! Differential proof for [`EngineMatcher`]: its frozen kernel and its
//! brute-force evaluation must equal `Subscription::matches` — the same
//! counts, the same fan-out rows — over rotating subscription shapes,
//! content shapes, insert/remove churn, and the wildcard/empty edge
//! cases, on one proxy and on fleets of one to five, whole and split into
//! ranges of proxies. The kernel's
//! id-level checks are its unit tests (`frozen::tests`). The end-to-end
//! `SimResult` half of the differential (all 12 strategies) lives in
//! `crates/spec/tests/variants.rs`: its matcher-compiled and content-mode
//! service rows.

use proptest::prelude::*;

use pscd_matching::{
    Content, EngineMatcher, MatchScratch, Op, Predicate, Subscription, SubscriptionId, Value,
};
use pscd_types::{PageId, ServerId};

const ATTRS: [&str; 4] = ["category", "words", "tags", "author"];
const STRINGS: [&str; 5] = ["sports", "politics", "tech", "music", "science"];
// "zz" never appears in any predicate operand, so contents drawing it
// exercise the uninterned-string paths of the frozen kernel.
const TAGS: [&str; 7] = ["a", "b", "c", "d", "e", "f", "zz"];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::int),
        proptest::sample::select(STRINGS.to_vec()).prop_map(Value::str),
        proptest::collection::btree_set(proptest::sample::select(TAGS.to_vec()), 0..4)
            .prop_map(|set| Value::tags(set.into_iter().collect::<Vec<_>>())),
    ]
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let attr = proptest::sample::select(ATTRS.to_vec());
    prop_oneof![
        (attr.clone(), value_strategy()).prop_map(|(a, v)| Predicate::new(a, Op::Eq(v))),
        (attr.clone(), value_strategy()).prop_map(|(a, v)| Predicate::new(a, Op::Ne(v))),
        (attr.clone(), -50i64..50).prop_map(|(a, b)| Predicate::lt(a, b)),
        (attr.clone(), -50i64..50).prop_map(|(a, b)| Predicate::le(a, b)),
        (attr.clone(), -50i64..50).prop_map(|(a, b)| Predicate::gt(a, b)),
        (attr.clone(), -50i64..50).prop_map(|(a, b)| Predicate::ge(a, b)),
        (attr.clone(), proptest::sample::select(TAGS[..6].to_vec()))
            .prop_map(|(a, t)| Predicate::contains(a, t)),
        (
            attr.clone(),
            proptest::sample::select(vec!["s", "sp", "spo", "te"])
        )
            .prop_map(|(a, p)| Predicate::prefix(a, p)),
        attr.prop_map(Predicate::exists),
    ]
}

/// Rotates through every frozen class: wildcards (0 predicates), singles
/// (1) and conjunctions (2..5).
fn subscription_strategy() -> impl Strategy<Value = Subscription> {
    proptest::collection::vec(predicate_strategy(), 0..5).prop_map(Subscription::new)
}

/// A keyed predicate from a small skewed pool: a few hot keys carried by
/// most conjunctions, a tail of cold ones, all three keyed families, and
/// keys that pair on one attribute (two tags of a set; equality and
/// `Contains` on one category).
fn hot_key_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        6 => Just(Predicate::eq("category", Value::str("sports"))),
        3 => Just(Predicate::contains("tags", "a")),
        2 => Just(Predicate::eq("category", Value::str("politics"))),
        2 => Just(Predicate::eq("words", Value::int(7))),
        2 => Just(Predicate::contains("tags", "b")),
        1 => Just(Predicate::contains("category", "tech")),
        1 => Just(Predicate::contains("category", "sports")),
        1 => Just(Predicate::eq("author", Value::str("music"))),
    ]
}

/// 65-200 conjunctions over the hot keys, so one proxy's candidate bits
/// span several words and the buckets differ in size by an order of
/// magnitude; each has one to three hot keys (a pair, or a pair and a
/// residual key; repeats included) and up to two arbitrary predicates in
/// any position. A conjunction of scanned-family predicates only and a
/// five-predicate one are always among them, and up to three singles
/// share the hot keys' buckets (a family then holds singles and access
/// predicates of several proxies).
fn conjunctions_strategy() -> impl Strategy<Value = Vec<Subscription>> {
    let conjunction = (
        proptest::collection::vec(hot_key_strategy(), 1..4),
        proptest::collection::vec(predicate_strategy(), 0..3),
        proptest::bool::ANY,
    )
        .prop_map(|(mut keys, mut rest, keys_first)| {
            if keys.len() + rest.len() < 2 {
                rest.push(Predicate::exists("tags"));
            }
            if keys_first {
                keys.append(&mut rest);
                Subscription::new(keys)
            } else {
                rest.append(&mut keys);
                Subscription::new(rest)
            }
        });
    let singles = proptest::collection::vec(hot_key_strategy(), 0..4);
    (proptest::collection::vec(conjunction, 63..199), singles).prop_map(|(mut subs, singles)| {
        subs.extend(singles.into_iter().map(|p| Subscription::new(vec![p])));
        subs.push(Subscription::new(vec![
            Predicate::ge("words", 0),
            Predicate::exists("tags"),
            Predicate::prefix("category", "sp"),
        ]));
        subs.push(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "a"),
            Predicate::ne("author", Value::str("music")),
            Predicate::le("words", 7),
            Predicate::exists("words"),
        ]));
        subs
    })
}

fn content_of(attrs: impl IntoIterator<Item = (&'static str, Value)>) -> Content {
    let mut c = Content::new();
    for (k, v) in attrs {
        c.set(k, v);
    }
    c
}

/// Arbitrary contents, and contents biased onto the hot keys of
/// [`hot_key_strategy`] (with arbitrary attributes over or beside them).
fn content_strategy() -> impl Strategy<Value = Content> {
    let arbitrary = || {
        proptest::collection::btree_map(
            proptest::sample::select(ATTRS.to_vec()),
            value_strategy(),
            0..4,
        )
    };
    let hot = (
        proptest::sample::select(vec!["sports", "sports", "politics", "tech"]),
        proptest::collection::btree_set(proptest::sample::select(TAGS.to_vec()), 0..3),
        arbitrary(),
        0u8..4,
    )
        .prop_map(|(category, tags, over, keep)| {
            let mut tags: Vec<_> = tags.into_iter().collect();
            tags.push("a");
            let hot = [
                ("category", Value::str(category)),
                ("tags", Value::tags(tags)),
                ("words", Value::int(7)),
            ];
            // `keep` of the three hot attributes survive the overlay.
            content_of(hot.into_iter().take(keep as usize).chain(over))
        });
    prop_oneof![arbitrary().prop_map(content_of), hot]
}

/// One proxy's subscriptions as the matcher owns them.
type Rows = Vec<(SubscriptionId, Subscription)>;

/// `subs` numbered from 0, as one proxy of a matcher numbers them.
fn numbered(subs: Vec<Subscription>) -> Rows {
    (0..).map(SubscriptionId::new).zip(subs).collect()
}

/// How many of `rows` match `content`: the oracle.
fn brute_force(rows: &[(SubscriptionId, Subscription)], content: &Content) -> u32 {
    rows.iter().filter(|(_, s)| s.matches(content)).count() as u32
}

/// A one-proxy matcher holding `rows`, ids and all — an id `rows` skips
/// is subscribed and removed again — with `contents` registered as pages
/// `0..`, before the subscriptions or after them.
fn one_proxy(
    rows: &[(SubscriptionId, Subscription)],
    contents: &[Content],
    pages_first: bool,
) -> EngineMatcher {
    let (mut matcher, at) = (EngineMatcher::new(1), ServerId::new(0));
    let register = |matcher: &mut EngineMatcher| {
        for (i, content) in contents.iter().enumerate() {
            matcher.register_page(PageId::new(i as u32), content.clone());
        }
    };
    if pages_first {
        register(&mut matcher);
    }
    for (id, sub) in rows {
        loop {
            let next = matcher.subscribe(at, sub.clone()).unwrap();
            if next == *id {
                break;
            }
            matcher.unsubscribe(at, next).unwrap();
        }
    }
    if !pages_first {
        register(&mut matcher);
    }
    let ids: Vec<_> = matcher.subscription_ids(at).unwrap().collect();
    assert_eq!(ids, rows.iter().map(|row| row.0).collect::<Vec<_>>());
    matcher
}

/// Checks one-proxy matchers holding `rows` against brute force on every
/// content — the count and the fan-out row, thawed and frozen — with the
/// pages registered before the subscriptions (a predicate then finds the
/// symbols a page interned) and after them.
fn assert_differential(rows: &[(SubscriptionId, Subscription)], contents: &[Content]) {
    let at = ServerId::new(0);
    let mut scratch = MatchScratch::new();
    let mut fanout = Vec::new();
    for pages_first in [true, false] {
        let mut matcher = one_proxy(rows, contents, pages_first);
        for frozen in [false, true] {
            if frozen {
                matcher.freeze();
            }
            for (i, content) in contents.iter().enumerate() {
                let (page, n) = (PageId::new(i as u32), brute_force(rows, content));
                let count = matcher.match_count_with(page, at, &mut scratch);
                assert_eq!(
                    count, n,
                    "page {i}, pages first {pages_first}, frozen {frozen}"
                );
                matcher.matched_servers_into(page, &mut scratch, &mut fanout);
                let row: Vec<_> = (n > 0).then_some((at, n)).into_iter().collect();
                assert_eq!(
                    fanout, row,
                    "page {i}, pages first {pages_first}, frozen {frozen}"
                );
            }
        }
    }
}

/// One proxy's subscriptions: none at all, wildcards only, a mix of
/// every class, or a conjunction-heavy population over a few hot keys.
fn proxy_strategy() -> impl Strategy<Value = Vec<Subscription>> {
    prop_oneof![
        Just(Vec::new()),
        (1usize..4).prop_map(|n| vec![Subscription::wildcard(); n]),
        proptest::collection::vec(subscription_strategy(), 1..16),
        conjunctions_strategy(),
    ]
}

/// What a fleet holds, kept beside the matcher: per proxy, every live
/// `(id, subscription)` — the brute-force oracle's input.
type Mirror = Vec<Rows>;

/// `page`'s fan-out over consecutive ranges of the fleet, joined: a range
/// ends before every proxy whose bit is set in `cuts`, and the last runs
/// past the fleet. Each range's rows must lie inside it.
fn joined_fanout(
    matcher: &EngineMatcher,
    page: PageId,
    cuts: u32,
    scratch: &mut MatchScratch,
) -> Vec<(ServerId, u32)> {
    let servers = matcher.server_count();
    let mut starts: Vec<u16> = (1..servers).filter(|&s| cuts >> s & 1 == 1).collect();
    starts.insert(0, 0);
    let ends = starts.iter().skip(1).copied().chain([u16::MAX]);
    let mut joined = Vec::new();
    let mut rows = vec![(ServerId::new(0), 0)];
    for (start, end) in starts.iter().copied().zip(ends) {
        matcher.matched_servers_in(page, start..end, scratch, &mut rows);
        assert!(
            rows.iter().all(|(s, _)| (start..end).contains(&s.index())),
            "rows of page {page:?} outside {start}..{end}: {rows:?}"
        );
        joined.extend_from_slice(&rows);
    }
    joined
}

/// Checks `matcher` against `mirror` on every content: the fan-out rows
/// and every single `(page, server)` count must equal brute-force
/// `Subscription::matches`, whether a kernel answers or the matcher is
/// thawed, and the matcher's ids must be the mirror's. The fan-out over
/// the ranges `cuts` splits the fleet into, and over one range per proxy
/// (each the count a request reads there), joined, is the whole fleet's.
fn assert_fleet(matcher: &EngineMatcher, mirror: &Mirror, contents: &[Content], cuts: u32) {
    let servers = mirror.len() as u16;
    for (server, rows) in (0..servers).map(ServerId::new).zip(mirror) {
        let ids: Vec<_> = matcher.subscription_ids(server).unwrap().collect();
        assert_eq!(ids, rows.iter().map(|row| row.0).collect::<Vec<_>>());
    }
    let mut scratch = MatchScratch::new();
    let mut rows = vec![(ServerId::new(0), 0)];
    for (i, content) in contents.iter().enumerate() {
        let page = PageId::new(i as u32);
        let brute: Vec<u32> = mirror
            .iter()
            .map(|subs| subs.iter().filter(|(_, s)| s.matches(content)).count() as u32)
            .collect();
        matcher.matched_servers_into(page, &mut scratch, &mut rows);
        let expected: Vec<_> = (0..servers)
            .map(ServerId::new)
            .zip(brute.iter().copied())
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(rows, expected, "fan-out rows of page {i}");
        for cuts in [cuts, u32::MAX] {
            let joined = joined_fanout(matcher, page, cuts, &mut scratch);
            assert_eq!(joined, rows, "page {i} over the ranges cut at {cuts:b}");
        }
        for outside in [servers..servers + 1, servers..u16::MAX] {
            let mut rows = vec![(ServerId::new(0), 0)];
            matcher.matched_servers_in(page, outside.clone(), &mut scratch, &mut rows);
            assert!(rows.is_empty(), "page {i} at {outside:?}");
        }
        for (server, &n) in (0..servers).map(ServerId::new).zip(&brute) {
            assert_eq!(
                matcher.match_count_with(page, server, &mut scratch),
                n,
                "page {i} at {server:?}"
            );
        }
        for outside in [servers, u16::MAX] {
            let outside = ServerId::new(outside);
            assert_eq!(matcher.match_count_with(page, outside, &mut scratch), 0);
        }
    }
    let unregistered = PageId::new(contents.len() as u32);
    matcher.matched_servers_into(unregistered, &mut scratch, &mut rows);
    assert!(rows.is_empty(), "unregistered page");
    assert_eq!(
        matcher.match_count_with(unregistered, ServerId::new(0), &mut scratch),
        0
    );
}

/// Pages registered after the first freeze: a name (`late`) and strings
/// (`fresh`, `freshly`, `stale`, `fresh-tag`) no predicate has seen yet,
/// and integers at the `i64` edges.
fn late_pages() -> Vec<Content> {
    vec![
        content_of([
            ("late", Value::str("fresh")),
            ("words", Value::int(i64::MIN)),
            ("tags", Value::tags(["a", "zz", "fresh-tag"])),
        ]),
        content_of([
            ("late", Value::str("freshly")),
            ("words", Value::int(i64::MAX)),
            ("tags", Value::tags(["a"])),
            ("category", Value::str("spam")),
        ]),
        content_of([
            ("late", Value::str("stale")),
            ("tags", Value::tags(["fresh-tag"])),
        ]),
    ]
}

/// Every operator, each alone and then each with the next: `!=` on an
/// integer, a string and a tag set, tag-set `==`, prefixes, ranges at the
/// `i64` edges, and operands a content interned first (`zz` by a drawn
/// content, the rest by [`late_pages`]).
fn every_operator() -> Vec<Subscription> {
    let preds = [
        Predicate::ne("words", Value::int(7)),
        Predicate::ne("category", Value::str("sports")),
        Predicate::ne("late", Value::str("fresh")),
        Predicate::ne("tags", Value::tags(["a"])),
        Predicate::ne("tags", Value::tags(["a", "zz"])),
        Predicate::eq("tags", Value::tags(["a"])),
        Predicate::eq("tags", Value::tags(["a", "zz", "fresh-tag"])),
        Predicate::prefix("category", "sp"),
        Predicate::prefix("late", "fre"),
        Predicate::lt("words", i64::MIN),
        Predicate::le("words", i64::MIN),
        Predicate::gt("words", i64::MAX),
        Predicate::ge("words", i64::MAX),
        Predicate::lt("words", i64::MAX),
        Predicate::gt("words", i64::MIN),
        Predicate::eq("late", Value::str("fresh")),
        Predicate::contains("tags", "zz"),
        Predicate::contains("late", "fresh"),
        Predicate::exists("late"),
    ];
    let next = |i: usize| preds[(i + 1) % preds.len()].clone();
    let singles = preds.iter().map(|p| Subscription::new(vec![p.clone()]));
    let pairs = (0..preds.len()).map(|i| Subscription::new(vec![preds[i].clone(), next(i)]));
    singles.chain(pairs).collect()
}

/// `EngineMatcher`'s private bound on its delta, mirrored: the number of
/// subscriptions a frozen matcher takes before it thaws.
const DELTA_BOUND: usize = 48;

/// A matcher under churn beside what it must equal: the brute-force
/// mirror of its subscriptions and of its pages' contents, and a model of
/// when a kernel answers — frozen until the delta would pass its bound or
/// more than half of the base is retired. The matcher keeps neither a
/// `Subscription` nor a `Content`, so the mirror is the oracle's only
/// input. Every call checks the whole fleet, so each state a kernel passes
/// through (delta only, retired bits only, both, thawed, folded) is
/// compared.
struct Churned {
    matcher: EngineMatcher,
    mirror: Mirror,
    contents: Vec<Content>,
    /// Subscriptions the current kernel was frozen from, and how many of
    /// them are retired; ids added since, per proxy.
    base: usize,
    retired: usize,
    delta: Vec<(usize, SubscriptionId)>,
    frozen: bool,
    /// Where [`assert_fleet`] splits the fleet into ranges.
    cuts: u32,
}

impl Churned {
    fn check(&self) {
        assert_eq!(self.matcher.is_frozen(), self.frozen, "a kernel answers");
        assert_fleet(&self.matcher, &self.mirror, &self.contents, self.cuts);
    }

    /// Registers `content` as page `page`: the next id, or one already
    /// registered, whose content it replaces.
    fn register(&mut self, page: usize, content: Content) {
        self.matcher
            .register_page(PageId::new(page as u32), content.clone());
        match self.contents.get_mut(page) {
            Some(old) => *old = content,
            None => self.contents.push(content),
        }
        self.check();
    }

    fn freeze(&mut self) {
        self.matcher.freeze();
        if !self.frozen {
            self.base = self.mirror.iter().map(Vec::len).sum();
            self.retired = 0;
            self.delta.clear();
            self.frozen = true;
        }
        self.check();
    }

    /// Subscribes without checking: the population before the first
    /// freeze.
    fn add(&mut self, at: usize, sub: &Subscription) -> SubscriptionId {
        let server = ServerId::new(at as u16);
        let id = self.matcher.subscribe(server, sub.clone()).unwrap();
        self.mirror[at].push((id, sub.clone()));
        if self.frozen && self.delta.len() < DELTA_BOUND {
            self.delta.push((at, id));
        } else {
            self.frozen = false;
        }
        id
    }

    fn subscribe(&mut self, at: usize, sub: &Subscription) -> SubscriptionId {
        let id = self.add(at, sub);
        self.check();
        id
    }

    fn unsubscribe(&mut self, at: usize, id: SubscriptionId) {
        let server = ServerId::new(at as u16);
        self.matcher.unsubscribe(server, id).unwrap();
        self.mirror[at].retain(|&(live, _)| live != id);
        if let Some(entry) = self.delta.iter().position(|&e| e == (at, id)) {
            self.delta.swap_remove(entry);
        } else {
            self.retired += 1;
            self.frozen &= self.retired * 2 <= self.base;
        }
        self.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fleet-wide kernel: random fleets of one to five proxies (empty,
    /// wildcard-only and mixed ones, the same subscriptions duplicated at
    /// several proxies) resolve every publish fan-out and every request
    /// like brute force — frozen, after every subscribe and unsubscribe
    /// the kernel absorbs (a delta, retired bits, both), thawed by a burst
    /// past either bound, and frozen again. Between the churn and the
    /// burst, pages join with names and strings no predicate has seen,
    /// pages are registered again, and every operator joins the delta over
    /// strings those pages interned first; the burst then thaws them into
    /// brute force and the freeze after it folds them into the kernel.
    /// In every one of those states, the fan-outs over a drawn split of
    /// the fleet into consecutive ranges, joined, are the whole fleet's.
    #[test]
    fn fleet_fanout_and_requests_agree_with_brute_force(
        proxies in proptest::collection::vec(proxy_strategy(), 1..6),
        shared in proptest::collection::vec((subscription_strategy(), 0u8..32), 0..4),
        contents in proptest::collection::vec(content_strategy(), 1..8),
        removes in proptest::collection::vec(proptest::bool::ANY, 0..24),
        late in proptest::collection::vec((subscription_strategy(), 0usize..5), 0..8),
        adds_first in proptest::bool::ANY,
        cuts in 0u32..32,
    ) {
        let servers = proxies.len();
        let mut fleet = Churned {
            matcher: EngineMatcher::new(servers as u16),
            mirror: vec![Vec::new(); servers],
            contents: Vec::new(),
            base: 0,
            retired: 0,
            delta: Vec::new(),
            frozen: false,
            cuts,
        };
        for (i, content) in contents.iter().enumerate() {
            fleet.register(i, content.clone());
        }
        for (at, subs) in proxies.iter().enumerate() {
            for sub in subs {
                fleet.add(at, sub);
            }
        }
        // Bit `p` of the mask places a copy at proxy `p`.
        for (sub, mask) in &shared {
            for at in (0..servers).filter(|at| mask >> at & 1 == 1) {
                fleet.add(at, sub);
            }
        }
        // One of each class at a middle proxy, over the first content's
        // first attribute, to be retired from the base by name.
        let mid = servers / 2;
        let (attr, value) = contents[0]
            .iter()
            .next()
            .map_or(("category", Value::str("sports")), |(a, v)| (a, v.clone()));
        let planted = [
            Subscription::wildcard(),
            Subscription::new(vec![Predicate::exists(attr)]),
            Subscription::new(vec![Predicate::exists(attr), Predicate::new(attr, Op::Eq(value))]),
        ];
        let planted_ids: Vec<_> = planted.iter().map(|sub| fleet.add(mid, sub)).collect();
        fleet.check();
        fleet.freeze();

        // Churn the kernel absorbs. Either the late ones join first (a
        // delta over an untouched base, then retired bits beside it) or
        // the flagged ones leave first, round-robin over the proxies
        // (retired bits only, then a delta beside them).
        for adds in [adds_first, !adds_first] {
            if adds {
                for (sub, at) in &late {
                    fleet.subscribe(at % servers, sub);
                }
                // A delta entry leaves again.
                let id = fleet.subscribe(mid, &planted[2]);
                fleet.unsubscribe(mid, id);
            } else {
                for &id in &planted_ids {
                    fleet.unsubscribe(mid, id);
                }
                for (k, _) in removes.iter().enumerate().filter(|(_, &remove)| remove) {
                    let at = k % servers;
                    if !fleet.mirror[at].is_empty() {
                        let (id, _) = fleet.mirror[at][k % fleet.mirror[at].len()];
                        fleet.unsubscribe(at, id);
                    }
                }
            }
        }

        fleet.freeze();
        for page in late_pages() {
            fleet.register(fleet.contents.len(), page);
        }
        // Page 0 takes a late page's content and the last one page 0's.
        let last = fleet.contents.len() - 1;
        fleet.register(0, late_pages()[0].clone());
        fleet.register(last, contents[0].clone());
        for (k, sub) in every_operator().iter().enumerate() {
            fleet.subscribe(k % servers, sub);
        }
        prop_assert!(fleet.frozen, "every operator is in the delta");

        // A burst past the delta's bound thaws the kernel; the next
        // freeze folds base and delta, and nothing it answers changes.
        for k in fleet.delta.len()..=DELTA_BOUND {
            prop_assert!(fleet.frozen, "entry {} fits the delta", k);
            fleet.subscribe(k % servers, &planted[k % planted.len()]);
        }
        prop_assert!(!fleet.frozen);
        fleet.freeze();
        prop_assert!(fleet.delta.is_empty());

        // Retiring more than half of a base thaws it too.
        let mut k = 0;
        while fleet.frozen {
            let at = (0..servers)
                .map(|i| (k + i) % servers)
                .find(|&at| !fleet.mirror[at].is_empty())
                .expect("a frozen base this large is not all retired");
            let (id, _) = fleet.mirror[at][k % fleet.mirror[at].len()];
            fleet.unsubscribe(at, id);
            k += 1;
        }
        prop_assert!(fleet.retired * 2 > fleet.base);
        fleet.freeze();
    }

    /// Freeze of a fresh proxy: the kernel agrees with brute force on
    /// random subscription populations and contents.
    #[test]
    fn frozen_agrees_with_brute_force(
        subs in proptest::collection::vec(subscription_strategy(), 0..24),
        contents in proptest::collection::vec(content_strategy(), 0..10),
    ) {
        assert_differential(&numbered(subs), &contents);
    }

    /// Freeze after churn: unsubscribes leave gaps in a proxy's ids and
    /// later subscribes number on past them; freezing the rows must still
    /// be bit-identical to brute force.
    #[test]
    fn frozen_agrees_after_insert_remove_churn(
        subs in proptest::collection::vec(subscription_strategy(), 1..24),
        removes in proptest::collection::vec(proptest::bool::ANY, 1..24),
        late_subs in proptest::collection::vec(subscription_strategy(), 0..8),
        contents in proptest::collection::vec(content_strategy(), 0..8),
    ) {
        let mut rows = numbered(subs);
        let next = rows.len() as u64;
        let mut removes = removes.into_iter();
        rows.retain(|_| !removes.next().unwrap_or(false));
        rows.extend((next..).map(SubscriptionId::new).zip(late_subs));
        assert_differential(&rows, &contents);
    }

    /// One scratch reused across two frozen matchers, page by page, never
    /// leaks state between matches (epoch discipline under rotation).
    #[test]
    fn scratch_rotation_is_stateless(
        subs_a in proptest::collection::vec(subscription_strategy(), 0..12),
        subs_b in proptest::collection::vec(subscription_strategy(), 0..12),
        contents in proptest::collection::vec(content_strategy(), 1..6),
    ) {
        let (ra, rb) = (numbered(subs_a), numbered(subs_b));
        let (mut ma, mut mb) = (one_proxy(&ra, &contents, false), one_proxy(&rb, &contents, false));
        ma.freeze();
        mb.freeze();
        let at = ServerId::new(0);
        let mut scratch = MatchScratch::new();
        for (i, content) in contents.iter().enumerate() {
            let page = PageId::new(i as u32);
            for (matcher, rows) in [(&ma, &ra), (&mb, &rb)] {
                let count = matcher.match_count_with(page, at, &mut scratch);
                prop_assert_eq!(count, brute_force(rows, content));
            }
        }
    }
}

#[test]
fn wildcard_and_empty_edges() {
    // No subscriptions, empty content.
    assert_differential(&[], &[Content::new()]);
    // Wildcards only.
    assert_differential(
        &numbered(vec![Subscription::wildcard(); 2]),
        &[
            Content::new(),
            Content::new().with("category", Value::str("sports")),
        ],
    );
    // Content whose every attribute and string is unknown to the table.
    let rows = numbered(vec![
        Subscription::new(vec![Predicate::eq("category", Value::str("sports"))]),
        Subscription::wildcard(),
    ]);
    assert_differential(
        &rows,
        &[Content::new()
            .with("unknown", Value::str("never-interned"))
            .with("other", Value::tags(["nope"]))],
    );
}
