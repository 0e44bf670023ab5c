//! Counting-based subscription index.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use crate::frozen::FrozenScratch;
use crate::{Content, Op, Subscription, SubscriptionId, Value};

/// A predicate's position: `(dense subscription ordinal, predicate index)`.
///
/// Bucket entries address subscriptions by their *ordinal* — the position
/// in [`SubscriptionIndex::order`] — so the match kernel can count
/// satisfied predicates in a flat array instead of a hash map.
type Entry = (u32, u32);

/// Reusable counting scratch for the batched match kernel.
///
/// Holds one counter slot per registered subscription (by dense ordinal),
/// epoch-stamped so consecutive matches skip clearing: a slot's counter is
/// live only when its stamp equals the current epoch, which a new match
/// bumps in O(1). After warm-up (slots sized to the index, capacities
/// grown to the biggest result) a match makes **zero allocations** — the
/// property the `alloc_free` suite asserts.
///
/// One scratch serves any number of indexes and contents, as long as each
/// call sees a scratch at least as old as the previous one (the scratch
/// grows monotonically). Not `Sync`: use one scratch per worker thread.
///
/// # Examples
///
/// ```
/// use pscd_matching::{Content, MatchScratch, Predicate, Subscription, SubscriptionIndex, Value};
/// let mut idx = SubscriptionIndex::new();
/// let id = idx.insert(Subscription::new(vec![Predicate::ge("words", 100)]));
/// let mut scratch = MatchScratch::new();
/// let mut out = Vec::new();
/// idx.matches_into(&Content::new().with("words", Value::int(150)), &mut scratch, &mut out);
/// assert_eq!(out, vec![id]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Satisfied-predicate counters, indexed by ordinal; live only when
    /// the stamp matches the current epoch.
    counts: Vec<u32>,
    /// Epoch stamp per ordinal.
    stamp: Vec<u32>,
    /// The current match's epoch.
    epoch: u32,
    /// Ordinals touched by the current match.
    touched: Vec<u32>,
    /// Bitset/counter state for the frozen kernel
    /// ([`FrozenIndex`](crate::FrozenIndex)); one scratch serves both
    /// kernels.
    pub(crate) frozen: FrozenScratch,
}

impl MatchScratch {
    /// Creates an empty scratch; it sizes itself to the index on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new match epoch over `n` ordinals.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.counts.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: every stamp is stale, reset them all once.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Counts one satisfied predicate of ordinal `ord`.
    fn bump(&mut self, ord: u32) {
        let i = ord as usize;
        if self.stamp[i] == self.epoch {
            self.counts[i] += 1;
        } else {
            self.stamp[i] = self.epoch;
            self.counts[i] = 1;
            self.touched.push(ord);
        }
    }

    /// Counts one satisfied predicate for every entry in a bucket.
    fn bump_all(&mut self, refs: &[Entry]) {
        for &(ord, _) in refs {
            self.bump(ord);
        }
    }
}

/// A matching engine over many subscriptions, organized for sub-linear
/// matching in the style of the *counting algorithm* (Yan & Garcia-Molina;
/// Fabret et al., SIGMOD'01):
///
/// * Equality predicates are hash-indexed per attribute and then per
///   value, so one borrowed-key lookup per content attribute finds every
///   satisfied equality predicate.
/// * `Contains` predicates on tag sets are hash-indexed per attribute and
///   then per tag.
/// * The remaining operator classes (ranges, prefixes, …) are grouped per
///   attribute and evaluated only when the content carries that attribute.
///
/// Each satisfied predicate increments its subscription's counter; a
/// subscription matches when all its predicates are satisfied. The
/// counters live in a caller-provided [`MatchScratch`] keyed by dense
/// subscription ordinals, so the batched entry points
/// ([`SubscriptionIndex::matches_into`],
/// [`SubscriptionIndex::match_count_scratch`]) make zero steady-state
/// allocations; [`SubscriptionIndex::matches`] and
/// [`SubscriptionIndex::match_count`] are thin compatibility wrappers that
/// allocate a fresh scratch per call.
///
/// # Examples
///
/// ```
/// use pscd_matching::{Content, Predicate, Subscription, SubscriptionIndex, Value};
/// let mut idx = SubscriptionIndex::new();
/// let id = idx.insert(Subscription::new(vec![Predicate::ge("words", 100)]));
/// let hit = Content::new().with("words", Value::int(150));
/// let miss = Content::new().with("words", Value::int(50));
/// assert_eq!(idx.match_count(&hit), 1);
/// assert_eq!(idx.match_count(&miss), 0);
/// idx.remove(id);
/// assert_eq!(idx.match_count(&hit), 0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubscriptionIndex {
    subscriptions: HashMap<SubscriptionId, Subscription>,
    next_id: u64,
    /// Dense ordinal -> subscription id (swap-removed on unregister).
    order: Vec<SubscriptionId>,
    /// Subscription id -> its current dense ordinal.
    ordinal_of: HashMap<SubscriptionId, u32>,
    /// Predicate count per ordinal (a subscription matches when its
    /// counter reaches this).
    pred_count: Vec<u32>,
    /// `attr -> value -> equality predicates` satisfied by that value.
    eq_index: HashMap<String, HashMap<Value, Vec<Entry>>>,
    /// `attr -> tag -> Contains predicates` satisfied when the tag is present.
    tag_index: HashMap<String, HashMap<String, Vec<Entry>>>,
    /// `attr -> other predicates` evaluated when the attribute is present.
    scan_index: HashMap<String, Vec<Entry>>,
    /// Subscriptions with no predicates (match everything), ascending.
    /// Ids grow monotonically, so insertion keeps the order.
    wildcards: Vec<SubscriptionId>,
}

impl SubscriptionIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// `true` if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Registers a subscription and returns its id.
    pub fn insert(&mut self, subscription: Subscription) -> SubscriptionId {
        let id = SubscriptionId::new(self.next_id);
        self.next_id += 1;
        let ordinal = self.order.len() as u32;
        self.order.push(id);
        self.ordinal_of.insert(id, ordinal);
        self.pred_count.push(subscription.len() as u32);
        if subscription.is_empty() {
            self.wildcards.push(id);
        }
        for (pred_idx, pred) in subscription.predicates().iter().enumerate() {
            let entry = (ordinal, pred_idx as u32);
            match pred.op() {
                Op::Eq(v) => self
                    .eq_index
                    .entry(pred.attr().to_owned())
                    .or_default()
                    .entry(v.clone())
                    .or_default()
                    .push(entry),
                Op::Contains(tag) => self
                    .tag_index
                    .entry(pred.attr().to_owned())
                    .or_default()
                    .entry(tag.clone())
                    .or_default()
                    .push(entry),
                _ => self
                    .scan_index
                    .entry(pred.attr().to_owned())
                    .or_default()
                    .push(entry),
            }
        }
        self.subscriptions.insert(id, subscription);
        id
    }

    /// Unregisters a subscription. Returns the subscription if it existed.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let sub = self.subscriptions.remove(&id)?;
        let ordinal = self
            .ordinal_of
            .remove(&id)
            .expect("registered subscriptions have ordinals");
        if sub.is_empty() {
            if let Ok(pos) = self.wildcards.binary_search(&id) {
                self.wildcards.remove(pos);
            }
        }
        self.drop_entries(&sub, ordinal);
        // Swap-remove the ordinal slot; the moved subscription (previously
        // last) takes over `ordinal` and its bucket entries are rewritten.
        let last = (self.order.len() - 1) as u32;
        self.order.swap_remove(ordinal as usize);
        self.pred_count.swap_remove(ordinal as usize);
        if ordinal != last {
            let moved = self.order[ordinal as usize];
            self.ordinal_of.insert(moved, ordinal);
            // Take the moved subscription out of the map while its bucket
            // entries are renumbered (no clone), then put it back.
            let moved_sub = self
                .subscriptions
                .remove(&moved)
                .expect("moved ordinal has a registered subscription");
            self.renumber_entries(&moved_sub, last, ordinal);
            self.subscriptions.insert(moved, moved_sub);
        }
        Some(sub)
    }

    /// Removes `sub`'s entries (held under `ordinal`) from its buckets. A
    /// bucket that empties goes, and an attribute's map with its last
    /// bucket: subscriptions over ever new values (one per page, say)
    /// would otherwise grow the maps without bound.
    fn drop_entries(&mut self, sub: &Subscription, ordinal: u32) {
        for pred in sub.predicates() {
            let attr = pred.attr();
            match pred.op() {
                Op::Eq(v) => prune(&mut self.eq_index, attr, v, ordinal),
                Op::Contains(tag) => prune(&mut self.tag_index, attr, tag.as_str(), ordinal),
                _ => {
                    if let Some(bucket) = self.scan_index.get_mut(attr) {
                        bucket.retain(|&(ord, _)| ord != ordinal);
                        if bucket.is_empty() {
                            self.scan_index.remove(attr);
                        }
                    }
                }
            }
        }
    }

    /// Rewrites `sub`'s bucket entries from ordinal `from` to `to`.
    fn renumber_entries(&mut self, sub: &Subscription, from: u32, to: u32) {
        for pred in sub.predicates() {
            let bucket = match pred.op() {
                Op::Eq(v) => self
                    .eq_index
                    .get_mut(pred.attr())
                    .and_then(|m| m.get_mut(v)),
                Op::Contains(tag) => self
                    .tag_index
                    .get_mut(pred.attr())
                    .and_then(|m| m.get_mut(tag)),
                _ => self.scan_index.get_mut(pred.attr()),
            };
            if let Some(bucket) = bucket {
                for entry in bucket.iter_mut() {
                    if entry.0 == from {
                        entry.0 = to;
                    }
                }
            }
        }
    }

    /// Predicate count of every registered subscription, in no particular
    /// order — enough to lay out a frozen compilation before walking the
    /// subscriptions themselves.
    pub(crate) fn pred_counts(&self) -> &[u32] {
        &self.pred_count
    }

    /// Looks up a registered subscription.
    pub fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subscriptions.get(&id)
    }

    /// Counts satisfied predicates per touched ordinal into `scratch`.
    fn accumulate(&self, content: &Content, scratch: &mut MatchScratch) {
        scratch.begin(self.order.len());
        for (attr, value) in content.iter() {
            if let Some(refs) = self.eq_index.get(attr).and_then(|m| m.get(value)) {
                scratch.bump_all(refs);
            }
            match value {
                Value::Tags(tags) => {
                    if let Some(by_tag) = self.tag_index.get(attr) {
                        for tag in tags {
                            if let Some(refs) = by_tag.get(tag.as_str()) {
                                scratch.bump_all(refs);
                            }
                        }
                    }
                }
                Value::Str(s) => {
                    // `Contains` on a string attribute means equality.
                    if let Some(refs) = self.tag_index.get(attr).and_then(|m| m.get(s.as_str())) {
                        scratch.bump_all(refs);
                    }
                }
                Value::Int(_) => {}
            }
            if let Some(refs) = self.scan_index.get(attr) {
                for &(ord, pred_idx) in refs {
                    let sub = &self.subscriptions[&self.order[ord as usize]];
                    if sub.predicates()[pred_idx as usize].eval(content) {
                        scratch.bump(ord);
                    }
                }
            }
        }
    }

    /// The batched match kernel: writes the ids of all subscriptions
    /// matching `content` into `out` (cleared first), sorted by id.
    ///
    /// All bookkeeping lives in `scratch`; after warm-up the call makes
    /// zero allocations, which is what lets trace compilation evaluate
    /// millions of publishes without touching the allocator.
    pub fn matches_into(
        &self,
        content: &Content,
        scratch: &mut MatchScratch,
        out: &mut Vec<SubscriptionId>,
    ) {
        out.clear();
        self.accumulate(content, scratch);
        for &ord in &scratch.touched {
            if scratch.counts[ord as usize] == self.pred_count[ord as usize] {
                out.push(self.order[ord as usize]);
            }
        }
        out.extend_from_slice(&self.wildcards);
        out.sort_unstable();
    }

    /// The number of subscriptions matching `content`, counted in
    /// `scratch` without materializing the id list — the `f_S(p)` quantity
    /// consumed by push-time strategies, allocation-free.
    pub fn match_count_scratch(&self, content: &Content, scratch: &mut MatchScratch) -> usize {
        self.accumulate(content, scratch);
        let mut n = self.wildcards.len();
        for &ord in &scratch.touched {
            if scratch.counts[ord as usize] == self.pred_count[ord as usize] {
                n += 1;
            }
        }
        n
    }

    /// The ids of all subscriptions matching `content`, sorted by id.
    ///
    /// Compatibility wrapper over [`SubscriptionIndex::matches_into`] that
    /// allocates a fresh scratch per call; batch callers should hold a
    /// [`MatchScratch`] and reuse it.
    pub fn matches(&self, content: &Content) -> Vec<SubscriptionId> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.matches_into(content, &mut scratch, &mut out);
        out
    }

    /// The number of subscriptions matching `content` — the `f_S(p)`
    /// quantity consumed by push-time strategies.
    ///
    /// Compatibility wrapper over
    /// [`SubscriptionIndex::match_count_scratch`].
    pub fn match_count(&self, content: &Content) -> usize {
        let mut scratch = MatchScratch::new();
        self.match_count_scratch(content, &mut scratch)
    }

    /// Iterates over all registered subscriptions in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SubscriptionId, &Subscription)> {
        let mut subs: Vec<_> = self
            .subscriptions
            .iter()
            .map(|(&id, sub)| (id, sub))
            .collect();
        subs.sort_unstable_by_key(|&(id, _)| id);
        subs.into_iter()
    }
}

/// Removes `ordinal`'s entries from the bucket of `attr` and `key`, then
/// the bucket if that emptied it and the attribute if that was its last.
fn prune<K, Q>(
    index: &mut HashMap<String, HashMap<K, Vec<Entry>>>,
    attr: &str,
    key: &Q,
    ordinal: u32,
) where
    K: Borrow<Q> + Eq + Hash,
    Q: Eq + Hash + ?Sized,
{
    let Some(buckets) = index.get_mut(attr) else {
        return;
    };
    if let Some(bucket) = buckets.get_mut(key) {
        bucket.retain(|&(ord, _)| ord != ordinal);
        if bucket.is_empty() {
            buckets.remove(key);
        }
    }
    if buckets.is_empty() {
        index.remove(attr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    fn sports_page() -> Content {
        Content::new()
            .with("category", Value::str("sports"))
            .with("words", Value::int(800))
            .with("tags", Value::tags(["tennis", "us-open"]))
    }

    #[test]
    fn eq_indexed_matching() {
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("sports"),
        )]));
        let _b = idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("politics"),
        )]));
        assert_eq!(idx.matches(&sports_page()), vec![a]);
    }

    #[test]
    fn conjunction_requires_all_predicates() {
        let mut idx = SubscriptionIndex::new();
        let id = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::ge("words", 1000),
        ]));
        assert!(idx.matches(&sports_page()).is_empty());
        let long = sports_page().with("words", Value::int(1200));
        assert_eq!(idx.matches(&long), vec![id]);
    }

    #[test]
    fn tag_membership_indexed() {
        let mut idx = SubscriptionIndex::new();
        let tennis = idx.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let _golf = idx.insert(Subscription::new(vec![Predicate::contains("tags", "golf")]));
        assert_eq!(idx.matches(&sports_page()), vec![tennis]);
    }

    #[test]
    fn contains_on_string_attr_is_equality() {
        let mut idx = SubscriptionIndex::new();
        let id = idx.insert(Subscription::new(vec![Predicate::contains(
            "category", "sports",
        )]));
        assert_eq!(idx.matches(&sports_page()), vec![id]);
    }

    #[test]
    fn wildcard_always_matches() {
        let mut idx = SubscriptionIndex::new();
        let w = idx.insert(Subscription::wildcard());
        assert_eq!(idx.matches(&Content::new()), vec![w]);
        assert_eq!(idx.matches(&sports_page()), vec![w]);
    }

    #[test]
    fn range_predicates_scan() {
        let mut idx = SubscriptionIndex::new();
        let lo = idx.insert(Subscription::new(vec![Predicate::lt("words", 900)]));
        let _hi = idx.insert(Subscription::new(vec![Predicate::gt("words", 900)]));
        assert_eq!(idx.matches(&sports_page()), vec![lo]);
    }

    #[test]
    fn remove_unregisters_everywhere() {
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "tennis"),
            Predicate::ge("words", 1),
        ]));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.match_count(&sports_page()), 1);
        let removed = idx.remove(a).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(idx.is_empty());
        assert_eq!(idx.match_count(&sports_page()), 0);
        assert!(idx.remove(a).is_none());
    }

    #[test]
    fn churn_over_distinct_values_leaves_no_empty_buckets() {
        // One subscription per value and index kind, as a subscription per
        // page is; a long-lived pair shares each attribute meanwhile.
        let mut idx = SubscriptionIndex::new();
        let shapes = |i: i64| {
            [
                Subscription::new(vec![Predicate::eq("page", Value::int(i))]),
                Subscription::new(vec![Predicate::contains("tags", format!("t{i}"))]),
                Subscription::new(vec![Predicate::ge(format!("words{i}"), i)]),
            ]
        };
        let kept: Vec<_> = shapes(-1).into_iter().map(|s| idx.insert(s)).collect();
        let ids: Vec<_> = (0..1_000)
            .flat_map(shapes)
            .map(|sub| idx.insert(sub))
            .collect();
        let page = Content::new()
            .with("page", Value::int(7))
            .with("tags", Value::tags(["t7", "t8"]))
            .with("words9", Value::int(9));
        let brute = |idx: &SubscriptionIndex| -> Vec<_> {
            let hits = idx.iter().filter(|(_, s)| s.matches(&page));
            hits.map(|(id, _)| id).collect()
        };
        assert_eq!(idx.matches(&page).len(), 4);
        assert_eq!(idx.matches(&page), brute(&idx));
        // Every other one goes: the survivors' buckets are untouched.
        for id in ids.iter().step_by(2) {
            idx.remove(*id);
        }
        assert_eq!(idx.matches(&page), brute(&idx));
        assert_eq!(idx.eq_index["page"].len(), 501);
        assert_eq!(idx.tag_index["tags"].len(), 501);
        assert_eq!(idx.scan_index.len(), 501);
        for id in ids.iter().skip(1).step_by(2) {
            idx.remove(*id);
        }
        assert_eq!(idx.matches(&page), brute(&idx));
        assert_eq!(idx.eq_index["page"].len(), 1);
        assert_eq!(idx.tag_index["tags"].len(), 1);
        assert_eq!(idx.scan_index.len(), 1);
        for id in kept {
            idx.remove(id);
        }
        assert!(idx.is_empty());
        assert!(idx.eq_index.is_empty(), "{:?}", idx.eq_index);
        assert!(idx.tag_index.is_empty(), "{:?}", idx.tag_index);
        assert!(idx.scan_index.is_empty(), "{:?}", idx.scan_index);
        assert!(idx.matches(&page).is_empty());
    }

    #[test]
    fn swap_removed_ordinals_keep_matching() {
        // Removing an early subscription moves the last one into its
        // ordinal slot; its bucket entries must follow.
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("sports"),
        )]));
        let b = idx.insert(Subscription::new(vec![Predicate::ge("words", 100)]));
        let c = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "tennis"),
        ]));
        assert_eq!(idx.matches(&sports_page()), vec![a, b, c]);
        idx.remove(a);
        assert_eq!(idx.matches(&sports_page()), vec![b, c]);
        idx.remove(b);
        assert_eq!(idx.matches(&sports_page()), vec![c]);
        let d = idx.insert(Subscription::new(vec![Predicate::lt("words", 10_000)]));
        assert_eq!(idx.matches(&sports_page()), vec![c, d]);
    }

    #[test]
    fn scratch_reuse_across_indexes_and_contents() {
        let mut small = SubscriptionIndex::new();
        let s = small.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let mut big = SubscriptionIndex::new();
        let mut expected = Vec::new();
        for i in 0..40 {
            expected.push(big.insert(Subscription::new(vec![Predicate::ge("words", i * 10)])));
        }
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        big.matches_into(&sports_page(), &mut scratch, &mut out);
        assert_eq!(out.len(), 40);
        assert_eq!(out, expected);
        small.matches_into(&sports_page(), &mut scratch, &mut out);
        assert_eq!(out, vec![s]);
        assert_eq!(small.match_count_scratch(&Content::new(), &mut scratch), 0);
        big.matches_into(&sports_page(), &mut scratch, &mut out);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn scratch_and_wrapper_agree() {
        let mut idx = SubscriptionIndex::new();
        for i in 0..20 {
            idx.insert(Subscription::new(vec![Predicate::ge("words", i * 100)]));
        }
        idx.insert(Subscription::wildcard());
        idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "us-open"),
        ]));
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        for content in [
            sports_page(),
            Content::new(),
            sports_page().with("words", Value::int(5)),
        ] {
            idx.matches_into(&content, &mut scratch, &mut out);
            assert_eq!(out, idx.matches(&content));
            assert_eq!(
                idx.match_count_scratch(&content, &mut scratch),
                idx.match_count(&content)
            );
        }
    }

    #[test]
    fn many_subscriptions_count() {
        let mut idx = SubscriptionIndex::new();
        for i in 0..50 {
            idx.insert(Subscription::new(vec![Predicate::ge("words", i * 100)]));
        }
        // words = 800 satisfies bounds 0..=800 -> i in 0..=8 -> 9 matches.
        assert_eq!(idx.match_count(&sports_page()), 9);
    }

    #[test]
    fn iter_lists_in_id_order() {
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::wildcard());
        let b = idx.insert(Subscription::new(vec![Predicate::exists("x")]));
        let ids: Vec<_> = idx.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(idx.iter().count(), 2);
        idx.remove(a);
        assert_eq!(idx.iter().count(), 1);
    }

    #[test]
    fn ids_are_unique_and_get_works() {
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::wildcard());
        let b = idx.insert(Subscription::wildcard());
        assert_ne!(a, b);
        assert!(idx.get(a).is_some());
        idx.remove(a);
        assert!(idx.get(a).is_none());
        assert!(idx.get(b).is_some());
    }
}
