//! Siena-style covering relation between subscriptions.

use crate::{Op, Predicate, Subscription, SubscriptionId, Value};

/// Returns `true` if subscription `a` **covers** subscription `b`: every
/// content matching `b` is guaranteed to also match `a`.
///
/// Covering lets a broker forward only the most general subscriptions
/// upstream (Carzaniga et al., *Siena*): if `a` is already registered,
/// registering a covered `b` changes nothing about which pages must be
/// delivered.
///
/// The check is *sound but conservative*: it may return `false` for some
/// semantically-covering pairs (e.g. implications that would require
/// cross-attribute reasoning), but never returns `true` incorrectly.
///
/// # Examples
///
/// ```
/// use pscd_matching::{covers, Predicate, Subscription, Value};
/// let general = Subscription::new(vec![Predicate::ge("words", 100)]);
/// let specific = Subscription::new(vec![
///     Predicate::ge("words", 500),
///     Predicate::eq("category", Value::str("sports")),
/// ]);
/// assert!(covers(&general, &specific));
/// assert!(!covers(&specific, &general));
/// ```
pub fn covers(a: &Subscription, b: &Subscription) -> bool {
    a.predicates()
        .iter()
        .all(|pa| b.predicates().iter().any(|pb| implies(pb, pa)))
}

/// `true` if satisfying `premise` guarantees satisfying `conclusion`
/// (conservative single-predicate implication). A premise bound at the
/// integer edge (`Lt(i64::MIN)`, `Gt(i64::MAX)`) can never be satisfied,
/// so it implies an `Le` (`Ge`) conclusion whatever its bound: an
/// unsatisfiable premise implies the conclusion.
fn implies(premise: &Predicate, conclusion: &Predicate) -> bool {
    if premise.attr() != conclusion.attr() {
        return false;
    }
    use Op::*;
    match (premise.op(), conclusion.op()) {
        // Any predicate on the attribute implies its existence (all our
        // operators require the attribute to be present).
        (_, Exists) => true,
        (Eq(x), Eq(y)) => x == y,
        (Eq(x), Ne(y)) => x.type_name() == y.type_name() && x != y,
        (Eq(Value::Int(i)), Lt(b)) => i < b,
        (Eq(Value::Int(i)), Le(b)) => i <= b,
        (Eq(Value::Int(i)), Gt(b)) => i > b,
        (Eq(Value::Int(i)), Ge(b)) => i >= b,
        (Eq(Value::Tags(tags)), Contains(t)) => tags.contains(t),
        (Eq(Value::Str(s)), Contains(t)) => s == t,
        (Eq(Value::Str(s)), Prefix(p)) => s.starts_with(p.as_str()),
        (Ne(x), Ne(y)) => x == y,
        (Lt(x), Lt(y)) => x <= y,
        (Lt(x), Le(y)) => x.checked_sub(1).is_none_or(|top| top <= *y),
        (Lt(x), Ne(Value::Int(v))) => v >= x,
        (Le(x), Le(y)) => x <= y,
        (Le(x), Lt(y)) => x < y,
        (Le(x), Ne(Value::Int(v))) => v > x,
        (Gt(x), Gt(y)) => x >= y,
        (Gt(x), Ge(y)) => x.checked_add(1).is_none_or(|bottom| bottom >= *y),
        (Gt(x), Ne(Value::Int(v))) => v <= x,
        (Ge(x), Ge(y)) => x >= y,
        (Ge(x), Gt(y)) => x > y,
        (Ge(x), Ne(Value::Int(v))) => v < x,
        (Contains(s), Contains(t)) => s == t,
        // `Contains` on a string attribute behaves as equality, but on a
        // tags attribute it does not pin other members; only the
        // string-equality reading supports prefix implication, so this stays
        // conservative and requires an exact Eq for prefix conclusions.
        (Prefix(p), Prefix(q)) => p.starts_with(q.as_str()),
        _ => false,
    }
}

/// A set of subscriptions minimized under the covering relation: inserting a
/// subscription covered by a member is a no-op, and inserting one that
/// covers members evicts them.
///
/// Brokers use this to aggregate the interest of the subscribers behind a
/// proxy before forwarding it to the publisher.
///
/// # Examples
///
/// ```
/// use pscd_matching::{CoverSet, Predicate, Subscription, SubscriptionId};
/// let mut set = CoverSet::new();
/// let wide = Subscription::new(vec![Predicate::ge("words", 10)]);
/// let narrow = Subscription::new(vec![Predicate::ge("words", 500)]);
/// assert!(set.insert(SubscriptionId::new(0), wide));
/// // Covered by the wider one: not forwarded.
/// assert!(!set.insert(SubscriptionId::new(1), narrow));
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverSet {
    members: Vec<(SubscriptionId, Subscription)>,
}

impl CoverSet {
    /// Creates an empty cover set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of maximal (uncovered) subscriptions retained.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Inserts a subscription. Returns `true` if the subscription entered
    /// the set (i.e. it is not covered by an existing member and must be
    /// forwarded); members covered by the newcomer are evicted.
    pub fn insert(&mut self, id: SubscriptionId, sub: Subscription) -> bool {
        if self
            .members
            .iter()
            .any(|(_, existing)| covers(existing, &sub))
        {
            return false;
        }
        self.members.retain(|(_, existing)| !covers(&sub, existing));
        self.members.push((id, sub));
        true
    }

    /// Removes a subscription by id. Returns `true` if it was present.
    ///
    /// Note: removing a maximal subscription may "uncover" previously
    /// discarded ones; callers that need exact semantics should re-insert
    /// the live population (the broker keeps the full per-proxy index and
    /// rebuilds its cover set on unsubscribe).
    pub fn remove(&mut self, id: SubscriptionId) -> bool {
        let before = self.members.len();
        self.members.retain(|&(mid, _)| mid != id);
        before != self.members.len()
    }

    /// Iterates over the maximal subscriptions.
    pub fn iter(&self) -> impl Iterator<Item = (&SubscriptionId, &Subscription)> {
        self.members.iter().map(|(id, s)| (id, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(preds: Vec<Predicate>) -> Subscription {
        Subscription::new(preds)
    }

    #[test]
    fn wildcard_covers_all() {
        let w = Subscription::wildcard();
        let s = sub(vec![Predicate::eq("a", Value::int(1))]);
        assert!(covers(&w, &s));
        assert!(covers(&w, &w));
        assert!(!covers(&s, &w));
    }

    #[test]
    fn fewer_predicates_cover_more() {
        let wide = sub(vec![Predicate::eq("cat", Value::str("x"))]);
        let narrow = sub(vec![
            Predicate::eq("cat", Value::str("x")),
            Predicate::ge("words", 10),
        ]);
        assert!(covers(&wide, &narrow));
        assert!(!covers(&narrow, &wide));
    }

    #[test]
    fn range_implication() {
        assert!(covers(
            &sub(vec![Predicate::ge("w", 10)]),
            &sub(vec![Predicate::ge("w", 20)])
        ));
        assert!(!covers(
            &sub(vec![Predicate::ge("w", 20)]),
            &sub(vec![Predicate::ge("w", 10)])
        ));
        assert!(covers(
            &sub(vec![Predicate::lt("w", 10)]),
            &sub(vec![Predicate::le("w", 5)])
        ));
        assert!(covers(
            &sub(vec![Predicate::gt("w", 9)]),
            &sub(vec![Predicate::ge("w", 10)])
        ));
        assert!(covers(
            &sub(vec![Predicate::le("w", 9)]),
            &sub(vec![Predicate::lt("w", 10)])
        ));
    }

    #[test]
    fn lt_min_implies_any_le() {
        let never = sub(vec![Predicate::lt("w", i64::MIN)]);
        assert!(covers(&sub(vec![Predicate::le("w", 0)]), &never));
        assert!(covers(&sub(vec![Predicate::le("w", i64::MIN)]), &never));
    }

    #[test]
    fn gt_max_implies_any_ge() {
        let never = sub(vec![Predicate::gt("w", i64::MAX)]);
        assert!(covers(&sub(vec![Predicate::ge("w", 0)]), &never));
        assert!(covers(&sub(vec![Predicate::ge("w", i64::MAX)]), &never));
    }

    #[test]
    fn eq_implies_ranges_and_membership() {
        assert!(covers(
            &sub(vec![Predicate::lt("w", 100)]),
            &sub(vec![Predicate::eq("w", Value::int(5))])
        ));
        assert!(covers(
            &sub(vec![Predicate::contains("tags", "a")]),
            &sub(vec![Predicate::eq("tags", Value::tags(["a", "b"]))])
        ));
        assert!(covers(
            &sub(vec![Predicate::prefix("s", "ab")]),
            &sub(vec![Predicate::eq("s", Value::str("abc"))])
        ));
        assert!(covers(
            &sub(vec![Predicate::ne("w", Value::int(9))]),
            &sub(vec![Predicate::eq("w", Value::int(5))])
        ));
        assert!(!covers(
            &sub(vec![Predicate::ne("w", Value::int(5))]),
            &sub(vec![Predicate::eq("w", Value::int(5))])
        ));
    }

    #[test]
    fn exists_is_implied_by_anything_on_attr() {
        assert!(covers(
            &sub(vec![Predicate::exists("w")]),
            &sub(vec![Predicate::lt("w", 3)])
        ));
        assert!(!covers(
            &sub(vec![Predicate::exists("w")]),
            &sub(vec![Predicate::lt("v", 3)])
        ));
    }

    #[test]
    fn prefix_nesting() {
        assert!(covers(
            &sub(vec![Predicate::prefix("s", "ab")]),
            &sub(vec![Predicate::prefix("s", "abc")])
        ));
        assert!(!covers(
            &sub(vec![Predicate::prefix("s", "abc")]),
            &sub(vec![Predicate::prefix("s", "ab")])
        ));
    }

    #[test]
    fn covering_is_semantically_sound() {
        // Randomized-ish soundness spot check: whenever covers(a, b) holds,
        // any content matching b must match a.
        use crate::Content;
        let subs = vec![
            Subscription::wildcard(),
            sub(vec![Predicate::ge("w", 10)]),
            sub(vec![Predicate::ge("w", 20)]),
            sub(vec![Predicate::lt("w", 15)]),
            sub(vec![Predicate::eq("w", Value::int(12))]),
            sub(vec![Predicate::eq("c", Value::str("x"))]),
            sub(vec![
                Predicate::eq("c", Value::str("x")),
                Predicate::ge("w", 12),
            ]),
        ];
        let contents: Vec<Content> = (0..40)
            .map(|i| {
                Content::new()
                    .with("w", Value::int(i))
                    .with("c", Value::str(if i % 2 == 0 { "x" } else { "y" }))
            })
            .collect();
        for a in &subs {
            for b in &subs {
                if covers(a, b) {
                    for c in &contents {
                        assert!(
                            !b.matches(c) || a.matches(c),
                            "cover violated: a={a} b={b} content w={:?}",
                            c.get("w")
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cover_set_minimizes() {
        let mut set = CoverSet::new();
        assert!(set.is_empty());
        let narrow = sub(vec![Predicate::ge("w", 500)]);
        let wide = sub(vec![Predicate::ge("w", 10)]);
        assert!(set.insert(SubscriptionId::new(0), narrow));
        // The wider subscription evicts the narrow one.
        assert!(set.insert(SubscriptionId::new(1), wide));
        assert_eq!(set.len(), 1);
        assert_eq!(*set.iter().next().unwrap().0, SubscriptionId::new(1));
        // Re-inserting something covered is a no-op.
        assert!(!set.insert(SubscriptionId::new(2), sub(vec![Predicate::ge("w", 99)])));
        assert_eq!(set.len(), 1);
        assert!(set.remove(SubscriptionId::new(1)));
        assert!(!set.remove(SubscriptionId::new(1)));
        assert!(set.is_empty());
    }
}
