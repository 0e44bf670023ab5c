//! Subscriptions: conjunctions of predicates.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Content, Predicate};

/// Identifier of a subscription at one proxy of an
/// [`EngineMatcher`](crate::EngineMatcher): ids count from 0 per proxy and
/// are never reused.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// Creates an identifier from its raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// A subscriber's stated interest: the conjunction of all its predicates.
///
/// An empty predicate list is the wildcard subscription that matches every
/// page — some notification services offer exactly that ("all breaking
/// news").
///
/// # Examples
///
/// ```
/// use pscd_matching::{Content, Predicate, Subscription, Value};
/// let s = Subscription::new(vec![
///     Predicate::eq("category", Value::str("finance")),
///     Predicate::ge("words", 100),
/// ]);
/// let page = Content::new()
///     .with("category", Value::str("finance"))
///     .with("words", Value::int(400));
/// assert!(s.matches(&page));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Subscription {
    predicates: Vec<Predicate>,
}

impl Subscription {
    /// Creates a subscription from its predicates (conjunction).
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Self { predicates }
    }

    /// The wildcard subscription matching all content.
    pub fn wildcard() -> Self {
        Self::default()
    }

    /// The predicates of the conjunction.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// `true` for the wildcard subscription.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluates the full conjunction against content.
    pub fn matches(&self, content: &Content) -> bool {
        self.predicates.iter().all(|p| p.eval(content))
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "<wildcard>");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<Predicate> for Subscription {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn conjunction_semantics() {
        let s = Subscription::new(vec![
            Predicate::eq("a", Value::int(1)),
            Predicate::eq("b", Value::int(2)),
        ]);
        assert!(s.matches(
            &Content::new()
                .with("a", Value::int(1))
                .with("b", Value::int(2))
        ));
        assert!(!s.matches(&Content::new().with("a", Value::int(1))));
    }

    #[test]
    fn wildcard_matches_everything() {
        let w = Subscription::wildcard();
        assert!(w.is_empty());
        assert!(w.matches(&Content::new()));
        assert!(w.matches(&Content::new().with("x", Value::int(0))));
    }

    #[test]
    fn from_iterator_and_display() {
        let s: Subscription = [Predicate::ge("w", 1), Predicate::lt("w", 9)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "w >= 1 AND w < 9");
        assert_eq!(Subscription::wildcard().to_string(), "<wildcard>");
        assert_eq!(SubscriptionId::new(4).to_string(), "sub4");
        assert_eq!(SubscriptionId::new(4).raw(), 4);
    }
}
