//! What a cache is asked about, and what it answers.

use pscd_types::{Bytes, PageId};

/// Everything a policy needs to know about a page at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRef {
    /// The page being accessed or pushed.
    pub page: PageId,
    /// Its size, `s(p)`.
    pub size: Bytes,
    /// The cost to fetch it from the publisher, `c(p)`.
    pub cost: f64,
}

impl PageRef {
    /// Creates a page reference.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `cost` is not a positive finite number —
    /// both would poison the `c(p)/s(p)` value terms.
    pub fn new(page: PageId, size: Bytes, cost: f64) -> Self {
        assert!(!size.is_zero(), "page size must be positive");
        assert!(
            cost.is_finite() && cost > 0.0,
            "fetch cost must be positive and finite"
        );
        Self { page, size, cost }
    }
}

/// What happened when a page was accessed through a cache.
///
/// Evicted pages are reported through the caller-provided scratch buffer
/// of the operation that produced the outcome (see
/// [`GreedyDualEngine::access`](crate::GreedyDualEngine::access)), not
/// carried here — keeping the outcome a plain enum is what lets the
/// replay hot loop run without heap allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was served from the cache.
    Hit,
    /// The page was fetched from the publisher and admitted to the cache,
    /// evicting the pages listed in the operation's scratch buffer
    /// (possibly none).
    MissAdmitted,
    /// The page was fetched and forwarded to the user without caching it
    /// (too large, or not valuable enough under the policy).
    MissBypassed,
}

impl AccessOutcome {
    /// `true` for cache hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// `true` if the access required fetching from the publisher.
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::MissAdmitted.is_miss());
        assert!(AccessOutcome::MissBypassed.is_miss());
    }

    #[test]
    fn page_ref_validates() {
        let p = PageRef::new(PageId::new(1), Bytes::new(10), 2.0);
        assert_eq!(p.size, Bytes::new(10));
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn page_ref_rejects_zero_size() {
        let _ = PageRef::new(PageId::new(1), Bytes::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn page_ref_rejects_bad_cost() {
        let _ = PageRef::new(PageId::new(1), Bytes::new(1), f64::NAN);
    }
}
