//! Classic access-time replacement policies: LRU, GDS, LFU-DA, GD*.
//!
//! Each policy is generic over an [`Observer`] (defaulting to the
//! zero-cost [`NullObserver`]). `new` builds an unobserved cache that
//! grows its page tables on demand; `observed` re-creates it with every
//! table preallocated for a known page universe and the engine's
//! admission/eviction events routed to an [`ObsHandle`].

use pscd_obs::{NullObserver, ObsHandle, Observer};
use pscd_types::{Bytes, PageId};

use crate::snapshot::{SnapshotError, SnapshotReader};
use crate::{AccessOutcome, CachePolicy, GreedyDualEngine, PageRef};

macro_rules! delegate_policy_queries {
    () => {
        fn contains(&self, page: PageId) -> bool {
            self.engine.store().contains(page)
        }

        fn invalidate(&mut self, page: PageId) -> bool {
            self.engine.evict(page)
        }

        fn capacity(&self) -> Bytes {
            self.engine.store().capacity()
        }

        fn used(&self) -> Bytes {
            self.engine.store().used()
        }

        fn len(&self) -> usize {
            self.engine.store().len()
        }
    };
}

macro_rules! snapshot_delegate {
    ($name:ident) => {
        impl<O: Observer> $name<O> {
            /// Serializes the cache's mutable state for a snapshot; tuning
            /// parameters (capacity, β) are configuration, not state.
            pub fn encode_state(&self, out: &mut Vec<u8>) {
                self.engine.encode_state(out);
            }

            /// Restores state captured by
            /// [`encode_state`](Self::encode_state), replacing the cache's
            /// current contents.
            ///
            /// # Errors
            ///
            /// Returns a [`SnapshotError`] on truncated or corrupt input;
            /// the cache's contents are then unspecified — discard it.
            pub fn decode_state(
                &mut self,
                r: &mut SnapshotReader<'_>,
            ) -> Result<(), SnapshotError> {
                self.engine.decode_state(r)
            }

            /// The cached pages, in arbitrary order — what an owner that
            /// tracks residency outside the cache re-reads after a
            /// [`decode_state`](Self::decode_state).
            pub fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
                self.engine.store().iter().map(|p| p.page)
            }
        }
    };
}

snapshot_delegate!(Lru);
snapshot_delegate!(Gds);
snapshot_delegate!(LfuDa);
snapshot_delegate!(GdStar);

macro_rules! policy_impls {
    ($name:ident { $($extra:ident),* }) => {
        // Manual impl: `derive(Clone)` would demand `O: Clone`, which
        // observers don't promise — the engine clones for any `O`.
        impl<O: Observer> Clone for $name<O> {
            fn clone(&self) -> Self {
                Self {
                    engine: self.engine.clone(),
                    $($extra: self.$extra,)*
                }
            }
        }

        impl<O: Observer> $name<O> {
            /// An empty cache with this one's configuration over the page
            /// ordinals `0..page_count`, reporting cache decisions to
            /// `obs`. Every table is preallocated for the universe, so
            /// steady-state operation never allocates (`0` preallocates
            /// nothing and grows on demand).
            pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> $name<P> {
                $name {
                    engine: GreedyDualEngine::with_observer(
                        self.engine.store().capacity(),
                        page_count,
                        obs,
                    ),
                    $($extra: self.$extra,)*
                }
            }
        }
    };
}

/// Least-recently-used replacement, expressed in the greedy-dual framework
/// as `V(p) = L + 1` (Cao & Irani's classic observation).
///
/// # Examples
///
/// ```
/// use pscd_cache::{CachePolicy, Lru, PageRef};
/// use pscd_types::{Bytes, PageId};
///
/// let mut lru = Lru::new(Bytes::new(20));
/// let mut evicted = Vec::new();
/// let a = PageRef::new(PageId::new(1), Bytes::new(10), 1.0);
/// let b = PageRef::new(PageId::new(2), Bytes::new(10), 1.0);
/// let c = PageRef::new(PageId::new(3), Bytes::new(10), 1.0);
/// lru.access(&a, &mut evicted);
/// lru.access(&b, &mut evicted);
/// lru.access(&a, &mut evicted); // refresh a
/// lru.access(&c, &mut evicted); // evicts b, the least recently used
/// assert!(lru.contains(a.page) && lru.contains(c.page) && !lru.contains(b.page));
/// ```
#[derive(Debug)]
pub struct Lru<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
}

policy_impls!(Lru {});

impl Lru {
    /// Creates an LRU cache with the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            engine: GreedyDualEngine::new(capacity),
        }
    }
}

impl<O: Observer> CachePolicy for Lru<O> {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn access(&mut self, page: &PageRef, evicted: &mut Vec<PageId>) -> AccessOutcome {
        self.engine.access(page, |_, l| l + 1.0, evicted)
    }

    delegate_policy_queries!();
}

/// GreedyDual-Size (Cao & Irani, USITS'97): `V(p) = L + c(p)/s(p)`.
#[derive(Debug)]
pub struct Gds<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
}

policy_impls!(Gds {});

impl Gds {
    /// Creates a GDS cache with the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            engine: GreedyDualEngine::new(capacity),
        }
    }
}

impl<O: Observer> CachePolicy for Gds<O> {
    fn name(&self) -> &'static str {
        "GDS"
    }

    fn access(&mut self, page: &PageRef, evicted: &mut Vec<PageId>) -> AccessOutcome {
        let w = page.cost / page.size.as_f64();
        self.engine.access(page, |_, l| l + w, evicted)
    }

    delegate_policy_queries!();
}

/// LFU with dynamic aging: `V(p) = L + f(p)`, with in-cache reference
/// counts (counts are discarded at eviction).
#[derive(Debug)]
pub struct LfuDa<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
}

policy_impls!(LfuDa {});

impl LfuDa {
    /// Creates an LFU-DA cache with the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            engine: GreedyDualEngine::new(capacity),
        }
    }
}

impl<O: Observer> CachePolicy for LfuDa<O> {
    fn name(&self) -> &'static str {
        "LFU-DA"
    }

    fn access(&mut self, page: &PageRef, evicted: &mut Vec<PageId>) -> AccessOutcome {
        self.engine.access(page, |f, l| l + f as f64, evicted)
    }

    delegate_policy_queries!();
}

/// GreedyDual\* (Jin & Bestavros), the paper's access-time baseline:
///
/// ```text
/// V(p) = L + (f(p) · c(p) / s(p))^(1/β)              (eq. 1)
/// ```
///
/// `β` balances long-term popularity against short-term temporal
/// correlation; the paper tunes it per trace (β = 2 for NEWS; see §5.1).
/// Reference counts follow In-Cache LFU (discarded at eviction).
///
/// # Examples
///
/// ```
/// use pscd_cache::{CachePolicy, GdStar, PageRef};
/// use pscd_types::{Bytes, PageId};
///
/// let mut gd = GdStar::new(Bytes::new(100), 2.0);
/// let mut evicted = Vec::new();
/// let page = PageRef::new(PageId::new(1), Bytes::new(10), 4.0);
/// assert!(gd.access(&page, &mut evicted).is_miss());
/// assert!(gd.access(&page, &mut evicted).is_hit());
/// ```
#[derive(Debug)]
pub struct GdStar<O: Observer = NullObserver> {
    engine: GreedyDualEngine<O>,
    beta: f64,
}

policy_impls!(GdStar { beta });

impl GdStar {
    /// Creates a GD\* cache.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn new(capacity: Bytes, beta: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self {
            engine: GreedyDualEngine::new(capacity),
            beta,
        }
    }
}

impl<O: Observer> GdStar<O> {
    /// The configured β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The current inflation value `L` (exposed for tests/diagnostics).
    pub fn inflation(&self) -> f64 {
        self.engine.inflation()
    }
}

/// GD\*'s weight term `(f·c/s)^(1/β)`.
pub(crate) fn gdstar_weight(freq: f64, cost: f64, size: Bytes, beta: f64) -> f64 {
    let base = (freq.max(0.0) * cost / size.as_f64()).max(0.0);
    base.powf(1.0 / beta)
}

impl<O: Observer> CachePolicy for GdStar<O> {
    fn name(&self) -> &'static str {
        "GD*"
    }

    fn access(&mut self, page: &PageRef, evicted: &mut Vec<PageId>) -> AccessOutcome {
        let (cost, size, beta) = (page.cost, page.size, self.beta);
        self.engine.access(
            page,
            |f, l| l + gdstar_weight(f as f64, cost, size, beta),
            evicted,
        )
    }

    delegate_policy_queries!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut ev = Vec::new();
        let mut lru = Lru::new(Bytes::new(30));
        lru.access(&pref(1, 10, 1.0), &mut ev);
        lru.access(&pref(2, 10, 1.0), &mut ev);
        lru.access(&pref(3, 10, 1.0), &mut ev);
        lru.access(&pref(1, 10, 1.0), &mut ev); // refresh 1
        let out = lru.access(&pref(4, 10, 1.0), &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        assert_eq!(lru.name(), "LRU");
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.used(), Bytes::new(30));
        assert_eq!(lru.capacity(), Bytes::new(30));
    }

    #[test]
    fn gds_prefers_cheap_small_eviction() {
        let mut ev = Vec::new();
        let mut gds = Gds::new(Bytes::new(20));
        // Page 1: c/s = 0.1 (cheap to refetch); page 2: c/s = 1.0.
        gds.access(&pref(1, 10, 1.0), &mut ev);
        gds.access(&pref(2, 10, 10.0), &mut ev);
        let out = gds.access(&pref(3, 10, 5.0), &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(1)]);
        assert_eq!(gds.name(), "GDS");
    }

    #[test]
    fn lfu_da_protects_frequent_pages() {
        let mut ev = Vec::new();
        let mut lfu = LfuDa::new(Bytes::new(20));
        let hot = pref(1, 10, 1.0);
        lfu.access(&hot, &mut ev);
        lfu.access(&hot, &mut ev);
        lfu.access(&hot, &mut ev); // f = 3
        lfu.access(&pref(2, 10, 1.0), &mut ev); // f = 1
        let out = lfu.access(&pref(3, 10, 1.0), &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        assert!(lfu.contains(PageId::new(1)));
        assert_eq!(lfu.name(), "LFU-DA");
    }

    #[test]
    fn gdstar_weight_formula() {
        // (f*c/s)^(1/beta): f=2, c=8, s=4 -> 4^(1/2) = 2.
        assert_eq!(gdstar_weight(2.0, 8.0, Bytes::new(4), 2.0), 2.0);
        // beta = 1 degenerates to GDS-with-frequency.
        assert_eq!(gdstar_weight(3.0, 2.0, Bytes::new(6), 1.0), 1.0);
        // Negative/zero frequency clamps to zero weight.
        assert_eq!(gdstar_weight(-1.0, 2.0, Bytes::new(6), 1.0), 0.0);
    }

    #[test]
    fn gdstar_combines_frequency_and_cost() {
        let mut ev = Vec::new();
        let mut gd = GdStar::new(Bytes::new(20), 2.0);
        assert_eq!(gd.beta(), 2.0);
        // Page 1 accessed twice (f=2, c/s=1): weight sqrt(2) ≈ 1.41.
        let p1 = pref(1, 10, 10.0);
        gd.access(&p1, &mut ev);
        gd.access(&p1, &mut ev);
        // Page 2 once, cheap (f=1, c/s=0.1): weight ≈ 0.32.
        gd.access(&pref(2, 10, 1.0), &mut ev);
        // Page 3 arrives: evicts page 2 (lowest value).
        let out = gd.access(&pref(3, 10, 5.0), &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev, vec![PageId::new(2)]);
        // Inflation rose to page 2's value.
        assert!(gd.inflation() > 0.0);
    }

    #[test]
    fn gdstar_inflation_ages_old_pages() {
        let mut ev = Vec::new();
        let mut gd = GdStar::new(Bytes::new(20), 1.0);
        // Hot page with moderate value.
        let old = pref(1, 10, 2.0); // weight f*0.2
        gd.access(&old, &mut ev);
        // Fill and churn the other slot repeatedly with cheap pages.
        for i in 2..30 {
            gd.access(&pref(i, 10, 4.0), &mut ev);
        }
        // After enough churn, inflation L exceeds the old page's static
        // value and a newcomer evicts it even with f = 1.
        assert!(
            !gd.contains(PageId::new(1)),
            "aged-out page should eventually be evicted (L = {})",
            gd.inflation()
        );
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn gdstar_rejects_bad_beta() {
        let _ = GdStar::new(Bytes::new(10), 0.0);
    }

    #[test]
    fn policies_are_object_safe() {
        let mut ev = Vec::new();
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(Lru::new(Bytes::new(10))),
            Box::new(Gds::new(Bytes::new(10))),
            Box::new(LfuDa::new(Bytes::new(10))),
            Box::new(GdStar::new(Bytes::new(10), 2.0)),
        ];
        for p in &mut policies {
            assert!(p.is_empty());
            p.access(&pref(1, 5, 1.0), &mut ev);
            assert_eq!(p.len(), 1);
        }
    }

    #[test]
    fn observed_policy_reports_events() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        let mut ev = Vec::new();
        let shared = SharedObserver::new(StatsObserver::new());
        let mut lru = Lru::new(Bytes::new(20)).observed(0, shared.handle(ServerId::new(0)));
        lru.access(&pref(1, 10, 1.0), &mut ev);
        lru.access(&pref(2, 10, 1.0), &mut ev);
        lru.access(&pref(3, 10, 1.0), &mut ev); // evicts page 1
        lru.invalidate(PageId::new(3));
        drop(lru);
        let stats = shared.try_unwrap().unwrap();
        assert_eq!(stats.registry().counter("admit.access"), 3);
        assert_eq!(stats.registry().counter("evict.access"), 1);
        assert_eq!(stats.registry().counter("evict.invalidate"), 1);
    }
}
