//! Property-based tests over the cross-crate invariants.

use proptest::prelude::*;

use pscd::cache::{CacheStore, PageUniverse};
use pscd::strategies::StrategyImpl;
use pscd::{Bytes, PageId, PageRef, ServerId, Strategy as _, StrategyKind};
use pscd_obs::{ObsHandle, SharedObserver, StatsObserver};
use pscd_spec::LINEUP;

/// A scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    Push { page: u32, subs: u32 },
    Access { page: u32, subs: u32 },
    Invalidate { page: u32 },
}

fn op_strategy(pages: u32) -> impl proptest::strategy::Strategy<Value = Op> {
    ops_with_subs(pages, 20)
}

fn ops_with_subs(pages: u32, subs: u32) -> impl proptest::strategy::Strategy<Value = Op> {
    prop_oneof![
        4 => (0..pages, 0..subs).prop_map(|(page, subs)| Op::Push { page, subs }),
        4 => (0..pages, 0..subs).prop_map(|(page, subs)| Op::Access { page, subs }),
        1 => (0..pages).prop_map(|page| Op::Invalidate { page }),
    ]
}

/// Deterministic page size/cost derived from the id, so every operation
/// honors the "stable PageRef" contract.
fn page_ref(page: u32) -> PageRef {
    let size = 16 + (page as u64 * 37) % 240;
    let cost = 1.0 + (page % 5) as f64;
    PageRef::new(PageId::new(page), Bytes::new(size), cost)
}

/// Four sizes, two costs and (with few subscription counts) a handful of
/// values: exact ties are the common case.
fn tied_page_ref(page: u32) -> PageRef {
    let size = 10 * (1 + page as u64 % 4);
    let cost = (1 + (page / 4) % 2) as f64;
    PageRef::new(PageId::new(page), Bytes::new(size), cost)
}

/// Parameter points the lineup leaves out: SG2 at β < 1, DM at β = 1.
const OFF_LINEUP: [StrategyKind; 2] = [
    StrategyKind::Sg2 { beta: 0.5 },
    StrategyKind::Dm { beta: 1.0 },
];

/// The lineup, then [`OFF_LINEUP`].
fn kinds() -> impl Iterator<Item = StrategyKind> {
    LINEUP.into_iter().chain(OFF_LINEUP)
}

/// An unobserved strategy whose page tables grow on demand.
fn build(kind: StrategyKind, capacity: u64) -> StrategyImpl {
    kind.build(
        Bytes::new(capacity),
        &PageUniverse::default(),
        ObsHandle::disabled(),
    )
}

/// Replays `ops` on every kind, checking after each operation that the
/// cache holds no more than its capacity and that the observer's ledger
/// balances: every resident was admitted and not yet evicted.
fn check_accounting(ops: &[Op], capacity: u64, page_ref: fn(u32) -> PageRef) {
    // A push cache larger than the access cache holds pages the access
    // cache cannot take.
    let lopsided = StrategyKind::DcFp {
        beta: 2.0,
        pc_fraction: 0.75,
    };
    for kind in kinds().chain([lopsided]) {
        let shared = SharedObserver::new(StatsObserver::new());
        let mut s = kind.build(
            Bytes::new(capacity),
            &PageUniverse::default(),
            shared.handle(ServerId::new(0)),
        );
        let mut ev = Vec::new();
        for op in ops {
            match *op {
                Op::Push { page, subs } => {
                    let _ = s.on_push(&page_ref(page), subs, &mut ev);
                }
                Op::Access { page, subs } => {
                    let _ = s.on_access(&page_ref(page), subs, &mut ev);
                }
                Op::Invalidate { page } => {
                    let was = s.contains(PageId::new(page));
                    let dropped = s.invalidate(PageId::new(page));
                    assert_eq!(was, dropped, "{}", s.name());
                    assert!(!s.contains(PageId::new(page)), "{}", s.name());
                }
            }
            assert!(
                s.used() <= s.capacity(),
                "{}: used {} > capacity {}",
                s.name(),
                s.used(),
                s.capacity()
            );
            let (admits, evicts) = shared.with(|stats| {
                let sum = |prefix| -> u64 {
                    let counters = stats.registry().counters_with_prefix(prefix);
                    counters.map(|(_, n)| n).sum()
                };
                (sum("admit."), sum("evict."))
            });
            assert_eq!(
                admits - evicts,
                s.len() as u64,
                "{}: {} admits, {} evicts after {:?}",
                s.name(),
                admits,
                evicts,
                op
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No strategy ever exceeds its capacity or loses byte accounting,
    /// under arbitrary interleavings of pushes and accesses.
    #[test]
    fn strategies_never_exceed_capacity(
        ops in proptest::collection::vec(op_strategy(40), 1..400),
        capacity in 64u64..2048,
    ) {
        check_accounting(&ops, capacity, page_ref);
    }

    /// The same on small caches where values tie: admissions minus
    /// evictions is the resident count for every strategy.
    #[test]
    fn admissions_minus_evictions_is_the_resident_count(
        ops in proptest::collection::vec(ops_with_subs(32, 4), 1..400),
        capacity in 100u64..=400,
    ) {
        check_accounting(&ops, capacity, tied_page_ref);
    }

    /// `would_store` is a faithful predictor of `on_push` for every
    /// push-capable strategy (the Pushing-When-Necessary contract).
    #[test]
    fn would_store_predicts_on_push(
        ops in proptest::collection::vec(op_strategy(30), 1..200),
        capacity in 64u64..1024,
    ) {
        for kind in kinds() {
            let mut s = build(kind, capacity);
            if !s.uses_push() {
                continue;
            }
            let mut ev = Vec::new();
            for op in &ops {
                match *op {
                    Op::Push { page, subs } => {
                        let predicted = s.would_store(&page_ref(page), subs);
                        let stored = s.on_push(&page_ref(page), subs, &mut ev).is_stored();
                        prop_assert_eq!(
                            predicted, stored,
                            "{}: would_store lied for page {}", s.name(), page
                        );
                    }
                    Op::Access { page, subs } => {
                        let _ = s.on_access(&page_ref(page), subs, &mut ev);
                    }
                    Op::Invalidate { page } => {
                        let _ = s.invalidate(PageId::new(page));
                    }
                }
            }
        }
    }

    /// A hit is reported exactly when the page was cached beforehand.
    #[test]
    fn hits_iff_cached(
        ops in proptest::collection::vec(op_strategy(30), 1..200),
        capacity in 64u64..1024,
    ) {
        for kind in kinds() {
            let mut s = build(kind, capacity);
            let mut ev = Vec::new();
            for op in &ops {
                match *op {
                    Op::Push { page, subs } => {
                        let outcome = s.on_push(&page_ref(page), subs, &mut ev);
                        if outcome.is_stored() {
                            prop_assert!(s.contains(PageId::new(page)), "{}", s.name());
                        }
                    }
                    Op::Access { page, subs } => {
                        let was_cached = s.contains(PageId::new(page));
                        let outcome = s.on_access(&page_ref(page), subs, &mut ev);
                        prop_assert_eq!(
                            outcome.is_hit(), was_cached,
                            "{}: hit does not match cache state", s.name()
                        );
                    }
                    Op::Invalidate { page } => {
                        let _ = s.invalidate(PageId::new(page));
                    }
                }
            }
        }
    }

    /// The cache store's min-heap always pops values in non-decreasing
    /// order, regardless of interleaved inserts/updates/removes.
    #[test]
    fn cache_store_pops_in_value_order(
        inserts in proptest::collection::vec((0u32..50, 1u64..64, 0.0f64..100.0), 1..100),
    ) {
        let mut store = CacheStore::new(Bytes::new(1 << 20));
        for &(page, size, value) in &inserts {
            store.insert(PageId::new(page), Bytes::new(size), value);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(p) = store.pop_min() {
            prop_assert!(p.value >= last);
            last = p.value;
        }
        prop_assert!(store.is_empty());
        prop_assert_eq!(store.used(), Bytes::ZERO);
    }

    /// The one-cache strategies agree on trivial workloads: a second access
    /// to the same page is always a hit when it fits — SUB's after a push,
    /// its only way in.
    #[test]
    fn second_access_hits(page in 0u32..1000, size in 1u64..512) {
        let pr = PageRef::new(PageId::new(page), Bytes::new(size), 1.0);
        let mut ev = Vec::new();
        for kind in LINEUP[..8].iter().chain(&OFF_LINEUP[..1]) {
            let mut s = build(*kind, 1024);
            if *kind == StrategyKind::Sub {
                prop_assert!(s.on_push(&pr, 1, &mut ev).is_stored());
            }
            prop_assert_eq!(s.on_access(&pr, 1, &mut ev).is_miss(), *kind != StrategyKind::Sub);
            prop_assert!(s.on_access(&pr, 1, &mut ev).is_hit(), "{}", s.name());
        }
    }
}
