//! The eight one-cache strategies of Table 1 — LRU, GDS, LFU-DA, GD\*,
//! SUB, SG1, SG2, SR — against [`Model`], the `Vec`-scan model written
//! from paper eq. 1–5, §3.2 and §3.3 that shares nothing with their
//! implementation. The strategies are reached only through
//! [`StrategyKind`], so this file does not know how many types implement
//! them.
//!
//! A second property needs no model: LRU over equal-size pages is a stack
//! algorithm, so a smaller cache's residents are always among a larger
//! one's.

mod ops;

use proptest::prelude::*;

use pscd_cache::{AccessOutcome, PageRef, PageUniverse};
use pscd_core::{PushOutcome, Strategy as Proxy, StrategyKind};
use pscd_obs::ObsHandle;
use pscd_spec::Model;
use pscd_types::{Bytes, PageId};

use ops::{ops, Op, PAGES};

/// A page's size and cost are fixed attributes of the page; four sizes
/// and two costs make exact value ties the common case. The costs are 1
/// and 3 so that some ties hold only in one order of multiplying: three
/// subscriptions at cost 1 and one at cost 3 are worth the same as
/// `f·c / s` and differ in the last place as `f · (c/s)`.
fn page(id: u32) -> PageRef {
    PageRef::new(
        PageId::new(id),
        Bytes::new(10 * (1 + id as u64 % 4)),
        (1 + 2 * ((id / 4) % 2)) as f64,
    )
}

/// What a caller can see of one operation.
#[derive(Debug, PartialEq)]
enum Seen {
    Push(PushOutcome),
    WouldStore(bool),
    Access(AccessOutcome),
    Invalidate(bool),
}

/// Applies `op` and reports the answer, the pages evicted in order, and
/// the cache's bytes, length and residents afterwards.
fn apply(proxy: &mut dyn Proxy, op: Op) -> (Seen, Vec<PageId>, Bytes, usize, Vec<bool>) {
    let mut evicted = Vec::new();
    let seen = match op {
        Op::Push(p, subs) => Seen::Push(proxy.on_push(&page(p), subs, &mut evicted)),
        Op::WouldStore(p, subs) => Seen::WouldStore(proxy.would_store(&page(p), subs)),
        Op::Access(p, subs) => Seen::Access(proxy.on_access(&page(p), subs, &mut evicted)),
        Op::Invalidate(p) => Seen::Invalidate(proxy.invalidate(PageId::new(p))),
    };
    let residents = (0..PAGES).map(|p| proxy.contains(PageId::new(p)));
    (
        seen,
        evicted,
        proxy.used(),
        proxy.len(),
        residents.collect(),
    )
}

fn one_cache_kinds(beta: f64) -> [StrategyKind; 8] {
    [
        StrategyKind::Lru,
        StrategyKind::Gds,
        StrategyKind::LfuDa,
        StrategyKind::GdStar { beta },
        StrategyKind::Sub,
        StrategyKind::Sg1 { beta },
        StrategyKind::Sg2 { beta },
        StrategyKind::Sr,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every one-cache strategy, grown on demand and preallocated for the
    /// universe, answers every operation as the scan model does.
    #[test]
    fn one_cache_strategies_match_the_scan_model(
        ops in ops(),
        capacity in 100u64..=400,
        beta in proptest::sample::select(vec![0.5f64, 1.0, 2.0]),
    ) {
        let capacity = Bytes::new(capacity);
        for kind in one_cache_kinds(beta) {
            let mut model = Model::new(kind, capacity);
            let mut grown = kind.build(capacity, &PageUniverse::default(), ObsHandle::disabled());
            let universe = PageUniverse::new((0..PAGES).map(|p| page(p).size));
            let mut preallocated = kind.build(capacity, &universe, ObsHandle::disabled());
            prop_assert_eq!(grown.class(), model.class(), "{}", kind.name());
            for &op in &ops {
                let expected = apply(&mut model, op);
                prop_assert_eq!(
                    &apply(&mut grown, op), &expected,
                    "{} grown, {:?}", kind.name(), op
                );
                prop_assert_eq!(
                    &apply(&mut preallocated, op), &expected,
                    "{} preallocated, {:?}", kind.name(), op
                );
            }
        }
    }

    /// The inclusion property of a stack algorithm: with every page one
    /// size, what an LRU cache of `k` pages holds an LRU cache of `k + 1`
    /// pages holds too, after every step of the same stream — so a hit in
    /// the smaller is a hit in the larger. One step in eight invalidates
    /// the page everywhere instead of requesting it.
    #[test]
    fn lru_over_equal_pages_is_a_stack_algorithm(
        steps in proptest::collection::vec((0..PAGES, 0u8..8), 1..400),
        size in 1u64..50,
    ) {
        let mut caches: Vec<_> = (1..=8)
            .map(|k| StrategyKind::Lru.build(Bytes::new(k * size), &PageUniverse::default(), ObsHandle::disabled()))
            .collect();
        let mut evicted = Vec::new();
        for (id, what) in steps {
            let page = PageRef::new(PageId::new(id), Bytes::new(size), 1.0);
            let mut hit_below = false;
            for cache in &mut caches {
                if what == 0 {
                    cache.invalidate(page.page);
                    continue;
                }
                let hit = cache.on_access(&page, 0, &mut evicted).is_hit();
                prop_assert!(hit || !hit_below, "hit at a smaller capacity only");
                hit_below = hit;
            }
            for pair in caches.windows(2) {
                for p in (0..PAGES).map(PageId::new) {
                    prop_assert!(!pair[0].contains(p) || pair[1].contains(p), "{p:?}");
                }
            }
        }
    }
}
