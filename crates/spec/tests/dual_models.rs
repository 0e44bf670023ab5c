//! The dual strategies against [`DmModel`] and [`DcModel`], the `Vec`-scan
//! models written from paper §3.3 and DESIGN.md §3 that share nothing
//! with their implementation. The models implement [`Strategy`](Proxy),
//! so one operation-for-operation comparison serves every property here.
//! DC-FP is the dual cache whose bounds meet at its starting split.

mod ops;

use proptest::prelude::*;

use pscd_cache::{PageRef, PageUniverse};
use pscd_core::{DcAdaptive, DualMethods, Strategy as Proxy};
use pscd_obs::{NullObserver, ObsHandle};
use pscd_spec::{DcModel, DmModel};
use pscd_types::{Bytes, PageId};

use ops::{ops, Op, PAGES};

/// A page's size and cost are fixed attributes of the page; four sizes
/// and two costs make exact value ties the common case.
fn page(id: u32) -> PageRef {
    PageRef::new(
        PageId::new(id),
        Bytes::new(10 * (1 + id as u64 % 4)),
        (1 + (id / 4) % 2) as f64,
    )
}

/// Applies `op` to both sides and compares everything a caller can see.
fn agree(a: &mut dyn Proxy, b: &mut dyn Proxy, op: Op) {
    let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
    match op {
        Op::Push(p, subs) => assert_eq!(
            a.on_push(&page(p), subs, &mut ev_a),
            b.on_push(&page(p), subs, &mut ev_b),
            "{op:?}"
        ),
        Op::WouldStore(p, subs) => assert_eq!(
            a.would_store(&page(p), subs),
            b.would_store(&page(p), subs),
            "{op:?}"
        ),
        Op::Access(p, subs) => assert_eq!(
            a.on_access(&page(p), subs, &mut ev_a),
            b.on_access(&page(p), subs, &mut ev_b),
            "{op:?}"
        ),
        Op::Invalidate(p) => assert_eq!(
            a.invalidate(PageId::new(p)),
            b.invalidate(PageId::new(p)),
            "{op:?}"
        ),
    }
    assert_eq!(ev_a, ev_b, "evicted by {op:?}");
    assert_eq!(a.used(), b.used(), "used after {op:?}");
    assert_eq!(a.len(), b.len(), "len after {op:?}");
    for p in (0..PAGES).map(PageId::new) {
        assert_eq!(a.contains(p), b.contains(p), "{p:?} after {op:?}");
    }
}

/// Grown on demand, and reserved over the universe.
fn universes() -> [PageUniverse; 2] {
    let sized = PageUniverse::new((0..PAGES).map(|p| page(p).size));
    [PageUniverse::default(), sized]
}

/// The fixed splits of EXPERIMENTS.md's "Ablation: DC-FP push-cache fraction".
const PINNED: [f64; 7] = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9];

/// `(start, lo, hi)` of the PC share: DC-AP, DC-LAP, or DC-FP at one of
/// the pinned splits, a third of the cases each.
fn splits() -> impl Strategy<Value = [f64; 3]> {
    prop_oneof![
        Just([0.5, 0.0, 1.0]),
        Just([0.5, 0.25, 0.75]),
        proptest::sample::select(PINNED.to_vec()).prop_map(|f| [f; 3]),
    ]
}

fn unobserved() -> ObsHandle<NullObserver> {
    ObsHandle::disabled()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dm_matches_its_scan_model(
        ops in ops(),
        capacity in 100u64..=400,
        beta in proptest::sample::select(vec![1.0f64, 2.0]),
    ) {
        let capacity = Bytes::new(capacity);
        for universe in &universes() {
            let mut real = DualMethods::new(capacity, beta).observed(universe, unobserved());
            let mut model = DmModel::new(capacity, beta);
            for &op in &ops {
                agree(&mut real, &mut model, op);
            }
        }
    }

    #[test]
    fn dc_adaptive_matches_its_scan_model(
        ops in ops(),
        capacity in 100u64..=400,
        beta in proptest::sample::select(vec![1.0f64, 2.0]),
        split in splits(),
    ) {
        let capacity = Bytes::new(capacity);
        let [start, lo, hi] = split;
        for universe in &universes() {
            let built = if lo == hi {
                DcAdaptive::fp(capacity, beta, start)
            } else if (lo, hi) == (0.0, 1.0) {
                DcAdaptive::ap(capacity, beta)
            } else {
                DcAdaptive::lap_with_bounds(capacity, beta, lo, hi)
            };
            let mut real = built.observed(universe, unobserved());
            let mut model = DcModel::new(capacity, beta, split);
            for &op in &ops {
                agree(&mut real, &mut model, op);
                prop_assert_eq!(real.pc_allocation(), model.pc_allocation(), "after {:?}", op);
            }
        }
    }
}
