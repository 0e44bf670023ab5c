//! Property tests: the store must agree with a `Vec`-scan model that has
//! no heap and no index, and the engine's eviction lists with its byte
//! accounting. (The engine's decisions are checked one level up, where
//! the value functions live: `pscd-core`'s `tests/single_models.rs`.)

use proptest::prelude::*;

use pscd_cache::{AccessOutcome, CacheStore, GreedyDualEngine, PageRef, PageUniverse, StoredPage};
use pscd_types::{Bytes, PageId};

/// The store's contract with nothing of its structure: a flat list of
/// `(page, size, value, stamp, references)`, every question answered by
/// a linear scan.
#[derive(Default)]
struct ScanStore {
    pages: Vec<(u32, u64, f64, u64, u32)>,
    next_stamp: u64,
}

impl ScanStore {
    /// Stamps count from 0, as the store's do.
    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp - 1
    }

    fn contains(&self, page: u32) -> bool {
        self.pages.iter().any(|p| p.0 == page)
    }

    fn insert(&mut self, page: u32, size: u64, value: f64, refs: u32) {
        self.pages.retain(|p| p.0 != page);
        let stamp = self.stamp();
        self.pages.push((page, size, value, stamp, refs));
    }

    fn update_value(&mut self, page: u32, value: f64) -> bool {
        let Some(i) = self.pages.iter().position(|p| p.0 == page) else {
            return false;
        };
        let stamp = self.stamp();
        (self.pages[i].2, self.pages[i].3) = (value, stamp);
        true
    }

    /// A reference as three steps: is it there, count it, re-value it.
    fn hit(&mut self, page: u32, value: impl Fn(u32) -> f64) -> bool {
        if !self.contains(page) {
            return false;
        }
        let slot = self.pages.iter_mut().find(|p| p.0 == page).unwrap();
        slot.4 += 1;
        let refs = slot.4;
        self.update_value(page, value(refs))
    }

    fn remove(&mut self, page: u32) -> Option<StoredPage> {
        let i = self.pages.iter().position(|p| p.0 == page)?;
        let (page, size, value, ..) = self.pages.remove(i);
        Some(StoredPage {
            page: PageId::new(page),
            size: Bytes::new(size),
            value,
        })
    }

    /// Least value first, ties to the least recently (re)valued.
    fn min(&self) -> Option<u32> {
        self.ascending().first().copied()
    }

    /// Every page, least value first, ties to the least recently
    /// (re)valued.
    fn ascending(&self) -> Vec<u32> {
        let mut pages = self.pages.clone();
        pages.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap().then(a.3.cmp(&b.3)));
        pages.iter().map(|p| p.0).collect()
    }
}

#[derive(Debug, Clone)]
enum StoreOp {
    Insert(u32, u64, f64),
    /// Insert with this many references already counted.
    InsertCounted(u32, u64, f64, u32),
    Update(u32, f64),
    /// A reference, valued at this weight per reference counted.
    Hit(u32, f64),
    Remove(u32),
    PopMin,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    // Eighths: plenty of exact value ties, so stamps decide many pops.
    let value = (0u32..24).prop_map(|v| v as f64 / 8.0);
    prop_oneof![
        (0u32..60, 1u64..50, value.clone()).prop_map(|(p, s, v)| StoreOp::Insert(p, s, v)),
        (0u32..60, 1u64..50, value.clone(), 0u32..3)
            .prop_map(|(p, s, v, f)| StoreOp::InsertCounted(p, s, v, f)),
        (0u32..60, value.clone()).prop_map(|(p, v)| StoreOp::Update(p, v)),
        (0u32..60, value).prop_map(|(p, v)| StoreOp::Hit(p, v)),
        (0u32..60).prop_map(StoreOp::Remove),
        Just(StoreOp::PopMin),
    ]
}

fn page_params(page: u32) -> (u64, f64) {
    (16 + (page as u64 * 31) % 200, 1.0 + (page % 4) as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every answer the store gives — membership, bytes, the minimum,
    /// whether the candidates cover a need (of nothing, one byte, exactly
    /// their bytes and one more), each slot's stamp and reference count,
    /// the stamp counter (a missed update or reference must not burn
    /// one), the pages in eviction order as the store walks them without
    /// popping — equals the scan model's after every operation, whether
    /// the store grows on demand or was reserved over a universe.
    #[test]
    fn store_matches_scan_model(ops in proptest::collection::vec(store_op(), 1..400)) {
        for mut store in [
            CacheStore::new(Bytes::new(10_000)),
            CacheStore::dense(Bytes::new(10_000), &PageUniverse::new(vec![Bytes::new(1); 60])),
        ] {
            let mut model = ScanStore::default();
            let mut frontier = Vec::new();
            for op in &ops {
                match *op {
                    StoreOp::Insert(p, size, value) => {
                        store.insert(PageId::new(p), Bytes::new(size), value);
                        model.insert(p, size, value, 0);
                    }
                    StoreOp::InsertCounted(p, size, value, refs) => {
                        store.insert_with_refs(PageId::new(p), Bytes::new(size), value, refs);
                        model.insert(p, size, value, refs);
                    }
                    StoreOp::Update(p, value) => prop_assert_eq!(
                        store.update_value(PageId::new(p), value),
                        model.update_value(p, value)
                    ),
                    StoreOp::Hit(p, weight) => prop_assert_eq!(
                        store.hit(PageId::new(p), |refs| refs as f64 * weight),
                        model.hit(p, |refs| refs as f64 * weight)
                    ),
                    StoreOp::Remove(p) => {
                        prop_assert_eq!(store.remove(PageId::new(p)), model.remove(p))
                    }
                    StoreOp::PopMin => {
                        let expected = model.min().and_then(|p| model.remove(p));
                        prop_assert_eq!(store.peek_min(), expected);
                        prop_assert_eq!(store.pop_min(), expected);
                    }
                }
                prop_assert_eq!(store.len(), model.pages.len());
                prop_assert_eq!(store.used().as_u64(), model.pages.iter().map(|p| p.1).sum::<u64>());
                prop_assert_eq!(store.peek_min().map(|p| p.page.index()), model.min());
                let below: u64 = model.pages.iter().filter(|p| p.2 < 1.5).map(|p| p.1).sum();
                for need in [0, 1, below, below + 1] {
                    prop_assert_eq!(store.candidates_cover(1.5, Bytes::new(need)), below >= need);
                }
                prop_assert_eq!(store.next_stamp(), model.next_stamp);
                let walked: Vec<u32> = store.ascending(&mut frontier).map(|s| s.page.index()).collect();
                prop_assert_eq!(walked, model.ascending());
            }
            for &(page, size, value, stamp, refs) in &model.pages {
                prop_assert_eq!(store.value(PageId::new(page)), Some(value));
                prop_assert_eq!(store.size(PageId::new(page)), Some(Bytes::new(size)));
                let slot = store.slots().iter().find(|s| s.page.index() == page).unwrap();
                prop_assert_eq!((slot.stamp, store.refs(PageId::new(page))), (stamp, Some(refs)));
            }
        }
    }

    /// The eviction list reported on a miss never contains the new page
    /// and frees at least the bytes needed.
    #[test]
    fn eviction_lists_are_consistent(
        accesses in proptest::collection::vec(0u32..40, 1..200),
        capacity in 100u64..1000,
    ) {
        let mut cache = GreedyDualEngine::new(Bytes::new(capacity));
        let mut evicted = Vec::new();
        for &page in &accesses {
            let (size, cost) = page_params(page);
            let before = cache.store().used();
            // GD* at β = 2.
            let value = |f: u32, l: f64| l + (f as f64 * cost / size as f64).sqrt();
            let page = PageRef::new(PageId::new(page), Bytes::new(size), cost);
            match cache.access(&page, value, &mut evicted) {
                AccessOutcome::MissAdmitted => {
                    prop_assert!(!evicted.contains(&page.page));
                    for victim in &evicted {
                        prop_assert!(!cache.store().contains(*victim));
                    }
                    prop_assert!(cache.store().used() <= capacity.into());
                    prop_assert!(cache.store().used() >= page.size);
                }
                AccessOutcome::MissBypassed => {
                    prop_assert!(size > capacity);
                    prop_assert_eq!(cache.store().used(), before);
                }
                AccessOutcome::Hit => {
                    prop_assert_eq!(cache.store().used(), before);
                }
            }
        }
    }
}
