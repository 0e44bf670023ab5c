//! An oracle for the eight one-cache strategies of Table 1 — LRU, GDS,
//! LFU-DA, GD\*, SUB, SG1, SG2, SR — that shares nothing with their
//! implementation: one `Vec`-scan model written from paper eq. 1–5, §3.2
//! ("stored only if free space plus strictly-less-valuable pages cover
//! it") and §3.3. Residents sit in a flat list, eviction is a linear
//! minimum over `(value, age)`, candidate bytes are a filtered sum,
//! in-cache reference counts die with their page and the cumulative
//! request counts of eq. 3–5 do not. No heap, no page index, no stamps.
//! The strategies are reached only through [`StrategyKind`], so this file
//! does not know how many types implement them.
//!
//! A second property needs no model: LRU over equal-size pages is a stack
//! algorithm, so a smaller cache's residents are always among a larger
//! one's.

use proptest::prelude::*;

use pscd_cache::{AccessOutcome, PageRef, PageUniverse};
use pscd_core::{PushOutcome, Strategy as Proxy, StrategyClass, StrategyKind};
use pscd_obs::ObsHandle;
use pscd_types::{Bytes, PageId};

const PAGES: u32 = 32;

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

#[derive(Debug)]
struct Resident {
    page: PageId,
    size: Bytes,
    value: f64,
    /// When the value was last set; the oldest goes first among equals
    /// (DESIGN.md §3, decision 4).
    age: u64,
    /// References since the page entered the cache (In-Cache LFU).
    refs: u32,
}

#[derive(Debug)]
struct Model {
    kind: StrategyKind,
    capacity: Bytes,
    inflation: f64,
    clock: u64,
    pages: Vec<Resident>,
    /// `a` of eq. 3–5: requests per page since the start, cached or not.
    requested: Vec<(PageId, u32)>,
}

impl Model {
    fn new(kind: StrategyKind, capacity: Bytes) -> Self {
        Self {
            kind,
            capacity,
            inflation: 0.0,
            clock: 0,
            pages: Vec::new(),
            requested: Vec::new(),
        }
    }

    fn requests_of(&self, page: PageId) -> u32 {
        let seen = self.requested.iter().find(|(p, _)| *p == page);
        seen.map_or(0, |&(_, a)| a)
    }

    /// The page's value after `refs` in-cache references, with `subs`
    /// matching subscriptions. Two pages tie only if both sides round
    /// alike, so each equation multiplies in the order the strategies
    /// do: eq. 1 and 2 as `f·c / s`, GDS and eq. 3–5 as `f · (c/s)`.
    fn value(&self, page: &PageRef, subs: u32, refs: u32) -> f64 {
        let (c, s, l) = (page.cost, page.size.as_f64(), self.inflation);
        let a = self.requests_of(page.page);
        let remaining = subs.saturating_sub(a) as f64;
        match self.kind {
            StrategyKind::Lru => l + 1.0,
            StrategyKind::Gds => l + c / s,
            StrategyKind::LfuDa => l + refs as f64,
            StrategyKind::GdStar { beta } => l + (refs as f64 * c / s).powf(1.0 / beta),
            StrategyKind::Sub => subs as f64 * c / s,
            StrategyKind::Sg1 { beta } => l + ((subs + a) as f64 * (c / s)).powf(1.0 / beta),
            StrategyKind::Sg2 { beta } => l + (remaining * (c / s)).powf(1.0 / beta),
            StrategyKind::Sr => remaining * (c / s),
            other => panic!("{} is not a one-cache strategy", other.name()),
        }
    }

    fn free(&self) -> Bytes {
        self.capacity - self.used()
    }

    /// §3.2: free space plus the pages worth strictly less cover it.
    fn fits_over_weaker(&self, page: &PageRef, value: f64) -> bool {
        let weaker = self.pages.iter().filter(|p| p.value < value);
        let candidates: Bytes = weaker.map(|p| p.size).sum();
        page.size <= self.capacity && self.free() + candidates >= page.size
    }

    /// Evicts the least valuable pages until `size` bytes are free, the
    /// inflation following the last victim's value.
    fn make_room(&mut self, size: Bytes, evicted: &mut Vec<PageId>) {
        while self.free() < size {
            let weakest = (0..self.pages.len())
                .min_by(|&a, &b| {
                    let (a, b) = (&self.pages[a], &self.pages[b]);
                    let by_value = a.value.partial_cmp(&b.value).expect("no NaN values");
                    by_value.then(a.age.cmp(&b.age))
                })
                .expect("a full cache holds a page");
            let victim = self.pages.remove(weakest);
            self.inflation = victim.value;
            evicted.push(victim.page);
        }
    }

    fn store(&mut self, page: &PageRef, value: f64, refs: u32) {
        self.clock += 1;
        self.pages.push(Resident {
            page: page.page,
            size: page.size,
            value,
            age: self.clock,
            refs,
        });
    }
}

impl Proxy for Model {
    fn name(&self) -> &'static str {
        "one-cache model"
    }

    /// Table 1's rows: when a page may be placed.
    fn class(&self) -> StrategyClass {
        match self.kind {
            StrategyKind::Sub => StrategyClass::PushTime,
            StrategyKind::Sg1 { .. } | StrategyKind::Sg2 { .. } | StrategyKind::Sr => {
                StrategyClass::Combined
            }
            _ => StrategyClass::AccessTime,
        }
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        evicted.clear();
        if !self.would_store(page, subs) {
            return PushOutcome::Declined;
        }
        if !self.contains(page.page) {
            // Valued before room is made; no reference yet.
            let value = self.value(page, subs, 0);
            self.make_room(page.size, evicted);
            self.store(page, value, 0);
        }
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        self.class() != StrategyClass::AccessTime
            && (self.contains(page.page) || self.fits_over_weaker(page, self.value(page, subs, 0)))
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        evicted.clear();
        match self.requested.iter_mut().find(|(p, _)| *p == page.page) {
            Some((_, a)) => *a += 1,
            None => self.requested.push((page.page, 1)),
        }
        let class = self.class();
        if let Some(at) = self.pages.iter().position(|p| p.page == page.page) {
            // Eq. 2 has no access term: a request tells SUB nothing new.
            if class != StrategyClass::PushTime {
                self.clock += 1;
                let refs = self.pages[at].refs + 1;
                let value = self.value(page, subs, refs);
                let resident = &mut self.pages[at];
                (resident.refs, resident.value, resident.age) = (refs, value, self.clock);
            }
            return AccessOutcome::Hit;
        }
        match class {
            // §3.2: push time is the only placement opportunity.
            StrategyClass::PushTime => return AccessOutcome::MissBypassed,
            // Access-time caching always places what fits at all, and
            // values it against the inflation its evictions leave.
            StrategyClass::AccessTime => {
                if page.size > self.capacity {
                    return AccessOutcome::MissBypassed;
                }
                self.make_room(page.size, evicted);
                let value = self.value(page, subs, 1);
                self.store(page, value, 1);
            }
            // §3.3: only over strictly-less-valuable pages.
            StrategyClass::Combined => {
                let value = self.value(page, subs, 1);
                if !self.fits_over_weaker(page, value) {
                    return AccessOutcome::MissBypassed;
                }
                self.make_room(page.size, evicted);
                self.store(page, value, 1);
            }
        }
        AccessOutcome::MissAdmitted
    }

    fn contains(&self, page: PageId) -> bool {
        self.pages.iter().any(|p| p.page == page)
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn used(&self) -> Bytes {
        self.pages.iter().map(|p| p.size).sum()
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let before = self.pages.len();
        self.pages.retain(|p| p.page != page);
        self.pages.len() < before
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32, u32),
    WouldStore(u32, u32),
    Access(u32, u32),
    Invalidate(u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        3 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::Push(p, s)),
        1 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::WouldStore(p, s)),
        4 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::Access(p, s)),
        1 => (0..PAGES).prop_map(Op::Invalidate),
    ];
    proptest::collection::vec(op, 1..400)
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
