//! Oracles for the dual strategies that share nothing with their
//! implementation: `Vec`-scan models of DM and of DC-AP/DC-LAP written
//! from paper §3.3 and DESIGN.md §3 — residents in a flat list, eviction
//! by a linear minimum over `(value, age)`, candidate bytes by a filtered
//! sum, and the paper's own wording of staleness (an operation counter
//! and "not referenced since the last replacement in AC"). No heap, no
//! page index, no stamps. The models implement [`Strategy`](Proxy), so
//! one operation-for-operation comparison serves every property here.
//! DC-FP is the dual cache whose bounds meet at its starting split.

use proptest::prelude::*;

use pscd_cache::{AccessOutcome, PageRef, PageUniverse};
use pscd_core::{DcAdaptive, DualMethods, PushOutcome, Strategy as Proxy, StrategyClass};
use pscd_obs::{NullObserver, ObsHandle};
use pscd_types::{Bytes, PageId};

const PAGES: u32 = 32;

/// A page's size and cost are fixed attributes of the page; four sizes
/// and two costs make exact value ties the common case.
fn page(id: u32) -> PageRef {
    PageRef::new(
        PageId::new(id),
        Bytes::new(10 * (1 + id as u64 % 4)),
        (1 + (id / 4) % 2) as f64,
    )
}

/// Eq. 2: SUB's value of a page matching `subs` subscriptions.
fn sub_value(page: &PageRef, subs: u32) -> f64 {
    subs as f64 * page.cost / page.size.as_f64()
}

/// Eq. 1 less its inflation term: GD\*'s weight after `refs` references.
fn gd_weight(page: &PageRef, refs: u32, beta: f64) -> f64 {
    (refs as f64 * page.cost / page.size.as_f64()).powf(1.0 / beta)
}

/// A value and when it was last set; eviction takes the least value, the
/// oldest first among equals (DESIGN.md §3, decision 4).
#[derive(Debug, Clone, Copy)]
struct Valued {
    value: f64,
    age: u64,
}

impl Valued {
    fn weaker(&self, other: &Self) -> std::cmp::Ordering {
        let by_value = self.value.partial_cmp(&other.value).expect("no NaN values");
        by_value.then(self.age.cmp(&other.age))
    }
}

/// DM: one cache, every page valued twice — by GD\* for access-time
/// replacement, by SUB for push-time placement.
#[derive(Debug)]
struct DmPage {
    page: PageId,
    size: Bytes,
    gd: Valued,
    sub: Valued,
    refs: u32,
}

#[derive(Debug)]
struct DmModel {
    capacity: Bytes,
    beta: f64,
    inflation: f64,
    clock: u64,
    pages: Vec<DmPage>,
}

impl DmModel {
    fn new(capacity: Bytes, beta: f64) -> Self {
        Self {
            capacity,
            beta,
            inflation: 0.0,
            clock: 0,
            pages: Vec::new(),
        }
    }

    fn free(&self) -> Bytes {
        self.capacity - self.used()
    }

    fn evict_weakest(&mut self, key: impl Fn(&DmPage) -> Valued) -> DmPage {
        let weakest = (0..self.pages.len())
            .min_by(|&a, &b| key(&self.pages[a]).weaker(&key(&self.pages[b])))
            .expect("a full cache holds a page");
        self.pages.remove(weakest)
    }

    fn admit(&mut self, page: &PageRef, subs: u32, refs: u32) {
        self.clock += 1;
        self.pages.push(DmPage {
            page: page.page,
            size: page.size,
            gd: Valued {
                value: self.inflation + gd_weight(page, refs, self.beta),
                age: self.clock,
            },
            sub: Valued {
                value: sub_value(page, subs),
                age: self.clock,
            },
            refs,
        });
    }
}

impl Proxy for DmModel {
    fn name(&self) -> &'static str {
        "DM model"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        evicted.clear();
        if self.contains(page.page) {
            return PushOutcome::Stored;
        }
        if !self.would_store(page, subs) {
            return PushOutcome::Declined;
        }
        while self.free() < page.size {
            evicted.push(self.evict_weakest(|p| p.sub).page);
        }
        // No reference yet: GD* sees the pushed page at the bare inflation.
        self.admit(page, subs, 0);
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        let v = sub_value(page, subs);
        let candidates: Bytes = self
            .pages
            .iter()
            .filter(|p| p.sub.value < v)
            .map(|p| p.size)
            .sum();
        self.contains(page.page)
            || (page.size <= self.capacity && self.free() + candidates >= page.size)
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        evicted.clear();
        if let Some(p) = self.pages.iter_mut().find(|p| p.page == page.page) {
            self.clock += 1;
            p.refs += 1;
            p.gd = Valued {
                value: self.inflation + gd_weight(page, p.refs, self.beta),
                age: self.clock,
            };
            return AccessOutcome::Hit;
        }
        if page.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        while self.free() < page.size {
            let victim = self.evict_weakest(|p| p.gd);
            self.inflation = victim.gd.value;
            evicted.push(victim.page);
        }
        self.admit(page, subs, 1);
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

/// Which portion of the storage a page's bytes are labeled as.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Label {
    Pc,
    Ac,
}

/// DC-AP/DC-LAP: PC under SUB, AC under GD\*, the boundary a label.
#[derive(Debug)]
struct DcPage {
    page: PageId,
    size: Bytes,
    label: Label,
    worth: Valued,
    refs: u32,
    /// The operation that last referenced (or placed) the page.
    referenced: u64,
}

#[derive(Debug)]
struct DcModel {
    capacity: Bytes,
    beta: f64,
    /// Bounds on the PC allocation, in bytes.
    lo: Bytes,
    hi: Bytes,
    pc_alloc: Bytes,
    inflation: f64,
    clock: u64,
    /// Pushes and requests seen so far.
    operation: u64,
    /// The operation that last replaced a page in AC.
    ac_replaced: u64,
    pages: Vec<DcPage>,
}

impl DcModel {
    /// A cache whose PC share starts at `start` of the capacity and stays
    /// within `[lo, hi]` of it.
    fn new(capacity: Bytes, beta: f64, [start, lo, hi]: [f64; 3]) -> Self {
        Self {
            capacity,
            beta,
            lo: capacity.scaled(lo),
            hi: capacity.scaled(hi),
            pc_alloc: capacity.scaled(start),
            inflation: 0.0,
            clock: 0,
            operation: 0,
            ac_replaced: 0,
            pages: Vec::new(),
        }
    }

    fn allocation(&self, label: Label) -> Bytes {
        match label {
            Label::Pc => self.pc_alloc,
            Label::Ac => self.capacity - self.pc_alloc,
        }
    }

    fn free(&self, label: Label) -> Bytes {
        let used: Bytes = self
            .pages
            .iter()
            .filter(|p| p.label == label)
            .map(|p| p.size)
            .sum();
        self.allocation(label) - used
    }

    fn evict_weakest(&mut self, label: Label) -> DcPage {
        let weakest = (0..self.pages.len())
            .filter(|&i| self.pages[i].label == label)
            .min_by(|&a, &b| self.pages[a].worth.weaker(&self.pages[b].worth))
            .expect("a full portion holds a page");
        self.pages.remove(weakest)
    }

    fn place(&mut self, page: &PageRef, label: Label, value: f64, refs: u32) {
        self.clock += 1;
        self.pages.push(DcPage {
            page: page.page,
            size: page.size,
            label,
            worth: Valued {
                value,
                age: self.clock,
            },
            refs,
            referenced: self.operation,
        });
    }

    /// GD\* placement of a requested page in AC.
    fn place_in_ac(&mut self, page: &PageRef, mut evicted: Option<&mut Vec<PageId>>) {
        while self.free(Label::Ac) < page.size {
            let victim = self.evict_weakest(Label::Ac);
            self.inflation = victim.worth.value;
            self.ac_replaced = self.operation;
            if let Some(evicted) = evicted.as_deref_mut() {
                evicted.push(victim.page);
            }
        }
        let value = self.inflation + gd_weight(page, 1, self.beta);
        self.place(page, Label::Ac, value, 1);
    }

    /// SUB can place the page inside the current PC allocation.
    fn sub_fits(&self, page: &PageRef, v: f64) -> bool {
        let candidates: Bytes = self
            .pages
            .iter()
            .filter(|p| p.label == Label::Pc && p.worth.value < v)
            .map(|p| p.size)
            .sum();
        page.size <= self.pc_alloc && self.free(Label::Pc) + candidates >= page.size
    }

    /// The AC pages whose storage a failed SUB placement may take: those
    /// not referenced since the last replacement in AC, least valuable
    /// first, none that would push the PC allocation past its bound.
    /// `None` if they do not add up to `needed` bytes.
    fn storage_to_take(&self, needed: Bytes) -> Option<Vec<PageId>> {
        let mut stale: Vec<&DcPage> = self
            .pages
            .iter()
            .filter(|p| p.label == Label::Ac && p.referenced < self.ac_replaced)
            .collect();
        stale.sort_by(|a, b| a.worth.weaker(&b.worth));
        let (mut alloc, mut freed, mut taken) = (self.pc_alloc, Bytes::ZERO, Vec::new());
        for p in stale {
            if freed >= needed {
                break;
            }
            if alloc + p.size <= self.hi {
                alloc += p.size;
                freed += p.size;
                taken.push(p.page);
            }
        }
        (freed >= needed).then_some(taken)
    }
}

impl Proxy for DcModel {
    fn name(&self) -> &'static str {
        "DC model"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        evicted.clear();
        self.operation += 1;
        if self.contains(page.page) {
            return PushOutcome::Stored;
        }
        let v = sub_value(page, subs);
        if self.sub_fits(page, v) {
            while self.free(Label::Pc) < page.size {
                evicted.push(self.evict_weakest(Label::Pc).page);
            }
        } else {
            let needed = page.size.saturating_sub(self.free(Label::Pc));
            let Some(taken) = self.storage_to_take(needed) else {
                return PushOutcome::Declined;
            };
            for victim in taken {
                let at = self.pages.iter().position(|p| p.page == victim).unwrap();
                self.pc_alloc += self.pages.remove(at).size;
                evicted.push(victim);
            }
        }
        self.place(page, Label::Pc, v, 0);
        PushOutcome::Stored
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        let needed = page.size.saturating_sub(self.free(Label::Pc));
        self.contains(page.page)
            || (page.size <= self.capacity
                && (self.sub_fits(page, sub_value(page, subs))
                    || self.storage_to_take(needed).is_some()))
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        evicted.clear();
        self.operation += 1;
        let Some(at) = self.pages.iter().position(|p| p.page == page.page) else {
            if page.size > self.allocation(Label::Ac) {
                return AccessOutcome::MissBypassed;
            }
            self.place_in_ac(page, Some(evicted));
            return AccessOutcome::MissAdmitted;
        };
        if self.pages[at].label == Label::Ac {
            self.clock += 1;
            let p = &mut self.pages[at];
            p.refs += 1;
            p.worth = Valued {
                value: self.inflation + gd_weight(page, p.refs, self.beta),
                age: self.clock,
            };
            p.referenced = self.operation;
        } else {
            // A requested PC page is an AC page from now on. Its storage
            // follows it if the bound allows; otherwise it moves, as in
            // DC-FP — displacing AC pages a hit does not report, or lost
            // if AC could never hold it.
            self.pages.remove(at);
            if self.pc_alloc.saturating_sub(page.size) >= self.lo {
                self.pc_alloc = self.pc_alloc.saturating_sub(page.size);
                let value = self.inflation + gd_weight(page, 1, self.beta);
                self.place(page, Label::Ac, value, 1);
            } else if page.size <= self.allocation(Label::Ac) {
                self.place_in_ac(page, None);
            }
        }
        AccessOutcome::Hit
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

/// The fixed splits of EXPERIMENTS.md's "DC-FP partition ablation".
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
                prop_assert_eq!(real.pc_allocation(), model.pc_alloc, "after {:?}", op);
            }
        }
    }
}
