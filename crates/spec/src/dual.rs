//! The dual strategies as `Vec`-scan models written from paper §3.3 and
//! DESIGN.md §3: DM, and the dual cache as DC-AP, DC-LAP and DC-FP (the
//! dual cache whose bounds meet at its starting split). Residents sit in
//! a flat list, eviction is a linear minimum over `(value, age)`,
//! candidate bytes are a filtered sum, and staleness is the paper's own
//! wording: an operation counter and "not referenced since the last
//! replacement in AC". No heap, no page index, no stamps.

use pscd_cache::{AccessOutcome, PageRef};
use pscd_core::{PushOutcome, Strategy, StrategyClass};
use pscd_types::{Bytes, PageId};

use crate::note_eviction;

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

/// Dual-Methods: GD\* at access time, SUB at push time, one cache.
#[derive(Debug)]
pub struct DmModel {
    capacity: Bytes,
    beta: f64,
    inflation: f64,
    clock: u64,
    pages: Vec<DmPage>,
}

impl DmModel {
    /// An empty cache of `capacity` bytes whose GD\* module has `beta`.
    pub fn new(capacity: Bytes, beta: f64) -> Self {
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
        let values = self.pages.iter().map(|p| key(p).value);
        note_eviction(key(&self.pages[weakest]).value, values);
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

impl Strategy for DmModel {
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

/// Dual-Caches: a push cache (PC) under SUB and an access cache (AC)
/// under GD\*, the PC allocation free to move between two bounds.
#[derive(Debug)]
pub struct DcModel {
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
    pub fn new(capacity: Bytes, beta: f64, [start, lo, hi]: [f64; 3]) -> Self {
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

    /// The bytes currently allocated to PC.
    pub fn pc_allocation(&self) -> Bytes {
        self.pc_alloc
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
        let portion = self.pages.iter().filter(|p| p.label == label);
        note_eviction(
            self.pages[weakest].worth.value,
            portion.map(|p| p.worth.value),
        );
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

impl Strategy for DcModel {
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
