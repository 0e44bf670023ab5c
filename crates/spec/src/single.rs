//! The eight one-cache strategies of Table 1 — LRU, GDS, LFU-DA, GD\*,
//! SUB, SG1, SG2, SR — as one `Vec`-scan model written from paper eq. 1–5,
//! §3.2 ("stored only if free space plus strictly-less-valuable pages
//! cover it") and §3.3. Residents sit in a flat list, eviction is a linear
//! minimum over `(value, age)`, candidate bytes are a filtered sum,
//! in-cache reference counts die with their page and the cumulative
//! request counts of eq. 3–5 do not. No heap, no page index, no stamps.

use pscd_cache::{AccessOutcome, PageRef};
use pscd_core::{PushOutcome, Strategy, StrategyClass, StrategyKind};
use pscd_types::{Bytes, PageId};

use crate::note_eviction;

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

/// One proxy cache running one of the eight one-cache strategies.
#[derive(Debug)]
pub struct Model {
    kind: StrategyKind,
    capacity: Bytes,
    inflation: f64,
    clock: u64,
    pages: Vec<Resident>,
    /// `a` of eq. 3–5: requests per page since the start, cached or not.
    requested: Vec<(PageId, u32)>,
}

impl Model {
    /// An empty cache of `capacity` bytes running `kind`.
    ///
    /// # Panics
    ///
    /// Valuing a page panics if `kind` is DM or a dual cache.
    pub fn new(kind: StrategyKind, capacity: Bytes) -> Self {
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
            let values = self.pages.iter().map(|p| p.value);
            note_eviction(self.pages[weakest].value, values);
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

impl Strategy for Model {
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
