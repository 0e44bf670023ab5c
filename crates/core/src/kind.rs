//! Strategy factory for experiments and benchmarks.

use serde::{Deserialize, Serialize};

use pscd_cache::snapshot::put_u8;
use pscd_cache::{AccessOutcome, PageRef, PageUniverse, SnapshotError, SnapshotReader};
use pscd_obs::{NullObserver, ObsHandle, Observer};
use pscd_types::{count, Bytes, PageId};

use crate::single::Model;
use crate::{DcAdaptive, DualMethods, PushOutcome, SingleCache, Strategy, StrategyClass};

/// A buildable description of every strategy in the paper (plus the classic
/// access-only baselines), used to parameterize experiments.
///
/// # Examples
///
/// ```
/// use pscd_cache::PageUniverse;
/// use pscd_core::{Strategy, StrategyKind};
/// use pscd_obs::ObsHandle;
/// use pscd_types::Bytes;
///
/// // The empty universe: the tables grow on demand.
/// let universe = PageUniverse::default();
/// let strategy =
///     StrategyKind::Sg2 { beta: 2.0 }.build(Bytes::from_kib(64), &universe, ObsHandle::disabled());
/// assert_eq!(strategy.name(), "SG2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Least-recently-used (access-only baseline).
    Lru,
    /// GreedyDual-Size (access-only baseline).
    Gds,
    /// LFU with dynamic aging (access-only baseline).
    LfuDa,
    /// GreedyDual\* — the paper's access-time baseline (eq. 1).
    GdStar {
        /// Popularity/recency balance β.
        beta: f64,
    },
    /// Push-time-only subscription-driven placement (eq. 2).
    Sub,
    /// Subscription-GD\*-1: `f = s + a` (eq. 3).
    Sg1 {
        /// Popularity/recency balance β.
        beta: f64,
    },
    /// Subscription-GD\*-2: `f = s − a` (eq. 4).
    Sg2 {
        /// Popularity/recency balance β.
        beta: f64,
    },
    /// Subscription-request: `V = (s − a)·c/s` (eq. 5).
    Sr,
    /// Dual-Methods: GD\* at access time, SUB at push time, shared cache.
    Dm {
        /// β of the GD\* module.
        beta: f64,
    },
    /// Dual-Caches with fixed partition.
    DcFp {
        /// β of the GD\* (access-cache) module.
        beta: f64,
        /// Fraction of the storage given to the push cache (paper: 0.5).
        pc_fraction: f64,
    },
    /// Dual-Caches with adaptive partition.
    DcAp {
        /// β of the GD\* (access-cache) module.
        beta: f64,
    },
    /// Dual-Caches with limited adaptive partition.
    DcLap {
        /// β of the GD\* (access-cache) module.
        beta: f64,
        /// Lower bound on the PC fraction (paper: 0.25).
        lo: f64,
        /// Upper bound on the PC fraction (paper: 0.75).
        hi: f64,
    },
}

impl StrategyKind {
    /// Checks the parameters, which arrive from scenario files and
    /// configurations; `build` panics on a kind that fails this.
    ///
    /// # Errors
    ///
    /// Returns the first parameter outside its range, as its name and
    /// the constraint it must satisfy.
    pub fn check(&self) -> Result<(), (&'static str, &'static str)> {
        use StrategyKind::*;
        let beta = match *self {
            Lru | Gds | LfuDa | Sub | Sr => return Ok(()),
            GdStar { beta } | Sg1 { beta } | Sg2 { beta } | Dm { beta } | DcAp { beta } => beta,
            DcFp { beta, pc_fraction } => {
                if !(pc_fraction > 0.0 && pc_fraction < 1.0) {
                    return Err(("pc_fraction", "in (0, 1)"));
                }
                beta
            }
            DcLap { beta, lo, hi } => {
                if !((0.0..=0.5).contains(&lo) && (0.5..=1.0).contains(&hi)) {
                    return Err(("lo and hi", "0 <= lo <= 0.5 <= hi <= 1"));
                }
                beta
            }
        };
        if !(beta.is_finite() && beta > 0.0) {
            return Err(("beta", "> 0 and finite"));
        }
        Ok(())
    }

    /// The paper's display name of this strategy.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Lru => "LRU",
            StrategyKind::Gds => "GDS",
            StrategyKind::LfuDa => "LFU-DA",
            StrategyKind::GdStar { .. } => "GD*",
            StrategyKind::Sub => "SUB",
            StrategyKind::Sg1 { .. } => "SG1",
            StrategyKind::Sg2 { .. } => "SG2",
            StrategyKind::Sr => "SR",
            StrategyKind::Dm { .. } => "DM",
            StrategyKind::DcFp { .. } => "DC-FP",
            StrategyKind::DcAp { .. } => "DC-AP",
            StrategyKind::DcLap { .. } => "DC-LAP",
        }
    }

    /// Instantiates the strategy for one proxy cache of the given
    /// capacity over the pages of `universe`, its cache decisions
    /// (admissions, evictions, relabels) reported to `obs`. Every store
    /// is reserved for the most pages the capacity can hold and the
    /// request counts, as address space, for the universe, making the
    /// steady-state hot loop free of heap allocations (see DESIGN.md
    /// §9); the empty universe reserves nothing and the tables grow on
    /// demand.
    pub fn build<O: Observer>(
        &self,
        capacity: Bytes,
        universe: &PageUniverse,
        obs: ObsHandle<O>,
    ) -> StrategyImpl<O> {
        let model = match *self {
            StrategyKind::Lru => Model::Lru,
            StrategyKind::Gds => Model::Gds,
            StrategyKind::LfuDa => Model::LfuDa,
            StrategyKind::GdStar { beta } => Model::GdStar { beta },
            StrategyKind::Sub => Model::Sub,
            StrategyKind::Sg1 { beta } => Model::Sg1 { beta },
            StrategyKind::Sg2 { beta } => Model::Sg2 { beta },
            StrategyKind::Sr => Model::Sr,
            StrategyKind::Dm { beta } => {
                return StrategyImpl::Dm(DualMethods::new(capacity, beta).observed(universe, obs))
            }
            StrategyKind::DcFp { beta, pc_fraction } => {
                return StrategyImpl::Dc(
                    DcAdaptive::fp(capacity, beta, pc_fraction).observed(universe, obs),
                )
            }
            StrategyKind::DcAp { beta } => {
                return StrategyImpl::Dc(DcAdaptive::ap(capacity, beta).observed(universe, obs))
            }
            StrategyKind::DcLap { beta, lo, hi } => {
                return StrategyImpl::Dc(
                    DcAdaptive::lap_with_bounds(capacity, beta, lo, hi).observed(universe, obs),
                )
            }
        };
        StrategyImpl::Single(SingleCache::new(model, capacity, universe, obs))
    }

    /// The paper's defaults: DC-FP at 50/50, DC-LAP bounded to [25%, 75%].
    pub fn dc_fp(beta: f64) -> Self {
        StrategyKind::DcFp {
            beta,
            pc_fraction: 0.5,
        }
    }

    /// DC-LAP with the paper's bounds.
    pub fn dc_lap(beta: f64) -> Self {
        StrategyKind::DcLap {
            beta,
            lo: 0.25,
            hi: 0.75,
        }
    }

    /// The lineup of figure 4: GD\*, SUB, SG1, SG2, SR, DC-LAP.
    pub fn figure4_lineup(beta: f64) -> Vec<StrategyKind> {
        vec![
            StrategyKind::GdStar { beta },
            StrategyKind::Sub,
            StrategyKind::Sg1 { beta },
            StrategyKind::Sg2 { beta },
            StrategyKind::Sr,
            Self::dc_lap(beta),
        ]
    }

    /// The lineup of figure 3: GD\*, DM, DC-FP, DC-AP, DC-LAP.
    pub fn figure3_lineup(beta: f64) -> Vec<StrategyKind> {
        vec![
            StrategyKind::GdStar { beta },
            StrategyKind::Dm { beta },
            Self::dc_fp(beta),
            StrategyKind::DcAp { beta },
            Self::dc_lap(beta),
        ]
    }
}

/// A concrete, enum-dispatched strategy: one variant per strategy type —
/// the eight one-cache strategies are one type, the three dual-cache
/// ones another. [`StrategyKind::build`] makes one.
///
/// Every proxy is a `StrategyImpl`, so per-event dispatch is a jump table
/// over a small enum instead of a virtual call, and the compiler can
/// inline the strategy bodies into the replay loop. `StrategyImpl`
/// itself implements [`Strategy`], so any code written against the trait
/// accepts it unchanged.
#[derive(Debug)]
pub enum StrategyImpl<O: Observer = NullObserver> {
    /// LRU / GDS / LFU-DA / GD\* / SUB / SG1 / SG2 / SR.
    Single(SingleCache<O>),
    /// Dual-Methods.
    Dm(DualMethods<O>),
    /// DC-FP / DC-AP / DC-LAP.
    Dc(DcAdaptive<O>),
}

impl<O: Observer> StrategyImpl<O> {
    /// The wire tag identifying this strategy's snapshot layout: 0–5 are
    /// the one-cache models' (an LRU blob is refused by a GDS cache). 6,
    /// 7 and 8 were DM's, DC-FP's and DC-AP/DC-LAP's earlier layouts and
    /// stay retired, so a blob written in them is refused, not misread.
    fn snapshot_tag(&self) -> u8 {
        match self {
            StrategyImpl::Single(s) => s.snapshot_tag(),
            StrategyImpl::Dm(_) => 9,
            StrategyImpl::Dc(_) => 10,
        }
    }

    /// Serializes the strategy's mutable state (cache contents, heap
    /// priorities, aging clocks) into `out`, prefixed with a variant tag.
    ///
    /// Configuration — capacity, β, partition bounds — is *not* encoded:
    /// snapshots are restored into a freshly built strategy of the same
    /// [`StrategyKind`], which already carries it.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        put_u8(out, self.snapshot_tag());
        match self {
            StrategyImpl::Single(s) => s.encode_state(out),
            StrategyImpl::Dm(s) => s.encode_state(out),
            StrategyImpl::Dc(s) => s.encode_state(out),
        }
    }

    /// Restores state captured by [`encode_snapshot`](Self::encode_snapshot)
    /// into this strategy, which must have been built from the same
    /// [`StrategyKind`] over a page universe covering every encoded page —
    /// an id outside it is [`SnapshotError::Corrupt`]. On error the
    /// strategy's state is unspecified and it should be discarded.
    pub fn decode_snapshot(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.read_u8()?;
        if tag != self.snapshot_tag() {
            return Err(SnapshotError::Corrupt("snapshot tag mismatches strategy"));
        }
        match self {
            StrategyImpl::Single(s) => s.decode_state(r),
            StrategyImpl::Dm(s) => s.decode_state(r),
            StrategyImpl::Dc(s) => s.decode_state(r),
        }
    }

    /// Calls `resident` with every cached page, in arbitrary order. A
    /// restore is the one time pages enter a strategy without an
    /// [`on_push`](Strategy::on_push) / [`on_access`](Strategy::on_access)
    /// outcome saying so; an owner that tracks residency from those
    /// outcomes (the delivery engine's residency index) reads the
    /// restored population here.
    pub fn for_each_resident(&self, resident: impl FnMut(PageId)) {
        match self {
            StrategyImpl::Single(s) => s.residents().for_each(resident),
            StrategyImpl::Dm(s) => s.residents().for_each(resident),
            StrategyImpl::Dc(s) => s.residents().for_each(resident),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            StrategyImpl::Single($s) => $body,
            StrategyImpl::Dm($s) => $body,
            StrategyImpl::Dc($s) => $body,
        }
    };
}

impl<O: Observer> Strategy for StrategyImpl<O> {
    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn class(&self) -> StrategyClass {
        dispatch!(self, s => s.class())
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        count!(Counter::PlacementEvaluations, 1);
        dispatch!(self, s => s.on_push(page, subs, evicted))
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        count!(Counter::PlacementEvaluations, 1);
        dispatch!(self, s => s.would_store(page, subs))
    }

    fn on_access(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> AccessOutcome {
        dispatch!(self, s => s.on_access(page, subs, evicted))
    }

    fn contains(&self, page: PageId) -> bool {
        dispatch!(self, s => s.contains(page))
    }

    fn capacity(&self) -> Bytes {
        dispatch!(self, s => s.capacity())
    }

    fn used(&self) -> Bytes {
        dispatch!(self, s => s.used())
    }

    fn len(&self) -> usize {
        dispatch!(self, s => s.len())
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        dispatch!(self, s => s.invalidate(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest, ProptestConfig};

    fn all_kinds() -> [StrategyKind; 12] {
        [
            StrategyKind::Lru,
            StrategyKind::Gds,
            StrategyKind::LfuDa,
            StrategyKind::GdStar { beta: 2.0 },
            StrategyKind::Sub,
            StrategyKind::Sg1 { beta: 2.0 },
            StrategyKind::Sg2 { beta: 2.0 },
            StrategyKind::Sr,
            StrategyKind::Dm { beta: 2.0 },
            StrategyKind::dc_fp(2.0),
            StrategyKind::DcAp { beta: 2.0 },
            StrategyKind::dc_lap(2.0),
        ]
    }

    /// A page's size and cost are fixed attributes of the page.
    fn page(i: u32) -> PageRef {
        PageRef::new(
            PageId::new(i),
            Bytes::new((i as u64 * 7) % 40 + 1),
            (i % 4 + 1) as f64,
        )
    }

    /// `kind` over the pages `0..pages` (none: grown on write).
    fn fresh(kind: StrategyKind, pages: u32) -> StrategyImpl {
        let universe = PageUniverse::new((0..pages).map(|i| page(i).size));
        kind.build(Bytes::new(300), &universe, ObsHandle::disabled())
    }

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Random pushes, accesses and invalidations over pages `0..32`.
    fn churn(live: &mut StrategyImpl, rng: &mut impl FnMut() -> u64, steps: usize) {
        let mut ev = Vec::new();
        for _ in 0..steps {
            let p = page((rng() % 32) as u32);
            let subs = (rng() % 20) as u32;
            match rng() % 5 {
                0 | 1 => drop(live.on_push(&p, subs, &mut ev)),
                4 => drop(live.invalidate(p.page)),
                _ => drop(live.on_access(&p, subs, &mut ev)),
            }
        }
    }

    /// One step of a [`would_store`](Strategy::would_store) contract
    /// script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(PageRef, u32),
        Access(PageRef, u32),
        Invalidate(PageId),
    }

    /// Seeded pushes, accesses and invalidations over the pages `0..32`,
    /// half of them pushes: enough to fill a 300-byte cache many times
    /// over, leave AC pages unreferenced across replacements and relabel
    /// them.
    fn seeded(seed: u64, steps: usize) -> Vec<Op> {
        let mut rng = xorshift(seed);
        (0..steps)
            .map(|_| {
                let p = page((rng() % 32) as u32);
                let subs = (rng() % 20) as u32;
                match rng() % 6 {
                    0..=2 => Op::Push(p, subs),
                    3 => Op::Invalidate(p.page),
                    _ => Op::Access(p, subs),
                }
            })
            .collect()
    }

    /// The contract the Pushing-When-Necessary scheme relies on, so that
    /// the delivery engine can decide each offer once, with `on_push`:
    /// `would_store` answers what `on_push` then does, before every push
    /// of every script, for every kind. The seeded rows must reach full
    /// caches (evictions), declines and — on DC-AP and DC-LAP — relabels.
    #[test]
    fn would_store_is_what_on_push_then_does() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        let p = |id, size| PageRef::new(PageId::new(id), Bytes::new(size), 1.0);
        // SUB and SG1 over 20 bytes: five pushes of mixed value, the last
        // larger than the cache.
        let single = [
            (p(1, 10), 10),
            (p(2, 10), 5),
            (p(3, 10), 1),
            (p(4, 15), 30),
            (p(5, 25), 99),
        ];
        // DC-LAP over 100 bytes: five pushes of mixed value, one larger
        // than the PC bound.
        let dual = [
            (p(1, 40), 10),
            (p(2, 30), 2),
            (p(3, 30), 50),
            (p(4, 80), 90),
            (p(5, 10), 0),
        ];
        let pushes = |list: &[(PageRef, u32)]| list.iter().map(|&(p, s)| Op::Push(p, s)).collect();
        // (kind, capacity, pages in the universe (0: grown on write),
        // script, whether coverage is checked).
        let mut rows: Vec<(StrategyKind, u64, u32, Vec<Op>, bool)> = vec![
            (StrategyKind::Sub, 20, 0, pushes(&single), false),
            (
                StrategyKind::Sg1 { beta: 2.0 },
                20,
                0,
                pushes(&single),
                false,
            ),
            (StrategyKind::dc_lap(2.0), 100, 0, pushes(&dual), false),
        ];
        for kind in all_kinds() {
            for seed in [0x9e37_79b9, 0x2545_f491, 0x5851_f42d] {
                rows.push((kind, 300, 32, seeded(seed, 1_500), true));
            }
        }
        let mut ev = Vec::new();
        for (kind, capacity, pages, script, covered) in rows {
            let universe = PageUniverse::new((0..pages).map(|i| page(i).size));
            let shared = SharedObserver::new(StatsObserver::new());
            let mut s = kind.build(
                Bytes::new(capacity),
                &universe,
                shared.handle(ServerId::new(0)),
            );
            let mut outcomes = [0u32; 2];
            for (step, op) in script.into_iter().enumerate() {
                match op {
                    Op::Push(p, subs) => {
                        let predicted = s.would_store(&p, subs);
                        let stored = s.on_push(&p, subs, &mut ev).is_stored();
                        assert_eq!(predicted, stored, "{} step {step}: {p:?}", kind.name());
                        outcomes[usize::from(stored)] += 1;
                    }
                    Op::Access(p, subs) => drop(s.on_access(&p, subs, &mut ev)),
                    Op::Invalidate(page) => drop(s.invalidate(page)),
                }
            }
            drop(s);
            let stats = shared.try_unwrap().unwrap();
            let r = stats.registry();
            let evictions: u64 = r.counters_with_prefix("evict.").map(|(_, n)| n).sum();
            if covered {
                assert!(evictions > 0, "{}: never full", kind.name());
                if kind
                    .build(Bytes::new(1), &universe, ObsHandle::disabled())
                    .uses_push()
                {
                    assert!(
                        outcomes.iter().all(|&n| n > 0),
                        "{}: {outcomes:?}",
                        kind.name()
                    );
                }
                if matches!(kind, StrategyKind::DcAp { .. } | StrategyKind::DcLap { .. }) {
                    assert!(
                        r.counter("relabel.ac_to_pc") > 0,
                        "{}: no relabel",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_kind_builds_and_reports_its_name() {
        let mut ev = Vec::new();
        for kind in all_kinds() {
            let mut s = kind.build(
                Bytes::from_kib(4),
                &PageUniverse::default(),
                ObsHandle::disabled(),
            );
            assert_eq!(s.name(), kind.name());
            assert_eq!(s.capacity(), Bytes::from_kib(4));
            // Smoke: run one push and one access through each.
            let p = PageRef::new(PageId::new(0), Bytes::new(128), 1.0);
            let _ = s.on_push(&p, 3, &mut ev);
            let _ = s.on_access(&p, 3, &mut ev);
            assert!(s.used() <= s.capacity());
        }
    }

    #[test]
    fn observed_builds_report_admissions() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        for kind in [
            StrategyKind::GdStar { beta: 2.0 },
            StrategyKind::Sub,
            StrategyKind::Sg2 { beta: 2.0 },
            StrategyKind::Dm { beta: 2.0 },
            StrategyKind::dc_fp(2.0),
            StrategyKind::dc_lap(2.0),
        ] {
            let mut ev = Vec::new();
            let shared = SharedObserver::new(StatsObserver::new());
            let mut s = kind.build(
                Bytes::from_kib(4),
                &PageUniverse::default(),
                shared.handle(ServerId::new(0)),
            );
            let p = PageRef::new(PageId::new(0), Bytes::new(128), 1.0);
            let _ = s.on_push(&p, 3, &mut ev);
            let _ = s.on_access(&p, 3, &mut ev);
            drop(s);
            let stats = shared.try_unwrap().unwrap();
            let admits =
                stats.registry().counter("admit.access") + stats.registry().counter("admit.push");
            assert!(admits >= 1, "{} reported no admissions", kind.name());
        }
    }

    /// Regression: a requested PC page larger than AC's allocation left
    /// the cache with a `relabel` and no `evict`, so admissions minus
    /// evictions stopped equalling the resident count.
    #[test]
    fn a_pc_page_too_large_for_ac_is_reported_evicted() {
        use pscd_obs::{SharedObserver, StatsObserver};
        use pscd_types::ServerId;

        let p = |id, size| PageRef::new(PageId::new(id), Bytes::new(size), 1.0);
        let lopsided = StrategyKind::DcFp {
            beta: 2.0,
            pc_fraction: 0.75,
        };
        // (kind, requests that miss first, the page pushed then requested).
        // DC-LAP gets there by growing PC: the fourth miss replaces in AC,
        // so the 55-byte push may take stale page 1's 20 bytes (PC 70 of
        // 100), and AC's 30 cannot take the page back.
        let cases = [
            (lopsided, &[][..], p(0, 60)),
            (
                StrategyKind::dc_lap(1.0),
                &[p(1, 20), p(1, 20), p(2, 20), p(3, 10), p(4, 10)][..],
                p(5, 55),
            ),
        ];
        for (kind, misses, big) in cases {
            let mut ev = Vec::new();
            let shared = SharedObserver::new(StatsObserver::new());
            let mut s = kind.build(
                Bytes::new(100),
                &PageUniverse::default(),
                shared.handle(ServerId::new(0)),
            );
            for page in misses {
                s.on_access(page, 0, &mut ev);
            }
            assert!(s.on_push(&big, 9, &mut ev).is_stored());
            let (residents, taken) = (s.len() as u64, ev.len() as u64);
            assert_eq!(s.on_access(&big, 9, &mut ev), AccessOutcome::Hit);
            assert!(ev.is_empty());
            assert!(!s.contains(big.page), "{}", kind.name());
            assert_eq!(s.len() as u64, residents - 1, "{}", kind.name());
            drop(s);
            let stats = shared.try_unwrap().unwrap();
            let r = stats.registry();
            let sum = |prefix| r.counters_with_prefix(prefix).map(|(_, n)| n).sum::<u64>();
            assert_eq!(
                sum("admit.") - sum("evict."),
                residents - 1,
                "{}",
                kind.name()
            );
            assert_eq!(r.counter("admit.push"), 1, "{}", kind.name());
            // No storage changed sides with the page.
            assert_eq!(r.counter("relabel.pc_to_ac"), 0, "{}", kind.name());
            assert_eq!(r.counter("relabel.ac_to_pc"), taken, "{}", kind.name());
        }
    }

    #[test]
    fn check_names_the_parameter_out_of_range() {
        for kind in all_kinds() {
            assert_eq!(kind.check(), Ok(()), "{}", kind.name());
        }
        let fp = |pc_fraction| StrategyKind::DcFp {
            beta: 2.0,
            pc_fraction,
        };
        let lap = |lo, hi| StrategyKind::DcLap { beta: 2.0, lo, hi };
        for (kind, parameter) in [
            (fp(0.0), "pc_fraction"),
            (fp(1.0), "pc_fraction"),
            (fp(1.5), "pc_fraction"),
            (fp(f64::NAN), "pc_fraction"),
            (lap(0.8, 0.9), "lo and hi"),
            (lap(0.1, 0.4), "lo and hi"),
            (lap(-0.1, 0.75), "lo and hi"),
            (lap(0.25, 1.5), "lo and hi"),
            (lap(f64::NAN, 0.75), "lo and hi"),
            (StrategyKind::GdStar { beta: f64::NAN }, "beta"),
            (StrategyKind::Sg1 { beta: 0.0 }, "beta"),
            (StrategyKind::Sg2 { beta: -1.0 }, "beta"),
            (
                StrategyKind::Dm {
                    beta: f64::INFINITY,
                },
                "beta",
            ),
            (StrategyKind::DcAp { beta: 0.0 }, "beta"),
            (StrategyKind::dc_fp(0.0), "beta"),
            (StrategyKind::dc_lap(f64::NAN), "beta"),
        ] {
            let (named, _constraint) = kind.check().expect_err(kind.name());
            assert_eq!(named, parameter, "{kind:?}");
            // The constructors' own guard agrees.
            let built = std::panic::catch_unwind(|| fresh(kind, 0));
            assert!(built.is_err(), "{kind:?} built");
        }
        // The bounds may touch the start and the ends.
        assert_eq!(lap(0.5, 0.5).check(), Ok(()));
        assert_eq!(lap(0.0, 1.0).check(), Ok(()));
    }

    #[test]
    fn snapshots_round_trip_for_every_kind() {
        for kind in all_kinds() {
            let mut live = fresh(kind, 32);
            let mut rng = xorshift(0x9e37_79b9);
            // Churn, snapshot mid-stream, restore into a fresh instance,
            // then verify both copies behave identically afterwards.
            churn(&mut live, &mut rng, 500);
            let mut buf = Vec::new();
            live.encode_snapshot(&mut buf);
            let mut restored = fresh(kind, 32);
            let mut r = SnapshotReader::new(&buf);
            restored
                .decode_snapshot(&mut r)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", kind.name()));
            assert!(r.is_empty(), "{}: trailing snapshot bytes", kind.name());
            assert_eq!(live.used(), restored.used(), "{}", kind.name());
            assert_eq!(live.len(), restored.len(), "{}", kind.name());

            let mut ev_a = Vec::new();
            let mut ev_b = Vec::new();
            for _ in 0..500 {
                let p = page((rng() % 32) as u32);
                let subs = (rng() % 20) as u32;
                match rng() % 5 {
                    0 | 1 => assert_eq!(
                        live.on_push(&p, subs, &mut ev_a),
                        restored.on_push(&p, subs, &mut ev_b),
                        "{}: push diverged",
                        kind.name()
                    ),
                    4 => assert_eq!(
                        live.invalidate(p.page),
                        restored.invalidate(p.page),
                        "{}: invalidate diverged",
                        kind.name()
                    ),
                    _ => assert_eq!(
                        live.on_access(&p, subs, &mut ev_a),
                        restored.on_access(&p, subs, &mut ev_b),
                        "{}: access diverged",
                        kind.name()
                    ),
                }
                assert_eq!(ev_a, ev_b, "{}: evictions diverged", kind.name());
                assert_eq!(live.used(), restored.used(), "{}", kind.name());
            }
            // Re-encoding both sides must now be byte-identical.
            let mut buf_a = Vec::new();
            let mut buf_b = Vec::new();
            live.encode_snapshot(&mut buf_a);
            restored.encode_snapshot(&mut buf_b);
            assert_eq!(buf_a, buf_b, "{}: re-encoded snapshots differ", kind.name());
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_tag() {
        let lru = fresh(StrategyKind::Lru, 8);
        let mut buf = Vec::new();
        lru.encode_snapshot(&mut buf);
        let mut gds = fresh(StrategyKind::Gds, 8);
        let err = gds
            .decode_snapshot(&mut SnapshotReader::new(&buf))
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn snapshot_in_a_retired_dual_layout_is_refused_by_its_tag() {
        // What a build before the one-store layouts wrote for an empty
        // cache: DM under tag 6 (inflation, stamp counter, no entries),
        // DC-AP/DC-LAP under tag 8 (partition point, inflation, tick,
        // replacement tick, stamp counter, no entries); and what DC-FP
        // wrote while it was two engines, under tag 7 (inflation, stamp
        // counter, no slots — twice).
        let old_dm = [&[6u8][..], &[0; 8 + 8 + 4]].concat();
        let old_dc = [&[8u8][..], &50u64.to_le_bytes(), &[0; 8 * 4 + 4]].concat();
        let old_fp = [&[7u8][..], &[0; 2 * (8 + 8 + 4)]].concat();
        for (kind, blob) in [
            (StrategyKind::Dm { beta: 2.0 }, &old_dm),
            (StrategyKind::DcAp { beta: 2.0 }, &old_dc),
            (StrategyKind::dc_lap(2.0), &old_dc),
            (StrategyKind::dc_fp(2.0), &old_fp),
        ] {
            let err = fresh(kind, 8).decode_snapshot(&mut SnapshotReader::new(blob));
            assert_eq!(
                err,
                Err(SnapshotError::Corrupt("snapshot tag mismatches strategy")),
                "{}",
                kind.name()
            );
        }
    }

    /// Rewrites the little-endian page-id words at `at` (which must hold
    /// `from`) and decodes the blob into a fresh 8-page strategy.
    fn decode_with_page_id(
        kind: StrategyKind,
        blob: &[u8],
        at: &[usize],
        from: u32,
        to: u32,
    ) -> Result<(), SnapshotError> {
        let mut bad = blob.to_vec();
        for &at in at {
            assert_eq!(blob[at..at + 4], from.to_le_bytes(), "{}", kind.name());
            bad[at..at + 4].copy_from_slice(&to.to_le_bytes());
        }
        fresh(kind, 8).decode_snapshot(&mut SnapshotReader::new(&bad))
    }

    /// Regression: one rewritten page id in a strategy snapshot used to
    /// index out of bounds in SG1/SG2/SR's access-count table and in
    /// DM/DC-AP/DC-LAP's entry index, and a duplicated id double-counted
    /// DM/DC's `used` in release builds. All are `Corrupt` now.
    #[test]
    fn snapshot_with_rewritten_page_id_is_corrupt_not_a_panic() {
        let mut ev = Vec::new();
        // An encoded store is its stamp counter, a slot count, then 28
        // bytes a slot with the page id 16 bytes in; two pushed pages
        // sit in slot order 5, 6 in every store that holds them.
        const SLOT: usize = 28;
        const STORE: usize = 8 + 4 + 2 * SLOT;
        let first_id = |store_at: usize| store_at + 8 + 4 + 16;
        // (kind, offsets of every encoded copy of page 5's id): DM's two
        // stores follow the tag byte and the inflation; DC-AP's PC store
        // follows the tag, partition point, inflation and mark.
        let dm_access = first_id(1 + 8);
        let dm = (
            StrategyKind::Dm { beta: 2.0 },
            vec![dm_access, dm_access + STORE],
        );
        let dc_ap = (StrategyKind::DcAp { beta: 2.0 }, vec![first_id(1 + 8 * 3)]);
        for (kind, copies) in [dm, dc_ap] {
            let mut live = fresh(kind, 8);
            assert!(live.on_push(&page(5), 3, &mut ev).is_stored());
            assert!(live.on_push(&page(6), 3, &mut ev).is_stored());
            let mut blob = Vec::new();
            live.encode_snapshot(&mut blob);
            for &at in &copies {
                for id in [8, u32::MAX] {
                    let err = decode_with_page_id(kind, &blob, &[at], 5, id);
                    assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
                }
                let duplicate = decode_with_page_id(kind, &blob, &[at + SLOT], 6, 5);
                assert!(
                    matches!(duplicate, Err(SnapshotError::Corrupt(_))),
                    "{duplicate:?}"
                );
            }
            assert!(decode_with_page_id(kind, &blob, &copies, 5, 7).is_ok());
        }
        let sg2 = StrategyKind::Sg2 { beta: 2.0 };
        let mut live = fresh(sg2, 8);
        assert!(live.on_access(&page(5), 3, &mut ev).is_miss());
        let mut blob = Vec::new();
        live.encode_snapshot(&mut blob);
        for id in [8, u32::MAX] {
            let err = decode_with_page_id(sg2, &blob, &[blob.len() - 8], 5, id);
            assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{err:?}");
        }
        assert!(decode_with_page_id(sg2, &blob, &[blob.len() - 8], 5, 7).is_ok());
    }

    /// One churned snapshot per kind over a 32-page universe.
    fn churned_blob(kind: StrategyKind) -> Vec<u8> {
        let mut live = fresh(kind, 32);
        churn(&mut live, &mut xorshift(0x2545_f491), 400);
        let mut blob = Vec::new();
        live.encode_snapshot(&mut blob);
        blob
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever happens to a strategy snapshot's bytes — a flipped,
        /// zeroed or cut-off range — decoding it into a fresh strategy
        /// over the same universe answers `Ok` or `Err`: it never panics,
        /// and no page id made up by the damage becomes resident (which
        /// would mean a table grew past the universe for it).
        #[test]
        fn corrupt_snapshots_never_panic_or_grow_a_table(
            kind in proptest::sample::select(all_kinds().to_vec()),
            start in 0usize..4096,
            len in 1usize..48,
            damage in 0u8..3,
            mask in 1u8..=255,
        ) {
            let mut bad = churned_blob(kind);
            let start = start % bad.len();
            let end = (start + len).min(bad.len());
            match damage {
                0 => bad[start..end].iter_mut().for_each(|b| *b ^= mask),
                1 => bad[start..end].fill(0),
                _ => bad.truncate(start),
            }
            let mut victim = fresh(kind, 32);
            let mut r = SnapshotReader::new(&bad);
            let decoded = victim.decode_snapshot(&mut r);
            if decoded.is_ok() {
                prop_assert!(victim.len() <= 32, "{}: {} residents", kind.name(), victim.len());
                // The encoding is canonical: what decodes is what the
                // restored strategy would write.
                let mut again = Vec::new();
                victim.encode_snapshot(&mut again);
                prop_assert!(again == bad[..r.position()], "{}: re-encoded differently", kind.name());
                // What decoded must also be usable: keep going on it.
                let mut rng = xorshift(0x9e37_79b9 ^ start as u64);
                for step in 0..64 {
                    churn(&mut victim, &mut rng, 1);
                    prop_assert!(victim.used() <= victim.capacity(), "{}: step {step}", kind.name());
                }
            }
            for word in bad[start.saturating_sub(3)..].windows(4).take(len + 3) {
                let id = u32::from_le_bytes(word.try_into().unwrap());
                prop_assert!(id < 32 || !victim.contains(PageId::new(id)), "{}: {id}", kind.name());
            }
        }
    }

    #[test]
    fn lineups_match_the_figures() {
        let f4: Vec<&str> = StrategyKind::figure4_lineup(2.0)
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(f4, ["GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"]);
        let f3: Vec<&str> = StrategyKind::figure3_lineup(2.0)
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(f3, ["GD*", "DM", "DC-FP", "DC-AP", "DC-LAP"]);
    }
}
