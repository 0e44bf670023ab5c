//! Engine-vs-sweep differential: a [`DeliveryEngine`], which invalidates
//! through its page-major residency index, against a mirror fleet of bare
//! strategies that is invalidated the way the engine used to be — by
//! asking every proxy. The sweep lives on only here, as the reference.
//!
//! Random publish / request / invalidate / crash-restart /
//! snapshot-restore sequences run through both, each after a prefix of
//! random length with no invalidation in it, so the first invalidation —
//! which wakes the engine's index — meets a populated fleet; after every
//! step the invalidation count, every proxy's `contains` for every page,
//! `used()` and hit counters agree. A strategy that cached a page without
//! reporting it, a mark lost across a restore, a slot mapped to the wrong
//! word or bit, or a proxy visited out of range would all show up as a
//! copy the engine failed to drop.

use proptest::prelude::*;

use pscd_broker::{DeliveryEngine, PushRecord, PushScheme};
use pscd_cache::{PageRef, PageUniverse, SnapshotReader};
use pscd_core::{Strategy as _, StrategyImpl};
use pscd_obs::{ObsHandle, SharedObserver};
use pscd_spec::LINEUP;
use pscd_types::{Bytes, PageId, PageKind, PageMeta, ServerId, SimTime};

/// Page ordinals `0..PAGES` are the universe; [`BEYOND`] lies outside it.
const PAGES: u32 = 16;
const BEYOND: u32 = 1_000;
const CAPACITY: Bytes = Bytes::new(120);

fn fresh(lineup: usize, universe: &PageUniverse) -> StrategyImpl {
    LINEUP[lineup].build(CAPACITY, universe, ObsHandle::disabled())
}

fn page(i: u32) -> PageMeta {
    PageMeta::new(
        PageId::new(i),
        Bytes::new((i as u64 * 7) % 40 + 1),
        SimTime::ZERO,
        PageKind::Original,
    )
}

/// The universe of pages `0..PAGES`.
fn sized() -> PageUniverse {
    PageUniverse::new((0..PAGES).map(|i| page(i).size()))
}

fn cost(slot: usize) -> f64 {
    (slot % 3 + 1) as f64
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    lineup: usize,
    fleet: u16,
    first: u16,
    scheme: PushScheme,
    /// Strategies and engine sized for [`PAGES`] up front; otherwise
    /// the empty universe, everything grown on write.
    preallocated: bool,
}

impl Shape {
    fn server(&self, slot: u16) -> ServerId {
        ServerId::new(self.first + slot % self.fleet)
    }

    /// A fresh engine; `universe` is what its strategies preallocate (a
    /// snapshot restores only into a strategy that covers its pages).
    fn engine(&self, universe: &PageUniverse) -> DeliveryEngine {
        let n = self.fleet as usize;
        let mut engine = DeliveryEngine::new(
            (0..n).map(|_| fresh(self.lineup, universe)).collect(),
            (0..n).map(cost).collect(),
            self.scheme,
            SharedObserver::disabled(),
            ServerId::new(self.first),
        )
        .unwrap();
        if self.preallocated {
            engine.reserve_pages(PAGES as usize);
        }
        engine
    }
}

/// The reference: bare strategies plus the counters the engine keeps.
struct Mirror {
    shape: Shape,
    strategies: Vec<StrategyImpl>,
    stats: Vec<(u64, u64)>,
    scratch: Vec<PageId>,
}

impl Mirror {
    fn new(shape: Shape, universe: &PageUniverse) -> Self {
        let n = shape.fleet as usize;
        Self {
            shape,
            strategies: (0..n).map(|_| fresh(shape.lineup, universe)).collect(),
            stats: vec![(0, 0); n],
            scratch: Vec::new(),
        }
    }

    fn page_ref(page: &PageMeta, slot: usize) -> PageRef {
        PageRef::new(page.id(), page.size(), cost(slot))
    }

    fn publish(&mut self, page: &PageMeta, matched: &[(ServerId, u32)]) -> Vec<PushRecord> {
        let mut records = Vec::new();
        for &(server, subs) in matched {
            let slot = (server.index() - self.shape.first) as usize;
            let strategy = &mut self.strategies[slot];
            if !strategy.uses_push() {
                continue;
            }
            let page_ref = Self::page_ref(page, slot);
            let offered = match self.shape.scheme {
                PushScheme::Always => true,
                PushScheme::WhenNecessary => strategy.would_store(&page_ref, subs),
            };
            let stored = offered
                && strategy
                    .on_push(&page_ref, subs, &mut self.scratch)
                    .is_stored();
            records.push(PushRecord {
                server,
                transferred: match self.shape.scheme {
                    PushScheme::Always => true,
                    PushScheme::WhenNecessary => stored,
                },
                stored,
            });
        }
        records
    }

    fn request(&mut self, server: ServerId, page: &PageMeta, subs: u32) -> bool {
        let slot = (server.index() - self.shape.first) as usize;
        let hit = self.strategies[slot]
            .on_access(&Self::page_ref(page, slot), subs, &mut self.scratch)
            .is_hit();
        self.stats[slot].0 += hit as u64;
        self.stats[slot].1 += 1;
        hit
    }

    /// The fleet-wide sweep `DeliveryEngine::invalidate_everywhere` used
    /// to be.
    fn invalidate_everywhere(&mut self, page: PageId) -> usize {
        self.strategies
            .iter_mut()
            .map(|s| usize::from(s.invalidate(page)))
            .sum()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Publish { page: u32, matched: Vec<(u16, u32)> },
    Request { slot: u16, page: u32, subs: u32 },
    Invalidate { page: u32 },
    Restart { slot: u16 },
    SnapshotRestore,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        16 => quiet_op(),
        4 => (0..PAGES).prop_map(|page| Op::Invalidate { page }),
        1 => Just(Op::Invalidate { page: BEYOND }),
    ]
}

/// Any step but an invalidation.
fn quiet_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..PAGES, proptest::collection::vec((0u16..130, 0u32..20), 0..12))
            .prop_map(|(page, matched)| Op::Publish { page, matched }),
        6 => (0u16..130, 0..PAGES, 0u32..20)
            .prop_map(|(slot, page, subs)| Op::Request { slot, page, subs }),
        1 => (0u16..130).prop_map(|slot| Op::Restart { slot }),
        1 => Just(Op::SnapshotRestore),
    ]
}

/// Saves every proxy of `engine` and of `mirror`, rebuilds both from
/// fresh strategies and restores them — the engine through
/// `restore_strategy`, whose residency index starts empty.
fn snapshot_restore(shape: Shape, engine: &mut DeliveryEngine, mirror: &mut Mirror) {
    let mut restored = shape.engine(&sized());
    let mut restored_mirror = Mirror::new(shape, &sized());
    restored_mirror.stats = mirror.stats.clone();
    for slot in 0..shape.fleet {
        let server = shape.server(slot);
        let (mut blob, mut mirror_blob) = (Vec::new(), Vec::new());
        engine.strategy(server).encode_snapshot(&mut blob);
        mirror.strategies[slot as usize].encode_snapshot(&mut mirror_blob);
        assert_eq!(blob, mirror_blob, "{server:?} diverged before the snapshot");

        let mut r = SnapshotReader::new(&blob);
        restored.restore_strategy(server, &mut r).unwrap();
        assert!(r.is_empty());
        let (hits, requests) = engine.hit_stats(server);
        restored.restore_accounting(server, hits, requests, engine.traffic(server));
        restored_mirror.strategies[slot as usize]
            .decode_snapshot(&mut SnapshotReader::new(&mirror_blob))
            .unwrap();
    }
    *engine = restored;
    *mirror = restored_mirror;
}

fn assert_agree(shape: Shape, engine: &DeliveryEngine, mirror: &Mirror, step: usize, op: &Op) {
    for slot in 0..shape.fleet {
        let server = shape.server(slot);
        let reference = &mirror.strategies[slot as usize];
        let context = || format!("{shape:?} step {step} {op:?} {server:?}");
        assert_eq!(engine.cache_used(server), reference.used(), "{}", context());
        assert_eq!(
            engine.hit_stats(server),
            mirror.stats[slot as usize],
            "{}",
            context()
        );
        for p in (0..PAGES).chain([BEYOND]) {
            let p = PageId::new(p);
            assert_eq!(
                engine.strategy(server).contains(p),
                reference.contains(p),
                "{} {p:?}",
                context()
            );
        }
    }
}

fn run(shape: Shape, ops: &[Op]) {
    let universe = if shape.preallocated {
        sized()
    } else {
        PageUniverse::default()
    };
    let mut engine = shape.engine(&universe);
    let mut mirror = Mirror::new(shape, &universe);
    let mut records = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Publish { page: p, matched } => {
                let mut matched: Vec<(ServerId, u32)> = matched
                    .iter()
                    .map(|&(slot, subs)| (shape.server(slot), subs))
                    .collect();
                matched.sort_unstable_by_key(|&(server, _)| server);
                matched.dedup_by_key(|&mut (server, _)| server);
                engine.publish(&page(*p), &matched, &mut records);
                assert_eq!(
                    records,
                    mirror.publish(&page(*p), &matched),
                    "{shape:?} step {step} {op:?}"
                );
            }
            Op::Request {
                slot,
                page: p,
                subs,
            } => {
                let server = shape.server(*slot);
                let record = engine.request(server, &page(*p), *subs).unwrap();
                assert_eq!(
                    record.hit,
                    mirror.request(server, &page(*p), *subs),
                    "{shape:?} step {step} {op:?}"
                );
            }
            Op::Invalidate { page: p } => {
                let dropped = engine.invalidate_everywhere(PageId::new(*p));
                assert_eq!(
                    dropped,
                    mirror.invalidate_everywhere(PageId::new(*p)),
                    "{shape:?} step {step} {op:?}"
                );
                if *p == BEYOND {
                    assert_eq!(dropped, 0);
                }
            }
            Op::Restart { slot } => {
                let server = shape.server(*slot);
                engine
                    .replace_strategy(server, fresh(shape.lineup, &universe))
                    .unwrap();
                mirror.strategies[(slot % shape.fleet) as usize] = fresh(shape.lineup, &universe);
            }
            Op::SnapshotRestore => snapshot_restore(shape, &mut engine, &mut mirror),
        }
        assert_agree(shape, &engine, &mirror, step, op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lineup entry, over fleets on either side of a word boundary,
    /// whole-range and shard-local (`first` > 0), both push schemes,
    /// preallocated and grown.
    #[test]
    fn engine_invalidates_exactly_what_a_fleet_wide_sweep_would(
        fleet in proptest::sample::select(vec![1u16, 63, 64, 65, 130]),
        first in proptest::sample::select(vec![0u16, 7]),
        scheme in proptest::sample::select(vec![PushScheme::Always, PushScheme::WhenNecessary]),
        preallocated in proptest::bool::ANY,
        quiet in proptest::collection::vec(quiet_op(), 0..120),
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let ops = [quiet, ops].concat();
        for lineup in 0..LINEUP.len() {
            run(Shape { lineup, fleet, first, scheme, preallocated }, &ops);
        }
    }
}
