//! Proves every replay is allocation-free from its first event to its
//! last, at a scale where a store that grew on demand would show it.
//!
//! `alloc_free.rs` warms each replay up at a hundredth of NEWS, where a
//! store's whole live population fits a small table from the start. Here
//! the trace is a tenth of NEWS (≈ 3 000 pages), each replay is built and
//! then counted over *every* event — no warm-up — for all twelve
//! strategies at 1, 5 and 10 % capacity. Each store is reserved at
//! construction for the most pages its capacity can hold
//! (`PageUniverse::resident_bound`, DESIGN.md §12), so none has anything
//! left to grow; a store that started small and doubled would allocate
//! during the first events.
//!
//! Everything lives in ONE `#[test]` so no harness bookkeeping (test
//! threads, output capture) runs — and allocates — inside a measurement
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscd_core::StrategyKind;
use pscd_sim::{CompiledTrace, SimOptions, Simulation};
use pscd_topology::FetchCosts;
use pscd_workload::{Workload, WorkloadConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn replays_allocate_nothing_from_the_first_event_to_the_last() {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.1)).unwrap();
    let subs = w.subscriptions(1.0).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    assert!(trace.meta().pages().len() > 2_000, "universe too small");

    let strategies = [
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
    ];
    for fraction in [0.01, 0.05, 0.10] {
        for kind in strategies {
            // Invalidation on: the stale-drop path must be alloc-free too.
            let opt = SimOptions::at_capacity(kind, fraction).with_invalidation();
            let mut sim = Simulation::from_compiled(&trace, &costs, &opt).unwrap();
            let before = allocations();
            let mut events = 0usize;
            while sim.step().is_some() {
                events += 1;
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} at {fraction}: {} allocation(s) over {events} events",
                kind.name(),
                after - before,
            );
            assert!(sim.finish().requests > 0);
        }
    }
}
