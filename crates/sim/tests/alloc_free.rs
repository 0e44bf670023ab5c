//! Proves the replay hot loop is allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms each simulation past its one-time growth (everything is
//! preallocated at construction, so the warm-up is a safety margin, not a
//! requirement), then replays the rest of the timeline and asserts the
//! allocation counter did not move.
//!
//! Scope: all twelve strategies. Every one keeps its pages in
//! `CacheStore`s — DM and DC-AP/DC-LAP in two each — whose heap and
//! position table are sized to the page universe at construction
//! (DESIGN.md §12), so none of them has anything left to grow.
//!
//! Everything lives in ONE `#[test]` so no harness bookkeeping (test
//! threads, output capture) runs — and allocates — inside a measurement
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscd_core::StrategyKind;
use pscd_obs::TraceSink;
use pscd_sim::{SimOptions, Simulation};
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
fn steady_state_replay_does_not_allocate() {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap();
    let subs = w.subscriptions(1.0).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let trace = pscd_sim::CompiledTrace::compile(&w, &subs).unwrap();
    let total_events = trace.len();
    assert!(total_events > 1_000, "trace too small to be meaningful");
    let warm_up = total_events / 4;

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
    for kind in strategies {
        // Invalidation on: the stale-drop path must be alloc-free too.
        let opt = SimOptions::at_capacity(kind, 0.05).with_invalidation();
        let mut sim = Simulation::from_compiled(&trace, &costs, &opt).unwrap();
        for _ in 0..warm_up {
            sim.step();
        }
        let before = allocations();
        while sim.step().is_some() {}
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{}: {} allocation(s) over {} steady-state events",
            kind.name(),
            after - before,
            total_events - warm_up,
        );
        let result = sim.finish();
        assert!(result.requests > 0);
    }

    // A *disabled* TraceRecorder in the hot loop must cost nothing: no
    // clock reads feed the allocator, begin() returns a None span, and
    // end_with() never builds its detail string. Replays the same loop
    // with per-chunk recorder calls and asserts the counter stays flat.
    let sink = TraceSink::disabled();
    let mut rec = sink.recorder("alloc-free");
    let opt = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05).with_invalidation();
    let mut sim = Simulation::from_compiled(&trace, &costs, &opt).unwrap();
    for _ in 0..warm_up {
        sim.step();
    }
    let before = allocations();
    let mut span = rec.begin();
    let mut n = 0usize;
    while sim.step().is_some() {
        n += 1;
        if n.is_multiple_of(1024) {
            rec.end_with(span, "replay.chunk", || format!("events ..{n}"));
            span = rec.begin();
        }
    }
    rec.end_with(span, "replay.chunk", || format!("events ..{n}"));
    rec.flush();
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracing allocated {} time(s) in the hot loop",
        after - before,
    );
    assert!(sim.finish().requests > 0);
}
