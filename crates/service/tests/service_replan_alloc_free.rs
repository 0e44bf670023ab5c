//! Proves that a re-planned service's steady state is allocation-free, on
//! any thread: once the fleet has been cut anew — proxies restored on the
//! shard they moved to, engines re-ranged, the residency index rebuilt —
//! and the moved proxies have seen load again, publish/request ingestion
//! performs no heap allocation. `service_alloc_free.rs` proves the same
//! of a service that never re-plans: a service re-cuts its fleet only when
//! a matcher is attached, which that test never does.
//!
//! Here the cut is forced ([`ServiceCore::replan_at`]) both ways — shard 0
//! shrinking and shard 0 growing — on two and on three shards.
//!
//! Everything lives in ONE `#[test]` so no harness bookkeeping (test
//! threads, output capture) runs — and allocates — inside a measurement
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_service::{ServiceConfig, ServiceCore};
use pscd_sim::CompiledTrace;
use pscd_topology::FetchCosts;
use pscd_types::{LiveEvent, PageMeta};
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
fn a_replanned_service_does_not_allocate_in_steady_state() {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap();
    let subs = w.subscriptions(1.0).unwrap();
    let events = w.live_events(&subs);
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    let pages: Arc<[PageMeta]> = trace.pages().iter().copied().collect();
    let costs: Vec<f64> = FetchCosts::uniform(w.server_count()).iter().collect();
    let servers = w.server_count();
    let first_traffic = events
        .iter()
        .position(|ev| !matches!(ev, LiveEvent::Subscribe { .. }))
        .unwrap();
    let traffic = events.len() - first_traffic;
    // One event per batch: `ingest_all` returns before the workers have
    // stepped what it dispatched, so a window opens while they still step
    // the warm-up's last batches, and those must be too small to grow
    // anything.
    assert!(traffic > 1_000, "stream too small to be meaningful");
    let replan_at = first_traffic + traffic / 2;
    let warm_up = first_traffic + 3 * traffic / 4;

    // A representative of each state shape, as the recovery suite takes them.
    let strategies = [
        StrategyKind::Lru,
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::Dm { beta: 2.0 },
        StrategyKind::DcAp { beta: 2.0 },
        StrategyKind::dc_fp(2.0),
    ];
    for kind in strategies {
        for (workers, cut) in [(2, servers / 4), (2, 3 * servers / 4), (3, servers / 2)] {
            let config = ServiceConfig::new(
                kind,
                trace.capacities(0.05),
                costs.clone(),
                PushScheme::Always,
                Arc::clone(&pages),
                trace.hours(),
            )
            .with_invalidation()
            .with_workers(workers)
            .with_batch_size(1);
            let mut core = ServiceCore::new(config).unwrap();
            core.ingest_all(&events[..replan_at]).unwrap();
            core.replan_at(cut).unwrap();
            core.ingest_all(&events[replan_at..warm_up]).unwrap();
            let before = allocations();
            core.ingest_all(&events[warm_up..]).unwrap();
            core.flush().unwrap();
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{}, {workers} shards cut at {cut}: {} allocation(s) over {} steady-state events",
                kind.name(),
                after - before,
                events.len() - warm_up,
            );
            assert!(core.shutdown().unwrap().result.requests > 0);
        }
    }
}
