//! Proves the service's default ingest path is allocation-free in steady
//! state: once the subscription rows exist and the batch buffers are
//! warm, publish/request ingestion — resolve, batch, dispatch, apply —
//! performs no heap allocation, on any thread. The default config runs a
//! shard per core, so on a multi-core host this is the threaded path:
//! a dispatch copies the batch into a buffer of the ring built at start
//! and hands the workers that buffer, not a fresh one (on one core it is
//! the inline path, the service twin of the replay's `alloc_free` suite).
//! A second window shows the same of a journaled service that was
//! snapshotted, killed and recovered: a restored cache keeps the room it
//! was built with.
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
fn steady_state_ingest_does_not_allocate() {
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap();
    let subs = w.subscriptions(1.0).unwrap();
    let events = w.live_events(&subs);
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    let pages: Arc<[PageMeta]> = trace.pages().iter().copied().collect();
    let costs: Vec<f64> = FetchCosts::uniform(w.server_count()).iter().collect();
    assert!(events.len() > 1_000, "stream too small to be meaningful");
    // Subscription churn legitimately grows the rows; warm past every
    // subscribe plus a quarter of the traffic so the batch buffers and
    // every engine's lazy structures have seen real load.
    let first_traffic = events
        .iter()
        .position(|ev| !matches!(ev, LiveEvent::Subscribe { .. }))
        .unwrap();
    let warm_up = first_traffic + (events.len() - first_traffic) / 4;

    // Same scope as the replay's suite: all twelve strategies.
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
        let config = ServiceConfig::new(
            kind,
            trace.capacities(0.05),
            costs.clone(),
            PushScheme::Always,
            Arc::clone(&pages),
            trace.hours(),
        )
        .with_invalidation();
        let mut core = ServiceCore::new(config.clone()).unwrap();
        core.ingest_all(&events[..warm_up]).unwrap();
        let before = allocations();
        core.ingest_all(&events[warm_up..]).unwrap();
        core.flush().unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{}: {} allocation(s) over {} steady-state events",
            kind.name(),
            after - before,
            events.len() - warm_up,
        );
        let outcome = core.shutdown().unwrap();
        assert!(outcome.result.requests > 0);

        // The recovered service: snapshot at the warm-up point, kill,
        // recover, one more stretch for the reopened journal's scratch
        // buffer (sent in the client batches the rest arrives in), then
        // the same claim.
        let dir = std::env::temp_dir().join(format!(
            "pscd-service-alloc-free-{}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = config.with_persistence(dir.clone(), 0);
        let mut core = ServiceCore::new(config.clone()).unwrap();
        core.ingest_all(&events[..warm_up]).unwrap();
        core.snapshot_now().unwrap();
        drop(core);
        let mut core = ServiceCore::recover(config).unwrap();
        let rewarmed = warm_up + (events.len() - warm_up) / 4;
        for batch in events[warm_up..rewarmed].chunks(256) {
            core.ingest_all(batch).unwrap();
        }
        let before = allocations();
        for batch in events[rewarmed..].chunks(256) {
            core.ingest_all(batch).unwrap();
        }
        core.flush().unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{}, recovered: {} allocation(s) over {} steady-state events",
            kind.name(),
            after - before,
            events.len() - rewarmed,
        );
        let recovered = core.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(recovered.result, outcome.result, "{}", kind.name());
    }
}
