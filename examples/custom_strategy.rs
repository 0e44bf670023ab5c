//! Writing a custom strategy against the public [`Strategy`] trait.
//!
//! The paper points out that its framework composes with other
//! replacement algorithms. This example implements a new combined
//! strategy — *push-everything + LRU* — replays a compiled trace through
//! a fleet of them by hand, and races it against GD\* and SG2, replayed
//! by the simulator on the same trace. (It loses: pushing without a
//! value function thrashes the cache.) A replacement policy is a value
//! function handed to the [`GreedyDualEngine`] on each call, so the
//! strategy composes the engine directly: LRU is `V(p) = L + 1`.
//!
//! ```text
//! cargo run --release --example custom_strategy
//! ```

use pscd::cache::{AccessOutcome, GreedyDualEngine};
use pscd::sim::CompiledEventKind;
use pscd::strategies::{PushOutcome, StrategyClass};
use pscd::{
    Bytes, CompiledTrace, FetchCosts, PageId, PageRef, Replay, SimOptions, Strategy, StrategyKind,
    Workload, WorkloadConfig,
};

/// Pushes every matched page (no value judgement) and runs plain LRU over
/// the shared cache for both placement opportunities.
#[derive(Debug)]
struct PushLru {
    cache: GreedyDualEngine,
}

impl PushLru {
    fn new(capacity: Bytes) -> Self {
        Self {
            cache: GreedyDualEngine::new(capacity),
        }
    }

    fn touch(&mut self, page: &PageRef, evicted: &mut Vec<PageId>) -> AccessOutcome {
        self.cache.access(page, |_, l| l + 1.0, evicted)
    }
}

impl Strategy for PushLru {
    fn name(&self) -> &'static str {
        "PushLRU"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, _subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        // Treat the push like an access: LRU admits unconditionally.
        match self.touch(page, evicted) {
            AccessOutcome::MissBypassed => PushOutcome::Declined,
            AccessOutcome::Hit | AccessOutcome::MissAdmitted => PushOutcome::Stored,
        }
    }

    fn would_store(&self, page: &PageRef, _subs: u32) -> bool {
        page.size <= self.capacity()
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        self.touch(page, evicted)
    }

    fn contains(&self, page: PageId) -> bool {
        self.cache.store().contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        self.cache.evict(page)
    }

    fn capacity(&self) -> Bytes {
        self.cache.store().capacity()
    }

    fn used(&self) -> Bytes {
        self.cache.store().used()
    }

    fn len(&self) -> usize {
        self.cache.store().len()
    }
}

/// Replays a compiled trace through a fleet of `PushLru` proxies, one
/// per server, under Always-Pushing: every matched page is pushed (and
/// crosses the network), and every request that misses is fetched from
/// the publisher. Returns the global hit ratio and the pages transferred.
fn run_push_lru(trace: &CompiledTrace, capacities: &[Bytes]) -> (f64, u64) {
    let mut proxies: Vec<PushLru> = capacities.iter().map(|&c| PushLru::new(c)).collect();
    let mut evicted = Vec::new();
    let (mut hits, mut requests, mut transferred) = (0u64, 0u64, 0u64);
    let window = trace.full_window();
    for ev in window.events() {
        let meta = window.page(ev.page);
        let page = PageRef::new(meta.id(), meta.size(), 1.0);
        match ev.kind {
            CompiledEventKind::Publish { ordinal, .. } => {
                for &(server, subs) in window.matched(ordinal) {
                    proxies[server.as_usize()].on_push(&page, subs, &mut evicted);
                    transferred += 1;
                }
            }
            CompiledEventKind::Request { server, subs } => {
                requests += 1;
                if proxies[server.as_usize()]
                    .on_access(&page, subs, &mut evicted)
                    .is_hit()
                {
                    hits += 1;
                } else {
                    transferred += 1;
                }
            }
        }
    }
    (hits as f64 / requests as f64, transferred)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.1))?;
    let subscriptions = workload.subscriptions(1.0)?;

    let trace = CompiledTrace::compile(&workload, &subscriptions)?;

    let (h, pages) = run_push_lru(&trace, &trace.capacities(0.05));
    println!(
        "PushLRU  hit ratio {:5.1}%   traffic {pages} pages",
        100.0 * h
    );

    // The built-in strategies, through the standard simulator.
    let costs = FetchCosts::uniform(workload.server_count());
    let lineup = [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
    ]
    .map(|kind| SimOptions::at_capacity(kind, 0.05));
    for r in Replay::compiled(&trace, &costs).run(&lineup)? {
        println!(
            "{:8} hit ratio {:5.1}%   traffic {} pages",
            r.strategy,
            r.hit_ratio_percent(),
            r.traffic.total_pages()
        );
    }
    Ok(())
}
