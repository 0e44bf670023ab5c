//! Plugging a custom strategy into the simulator.
//!
//! The paper points out that its framework composes with other
//! replacement algorithms. This example implements a new combined
//! strategy — *push-everything + LRU* — against the public
//! [`Strategy`] trait and races it against GD\* and SG2 on the same
//! workload. (It loses: pushing without a value function thrashes the
//! cache.) A replacement policy is a value function handed to the
//! [`GreedyDualEngine`] on each call, so the strategy composes the engine
//! directly: LRU is `V(p) = L + 1`.
//!
//! ```text
//! cargo run --release --example custom_strategy
//! ```

use pscd::cache::{AccessOutcome, GreedyDualEngine};
use pscd::strategies::{PushOutcome, StrategyClass};
use pscd::types::SubscriptionTable;
use pscd::{
    simulate_compiled, Bytes, CompiledTrace, FetchCosts, PageId, PageRef, PushScheme, SimOptions,
    Strategy, StrategyKind, Workload, WorkloadConfig,
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

/// Runs a workload through a hand-built proxy fleet (the same loop
/// `pscd_sim::simulate_compiled` replays, written out to show the moving
/// parts).
fn run_custom(
    workload: &Workload,
    subscriptions: &SubscriptionTable,
    build: impl Fn(Bytes) -> Box<dyn Strategy>,
) -> (f64, u64) {
    use pscd::DeliveryEngine;
    let capacities = workload.cache_capacities(0.05);
    let strategies: Vec<Box<dyn Strategy>> = capacities.iter().map(|&c| build(c)).collect();
    let costs = vec![1.0; workload.server_count() as usize];
    let mut engine = DeliveryEngine::new(strategies, costs, PushScheme::Always).unwrap();

    let pages = workload.pages();
    let publishes = workload.publishing().events();
    let requests = workload.requests().events();
    let (mut pi, mut ri) = (0, 0);
    while pi < publishes.len() || ri < requests.len() {
        let publish_first = match (publishes.get(pi), requests.get(ri)) {
            (Some(p), Some(r)) => p.time <= r.time,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if publish_first {
            let ev = publishes[pi];
            pi += 1;
            engine.publish(
                &pages[ev.page.as_usize()],
                subscriptions.matched_servers(ev.page),
            );
        } else {
            let ev = requests[ri];
            ri += 1;
            let subs = subscriptions.count(ev.page, ev.server);
            engine
                .request_with_subs(ev.server, &pages[ev.page.as_usize()], subs)
                .unwrap();
        }
    }
    (
        engine.global_hit_ratio(),
        engine.total_traffic().total_pages(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.1))?;
    let subscriptions = workload.subscriptions(1.0)?;

    let (h, pages) = run_custom(&workload, &subscriptions, |cap| Box::new(PushLru::new(cap)));
    println!(
        "PushLRU  hit ratio {:5.1}%   traffic {pages} pages",
        100.0 * h
    );

    // The built-in strategies, through the standard simulator.
    let trace = CompiledTrace::compile(&workload, &subscriptions)?;
    let costs = FetchCosts::uniform(workload.server_count());
    for kind in [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
    ] {
        let r = simulate_compiled(&trace, &costs, &SimOptions::at_capacity(kind, 0.05))?;
        println!(
            "{:8} hit ratio {:5.1}%   traffic {} pages",
            r.strategy,
            r.hit_ratio_percent(),
            r.traffic.total_pages()
        );
    }
    Ok(())
}
