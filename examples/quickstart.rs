//! Quickstart: generate a news workload, run the paper's best strategy
//! against the access-only baseline, and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pscd::{CompiledTrace, FetchCosts, Replay, SimOptions, StrategyKind, Workload, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10%-scale version of the paper's NEWS trace (α = 1.5): ~3,000
    // pages published over 7 simulated days, ~19,500 requests across 100
    // proxy servers. Use `WorkloadConfig::news()` for full paper scale.
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.1))?;
    println!(
        "workload: {} pages, {} requests, {} proxies over {}",
        workload.pages().len(),
        workload.requests().len(),
        workload.server_count(),
        workload.horizon(),
    );

    // Perfect subscription information (SQ = 1): the subscription counts
    // at each proxy predict its requests exactly. Compiling resolves the
    // timeline, fan-outs and counts once; every strategy replays it.
    let subscriptions = workload.subscriptions(1.0)?;
    let trace = CompiledTrace::compile(&workload, &subscriptions)?;
    let costs = FetchCosts::uniform(workload.server_count());

    // Caches sized at 5% of each proxy's unique requested bytes; one
    // lineup replays the three strategies over the same events.
    let lineup = [
        StrategyKind::GdStar { beta: 2.0 }, // access-time baseline
        StrategyKind::Sub,                  // push-time only
        StrategyKind::Sg2 { beta: 2.0 },    // combined: GD* with f = s − a
    ]
    .map(|kind| SimOptions::at_capacity(kind, 0.05));
    for result in Replay::compiled(&trace, &costs).run(&lineup)? {
        println!(
            "{:6}  hit ratio {:5.1}%   pushed {:6} pages   fetched-on-miss {:6} pages",
            result.strategy,
            result.hit_ratio_percent(),
            result.traffic.pushed_pages,
            result.traffic.fetched_pages,
        );
    }
    Ok(())
}
