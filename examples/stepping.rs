//! Driving the simulator one event at a time.
//!
//! The batch API (`pscd::Replay`) replays a whole 7-day
//! workload in one call; the stepping API exposes every event, which makes it easy to add
//! custom instrumentation, stop early, or — as here — watch how a
//! mid-week proxy-fleet crash plays out hour by hour.
//!
//! ```text
//! cargo run --release --example stepping
//! ```

use pscd::sim::{Simulation, StepEvent};
use pscd::{
    CompiledTrace, CrashPlan, FetchCosts, SimOptions, SimTime, StrategyKind, Workload,
    WorkloadConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.1))?;
    let trace = CompiledTrace::compile(&workload, &workload.subscriptions(1.0)?)?;
    let costs = FetchCosts::uniform(workload.server_count());

    // SG2 with every proxy crashing at hour 84.
    let options = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05)
        .with_crash(CrashPlan::new(SimTime::from_hours(84), 1.0));
    let mut sim = Simulation::from_compiled(&trace, &costs, &options)?;

    let mut window_hits = 0u64;
    let mut window_requests = 0u64;
    let mut current_day = 0usize;
    while let Some(event) = sim.step() {
        match event {
            StepEvent::Crashed { servers } => {
                println!(">>> crash: {servers} proxies restarted with cold caches");
            }
            StepEvent::Requested { time, hit, .. } => {
                // Print a daily digest as the timeline crosses midnight.
                if time.day_index() != current_day {
                    report_day(current_day, window_hits, window_requests);
                    current_day = time.day_index();
                    window_hits = 0;
                    window_requests = 0;
                }
                window_requests += 1;
                if hit {
                    window_hits += 1;
                }
            }
            StepEvent::Published { .. } | StepEvent::Invalidated { .. } => {}
        }
    }
    report_day(current_day, window_hits, window_requests);

    let result = sim.finish();
    println!(
        "\noverall: {:.1}% hit ratio over {} requests ({} pushed pages)",
        result.hit_ratio_percent(),
        result.requests,
        result.traffic.pushed_pages
    );
    Ok(())
}

fn report_day(day: usize, hits: u64, requests: u64) {
    if requests == 0 {
        return;
    }
    println!(
        "day {day}: {:5.1}% hit ratio ({requests} requests)",
        100.0 * hits as f64 / requests as f64
    );
}
