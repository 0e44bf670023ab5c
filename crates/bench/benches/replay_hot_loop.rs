//! Replay hot-loop microbenchmark: enum-dispatched, preallocated,
//! allocation-free replay (the production `simulate_compiled` path)
//! against the `Box<dyn Strategy>` arm — virtual dispatch, page tables
//! that grow on demand, a fresh record `Vec` per publish — on the same
//! compiled trace.
//!
//! Both sides replay identical events and produce identical hit counts
//! (the differential suite proves bit-identity); the difference is
//! dispatch and preallocation, so the per-event gap is what the enum
//! path buys. Two paper-relevant strategies at two trace scales:
//! SG2 (engine-based, the headline strategy) and DC-LAP (heap-based, the
//! adaptive dual cache). One iteration is one full replay and the group
//! name carries the event count, so ns/event = reported mean / events;
//! EXPERIMENTS.md records the ns/event numbers.
//!
//! `PSCD_BENCH_SCALE` overrides the *small* trace's workload scale
//! (default 0.05 ≈ 11k events); the large trace is always 10× that.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_broker::DeliveryEngine;
use pscd_core::{Strategy, StrategyKind};
use pscd_sim::trace::{CompiledEventKind, CompiledTrace};
use pscd_sim::{simulate_compiled, SimOptions};
use pscd_topology::FetchCosts;
use pscd_types::ServerId;
use pscd_workload::{Workload, WorkloadConfig};

/// The extension-point replay shape: `Box<dyn Strategy>` proxies and
/// per-publish record allocation, driven over the same compiled trace.
fn dyn_replay(trace: &CompiledTrace, costs: &FetchCosts, options: &SimOptions) -> u64 {
    let capacities = trace.capacities(options.capacity_fraction);
    let strategies: Vec<Box<dyn Strategy>> = (0..trace.server_count())
        .map(|s| options.strategy.build(capacities[s as usize]))
        .collect();
    let cost_vec = (0..trace.server_count())
        .map(|s| costs.cost(ServerId::new(s)))
        .collect();
    let mut engine = DeliveryEngine::new(strategies, cost_vec, options.scheme).expect("lengths");
    let mut hits = 0u64;
    for ev in trace.events() {
        match ev.kind {
            CompiledEventKind::Publish { ordinal, .. } => {
                let records = engine.publish(trace.page(ev.page), trace.matched(ordinal));
                criterion::black_box(records.len());
            }
            CompiledEventKind::Request { server, subs } => {
                if engine
                    .request_with_subs(server, trace.page(ev.page), subs)
                    .expect("in range")
                    .hit
                {
                    hits += 1;
                }
            }
        }
    }
    hits
}

fn replay_hot_loop(c: &mut Criterion) {
    let small: f64 = std::env::var("PSCD_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    for scale in [small, small * 10.0] {
        let w = Workload::generate(&WorkloadConfig::news_scaled(scale)).expect("generates");
        let subs = w.subscriptions(1.0).expect("valid quality");
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).expect("compiles");
        let events = trace.len() as u64;
        let mut group = c.benchmark_group(&format!("replay_hot_loop/{events}ev"));
        group.sample_size(10);
        for kind in [StrategyKind::Sg2 { beta: 2.0 }, StrategyKind::dc_lap(2.0)] {
            let options = SimOptions::at_capacity(kind, 0.05);
            group.bench_function(&format!("enum/{}", kind.name()), |b| {
                b.iter(|| {
                    simulate_compiled(&trace, &costs, &options)
                        .expect("runs")
                        .hits
                })
            });
            group.bench_function(&format!("dyn/{}", kind.name()), |b| {
                b.iter(|| dyn_replay(&trace, &costs, &options))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, replay_hot_loop);
criterion_main!(benches);
