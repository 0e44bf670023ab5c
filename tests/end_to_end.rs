//! End-to-end integration: workload → topology → simulation → metrics.

use pscd::{
    CompiledTrace, FetchCosts, GraphModel, PushScheme, Replay, SimOptions, StrategyKind,
    TopologyBuilder, Workload, WorkloadConfig,
};
use pscd_spec::LINEUP;

fn workload() -> Workload {
    Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap()
}

#[test]
fn full_pipeline_runs_on_topology_costs() {
    let w = workload();
    let topo = TopologyBuilder::new(w.server_count() as usize + 1)
        .model(GraphModel::waxman())
        .seed(7)
        .build()
        .unwrap();
    let costs = FetchCosts::from_topology(&topo, 0).unwrap();
    let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
    let sg2 = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    let r = Replay::compiled(&trace, &costs)
        .run(&[sg2])
        .unwrap()
        .remove(0);
    assert_eq!(r.requests, w.requests().len() as u64);
    assert!(r.hit_ratio() > 0.0 && r.hit_ratio() <= 1.0);
}

#[test]
fn barabasi_albert_topology_works_too() {
    let w = workload();
    let topo = TopologyBuilder::new(w.server_count() as usize + 1)
        .model(GraphModel::barabasi_albert())
        .seed(11)
        .build()
        .unwrap();
    let costs = FetchCosts::from_topology(&topo, 0).unwrap();
    let trace = CompiledTrace::compile(&w, &w.subscriptions(0.75).unwrap()).unwrap();
    let dc_lap = SimOptions::at_capacity(StrategyKind::dc_lap(2.0), 0.05);
    let r = Replay::compiled(&trace, &costs)
        .run(&[dc_lap])
        .unwrap()
        .remove(0);
    assert!(r.hits > 0);
}

#[test]
fn traffic_accounting_is_exact_for_every_strategy() {
    let w = workload();
    let subs = w.subscriptions(1.0).unwrap();
    let trace = CompiledTrace::compile(&w, &subs).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let total_matched_pairs: u64 = w
        .pages()
        .iter()
        .map(|p| subs.matched_servers(p.id()).len() as u64)
        .sum();
    for kind in LINEUP {
        for scheme in [PushScheme::Always, PushScheme::WhenNecessary] {
            let options = SimOptions {
                strategy: kind,
                capacity_fraction: 0.05,
                scheme,
                crash: None,
                invalidate_stale: false,
                threads: 1,
            };
            let replay = Replay::compiled(&trace, &costs);
            let r = replay.run(&[options]).unwrap().remove(0);
            // The sharded runner reproduces the sequential accounting
            // bit for bit, so every check below covers both paths.
            let sharded = replay.run(&[options.with_threads(4)]).unwrap().remove(0);
            assert_eq!(r, sharded, "{} / {scheme:?}", kind.name());
            // Every request is served once; misses and fetches balance
            // exactly.
            assert_eq!(r.requests, w.requests().len() as u64);
            assert_eq!(
                r.traffic.fetched_pages,
                r.requests - r.hits,
                "{} / {scheme:?}",
                kind.name()
            );
            // Pushes never exceed the matched (page, server) pairs.
            assert!(
                r.traffic.pushed_pages <= total_matched_pairs,
                "{} / {scheme:?}",
                kind.name()
            );
            // Hourly series are consistent with global counters.
            assert_eq!(r.hourly.requests.iter().sum::<u64>(), r.requests);
            assert_eq!(r.hourly.hits.iter().sum::<u64>(), r.hits);
            assert_eq!(
                r.hourly.pushed_pages.iter().sum::<u64>(),
                r.traffic.pushed_pages
            );
            assert_eq!(
                r.hourly.fetched_pages.iter().sum::<u64>(),
                r.traffic.fetched_pages
            );
            assert_eq!(
                r.hourly.pushed_bytes.iter().sum::<u64>(),
                r.traffic.pushed_bytes.as_u64()
            );
            // Per-server counters add up to the totals.
            let (h, q) = r
                .per_server
                .iter()
                .fold((0u64, 0u64), |(h, q), &(sh, sq)| (h + sh, q + sq));
            assert_eq!((h, q), (r.hits, r.requests));
        }
    }
}

#[test]
fn when_necessary_only_drops_declined_transfers() {
    // For every strategy, Pushing-When-Necessary must keep the hit ratio
    // identical to Always-Pushing (the proxy stores exactly the same
    // pages) while never pushing more.
    let w = workload();
    let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    for kind in [
        StrategyKind::Sub,
        StrategyKind::Sg1 { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::Sr,
        StrategyKind::Dm { beta: 2.0 },
        StrategyKind::dc_fp(2.0),
        StrategyKind::DcAp { beta: 2.0 },
        StrategyKind::dc_lap(2.0),
    ] {
        let lineup = [PushScheme::Always, PushScheme::WhenNecessary].map(|scheme| SimOptions {
            strategy: kind,
            capacity_fraction: 0.05,
            scheme,
            crash: None,
            invalidate_stale: false,
            threads: 1,
        });
        let results = Replay::compiled(&trace, &costs).run(&lineup).unwrap();
        let (always, necessary) = (&results[0], &results[1]);
        assert_eq!(
            always.hits,
            necessary.hits,
            "{}: hit ratio must not depend on the pushing scheme",
            kind.name()
        );
        assert!(
            necessary.traffic.pushed_pages <= always.traffic.pushed_pages,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn deterministic_across_runs_and_seed_sensitivity() {
    let cfg = WorkloadConfig::news_scaled(0.01);
    let a = Workload::generate(&cfg).unwrap();
    let b = Workload::generate(&cfg).unwrap();
    assert_eq!(a, b);
    let costs = FetchCosts::uniform(a.server_count());
    let subs_a = a.subscriptions(1.0).unwrap();
    let subs_b = b.subscriptions(1.0).unwrap();
    assert_eq!(subs_a, subs_b);
    let opt = SimOptions::at_capacity(StrategyKind::DcAp { beta: 2.0 }, 0.05);
    let replay = |w: &Workload, subs| {
        let trace = CompiledTrace::compile(w, subs).unwrap();
        Replay::compiled(&trace, &costs).run(&[opt]).unwrap()
    };
    assert_eq!(replay(&a, &subs_a), replay(&b, &subs_b));
    // A different seed changes the workload (and almost surely the result).
    let c = Workload::generate(&cfg.clone().with_seed(1234)).unwrap();
    assert_ne!(a, c);
}

#[test]
fn capacity_monotonicity_for_subscription_strategies() {
    let w = workload();
    let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    for kind in [StrategyKind::Sg2 { beta: 2.0 }, StrategyKind::dc_lap(2.0)] {
        let lineup = [0.01, 0.05, 0.10].map(|c| SimOptions::at_capacity(kind, c));
        let results = Replay::compiled(&trace, &costs).run(&lineup).unwrap();
        let h: Vec<f64> = results.iter().map(|r| r.hit_ratio()).collect();
        assert!(
            h[0] <= h[1] && h[1] <= h[2],
            "{}: hit ratio should grow with capacity: {h:?}",
            kind.name()
        );
    }
}
