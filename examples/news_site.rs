//! A busy news site: the paper's full evaluation scenario.
//!
//! Replays the MSNBC-calibrated NEWS trace (30,147 pages, ~195k requests,
//! 100 geographically distributed proxies on a Waxman topology) through
//! every strategy in the paper at the three capacity settings, printing a
//! figure-4-style table plus the traffic bill of each strategy.
//!
//! ```text
//! cargo run --release --example news_site
//! ```

use pscd::experiments::TextTable;
use pscd::{
    CompiledTrace, FetchCosts, Replay, SimOptions, StrategyKind, TopologyBuilder, Workload,
    WorkloadConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Full paper scale; takes a few seconds in release mode.
    let workload = Workload::generate(&WorkloadConfig::news())?;
    let trace = CompiledTrace::compile(&workload, &workload.subscriptions(1.0)?)?;

    // 1 publisher + 100 proxies wired by the Waxman model (BRITE's
    // default); fetch cost = network distance to the publisher.
    let topology = TopologyBuilder::new(workload.server_count() as usize + 1)
        .seed(42)
        .build()?;
    let costs = FetchCosts::from_topology(&topology, 0)?;
    println!(
        "topology: {} nodes, {} edges; fetch costs in [{:.2}, {:.2}]",
        topology.node_count(),
        topology.edge_count(),
        costs.min(),
        costs.max()
    );

    let lineup = [
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

    let mut headers = vec!["capacity".to_owned()];
    headers.extend(lineup.iter().map(|k| k.name().to_owned()));
    let mut table = TextTable::new(headers);
    for capacity in [0.01, 0.05, 0.10] {
        let mut row = vec![format!("{:.0}%", capacity * 100.0)];
        let cells = lineup.map(|kind| SimOptions::at_capacity(kind, capacity));
        for r in Replay::compiled(&trace, &costs).run(&cells)? {
            row.push(format!("{:.1}", r.hit_ratio_percent()));
        }
        table.add_row(row);
    }
    println!("\nHit ratio (%) by strategy and capacity (SQ = 1):\n{table}");

    println!("Traffic at 5% capacity (publisher→proxy):");
    let cells = lineup.map(|kind| SimOptions::at_capacity(kind, 0.05));
    for r in Replay::compiled(&trace, &costs).run(&cells)? {
        println!(
            "  {:6}  pushed {:>8} pages / {:>9}   fetched {:>8} pages / {:>9}",
            r.strategy,
            r.traffic.pushed_pages,
            r.traffic.pushed_bytes.to_string(),
            r.traffic.fetched_pages,
            r.traffic.fetched_bytes.to_string(),
        );
    }
    Ok(())
}
