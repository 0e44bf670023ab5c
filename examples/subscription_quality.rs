//! How good do subscriptions have to be?
//!
//! Subscriptions rarely predict accesses perfectly: users subscribe to
//! broad categories and read only some matching pages. The paper models
//! this with *subscription quality* (SQ ∈ (0, 1], eq. 7) and shows that
//! strategies disagree sharply in their sensitivity: SR collapses to the
//! baseline as SQ falls, while SG1 and DC-LAP barely notice.
//!
//! ```text
//! cargo run --release --example subscription_quality
//! ```

use pscd::experiments::TextTable;
use pscd::{CompiledTrace, FetchCosts, Replay, SimOptions, StrategyKind, Workload, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.25))?;
    let costs = FetchCosts::uniform(workload.server_count());

    let lineup = [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg1 { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
        StrategyKind::Sr,
        StrategyKind::dc_lap(2.0),
    ];

    let mut headers = vec!["SQ".to_owned()];
    headers.extend(lineup.iter().map(|k| k.name().to_owned()));
    let mut table = TextTable::new(headers);

    for quality in [0.25, 0.5, 0.75, 1.0] {
        // Each quality level derives a different subscription table from
        // the same request trace: lower SQ inflates subscription counts
        // with noise (subscribers who never come back for the page).
        let trace = CompiledTrace::compile(&workload, &workload.subscriptions(quality)?)?;
        let mut row = vec![format!("{quality}")];
        let cells = lineup.map(|kind| SimOptions::at_capacity(kind, 0.05));
        for r in Replay::compiled(&trace, &costs).run(&cells)? {
            row.push(format!("{:.1}", r.hit_ratio_percent()));
        }
        table.add_row(row);
    }

    println!("Hit ratio (%) vs subscription quality (capacity = 5%):\n{table}");
    println!("Reading guide:");
    println!("  - GD* ignores subscriptions: flat across SQ.");
    println!("  - SR trusts the prediction s−a completely: best at SQ=1, collapses below.");
    println!("  - SG1/DC-LAP blend history with prediction: robust at every SQ.");
    Ok(())
}
