//! Figure 5: influence of subscription quality.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{
    pct, run_grid, ExperimentContext, ExperimentError, TextTable, Trace, TraceRow, PAPER_BETA,
    QUALITIES,
};

/// Figure 5 of the paper: hit ratios of GD\*, SUB, SG1, SG2, SR and DC-LAP
/// as subscription quality SQ varies over {0.25, 0.5, 0.75, 1}, at 5%
/// capacity, on both traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// `(trace, SQ, [(strategy, hit ratio)])` rows.
    pub rows: Vec<TraceRow>,
}

impl Fig5 {
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = StrategyKind::figure4_lineup(PAPER_BETA);
        let mut rows = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            for &quality in &QUALITIES {
                let compiled = ctx.compiled(trace, quality)?;
                let jobs: Vec<_> = lineup
                    .iter()
                    .map(|&kind| (&*compiled, SimOptions::at_capacity(kind, 0.05)))
                    .collect();
                let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
                rows.push((
                    trace,
                    quality,
                    results
                        .into_iter()
                        .map(|r| (r.strategy.clone(), r.hit_ratio()))
                        .collect(),
                ));
            }
        }
        Ok(Self { rows })
    }

    /// The hit ratio of one strategy at one quality; `None` if absent.
    pub fn hit_ratio(&self, trace: Trace, quality: f64, strategy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(t, q, _)| *t == trace && *q == quality)
            .and_then(|(_, _, cells)| {
                cells
                    .iter()
                    .find(|(name, _)| name == strategy)
                    .map(|&(_, h)| h)
            })
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Figure 5: hit ratio (%) vs subscription quality (capacity = 5%)\n"
        )?;
        for (label, trace) in [("(a)", Trace::News), ("(b)", Trace::Alternative)] {
            writeln!(f, "### {label} {} trace", trace.name())?;
            let names: Vec<String> = self
                .rows
                .iter()
                .find(|(t, _, _)| *t == trace)
                .map(|(_, _, cells)| cells.iter().map(|(n, _)| n.clone()).collect())
                .unwrap_or_default();
            let mut headers = vec!["SQ".to_owned()];
            headers.extend(names.iter().cloned());
            let mut table = TextTable::new(headers);
            for (t, quality, cells) in &self.rows {
                if t != &trace {
                    continue;
                }
                let mut row = vec![format!("{quality}")];
                row.extend(cells.iter().map(|&(_, h)| pct(h)));
                table.add_row(row);
            }
            writeln!(f, "{table}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    #[test]
    fn sq_sensitivity_shapes() {
        let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap();
        let fig = Fig5::run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 8);
        for trace in [Trace::News, Trace::Alternative] {
            // GD* ignores subscriptions entirely: identical across SQ.
            let gd_1 = fig.hit_ratio(trace, 1.0, "GD*").unwrap();
            let gd_25 = fig.hit_ratio(trace, 0.25, "GD*").unwrap();
            assert!((gd_1 - gd_25).abs() < 1e-12);
            // SR is the most SQ-sensitive: it loses more than SG1 does when
            // SQ drops from 1 to 0.25 (the paper's headline for fig. 5).
            let sr_drop = fig.hit_ratio(trace, 1.0, "SR").unwrap()
                - fig.hit_ratio(trace, 0.25, "SR").unwrap();
            let sg1_drop = fig.hit_ratio(trace, 1.0, "SG1").unwrap()
                - fig.hit_ratio(trace, 0.25, "SG1").unwrap();
            assert!(
                sr_drop > sg1_drop,
                "{}: SR drop {sr_drop} <= SG1 drop {sg1_drop}",
                trace.name()
            );
            // SG1 and DC-LAP stay useful at the lowest quality.
            let gd = fig.hit_ratio(trace, 0.25, "GD*").unwrap();
            assert!(fig.hit_ratio(trace, 0.25, "SG1").unwrap() > gd);
            assert!(fig.hit_ratio(trace, 0.25, "DC-LAP").unwrap() > gd);
        }
        assert!(fig.to_string().contains("Figure 5"));
    }
}
