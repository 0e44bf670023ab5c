//! Figure 3: hit ratios of Dual-Methods and Dual-Caches algorithms.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{
    pct, run_grid, ExperimentContext, ExperimentError, TextTable, Trace, TraceRow, CAPACITIES,
    PAPER_BETA,
};

/// Figure 3 of the paper: GD\* against the dual family (DM, DC-FP, DC-AP,
/// DC-LAP) across the three capacity settings on the NEWS trace (SQ = 1).
/// The paper notes the observations also hold for ALTERNATIVE, so both
/// traces are measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// `(trace, capacity fraction, [(strategy, hit ratio)])` rows.
    pub rows: Vec<TraceRow>,
}

impl Fig3 {
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = StrategyKind::figure3_lineup(PAPER_BETA);
        let mut rows = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            for &capacity in &CAPACITIES {
                let jobs: Vec<_> = lineup
                    .iter()
                    .map(|&kind| (&*compiled, SimOptions::at_capacity(kind, capacity)))
                    .collect();
                let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
                rows.push((
                    trace,
                    capacity,
                    results
                        .into_iter()
                        .map(|r| (r.strategy.clone(), r.hit_ratio()))
                        .collect(),
                ));
            }
        }
        Ok(Self { rows })
    }

    /// The hit ratio of one strategy in one row; `None` if absent.
    pub fn hit_ratio(&self, trace: Trace, capacity: f64, strategy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(t, c, _)| *t == trace && *c == capacity)
            .and_then(|(_, _, cells)| {
                cells
                    .iter()
                    .find(|(name, _)| name == strategy)
                    .map(|&(_, h)| h)
            })
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Figure 3: hit ratio (%) of Dual-Methods and Dual-Caches (SQ = 1)\n"
        )?;
        for trace in [Trace::News, Trace::Alternative] {
            writeln!(f, "### {} trace", trace.name())?;
            let names: Vec<String> = self
                .rows
                .iter()
                .find(|(t, _, _)| *t == trace)
                .map(|(_, _, cells)| cells.iter().map(|(n, _)| n.clone()).collect())
                .unwrap_or_default();
            let mut headers = vec!["capacity".to_owned()];
            headers.extend(names.iter().cloned());
            let mut table = TextTable::new(headers);
            for (t, capacity, cells) in &self.rows {
                if t != &trace {
                    continue;
                }
                let mut row = vec![format!("{:.0}%", capacity * 100.0)];
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
    fn runs_and_orders_dual_family() {
        let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap();
        let fig = Fig3::run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 6);
        // Every dual strategy should beat GD* at 5% on both traces (the
        // paper's headline claim for figure 3).
        for trace in [Trace::News, Trace::Alternative] {
            let gd = fig.hit_ratio(trace, 0.05, "GD*").unwrap();
            for name in ["DM", "DC-FP", "DC-AP", "DC-LAP"] {
                let h = fig.hit_ratio(trace, 0.05, name).unwrap();
                assert!(h > gd, "{name} ({h}) <= GD* ({gd}) on {}", trace.name());
            }
        }
        let rendered = fig.to_string();
        assert!(rendered.contains("Figure 3"));
        assert!(rendered.contains("DC-LAP"));
        assert!(fig.hit_ratio(Trace::News, 0.5, "GD*").is_none());
    }
}
