//! Figure 4: overall hit ratios with perfect subscriptions.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{
    pct, run_grid, ExperimentContext, ExperimentError, TextTable, Trace, TraceRow, CAPACITIES,
    PAPER_BETA,
};

/// Figure 4 of the paper: GD\*, SUB, SG1, SG2, SR and DC-LAP across the
/// three capacity settings, on both traces, with perfect subscription
/// information (SQ = 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// `(trace, capacity fraction, [(strategy, hit ratio)])` rows.
    pub rows: Vec<TraceRow>,
}

impl Fig4 {
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = StrategyKind::figure4_lineup(PAPER_BETA);
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

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## Figure 4: hit ratio (%) of all methods (SQ = 1)\n")?;
        for (label, trace) in [("(a)", Trace::News), ("(b)", Trace::Alternative)] {
            writeln!(f, "### {label} {} trace", trace.name())?;
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
    fn runs_with_paper_orderings() {
        let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap();
        let fig = Fig4::run(&ctx).unwrap();
        assert_eq!(fig.rows.len(), 6);
        for trace in [Trace::News, Trace::Alternative] {
            let gd = fig.hit_ratio(trace, 0.05, "GD*").unwrap();
            let sg1 = fig.hit_ratio(trace, 0.05, "SG1").unwrap();
            let sg2 = fig.hit_ratio(trace, 0.05, "SG2").unwrap();
            let sr = fig.hit_ratio(trace, 0.05, "SR").unwrap();
            let sub = fig.hit_ratio(trace, 0.05, "SUB").unwrap();
            // SG2 and SR lead; the combined schemes beat pure pushing.
            // (Finer orderings like SG1 > SUB need paper scale; see the
            // shape tests in tests/paper_shapes.rs.)
            assert!(sg2 > gd && sr > gd, "{}", trace.name());
            assert!(sg2 >= sg1 && sr >= sg1, "{}", trace.name());
            assert!(sg2 > sub, "{}", trace.name());
        }
        let rendered = fig.to_string();
        assert!(rendered.contains("(a) NEWS"));
        assert!(rendered.contains("(b) ALTERNATIVE"));
    }
}
