//! Figure 6: average hourly hit ratio over the 7-day horizon.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{run_grid, ExperimentContext, ExperimentError, TextTable, Trace, PAPER_BETA};

/// The strategies of figure 6: the best combined scheme against the two
/// single-opportunity schemes.
fn lineup(beta: f64) -> Vec<StrategyKind> {
    vec![
        StrategyKind::Sg2 { beta },
        StrategyKind::Sub,
        StrategyKind::GdStar { beta },
    ]
}

/// Figure 6 of the paper: hourly hit ratio of SG2, SUB and GD\* over the
/// 168 simulated hours (SQ = 1, capacity = 5%), on both traces.
///
/// The paper's reading: SUB starts high (proactive pushing) and decays
/// because static subscriptions never adapt; GD\* stabilizes after a
/// warm-up; SG2 stays high throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// `(trace, strategy, hourly hit ratio % — None for idle hours)`.
    pub series: Vec<(Trace, String, Vec<Option<f64>>)>,
}

impl Fig6 {
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let mut series = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            let jobs: Vec<_> = lineup(PAPER_BETA)
                .into_iter()
                .map(|kind| (&*compiled, SimOptions::at_capacity(kind, 0.05)))
                .collect();
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            for r in results {
                series.push((trace, r.strategy.clone(), r.hourly.hit_ratio_percent()));
            }
        }
        Ok(Self { series })
    }

    /// Mean hourly hit ratio (%) of a strategy over an inclusive hour
    /// range, ignoring idle hours.
    pub fn mean_over(&self, trace: Trace, strategy: &str, hours: std::ops::Range<usize>) -> f64 {
        let Some((_, _, s)) = self
            .series
            .iter()
            .find(|(t, n, _)| *t == trace && n == strategy)
        else {
            return 0.0;
        };
        let vals: Vec<f64> = s[hours.start.min(s.len())..hours.end.min(s.len())]
            .iter()
            .flatten()
            .copied()
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Figure 6: average hourly hit ratio (%) (SQ = 1, capacity = 5%)\n"
        )?;
        for (label, trace) in [("(a)", Trace::News), ("(b)", Trace::Alternative)] {
            writeln!(f, "### {label} {} trace (6-hour buckets)", trace.name())?;
            let names: Vec<&String> = self
                .series
                .iter()
                .filter(|(t, _, _)| *t == trace)
                .map(|(_, n, _)| n)
                .collect();
            let mut headers = vec!["hour".to_owned()];
            headers.extend(names.iter().map(|n| (*n).clone()));
            let mut table = TextTable::new(headers);
            let hours = self
                .series
                .iter()
                .find(|(t, _, _)| *t == trace)
                .map(|(_, _, s)| s.len())
                .unwrap_or(0);
            let mut h = 0;
            while h < hours {
                let hi = (h + 6).min(hours);
                let mut row = vec![format!("{h}-{}", hi - 1)];
                for name in &names {
                    row.push(format!("{:.1}", self.mean_over(trace, name, h..hi)));
                }
                table.add_row(row);
                h = hi;
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
    fn temporal_shapes() {
        let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap();
        let fig = Fig6::run(&ctx).unwrap();
        assert_eq!(fig.series.len(), 6);
        for trace in [Trace::News, Trace::Alternative] {
            // SUB's advantage decays: early hours beat late hours.
            let sub_early = fig.mean_over(trace, "SUB", 0..48);
            let sub_late = fig.mean_over(trace, "SUB", 120..168);
            assert!(
                sub_early > sub_late,
                "{}: SUB early {sub_early} <= late {sub_late}",
                trace.name()
            );
            // SG2 stays above GD* in the steady state.
            let sg2_late = fig.mean_over(trace, "SG2", 120..168);
            let gd_late = fig.mean_over(trace, "GD*", 120..168);
            assert!(sg2_late > gd_late, "{}", trace.name());
        }
        let rendered = fig.to_string();
        assert!(rendered.contains("Figure 6"));
        assert!(rendered.contains("hour"));
        assert_eq!(fig.mean_over(Trace::News, "missing", 0..10), 0.0);
    }
}
