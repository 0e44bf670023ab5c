//! Freshness extension: the cost of invalidating superseded versions.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{pct, run_grid, ExperimentContext, ExperimentError, TextTable, Trace, PAPER_BETA};

/// Hit ratios with and without stale-version invalidation (NEWS and
/// ALTERNATIVE, SQ = 1, 5% capacity).
///
/// The paper treats every published version as an independent page and
/// never drops superseded copies; a production news cache must. This
/// experiment quantifies the *freshness tax*: how many hits each strategy
/// loses when the cache drops an article's previous version the moment a
/// new one is published (requests to the old version then miss). The tax
/// can even be negative — dropping dead weight frees space for better
/// placements — which is exactly the kind of effect worth measuring.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidationStudy {
    /// `(trace, strategy, H without invalidation, H with invalidation)`.
    pub rows: Vec<(Trace, String, f64, f64)>,
}

impl InvalidationStudy {
    /// Runs the study.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::GdStar { beta: PAPER_BETA },
            StrategyKind::Sub,
            StrategyKind::Sg2 { beta: PAPER_BETA },
            StrategyKind::dc_lap(PAPER_BETA),
        ];
        let mut rows = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            let mut jobs = Vec::new();
            for &kind in &lineup {
                jobs.push((&*compiled, SimOptions::at_capacity(kind, 0.05)));
                jobs.push((
                    &*compiled,
                    SimOptions::at_capacity(kind, 0.05).with_invalidation(),
                ));
            }
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            for pair in results.chunks(2) {
                rows.push((
                    trace,
                    pair[0].strategy.clone(),
                    pair[0].hit_ratio(),
                    pair[1].hit_ratio(),
                ));
            }
        }
        Ok(Self { rows })
    }

    /// `(without, with)` hit ratios for one strategy.
    pub fn hit_ratios(&self, trace: Trace, strategy: &str) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|(t, n, _, _)| *t == trace && n == strategy)
            .map(|&(_, _, a, b)| (a, b))
    }

    /// The freshness tax in percentage points (without − with).
    pub fn tax_points(&self, trace: Trace, strategy: &str) -> Option<f64> {
        self.hit_ratios(trace, strategy)
            .map(|(a, b)| 100.0 * (a - b))
    }
}

impl fmt::Display for InvalidationStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Extension: stale-version invalidation (capacity = 5%, SQ = 1)\n"
        )?;
        let mut table = TextTable::new(
            [
                "trace",
                "strategy",
                "keep stale",
                "invalidate",
                "tax (points)",
            ]
            .map(str::to_owned)
            .to_vec(),
        );
        for (trace, name, without, with) in &self.rows {
            table.add_row(vec![
                trace.name().to_owned(),
                name.clone(),
                pct(*without),
                pct(*with),
                format!("{:.1}", 100.0 * (without - with)),
            ]);
        }
        writeln!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    #[test]
    fn freshness_tax_is_bounded_and_reported() {
        let ctx = ExperimentContext::scaled(0.01, 0, TraceSink::disabled()).unwrap();
        let study = InvalidationStudy::run(&ctx).unwrap();
        assert_eq!(study.rows.len(), 8);
        for trace in [Trace::News, Trace::Alternative] {
            for name in ["GD*", "SUB", "SG2", "DC-LAP"] {
                let (without, with) = study.hit_ratios(trace, name).unwrap();
                // Both runs are valid hit ratios. The tax is *usually*
                // positive (stale copies would still serve requests), but
                // can be negative: dropping dead weight frees space for
                // better placements, so no sign assertion here.
                assert!((0.0..=1.0).contains(&without), "{name}");
                assert!((0.0..=1.0).contains(&with), "{name}");
                assert!(study.tax_points(trace, name).unwrap().is_finite());
            }
        }
        assert!(study.hit_ratios(Trace::News, "missing").is_none());
        let rendered = study.to_string();
        assert!(rendered.contains("invalidate"));
        assert!(rendered.contains("tax"));
    }
}
