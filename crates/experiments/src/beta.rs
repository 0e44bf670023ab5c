//! β tuning sweep (§5.1): GD\*, SG1 and SG2 across β, capacities, traces.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::SimOptions;

use crate::{
    pct, run_grid, ExperimentContext, ExperimentError, TextTable, Trace, BETAS, CAPACITIES,
};

/// Which GD\*-framework algorithm a β sweep cell belongs to.
const ALGORITHMS: [&str; 3] = ["GD*", "SG1", "SG2"];

fn kind_for(algorithm: &str, beta: f64) -> StrategyKind {
    match algorithm {
        "GD*" => StrategyKind::GdStar { beta },
        "SG1" => StrategyKind::Sg1 { beta },
        "SG2" => StrategyKind::Sg2 { beta },
        other => unreachable!("unknown β-sweep algorithm {other}"),
    }
}

/// One cell of the β sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaCell {
    /// The trace.
    pub trace: Trace,
    /// The algorithm ("GD*", "SG1", "SG2").
    pub algorithm: &'static str,
    /// Cache capacity fraction.
    pub capacity: f64,
    /// β value.
    pub beta: f64,
    /// Measured global hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
}

/// The β sweep result: every (trace, algorithm, capacity, β) hit ratio
/// plus the per-(trace, algorithm, capacity) argmax the paper uses to fix
/// β in the following experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaSweep {
    /// All measured cells.
    pub cells: Vec<BetaCell>,
}

impl BetaSweep {
    /// Runs the sweep on both traces with perfect subscriptions (SQ = 1).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let mut cells = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            let mut plan = Vec::new();
            for algorithm in ALGORITHMS {
                for &capacity in &CAPACITIES {
                    for &beta in &BETAS {
                        plan.push((algorithm, capacity, beta));
                    }
                }
            }
            let jobs: Vec<_> = plan
                .iter()
                .map(|&(algorithm, capacity, beta)| {
                    (
                        &*compiled,
                        SimOptions::at_capacity(kind_for(algorithm, beta), capacity),
                    )
                })
                .collect();
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            for ((algorithm, capacity, beta), result) in plan.into_iter().zip(results) {
                cells.push(BetaCell {
                    trace,
                    algorithm,
                    capacity,
                    beta,
                    hit_ratio: result.hit_ratio(),
                });
            }
        }
        Ok(Self { cells })
    }

    /// The β with the highest hit ratio for one (trace, algorithm,
    /// capacity) combination.
    pub fn best_beta(&self, trace: Trace, algorithm: &str, capacity: f64) -> Option<f64> {
        self.cells
            .iter()
            .filter(|c| c.trace == trace && c.algorithm == algorithm && c.capacity == capacity)
            .max_by(|a, b| {
                a.hit_ratio
                    .partial_cmp(&b.hit_ratio)
                    .expect("hit ratios are finite")
            })
            .map(|c| c.beta)
    }
}

impl fmt::Display for BetaSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## β sweep (§5.1): hit ratio (%) by β, SQ = 1\n")?;
        for trace in [Trace::News, Trace::Alternative] {
            for algorithm in ALGORITHMS {
                writeln!(f, "### {} / {}", trace.name(), algorithm)?;
                let mut headers = vec!["capacity".to_owned()];
                headers.extend(BETAS.iter().map(|b| format!("β={b}")));
                headers.push("best β".to_owned());
                let mut table = TextTable::new(headers);
                for &capacity in &CAPACITIES {
                    let mut row = vec![format!("{:.0}%", capacity * 100.0)];
                    for &beta in &BETAS {
                        let cell = self
                            .cells
                            .iter()
                            .find(|c| {
                                c.trace == trace
                                    && c.algorithm == algorithm
                                    && c.capacity == capacity
                                    && c.beta == beta
                            })
                            .expect("complete sweep");
                        row.push(pct(cell.hit_ratio));
                    }
                    row.push(
                        self.best_beta(trace, algorithm, capacity)
                            .map(|b| b.to_string())
                            .unwrap_or_default(),
                    );
                    table.add_row(row);
                }
                writeln!(f, "{table}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    #[test]
    fn sweep_runs_at_small_scale() {
        let ctx = ExperimentContext::scaled(0.002, 0, TraceSink::disabled()).unwrap();
        let sweep = BetaSweep::run(&ctx).unwrap();
        assert_eq!(sweep.cells.len(), 2 * 3 * 3 * BETAS.len());
        let best = sweep.best_beta(Trace::News, "GD*", 0.05).unwrap();
        assert!(BETAS.contains(&best));
        assert!(sweep.best_beta(Trace::News, "nope", 0.05).is_none());
        let rendered = sweep.to_string();
        assert!(rendered.contains("NEWS / SG2"));
        assert!(rendered.contains("best β"));
    }
}
