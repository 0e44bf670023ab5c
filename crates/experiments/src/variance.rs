//! Seed-sensitivity study: how much do the headline numbers move across
//! workload seeds?
//!
//! The paper reports single-run numbers (as do the other exhibits of
//! `repro all`, for comparability). This study regenerates the trace under
//! several master seeds and reports mean ± standard deviation of the
//! headline hit ratios and of SG2's relative gain over GD\*, quantifying
//! how much of the result is workload noise.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{Replay, SimOptions};
use pscd_workload::{Workload, WorkloadConfig};

use crate::{ExperimentContext, ExperimentError, TextTable, Trace, PAPER_BETA};

/// Mean and standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanSd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub sd: f64,
}

impl MeanSd {
    fn of(samples: &[f64]) -> Self {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n.max(1.0);
        let sd = if samples.len() < 2 {
            0.0
        } else {
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Self { mean, sd }
    }
}

impl fmt::Display for MeanSd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.sd)
    }
}

/// The seed-variance study: headline strategies at 5% capacity, SQ = 1,
/// across several regenerated workloads per trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceStudy {
    /// Seeds evaluated.
    pub seeds: Vec<u64>,
    /// `(trace, strategy, per-seed hit ratios %)`.
    pub samples: Vec<(Trace, String, Vec<f64>)>,
}

impl VarianceStudy {
    /// Runs the study with `seeds.len()` regenerated workloads per trace
    /// at workload scale `scale` (1.0 = paper scale).
    ///
    /// # Errors
    ///
    /// Propagates workload/simulation failures.
    pub fn run(
        ctx: &ExperimentContext,
        scale: f64,
        seeds: &[u64],
    ) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::GdStar { beta: PAPER_BETA },
            StrategyKind::Sg2 { beta: PAPER_BETA },
            StrategyKind::dc_lap(PAPER_BETA),
        ];
        let mut samples: Vec<(Trace, String, Vec<f64>)> = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            for kind in lineup {
                samples.push((trace, kind.name().to_owned(), Vec::new()));
            }
        }
        for &seed in seeds {
            for trace in [Trace::News, Trace::Alternative] {
                let cfg = match trace {
                    Trace::News => WorkloadConfig::news_scaled(scale),
                    Trace::Alternative => WorkloadConfig::alternative_scaled(scale),
                }
                .with_seed(seed);
                let workload = Workload::generate(&cfg)?;
                let subs = workload.subscriptions(1.0)?;
                // Reseeded workloads are outside the context's cache;
                // compile once per seed and share across the lineup.
                let compiled = CompiledTrace::compile(&workload, &subs)?;
                let cells = lineup
                    .map(|kind| SimOptions::at_capacity(kind, 0.05).with_threads(ctx.threads()));
                let results = Replay::compiled(&compiled, ctx.costs()).run(&cells)?;
                for r in results {
                    let slot = samples
                        .iter_mut()
                        .find(|(t, n, _)| *t == trace && *n == r.strategy)
                        .expect("preallocated slot");
                    slot.2.push(r.hit_ratio_percent());
                }
            }
        }
        Ok(Self {
            seeds: seeds.to_vec(),
            samples,
        })
    }

    /// Mean ± sd of one strategy's hit ratio (%).
    pub fn hit_ratio(&self, trace: Trace, strategy: &str) -> Option<MeanSd> {
        self.samples
            .iter()
            .find(|(t, n, _)| *t == trace && n == strategy)
            .map(|(_, _, xs)| MeanSd::of(xs))
    }

    /// Mean ± sd of SG2's relative improvement over GD\* (%), paired by
    /// seed.
    pub fn sg2_gain(&self, trace: Trace) -> Option<MeanSd> {
        let series = |name: &str| {
            let found = self
                .samples
                .iter()
                .find(|(t, n, _)| *t == trace && n == name);
            found.map(|(_, _, xs)| xs)
        };
        let (gd, sg2) = (series("GD*")?, series("SG2")?);
        let gains: Vec<f64> = gd
            .iter()
            .zip(sg2)
            .filter(|&(&g, _)| g > 0.0)
            .map(|(&g, &s)| 100.0 * (s - g) / g)
            .collect();
        (!gains.is_empty()).then(|| MeanSd::of(&gains))
    }
}

impl fmt::Display for VarianceStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Seed sensitivity: hit ratio (%) mean ± sd over {} seeds (capacity = 5%, SQ = 1)\n",
            self.seeds.len()
        )?;
        let mut table = TextTable::new(
            ["trace", "GD*", "SG2", "DC-LAP", "SG2 gain over GD* (%)"]
                .map(str::to_owned)
                .to_vec(),
        );
        let cell = |m: Option<MeanSd>| m.map(|m| m.to_string()).unwrap_or_default();
        for trace in [Trace::News, Trace::Alternative] {
            let mut row = vec![trace.name().to_owned()];
            row.extend(["GD*", "SG2", "DC-LAP"].map(|s| cell(self.hit_ratio(trace, s))));
            row.push(cell(self.sg2_gain(trace)));
            table.add_row(row);
        }
        writeln!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    #[test]
    fn mean_sd_math() {
        let m = MeanSd::of(&[2.0, 4.0, 6.0]);
        assert!((m.mean - 4.0).abs() < 1e-12);
        assert!((m.sd - 2.0).abs() < 1e-12);
        let single = MeanSd::of(&[3.0]);
        assert_eq!(single.sd, 0.0);
        assert_eq!(format!("{m}"), "4.0 ± 2.0");
    }

    #[test]
    fn study_runs_and_sg2_wins_on_every_seed() {
        let ctx = ExperimentContext::scaled(0.01, 0, TraceSink::disabled()).unwrap();
        let study = VarianceStudy::run(&ctx, 0.01, &[1, 2, 3]).unwrap();
        assert_eq!(study.seeds, vec![1, 2, 3]);
        for trace in [Trace::News, Trace::Alternative] {
            let gd = study.hit_ratio(trace, "GD*").unwrap();
            let sg2 = study.hit_ratio(trace, "SG2").unwrap();
            assert!(sg2.mean > gd.mean, "{}", trace.name());
            let gain = study.sg2_gain(trace).unwrap();
            assert!(gain.mean > 0.0, "{}", trace.name());
        }
        let rendered = study.to_string();
        assert!(rendered.contains("Seed sensitivity"));
        assert!(rendered.contains("±"));
        assert!(study.hit_ratio(Trace::News, "missing").is_none());
    }
}
