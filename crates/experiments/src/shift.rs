//! Calibration sweep: how the Zipf–Mandelbrot `shift` of the workload's
//! popularity head moves the trace and the headline hit ratios.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{Replay, SimOptions};
use pscd_workload::{Workload, WorkloadConfig};

use crate::{pct, ExperimentContext, ExperimentError, TextTable, PAPER_BETA};

/// Popularity-head sensitivity: sweeps the Zipf–Mandelbrot `shift` our
/// workload calibration introduces (DESIGN.md §3) and reports the trace's
/// density and the headline strategies' hit ratios, justifying the
/// default of 100.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftSensitivity {
    /// `(shift, matched pairs, GD* hit ratio, SG2 hit ratio)` on NEWS at
    /// 5%.
    pub rows: Vec<(f64, u64, f64, f64)>,
}

/// Shift values evaluated.
pub const SHIFTS: [f64; 5] = [0.0, 20.0, 50.0, 100.0, 200.0];

impl ShiftSensitivity {
    /// Runs GD\* and SG2 on NEWS-trace variants regenerated per shift.
    /// `scale` controls workload size (1.0 = paper scale).
    ///
    /// # Errors
    ///
    /// Propagates workload/simulation failures.
    pub fn run(ctx: &ExperimentContext, scale: f64) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::GdStar { beta: PAPER_BETA },
            StrategyKind::Sg2 { beta: PAPER_BETA },
        ];
        let mut rows = Vec::new();
        for &shift in &SHIFTS {
            let mut cfg = WorkloadConfig::news_scaled(scale);
            cfg.requests.zipf_shift = shift;
            let w = Workload::generate(&cfg)?;
            let subs = w.subscriptions(1.0)?;
            let pairs = subs.iter().count() as u64;
            let compiled = CompiledTrace::compile(&w, &subs)?;
            let cells =
                lineup.map(|kind| SimOptions::at_capacity(kind, 0.05).with_threads(ctx.threads()));
            let results = Replay::compiled(&compiled, ctx.costs()).run(&cells)?;
            rows.push((shift, pairs, results[0].hit_ratio(), results[1].hit_ratio()));
        }
        Ok(Self { rows })
    }
}

impl fmt::Display for ShiftSensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Calibration: Zipf–Mandelbrot shift sensitivity (NEWS, capacity = 5%, SQ = 1)\n"
        )?;
        let mut table = TextTable::new(
            ["shift", "matched pairs", "GD*", "SG2", "SG2/GD*"]
                .map(str::to_owned)
                .to_vec(),
        );
        for &(shift, pairs, gd, sg2) in &self.rows {
            table.add_row(vec![
                format!("{shift}"),
                pairs.to_string(),
                pct(gd),
                pct(sg2),
                if gd > 0.0 {
                    format!("{:.2}x", sg2 / gd)
                } else {
                    String::new()
                },
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
    fn shift_sensitivity_reports_density() {
        let c = ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap();
        let s = ShiftSensitivity::run(&c, 0.004).unwrap();
        assert_eq!(s.rows.len(), SHIFTS.len());
        // Pair density grows with the shift (flatter head -> wider
        // spread). At this tiny scale the trend is only reliable between
        // the endpoints — adjacent settings can swap by sampling noise in
        // the generator's RNG stream.
        let pairs: Vec<u64> = s.rows.iter().map(|&(_, p, _, _)| p).collect();
        assert!(pairs.last() > pairs.first(), "{pairs:?}");
        assert!(s.to_string().contains("matched pairs"));
    }
}
