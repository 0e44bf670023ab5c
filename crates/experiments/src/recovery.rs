//! Failure-recovery extension: hourly hit ratio around a fleet-wide proxy
//! restart.
//!
//! Not part of the paper's evaluation, but a natural systems question its
//! design raises: after a proxy loses its cache, push-time placement
//! repopulates it *proactively* (every newly published matched page is an
//! offer), while access-only caching must pay one miss per page again.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::{CrashPlan, SimOptions};
use pscd_types::SimTime;

use crate::{run_grid, ExperimentContext, ExperimentError, TextTable, Trace, PAPER_BETA};

/// The crash instant used by the experiment (mid-week).
pub const CRASH_HOUR: usize = 84;

/// Hourly hit-ratio series around a crash of the whole proxy fleet at
/// [`CRASH_HOUR`], for GD\*, SUB and SG2 (NEWS, SQ = 1, 5% capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRecovery {
    /// `(strategy, hourly hit ratio % — None for idle hours)`.
    pub series: Vec<(String, Vec<Option<f64>>)>,
}

impl CrashRecovery {
    /// Runs the experiment on the NEWS trace.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::Sg2 { beta: PAPER_BETA },
            StrategyKind::Sub,
            StrategyKind::GdStar { beta: PAPER_BETA },
        ];
        let compiled = ctx.compiled(Trace::News, 1.0)?;
        let crash = CrashPlan::new(SimTime::from_hours(CRASH_HOUR as u64), 1.0);
        let jobs: Vec<_> = lineup
            .iter()
            .map(|&kind| {
                (
                    &*compiled,
                    SimOptions::at_capacity(kind, 0.05).with_crash(crash),
                )
            })
            .collect();
        let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
        Ok(Self {
            series: results
                .into_iter()
                .map(|r| (r.strategy.clone(), r.hourly.hit_ratio_percent()))
                .collect(),
        })
    }

    /// Mean hourly hit ratio (%) of one strategy over an hour range,
    /// ignoring idle hours.
    pub fn mean_over(&self, strategy: &str, hours: std::ops::Range<usize>) -> f64 {
        let Some((_, s)) = self.series.iter().find(|(n, _)| n == strategy) else {
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

    /// Hit-ratio drop from the 12 hours before the crash to the 12 hours
    /// after it, in percentage points.
    pub fn crash_dent(&self, strategy: &str) -> f64 {
        self.mean_over(strategy, CRASH_HOUR.saturating_sub(12)..CRASH_HOUR)
            - self.mean_over(strategy, CRASH_HOUR..CRASH_HOUR + 12)
    }
}

impl fmt::Display for CrashRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Extension: recovery after a fleet-wide proxy restart at hour {CRASH_HOUR} \
             (NEWS, SQ = 1, capacity = 5%)\n"
        )?;
        let names: Vec<&String> = self.series.iter().map(|(n, _)| n).collect();
        let mut headers = vec!["hour".to_owned()];
        headers.extend(names.iter().map(|n| (*n).clone()));
        let mut table = TextTable::new(headers);
        // 6-hour buckets in a window around the crash.
        let lo = CRASH_HOUR.saturating_sub(24);
        let hi = (CRASH_HOUR + 36).min(
            self.series
                .first()
                .map(|(_, s)| s.len())
                .unwrap_or(CRASH_HOUR),
        );
        let mut h = lo;
        while h < hi {
            let end = (h + 6).min(hi);
            let mut row = vec![format!("{h}-{}", end - 1)];
            for name in &names {
                row.push(format!("{:.1}", self.mean_over(name, h..end)));
            }
            table.add_row(row);
            h = end;
        }
        writeln!(f, "{table}")?;
        writeln!(f, "Hit-ratio dent (12 h before vs 12 h after the crash):")?;
        for (name, _) in &self.series {
            writeln!(f, "  {name:6} {:+.1} points", -self.crash_dent(name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    #[test]
    fn push_strategies_recover_faster_than_gdstar() {
        let ctx = ExperimentContext::scaled(0.02, 0, TraceSink::disabled()).unwrap();
        let rec = CrashRecovery::run(&ctx).unwrap();
        assert_eq!(rec.series.len(), 3);
        // Everyone dips at the crash...
        for name in ["SG2", "GD*"] {
            assert!(
                rec.crash_dent(name) > 0.0,
                "{name}: no dent ({})",
                rec.crash_dent(name)
            );
        }
        // ...but the push-based strategy recovers to a higher level in the
        // first half-day than the access-only baseline.
        let sg2_after = rec.mean_over("SG2", CRASH_HOUR..CRASH_HOUR + 12);
        let gd_after = rec.mean_over("GD*", CRASH_HOUR..CRASH_HOUR + 12);
        assert!(
            sg2_after > gd_after,
            "SG2 {sg2_after} <= GD* {gd_after} after the crash"
        );
        let rendered = rec.to_string();
        assert!(rendered.contains("restart at hour"));
        assert!(rendered.contains("dent"));
        assert_eq!(rec.mean_over("missing", 0..10), 0.0);
    }
}
