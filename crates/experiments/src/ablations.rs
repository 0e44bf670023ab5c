//! Ablations beyond the paper's exhibits: design-choice sweeps the paper
//! motivates but does not plot.

use std::fmt;

use pscd_core::StrategyKind;
use pscd_sim::trace::CompiledTrace;
use pscd_sim::SimOptions;
use pscd_workload::{Workload, WorkloadConfig};

use crate::{
    pct, run_grid, ExperimentContext, ExperimentError, StrategyCells, TextTable, Trace, TraceRow,
    CAPACITIES, PAPER_BETA,
};

/// Classic access-only baselines (LRU, GDS, LFU-DA) against GD\*,
/// validating the paper's premise that GD\* is the strongest access-only
/// baseline (it cites Jin & Bestavros's comparison rather than re-running
/// it; we re-run it).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicBaselines {
    /// `(trace, capacity, [(policy, hit ratio)])` rows.
    pub rows: Vec<TraceRow>,
}

impl ClassicBaselines {
    /// Runs LRU/GDS/LFU-DA/GD\* across the capacity settings, both traces.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::Lru,
            StrategyKind::Gds,
            StrategyKind::LfuDa,
            StrategyKind::GdStar { beta: PAPER_BETA },
        ];
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

    /// Hit ratio of one policy in one row.
    pub fn hit_ratio(&self, trace: Trace, capacity: f64, policy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(t, c, _)| *t == trace && *c == capacity)
            .and_then(|(_, _, cells)| cells.iter().find(|(n, _)| n == policy).map(|&(_, h)| h))
    }
}

impl fmt::Display for ClassicBaselines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Ablation: classic access-only policies vs GD* (SQ irrelevant)\n"
        )?;
        for trace in [Trace::News, Trace::Alternative] {
            writeln!(f, "### {} trace", trace.name())?;
            let mut table = TextTable::new(
                ["capacity", "LRU", "GDS", "LFU-DA", "GD*"]
                    .map(str::to_owned)
                    .to_vec(),
            );
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

/// DC-LAP boundary ablation: how tight can the PC-fraction bounds be
/// before the adaptivity is lost (→ DC-FP), and how loose before it
/// degenerates (→ DC-AP)?
#[derive(Debug, Clone, PartialEq)]
pub struct LapBoundsSweep {
    /// `(trace, (lo, hi), hit ratio)` cells at 5% capacity, SQ = 1.
    pub cells: Vec<(Trace, (f64, f64), f64)>,
}

/// The bound pairs the sweep evaluates, widest first. `(0.5, 0.5)` pins
/// the partition (DC-FP behaviour); `(0.0, 1.0)` is unbounded (DC-AP).
pub const LAP_BOUNDS: [(f64, f64); 5] =
    [(0.0, 1.0), (0.1, 0.9), (0.25, 0.75), (0.4, 0.6), (0.5, 0.5)];

impl LapBoundsSweep {
    /// Runs the sweep at 5% capacity on both traces.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let mut cells = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            let jobs: Vec<_> = LAP_BOUNDS
                .iter()
                .map(|&(lo, hi)| {
                    (
                        &*compiled,
                        SimOptions::at_capacity(
                            StrategyKind::DcLap {
                                beta: PAPER_BETA,
                                lo,
                                hi,
                            },
                            0.05,
                        ),
                    )
                })
                .collect();
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            for (&bounds, r) in LAP_BOUNDS.iter().zip(results) {
                cells.push((trace, bounds, r.hit_ratio()));
            }
        }
        Ok(Self { cells })
    }

    /// Hit ratio at one bound pair.
    pub fn hit_ratio(&self, trace: Trace, bounds: (f64, f64)) -> Option<f64> {
        self.cells
            .iter()
            .find(|(t, b, _)| *t == trace && *b == bounds)
            .map(|&(_, _, h)| h)
    }
}

impl fmt::Display for LapBoundsSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Ablation: DC-LAP PC-fraction bounds (capacity = 5%, SQ = 1)\n"
        )?;
        let mut headers = vec!["trace".to_owned()];
        headers.extend(LAP_BOUNDS.iter().map(|(lo, hi)| format!("[{lo},{hi}]")));
        let mut table = TextTable::new(headers);
        for trace in [Trace::News, Trace::Alternative] {
            let mut row = vec![trace.name().to_owned()];
            for &bounds in &LAP_BOUNDS {
                row.push(self.hit_ratio(trace, bounds).map(pct).unwrap_or_default());
            }
            table.add_row(row);
        }
        writeln!(f, "{table}")
    }
}

/// DC-FP partition sweep: the fixed PC fraction is the strategy's only
/// knob; the paper fixes it at 50% without justification.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSweep {
    /// `(trace, pc fraction, hit ratio)` cells at 5% capacity, SQ = 1.
    pub cells: Vec<(Trace, f64, f64)>,
}

/// The PC fractions the sweep evaluates.
pub const PC_FRACTIONS: [f64; 7] = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9];

impl PartitionSweep {
    /// Runs the sweep at 5% capacity on both traces.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let mut cells = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            let compiled = ctx.compiled(trace, 1.0)?;
            let jobs: Vec<_> = PC_FRACTIONS
                .iter()
                .map(|&pc_fraction| {
                    (
                        &*compiled,
                        SimOptions::at_capacity(
                            StrategyKind::DcFp {
                                beta: PAPER_BETA,
                                pc_fraction,
                            },
                            0.05,
                        ),
                    )
                })
                .collect();
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            for (&frac, r) in PC_FRACTIONS.iter().zip(results) {
                cells.push((trace, frac, r.hit_ratio()));
            }
        }
        Ok(Self { cells })
    }

    /// Hit ratio at one PC fraction.
    pub fn hit_ratio(&self, trace: Trace, pc_fraction: f64) -> Option<f64> {
        self.cells
            .iter()
            .find(|(t, p, _)| *t == trace && *p == pc_fraction)
            .map(|&(_, _, h)| h)
    }
}

impl fmt::Display for PartitionSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Ablation: DC-FP push-cache fraction (capacity = 5%, SQ = 1)\n"
        )?;
        let mut headers = vec!["trace".to_owned()];
        headers.extend(PC_FRACTIONS.iter().map(|p| format!("PC={p}")));
        let mut table = TextTable::new(headers);
        for trace in [Trace::News, Trace::Alternative] {
            let mut row = vec![trace.name().to_owned()];
            for &p in &PC_FRACTIONS {
                row.push(self.hit_ratio(trace, p).map(pct).unwrap_or_default());
            }
            table.add_row(row);
        }
        writeln!(f, "{table}")
    }
}

/// Subscription-coverage sweep: the paper's future-work scenario in which
/// only part of the request stream is notification-driven. Gains should
/// degrade gracefully toward the GD\* baseline as coverage drops.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSweep {
    /// `(trace, coverage, [(strategy, hit ratio)])` rows at 5%, SQ = 1.
    pub rows: Vec<TraceRow>,
}

/// Coverage levels evaluated.
pub const COVERAGES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

impl CoverageSweep {
    /// Runs GD\*, SG2 and DC-LAP across coverage levels, both traces.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let lineup = [
            StrategyKind::GdStar { beta: PAPER_BETA },
            StrategyKind::Sg2 { beta: PAPER_BETA },
            StrategyKind::dc_lap(PAPER_BETA),
        ];
        let mut rows = Vec::new();
        for trace in [Trace::News, Trace::Alternative] {
            for &coverage in &COVERAGES {
                let subs = ctx.workload(trace).subscriptions_partial(1.0, coverage)?;
                // Partial-coverage tables live outside the context's
                // cache; compile once per level, share across the lineup.
                let compiled = CompiledTrace::compile(ctx.workload(trace), &subs)?;
                let jobs: Vec<_> = lineup
                    .iter()
                    .map(|&kind| (&compiled, SimOptions::at_capacity(kind, 0.05)))
                    .collect();
                let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
                rows.push((
                    trace,
                    coverage,
                    results
                        .into_iter()
                        .map(|r| (r.strategy.clone(), r.hit_ratio()))
                        .collect(),
                ));
            }
        }
        Ok(Self { rows })
    }

    /// Hit ratio of one strategy at one coverage level.
    pub fn hit_ratio(&self, trace: Trace, coverage: f64, strategy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(t, c, _)| *t == trace && *c == coverage)
            .and_then(|(_, _, cells)| cells.iter().find(|(n, _)| n == strategy).map(|&(_, h)| h))
    }
}

impl fmt::Display for CoverageSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## Extension: partial notification coverage (capacity = 5%, SQ = 1)\n"
        )?;
        for trace in [Trace::News, Trace::Alternative] {
            writeln!(f, "### {} trace", trace.name())?;
            let names: Vec<String> = self
                .rows
                .iter()
                .find(|(t, _, _)| *t == trace)
                .map(|(_, _, cells)| cells.iter().map(|(n, _)| n.clone()).collect())
                .unwrap_or_default();
            let mut headers = vec!["coverage".to_owned()];
            headers.extend(names);
            let mut table = TextTable::new(headers);
            for (t, coverage, cells) in &self.rows {
                if t != &trace {
                    continue;
                }
                let mut row = vec![format!("{coverage}")];
                row.extend(cells.iter().map(|&(_, h)| pct(h)));
                table.add_row(row);
            }
            writeln!(f, "{table}")?;
        }
        Ok(())
    }
}

/// Popularity-head sensitivity: sweeps the Zipf–Mandelbrot `shift` our
/// workload calibration introduces (DESIGN.md §3) and reports the trace's
/// density and the headline strategies' hit ratios, justifying the
/// default of 100.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftSensitivity {
    /// `(shift, matched pairs, [(strategy, hit ratio)])` on NEWS at 5%.
    pub rows: Vec<(f64, u64, StrategyCells)>,
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
            let jobs: Vec<_> = lineup
                .iter()
                .map(|&kind| (&compiled, SimOptions::at_capacity(kind, 0.05)))
                .collect();
            let results = run_grid(ctx.costs(), &jobs, ctx.threads())?;
            rows.push((
                shift,
                pairs,
                results
                    .into_iter()
                    .map(|r| (r.strategy.clone(), r.hit_ratio()))
                    .collect(),
            ));
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
        for (shift, pairs, cells) in &self.rows {
            let gd = cells.iter().find(|(n, _)| n == "GD*").map(|&(_, h)| h);
            let sg2 = cells.iter().find(|(n, _)| n == "SG2").map(|&(_, h)| h);
            table.add_row(vec![
                format!("{shift}"),
                pairs.to_string(),
                gd.map(pct).unwrap_or_default(),
                sg2.map(pct).unwrap_or_default(),
                match (gd, sg2) {
                    (Some(g), Some(s)) if g > 0.0 => format!("{:.2}x", s / g),
                    _ => String::new(),
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

    fn ctx() -> ExperimentContext {
        ExperimentContext::scaled(0.004, 0, TraceSink::disabled()).unwrap()
    }

    #[test]
    fn classic_baselines_gdstar_competitive() {
        let a = ClassicBaselines::run(&ctx()).unwrap();
        assert_eq!(a.rows.len(), 6);
        // GD* should be at least as good as LRU at 5% on both traces.
        for trace in [Trace::News, Trace::Alternative] {
            let gd = a.hit_ratio(trace, 0.05, "GD*").unwrap();
            let lru = a.hit_ratio(trace, 0.05, "LRU").unwrap();
            assert!(gd >= lru, "{}: GD* {gd} < LRU {lru}", trace.name());
        }
        assert!(a.to_string().contains("LFU-DA"));
    }

    #[test]
    fn lap_bounds_sweep_runs() {
        let s = LapBoundsSweep::run(&ctx()).unwrap();
        assert_eq!(s.cells.len(), 2 * LAP_BOUNDS.len());
        for trace in [Trace::News, Trace::Alternative] {
            for &b in &LAP_BOUNDS {
                let h = s.hit_ratio(trace, b).unwrap();
                assert!((0.0..=1.0).contains(&h));
            }
        }
        assert!(s.to_string().contains("[0.25,0.75]"));
    }

    #[test]
    fn partition_sweep_runs() {
        let s = PartitionSweep::run(&ctx()).unwrap();
        assert_eq!(s.cells.len(), 2 * PC_FRACTIONS.len());
        assert!(s.hit_ratio(Trace::News, 0.5).is_some());
        assert!(s.hit_ratio(Trace::News, 0.33).is_none());
        assert!(s.to_string().contains("PC=0.5"));
    }

    #[test]
    fn coverage_degrades_gracefully() {
        let s = CoverageSweep::run(&ctx()).unwrap();
        for trace in [Trace::News, Trace::Alternative] {
            let gd = s.hit_ratio(trace, 1.0, "GD*").unwrap();
            let full = s.hit_ratio(trace, 1.0, "SG2").unwrap();
            let quarter = s.hit_ratio(trace, 0.25, "SG2").unwrap();
            // Less coverage, fewer push wins — but never below useless.
            assert!(full >= quarter, "{}", trace.name());
            assert!(quarter >= 0.0 && full > gd, "{}", trace.name());
        }
        assert!(s.to_string().contains("coverage"));
    }

    #[test]
    fn shift_sensitivity_reports_density() {
        let c = ctx();
        let s = ShiftSensitivity::run(&c, 0.004).unwrap();
        assert_eq!(s.rows.len(), SHIFTS.len());
        // Pair density grows with the shift (flatter head -> wider
        // spread). At this tiny scale the trend is only reliable between
        // the endpoints — adjacent settings can swap by sampling noise in
        // the generator's RNG stream.
        let pairs: Vec<u64> = s.rows.iter().map(|&(_, p, _)| p).collect();
        assert!(pairs.last() > pairs.first(), "{pairs:?}");
        assert!(s.to_string().contains("matched pairs"));
    }
}
