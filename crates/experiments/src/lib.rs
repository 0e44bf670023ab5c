//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! Each driver runs the full grid of simulations for one exhibit and
//! renders the same rows/series the paper reports:
//!
//! | Exhibit | Driver | What it shows |
//! |---|---|---|
//! | §5.1 β tuning | [`BetaSweep`] | best β per algorithm/capacity/trace |
//! | Figure 3 | [`Fig3`] | Dual-Methods vs Dual-Caches hit ratios |
//! | Figure 4 | [`Fig4`] | all methods, capacity sweep, SQ = 1 |
//! | Table 2 | [`Table2`] | relative improvement over GD\* at 5% |
//! | Figure 5 | [`Fig5`] | sensitivity to subscription quality |
//! | Figure 6 | [`Fig6`] | hourly hit ratio over 7 days |
//! | Figure 7 | [`Fig7`] | traffic under the two pushing schemes |
//!
//! [`ExperimentContext`] generates the two traces and the topology once;
//! [`run_grid`] fans the simulation grid across cores. The `repro` binary
//! (`cargo run --release --bin repro -- all`) regenerates everything.
//!
//! # Examples
//!
//! ```
//! use pscd_experiments::{ExperimentContext, Table2};
//! use pscd_obs::TraceSink;
//! // 0.4% scale for the doctest; scale 1.0 reproduces the paper. Thread
//! // count 0 = auto.
//! let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled())?;
//! let table2 = Table2::run(&ctx)?;
//! println!("{table2}");
//! # Ok::<(), pscd_experiments::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablations;
mod audit;
mod bench;
mod beta;
mod context;
mod csv;
mod error;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod grid;
mod invalidation;
mod recovery;
mod table;
mod table2;
mod variance;

pub use ablations::{
    ClassicBaselines, CoverageSweep, LapBoundsSweep, PartitionSweep, ShiftSensitivity, COVERAGES,
    LAP_BOUNDS, PC_FRACTIONS, SHIFTS,
};
pub use audit::{AuditRow, ObsAudit};
pub use bench::{
    validate_bench_json, BenchReport, BenchRow, BENCH_PR, BENCH_SCHEMA, MIN_BENCHMARKS,
};
pub use beta::{BetaCell, BetaSweep};
pub use context::{ExperimentContext, Trace, BETAS, CAPACITIES, PAPER_BETA, QUALITIES};
pub use csv::ToCsv;
pub use error::ExperimentError;
pub use fig3::Fig3;
pub use fig4::Fig4;
pub use fig5::Fig5;
pub use fig6::Fig6;
pub use fig7::Fig7;
pub use grid::{run_grid, GridJob};
pub use invalidation::InvalidationStudy;
pub use recovery::{CrashRecovery, CRASH_HOUR};
pub use table::{pct, signed_pct, TextTable};
pub use table2::Table2;
pub use variance::{MeanSd, VarianceStudy};

/// Per-strategy measurement cells: `(strategy name, value)` pairs in
/// lineup order.
pub type StrategyCells = Vec<(String, f64)>;

/// One sweep row: `(trace, x value, per-strategy cells)` — the shape
/// shared by the figure grids and most ablations.
pub type TraceRow = (Trace, f64, StrategyCells);
