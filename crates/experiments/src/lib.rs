//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (§5), plus the ablations and extensions built the same way.
//!
//! Each grid exhibit is one [`Exhibit`] value: title, traces, one axis,
//! a strategy lineup, a metric projection and the layout quirks of its
//! printed bytes. A [`Plan`] replays the cells of several exhibits, each
//! distinct one once, and projects each exhibit into an [`ExhibitTable`],
//! which prints as text (`Display`) and CSV ([`ToCsv`]); [`Exhibit::run`]
//! is the plan of one exhibit. The `repro` name of each exhibit:
//!
//! | `repro` | Spec | What it shows |
//! |---|---|---|
//! | `beta` | [`Exhibit::beta`] | §5.1 β tuning: best β per algorithm/capacity/trace |
//! | `fig3` | [`Exhibit::fig3`] | Dual-Methods vs Dual-Caches hit ratios |
//! | `fig4` | [`Exhibit::fig4`] | all methods, capacity sweep, SQ = 1 |
//! | `table2` | [`Exhibit::table2`] | relative improvement over GD\* at 5% |
//! | `fig5` | [`Exhibit::fig5`] | sensitivity to subscription quality |
//! | `fig6` | [`Exhibit::fig6`] | hourly hit ratio over 7 days |
//! | `fig7` | [`Exhibit::fig7`] | traffic under the two pushing schemes |
//! | `classic` | [`Exhibit::classic`] | LRU, GDS, LFU-DA against GD\* |
//! | `lap-bounds` | [`Exhibit::lap_bounds`] | DC-LAP's PC-fraction bounds |
//! | `partition` | [`Exhibit::partition`] | DC-FP's fixed PC fraction |
//! | `coverage` | [`Exhibit::coverage`] | partial notification coverage |
//! | `crash` | [`Exhibit::crash`] | recovery after a fleet-wide proxy restart |
//! | `invalidation` | [`Exhibit::invalidation`] | the stale-version freshness tax |
//! | `variance` | [`Exhibit::variance`] | headline numbers across workload seeds |
//! | `shift` | [`Exhibit::shift`] | the Zipf–Mandelbrot shift calibration |
//!
//! [`ExperimentContext`] generates the two traces and the topology once,
//! and its resolver builds every other source a plan names; a plan
//! replays its cells as one [`Replay`](pscd_sim::Replay) lineup per
//! source, across cores; [`ObsAudit`]
//! replays a lineup with observers (`repro --obs-dir`). The `repro`
//! binary (`cargo run --release --bin repro -- all`) regenerates
//! everything. [`CLAIMS`] are the paper's who-wins claims, each a
//! predicate over one exhibit's table; [`evaluate_claims`] checks them.
//!
//! # Examples
//!
//! ```
//! use pscd_experiments::{Exhibit, ExperimentContext};
//! use pscd_obs::TraceSink;
//! // 0.4% scale for the doctest; scale 1.0 reproduces the paper. Thread
//! // count 0 = auto.
//! let ctx = ExperimentContext::scaled(0.004, 0, TraceSink::disabled())?;
//! let table2 = Exhibit::table2().run(&ctx)?;
//! println!("{table2}");
//! # Ok::<(), pscd_experiments::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod claims;
mod context;
mod csv;
mod error;
mod exhibit;
mod plan;
mod table;

pub use audit::{AuditRow, ObsAudit};
pub use claims::{evaluate_claims, Claim, CLAIMS};
pub use context::{ExperimentContext, SourceKey, Trace, BETAS, CAPACITIES, PAPER_BETA, QUALITIES};
pub use csv::ToCsv;
pub use error::ExperimentError;
pub use exhibit::{Exhibit, ExhibitTable, COVERAGES, CRASH_HOUR, LAP_BOUNDS, PC_FRACTIONS, SHIFTS};
pub use plan::Plan;
pub use table::{pct, signed_pct, TextTable};
