//! Shared helpers for the `pscd` benchmark harness.
//!
//! Every bench regenerates one of the paper's exhibits (printing the same
//! rows/series the paper reports) and then measures the simulation work
//! behind it. The workload scale is controlled by the `PSCD_BENCH_SCALE`
//! environment variable (default 0.02 — 2% of the paper's trace — so the
//! full suite completes in minutes; set it to 1.0 to benchmark at paper
//! scale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pscd_experiments::ExperimentContext;
use pscd_obs::TraceSink;

/// The workload scale benches run at (`PSCD_BENCH_SCALE`, default 0.02).
pub fn bench_scale() -> f64 {
    std::env::var("PSCD_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0 && *v <= 1.0)
        .unwrap_or(0.02)
}

/// Builds the shared experiment context at [`bench_scale`] (auto threads).
///
/// # Panics
///
/// Panics if workload generation fails (it cannot for built-in configs).
pub fn bench_context() -> ExperimentContext {
    ExperimentContext::scaled(bench_scale(), 0, TraceSink::disabled())
        .expect("built-in configs generate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_or_defaults() {
        // No env in tests: default.
        assert!(bench_scale() > 0.0 && bench_scale() <= 1.0);
    }
}
