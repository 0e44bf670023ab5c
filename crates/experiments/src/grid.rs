//! Parallel execution of simulation grids.
//!
//! Built on [`pscd_sim::pool`], the same worker-pool primitives the
//! simulator's intra-run sharding uses, so the two layers of parallelism
//! share one implementation of work distribution and ordering.
//!
//! A grid runs over **compiled** traces: every cell of a strategy ×
//! capacity × scheme sweep references the same immutable
//! [`CompiledTrace`], so the timeline merge, fan-out resolution and
//! lineage analysis are paid once per workload rather than once per cell
//! (see [`ExperimentContext::compiled`](crate::ExperimentContext::compiled)).

use pscd_sim::pool::{effective_threads, parallel_indexed};
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{shard_count, simulate_compiled, ReplaySite, SimOptions, SimResult};
use pscd_topology::FetchCosts;

use crate::ExperimentError;

/// One cell of a simulation grid: a compiled trace (one per workload ×
/// subscription quality, shared by reference across cells) plus the run
/// options.
pub type GridJob<'a> = (&'a CompiledTrace, SimOptions);

/// Runs a batch of simulations on up to `threads` pool workers (`0` = auto,
/// machine parallelism; `1` = serial), preserving job order in the
/// results.
///
/// Each cell replays its (shared, immutable) compiled trace through its
/// own proxy fleet, so the grid parallelizes perfectly; the paper's
/// largest sweep (the β tuning of §5.1: 126 runs) completes in seconds.
/// Grid-level workers compose with intra-run sharding (each job's
/// [`SimOptions::threads`]). A job left at auto takes one shard
/// ([`ReplaySite::GridCell`]): the grid parallelizes across cells instead,
/// which avoids oversubscription.
///
/// # Errors
///
/// Returns the first simulation error encountered (the remaining jobs are
/// still drained).
pub fn run_grid(
    costs: &FetchCosts,
    jobs: &[GridJob<'_>],
    threads: usize,
) -> Result<Vec<SimResult>, ExperimentError> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    if pscd_sim::pool::spans::is_enabled() {
        // Under `repro --trace` each grid cell shows up as one pool task
        // span; label the fan-out so the timeline reads correctly.
        pscd_sim::pool::spans::set_phase("grid.cell");
    }
    let threads = effective_threads(threads, jobs.len());
    parallel_indexed(jobs.len(), threads, |i| {
        let (trace, options) = &jobs[i];
        let servers = trace.meta().server_count();
        let shards = shard_count(options.threads, servers, ReplaySite::GridCell);
        simulate_compiled(trace, costs, &options.with_threads(shards))
    })
    .into_iter()
    .map(|r| r.map_err(ExperimentError::from))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_core::StrategyKind;
    use pscd_topology::FetchCosts;
    use pscd_workload::Workload;

    fn fixture() -> (Workload, CompiledTrace, FetchCosts) {
        let w = Workload::generate(&pscd_workload::WorkloadConfig::news_scaled(0.003)).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        (w, trace, costs)
    }

    #[test]
    fn grid_matches_serial_runs() {
        let (w, trace, costs) = fixture();
        let options = [
            SimOptions::at_capacity(StrategyKind::GdStar { beta: 2.0 }, 0.05),
            SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05),
            SimOptions::at_capacity(StrategyKind::Sub, 0.01),
        ];
        let jobs: Vec<GridJob> = options.iter().map(|&o| (&trace, o)).collect();
        let parallel = run_grid(&costs, &jobs, 0).unwrap();
        // The grid over one shared trace must match compiling a trace here
        // and replaying it cell by cell.
        let fresh = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
        for (job, out) in jobs.iter().zip(&parallel) {
            let serial = simulate_compiled(&fresh, &costs, &job.1.with_threads(1)).unwrap();
            assert_eq!(&serial, out);
        }
    }

    #[test]
    fn pool_size_does_not_change_results() {
        let (_w, trace, costs) = fixture();
        let options = [
            SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05),
            SimOptions::at_capacity(StrategyKind::Sub, 0.05),
            // A cell that itself shards: grid workers and intra-run
            // shard workers must compose without changing totals.
            SimOptions::at_capacity(StrategyKind::GdStar { beta: 2.0 }, 0.05).with_threads(3),
        ];
        let jobs: Vec<GridJob> = options.iter().map(|&o| (&trace, o)).collect();
        let serial = run_grid(&costs, &jobs, 1).unwrap();
        for threads in [0, 2, 4] {
            let pooled = run_grid(&costs, &jobs, threads).unwrap();
            assert_eq!(serial, pooled, "grid threads={threads}");
        }
    }

    #[test]
    fn empty_grid_is_empty() {
        let (_w, _trace, costs) = fixture();
        assert!(run_grid(&costs, &[], 0).unwrap().is_empty());
    }

    #[test]
    fn errors_propagate() {
        let (_w, trace, _costs) = fixture();
        let bad_costs = FetchCosts::uniform(3); // wrong size
        let jobs: Vec<GridJob> = vec![(&trace, SimOptions::at_capacity(StrategyKind::Sub, 0.05))];
        assert!(run_grid(&bad_costs, &jobs, 0).is_err());
    }
}
