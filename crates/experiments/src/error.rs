//! Experiment errors.

use std::error::Error;
use std::fmt;

use pscd_sim::SimError;
use pscd_topology::TopologyError;
use pscd_workload::WorkloadError;

/// Error produced while preparing or running an experiment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Workload generation failed.
    Workload(WorkloadError),
    /// Topology/cost generation failed.
    Topology(TopologyError),
    /// A simulation run failed.
    Sim(SimError),
    /// Reading or writing a file failed; the detail names the path.
    Io(String),
    /// A live service run failed (rendered, since service errors carry
    /// non-cloneable I/O sources).
    Service(String),
    /// An observer's aggregate totals disagreed with the simulation's own
    /// accounting — an instrumentation bug, never expected in a release.
    ObserverMismatch {
        /// Strategy whose replay disagreed.
        strategy: String,
        /// Which total disagreed and the two values.
        detail: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Workload(e) => write!(f, "workload generation failed: {e}"),
            ExperimentError::Topology(e) => write!(f, "topology generation failed: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::Io(detail) => write!(f, "I/O failed: {detail}"),
            ExperimentError::Service(detail) => write!(f, "service run failed: {detail}"),
            ExperimentError::ObserverMismatch { strategy, detail } => {
                write!(
                    f,
                    "observer disagrees with the {strategy} simulation: {detail}"
                )
            }
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Workload(e) => Some(e),
            ExperimentError::Topology(e) => Some(e),
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::Io(_)
            | ExperimentError::Service(_)
            | ExperimentError::ObserverMismatch { .. } => None,
        }
    }
}

impl From<WorkloadError> for ExperimentError {
    fn from(e: WorkloadError) -> Self {
        ExperimentError::Workload(e)
    }
}

impl From<TopologyError> for ExperimentError {
    fn from(e: TopologyError) -> Self {
        ExperimentError::Topology(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<pscd_service::ServiceError> for ExperimentError {
    fn from(e: pscd_service::ServiceError) -> Self {
        ExperimentError::Service(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_displays_sources() {
        let e = ExperimentError::from(WorkloadError::InvalidConfig {
            field: "x",
            constraint: "y",
        });
        assert!(e.to_string().contains("workload"));
        assert!(e.source().is_some());
        let e = ExperimentError::from(TopologyError::TooFewNodes { nodes: 1 });
        assert!(e.to_string().contains("topology"));
        let e = ExperimentError::from(SimError::InvalidOption {
            option: "o",
            constraint: "c",
        });
        assert!(e.to_string().contains("simulation"));
        let e = ExperimentError::from(pscd_service::ServiceError::WorkerPanicked {
            shard: 1,
            message: "boom".to_owned(),
        });
        assert!(e.to_string().contains("service"));
        assert!(e.source().is_none());
    }
}
