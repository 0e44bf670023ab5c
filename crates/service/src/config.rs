//! Service configuration and errors.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use pscd_broker::{BrokerError, PushScheme};
use pscd_cache::SnapshotError;
use pscd_core::StrategyKind;
use pscd_topology::FetchCosts;
use pscd_types::{Bytes, PageMeta};

/// Configuration of a live broker service: the same strategy/capacity/
/// scheme knobs a batch simulation takes, plus the service-only knobs —
/// worker count, ingest batch size, snapshot cadence and persistence
/// directory.
///
/// The page universe is fixed up front ([`ServiceConfig::pages`]): like
/// the batch replay, the service runs every per-page table in dense
/// layout so the steady-state ingest path performs no heap allocation.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The content-distribution strategy run at every proxy.
    pub strategy: StrategyKind,
    /// Per-proxy cache capacities (the fleet size is `capacities.len()`).
    pub capacities: Vec<Bytes>,
    /// Per-proxy fetch costs, each finite and positive; must match
    /// `capacities` in length.
    pub costs: Vec<f64>,
    /// The pushing scheme (paper §5.6).
    pub scheme: PushScheme,
    /// Drop the previous version of an article from every cache when a
    /// modified version is published.
    pub invalidate_stale: bool,
    /// The page universe, indexed by page id. Shared (not copied) with
    /// every worker.
    pub pages: Arc<[PageMeta]>,
    /// Hourly accounting buckets to preallocate.
    pub hours: usize,
    /// Threads stepping the proxy fleet, one shard each, every shard over
    /// a contiguous server range (`0`, the default, picks the machine's
    /// parallelism, clamped to the fleet). Shard 0, the first range, steps
    /// on the ingesting thread, and a worker thread steps each later one:
    /// `1` spawns no worker, and shard 0 is the whole fleet. Until a
    /// matcher is attached shard 0 is smaller than the others, since the
    /// ingesting thread also resolves every event.
    pub workers: usize,
    /// Events buffered per dispatch to the shards.
    pub batch_size: usize,
    /// Take a state snapshot every this many ingested events
    /// (`0` disables snapshots; a journal-only service recovers by
    /// replaying from the start).
    pub snapshot_every: u64,
    /// Persistence directory for the event journal and snapshots.
    /// `None` runs fully in memory (no durability, no recovery).
    pub dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// An in-memory service configuration over every core (`workers: 0`);
    /// durability is opted into, and the thread count set, via the
    /// builder methods.
    pub fn new(
        strategy: StrategyKind,
        capacities: Vec<Bytes>,
        costs: Vec<f64>,
        scheme: PushScheme,
        pages: Arc<[PageMeta]>,
        hours: usize,
    ) -> Self {
        Self {
            strategy,
            capacities,
            costs,
            scheme,
            invalidate_stale: false,
            pages,
            hours,
            workers: 0,
            batch_size: 256,
            snapshot_every: 0,
            dir: None,
        }
    }

    /// Sets the worker-thread count (see [`ServiceConfig::workers`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the ingest batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables persistence: journal to `dir`, snapshot every
    /// `snapshot_every` events (`0` = journal only).
    #[must_use]
    pub fn with_persistence(mut self, dir: PathBuf, snapshot_every: u64) -> Self {
        self.dir = Some(dir);
        self.snapshot_every = snapshot_every;
        self
    }

    /// Enables stale-version invalidation.
    #[must_use]
    pub fn with_invalidation(mut self) -> Self {
        self.invalidate_stale = true;
        self
    }

    /// Number of proxy servers.
    pub fn server_count(&self) -> u16 {
        self.capacities.len() as u16
    }

    /// Rejects structurally invalid configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] when a field violates its
    /// constraint.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.checked_costs().map(drop)
    }

    /// [`validate`](ServiceConfig::validate)s the configuration and
    /// returns its fetch costs as the replay takes them.
    pub(crate) fn checked_costs(&self) -> Result<FetchCosts, ServiceError> {
        if self.capacities.is_empty() {
            return Err(ServiceError::Config {
                what: "capacities",
                constraint: "at least one proxy",
            });
        }
        if self.capacities.len() > u16::MAX as usize {
            return Err(ServiceError::Config {
                what: "capacities",
                constraint: "at most u16::MAX proxies",
            });
        }
        if self.costs.len() != self.capacities.len() {
            return Err(ServiceError::Config {
                what: "costs",
                constraint: "one cost per proxy",
            });
        }
        if self.batch_size == 0 {
            return Err(ServiceError::Config {
                what: "batch_size",
                constraint: ">= 1",
            });
        }
        if self.hours == 0 {
            return Err(ServiceError::Config {
                what: "hours",
                constraint: ">= 1",
            });
        }
        self.strategy
            .check()
            .map_err(|(what, constraint)| ServiceError::Config { what, constraint })?;
        FetchCosts::from_values(self.costs.clone()).map_err(|_| ServiceError::Config {
            what: "costs",
            constraint: "finite and > 0",
        })
    }
}

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// A configuration field violates its constraint.
    Config {
        /// The offending field.
        what: &'static str,
        /// The constraint it violates.
        constraint: &'static str,
    },
    /// An event referenced a page outside the configured universe.
    UnknownPage {
        /// The page index the event carried.
        page: u32,
        /// The configured page-universe size.
        pages: usize,
    },
    /// An event referenced a server outside the fleet.
    UnknownServer {
        /// The server index the event carried.
        server: u16,
        /// The fleet size.
        servers: u16,
    },
    /// A delivery-engine operation failed.
    Broker(BrokerError),
    /// A snapshot could not be encoded or decoded.
    Snapshot(SnapshotError),
    /// Journal or snapshot file I/O failed.
    Io(std::io::Error),
    /// A persisted file is structurally invalid.
    CorruptFile(&'static str),
    /// A shard's worker thread panicked; the service cannot go on.
    WorkerPanicked {
        /// The shard's index in the fleet.
        shard: usize,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config { what, constraint } => {
                write!(f, "invalid service config: {what} must be {constraint}")
            }
            ServiceError::UnknownPage { page, pages } => {
                write!(
                    f,
                    "event references page {page} outside universe of {pages}"
                )
            }
            ServiceError::UnknownServer { server, servers } => {
                write!(
                    f,
                    "event references server {server} outside fleet of {servers}"
                )
            }
            ServiceError::Broker(e) => write!(f, "broker error: {e}"),
            ServiceError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServiceError::Io(e) => write!(f, "service i/o error: {e}"),
            ServiceError::CorruptFile(what) => write!(f, "corrupt service file: {what}"),
            ServiceError::WorkerPanicked { shard, message } => {
                write!(f, "the worker of shard {shard} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Broker(e) => Some(e),
            ServiceError::Snapshot(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BrokerError> for ServiceError {
    fn from(e: BrokerError) -> Self {
        ServiceError::Broker(e)
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::Snapshot(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{PageId, PageKind, SimTime};

    fn pages(n: u32) -> Arc<[PageMeta]> {
        (0..n)
            .map(|i| {
                PageMeta::new(
                    PageId::new(i),
                    Bytes::new(100),
                    SimTime::ZERO,
                    PageKind::Original,
                )
            })
            .collect()
    }

    fn base() -> ServiceConfig {
        ServiceConfig::new(
            StrategyKind::Sg2 { beta: 2.0 },
            vec![Bytes::new(1_000); 4],
            vec![1.0; 4],
            PushScheme::Always,
            pages(8),
            24,
        )
    }

    #[test]
    fn valid_config_passes() {
        assert!(base().validate().is_ok());
        assert_eq!(base().server_count(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = base();
        c.costs.pop();
        assert!(matches!(
            c.validate(),
            Err(ServiceError::Config { what: "costs", .. })
        ));
        let mut c = base();
        c.capacities.clear();
        c.costs.clear();
        assert!(c.validate().is_err());
        let c = base().with_batch_size(0);
        assert!(c.validate().is_err());
        let mut c = base();
        c.hours = 0;
        assert!(c.validate().is_err());
        // Regression: the simulator refuses these costs, and the service
        // started on them.
        for cost in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let mut c = base();
            c.costs[1] = cost;
            assert!(matches!(
                c.validate(),
                Err(ServiceError::Config { what: "costs", .. })
            ));
            assert!(matches!(
                crate::ServiceCore::new(c),
                Err(ServiceError::Config { what: "costs", .. })
            ));
        }
    }

    /// Regression: these panicked in a strategy constructor — with
    /// `workers > 1` on a worker thread, whose join swallowed it.
    #[test]
    fn invalid_strategy_parameters_are_a_config_error() {
        let bad = [
            (
                StrategyKind::DcFp {
                    beta: 2.0,
                    pc_fraction: 1.5,
                },
                "pc_fraction",
            ),
            (
                StrategyKind::DcLap {
                    beta: 2.0,
                    lo: 0.8,
                    hi: 0.9,
                },
                "lo and hi",
            ),
            (StrategyKind::GdStar { beta: f64::NAN }, "beta"),
        ];
        for (strategy, parameter) in bad {
            for workers in [1, 2] {
                let mut c = base().with_workers(workers);
                c.strategy = strategy;
                let err = crate::ServiceCore::new(c).err();
                assert!(
                    matches!(err, Some(ServiceError::Config { what, .. }) if what == parameter),
                    "{workers} workers, {strategy:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn errors_display() {
        let e = ServiceError::Config {
            what: "hours",
            constraint: ">= 1",
        };
        assert_eq!(e.to_string(), "invalid service config: hours must be >= 1");
        let e = ServiceError::WorkerPanicked {
            shard: 2,
            message: "boom".to_owned(),
        };
        assert!(e.to_string().contains("shard 2 panicked: boom"));
        assert!(ServiceError::CorruptFile("bad magic")
            .to_string()
            .contains("bad magic"));
    }
}
