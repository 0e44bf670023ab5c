//! Live broker service mode for publish/subscribe content distribution.
//!
//! Runs the same [`DeliveryEngine`](pscd_broker::DeliveryEngine) +
//! [`StrategyKind`](pscd_core::StrategyKind) machinery the batch
//! simulator replays, but as a long-lived process: events arrive one at
//! a time through [`ServiceCore::ingest_all`] (no pre-merged timeline),
//! the core resolves each event against the live subscription rows and
//! version lineage into the simulator's window buffer
//! ([`OwnedWindow`](pscd_sim::OwnedWindow)), and every shard of the proxy
//! fleet is a [`ReplayState`](pscd_sim::ReplayState) that steps through
//! each batch — the **same** step the batch replay runs, which is why the
//! service's final accounting and cache contents are bit-identical to
//! a [`Replay`](pscd_sim::Replay) over the same events (the `service_differential`
//! suite checks this for every strategy). By default the fleet is split
//! into a shard per core ([`ServiceConfig::workers`]): the calling thread
//! resolves each batch and steps shard 0, worker threads fed over bounded
//! inboxes step the others, and a worker's panic comes back as
//! [`ServiceError::WorkerPanicked`]. Shard 0 is smaller than the others,
//! since the calling thread also resolves every event: it starts three
//! tenths of the fleet's step ahead. Attaching a content matcher moves
//! the shards to equal ranges, each matching the batch for its own
//! proxies.
//!
//! Durability is a write-ahead event journal plus periodic state
//! snapshots (serialized dense cache state + accounting). A killed
//! service recovers by restoring the last snapshot and replaying the
//! journal suffix; the crash-recovery property suite kills services at
//! arbitrary journal offsets and checks convergence to the uncrashed
//! run. See DESIGN.md §12 for the architecture.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pscd_broker::PushScheme;
//! use pscd_core::StrategyKind;
//! use pscd_service::{ServiceConfig, ServiceCore};
//! use pscd_types::{Bytes, LiveEvent, PageId, PageKind, PageMeta, ServerId, SimTime};
//!
//! let pages: Arc<[PageMeta]> = (0..4u32)
//!     .map(|i| PageMeta::new(PageId::new(i), Bytes::new(10), SimTime::ZERO, PageKind::Original))
//!     .collect();
//! let config = ServiceConfig::new(
//!     StrategyKind::Sg2 { beta: 2.0 },
//!     vec![Bytes::new(100); 2],
//!     vec![1.0; 2],
//!     PushScheme::Always,
//!     pages,
//!     1,
//! );
//! let mut service = ServiceCore::new(config)?;
//! service.ingest(LiveEvent::Subscribe {
//!     page: PageId::new(0), server: ServerId::new(0), count: 3,
//! })?;
//! service.ingest(LiveEvent::Publish { time: SimTime::ZERO, page: PageId::new(0) })?;
//! service.ingest(LiveEvent::Request {
//!     time: SimTime::from_secs(1), server: ServerId::new(0), page: PageId::new(0),
//! })?;
//! let outcome = service.shutdown()?;
//! assert_eq!(outcome.result.requests, 1);
//! # Ok::<(), pscd_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balance;
mod config;
mod core;
mod journal;
mod kept;
mod load;
mod wire;
mod worker;

pub use config::{ServiceConfig, ServiceError};
pub use core::{ServiceCore, ServiceOutcome};
pub use load::{run_load, LoadReport};

#[cfg(test)]
mod test_support;
