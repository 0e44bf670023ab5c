//! Publisher↔proxy content-delivery engine for `pscd`.
//!
//! Sits between the matching engine and the per-proxy
//! [`Strategy`](pscd_core::Strategy) instances (paper §2, figure 2): when
//! a page is published, [`DeliveryEngine::publish`] routes it to every
//! matched proxy under one of the two pushing schemes of §5.6
//! ([`PushScheme::Always`] / [`PushScheme::WhenNecessary`]); when a
//! subscriber requests a page, [`DeliveryEngine::request`] serves it from
//! the local cache or fetches from the publisher. Per-proxy [`Traffic`]
//! and hit counters feed the paper's two metrics (hit ratio H and traffic
//! overhead).
//!
//! # Examples
//!
//! ```
//! use pscd_broker::{DeliveryEngine, PushScheme};
//! use pscd_cache::PageUniverse;
//! use pscd_core::StrategyKind;
//! use pscd_obs::{ObsHandle, SharedObserver};
//! use pscd_types::{Bytes, PageId, PageKind, PageMeta, ServerId, SimTime};
//!
//! // One unobserved SUB proxy (over the empty universe, its tables grow
//! // on demand), owning server 0.
//! let sub = StrategyKind::Sub.build(
//!     Bytes::from_kib(16),
//!     &PageUniverse::default(),
//!     ObsHandle::disabled(),
//! );
//! let mut engine = DeliveryEngine::new(
//!     vec![sub],
//!     vec![1.5],
//!     PushScheme::WhenNecessary,
//!     SharedObserver::disabled(),
//!     ServerId::new(0),
//! )?;
//! let page = PageMeta::new(PageId::new(0), Bytes::new(2_048), SimTime::ZERO, PageKind::Original);
//! let mut records = Vec::new();
//! engine.publish(&page, &[(ServerId::new(0), 7)], &mut records);
//! assert!(records[0].stored);
//! # Ok::<(), pscd_broker::BrokerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delivery;
mod error;
mod residency;
mod traffic;

pub use delivery::{DeliveryEngine, PushRecord, PushScheme, RequestRecord};
pub use error::BrokerError;
pub use traffic::Traffic;
