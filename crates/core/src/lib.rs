//! Subscription-aware content-distribution strategies for
//! publish/subscribe services — the primary contribution of Chen, LaPaugh
//! & Singh, *Content Distribution for Publish/Subscribe Services*
//! (Middleware 2003).
//!
//! A proxy server close to a group of subscribers caches published pages.
//! Placement decisions can be made **when a page matches subscriptions**
//! (push time) or **when a user requests it** (access time), and can be
//! valued by **subscription counts** or **observed accesses** — giving the
//! paper's taxonomy (Table 1), all of which this crate implements behind
//! one [`Strategy`] trait:
//!
//! | When \ How | access | subscription | both |
//! |---|---|---|---|
//! | access-time | GD\* (eq. 1; also LRU, GDS, LFU-DA) | | |
//! | push-time | | SUB (eq. 2) | |
//! | both | | | SG1, SG2, SR (eq. 3–5); DM, DC-FP, DC-AP, DC-LAP |
//!
//! The eight strategies that run one cache under one evaluation function
//! — the first two rows and SG1/SG2/SR — are one type, [`SingleCache`],
//! over a value model: its cell of the table as data. The dual strategies
//! are [`DualMethods`] and [`DcAdaptive`] — DC-FP, DC-AP and DC-LAP are
//! one dual cache whose partition starts at a split and may move between
//! two bounds. The paper's five value equations are written once, in one
//! private module that all three types call.
//!
//! [`StrategyKind`] is the config-friendly description of a strategy;
//! [`StrategyKind::build`] makes the one strategy value every proxy
//! holds, a [`StrategyImpl`].
//!
//! # Examples
//!
//! ```
//! use pscd_cache::{PageRef, PageUniverse};
//! use pscd_core::{Strategy, StrategyKind};
//! use pscd_obs::ObsHandle;
//! use pscd_types::{Bytes, PageId};
//!
//! // An SG2 proxy cache: GD* with f = subscriptions - accesses, its page
//! // tables growing on demand (the empty universe), unobserved.
//! let universe = PageUniverse::default();
//! let mut proxy =
//!     StrategyKind::Sg2 { beta: 2.0 }.build(Bytes::from_kib(64), &universe, ObsHandle::disabled());
//!
//! // A fresh page matching 12 subscriptions at this proxy is pushed…
//! let mut evicted = Vec::new();
//! let page = PageRef::new(PageId::new(0), Bytes::new(9_000), 2.0);
//! assert!(proxy.on_push(&page, 12, &mut evicted).is_stored());
//! // …and the first subscriber request is a local hit.
//! assert!(proxy.on_access(&page, 12, &mut evicted).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dcap;
mod dm;
mod kind;
mod single;
mod strategy;
mod value;

pub use dcap::DcAdaptive;
pub use dm::DualMethods;
pub use kind::{StrategyImpl, StrategyKind};
pub use single::SingleCache;
pub use strategy::{AccessOutcome, PageRef, PushOutcome, Strategy, StrategyClass};
