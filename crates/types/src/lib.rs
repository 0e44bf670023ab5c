//! Shared vocabulary types for the `pscd` publish/subscribe content
//! distribution system.
//!
//! This crate defines the identifiers, physical quantities and trace
//! containers that every other `pscd` crate speaks:
//!
//! * [`PageId`] / [`ServerId`] — strongly typed identifiers for published
//!   pages (content objects) and proxy servers.
//! * [`SimTime`] — simulation time with millisecond resolution.
//! * [`Bytes`] — content and cache sizes.
//! * [`PageMeta`] — immutable metadata of a published page (size, publish
//!   time, lineage of modified versions).
//! * [`PublishEvent`] / [`RequestEvent`] and the sorted trace containers
//!   [`PublishingStream`] / [`RequestTrace`].
//! * [`SubscriptionTable`] — per-(page, server) subscription counts, the
//!   static matching information consumed by push-time strategies.
//! * [`counters`] and [`count!`] — exact work counters that every library
//!   crate bumps where the work is done; compiled in only with this
//!   crate's `counters` cargo feature, which turns on every crate's count
//!   sites, and nothing at all without it.
//!
//! # Examples
//!
//! ```
//! use pscd_types::{Bytes, PageId, ServerId, SimTime};
//!
//! let t = SimTime::from_hours(3) + SimTime::from_secs(30);
//! assert_eq!(t.hour_index(), 3);
//! let total = Bytes::new(1024) + Bytes::new(512);
//! assert_eq!(total.as_u64(), 1536);
//! let (p, s) = (PageId::new(7), ServerId::new(2));
//! assert_eq!(format!("{p}@{s}"), "page7@server2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bytes;
pub mod counters;
mod error;
mod event;
mod id;
mod page;
mod subs;
mod time;
mod trace;

pub use bytes::Bytes;
pub use error::TraceError;
pub use event::{LiveEvent, PublishEvent, RequestEvent};
pub use id::{PageId, ServerId};
pub use page::{PageKind, PageMeta};
pub use subs::{SubscriptionTable, SubscriptionTableBuilder};
pub use time::SimTime;
pub use trace::{PublishingStream, RequestTrace, TraceStats};
