//! Byte-capacity cache substrate and classic replacement policies.
//!
//! This crate provides the access-time caching layer the paper builds on:
//!
//! * [`CacheStore`] — a capacity-limited page store with value-ordered
//!   eviction (eager index-addressable min-heap, [`KeyHeap`]).
//! * [`PageTable`] — the one page-keyed table, a flat array indexed by
//!   page ordinal. A cache told its page-universe size preallocates
//!   every table to it, so the steady-state replay loop performs no heap
//!   allocations; told `0`, it grows on demand.
//! * [`GreedyDualEngine`] — the greedy-dual machinery shared by the whole
//!   policy family: inflation value `L`, In-Cache LFU reference counts,
//!   always-admit and value-gated placement, and the push-time placement
//!   primitive used by the subscription-aware strategies in `pscd-core`.
//! * Classic policies behind the [`CachePolicy`] trait: [`Lru`], [`Gds`]
//!   (GreedyDual-Size), [`LfuDa`] and [`GdStar`] — the last being the
//!   paper's access-time baseline (eq. 1).
//!
//! # Examples
//!
//! ```
//! use pscd_cache::{CachePolicy, GdStar, PageRef};
//! use pscd_types::{Bytes, PageId};
//!
//! let mut cache = GdStar::new(Bytes::from_kib(64), 2.0);
//! let mut evicted = Vec::new();
//! let page = PageRef::new(PageId::new(0), Bytes::new(9_000), 3.0);
//! assert!(cache.access(&page, &mut evicted).is_miss());
//! assert!(cache.access(&page, &mut evicted).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod classic;
mod engine;
mod keyheap;
mod layout;
mod policy;
pub mod snapshot;
mod store;

pub use classic::{GdStar, Gds, LfuDa, Lru};
pub use engine::GreedyDualEngine;
pub use keyheap::{HeapSlot, KeyHeap};
pub use layout::PageTable;
pub use policy::{AccessOutcome, CachePolicy, PageRef};
pub use snapshot::{SnapshotError, SnapshotReader};
pub use store::{CacheStore, StoredPage};
