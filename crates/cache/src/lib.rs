//! Byte-capacity cache substrate: a store, its heap, a page → count map
//! and the greedy-dual engine.
//!
//! This crate provides the caching layer the paper's strategies are
//! built on:
//!
//! * [`CacheStore`] — a capacity-limited page store with value-ordered
//!   eviction (an eager handle-addressed min-heap of [`HeapSlot`]s).
//! * [`PageUniverse`] — the pages a cache is built over. A store over it
//!   reserves room for the most pages its capacity can hold, so the
//!   replay loop performs no heap allocations; over the empty universe
//!   it grows on demand.
//! * [`PageCounts`] — a count per page for state that outlives a
//!   residency, with rows only for the pages ever counted; over a
//!   universe its storage is reserved for every page and never moves.
//! * [`GreedyDualEngine`] — the greedy-dual machinery shared by the whole
//!   policy family: inflation value `L`, In-Cache LFU reference counts,
//!   always-admit and value-gated placement, the push-time placement
//!   primitive and its test ([`would_admit`](GreedyDualEngine::would_admit)).
//!
//! There are no policy types here. A replacement policy is a value
//! function handed to the engine per call; LRU, GDS, LFU-DA and GD\* —
//! the paper's access-time baseline (eq. 1) — are strategy kinds of
//! `pscd-core` (`StrategyKind::Lru.build(capacity, &universe, obs)`), beside the
//! subscription-aware ones.
//!
//! # Examples
//!
//! ```
//! use pscd_cache::{GreedyDualEngine, PageRef};
//! use pscd_types::{Bytes, PageId};
//!
//! // LRU in the greedy-dual framework: V(p) = L + 1.
//! let mut lru = GreedyDualEngine::new(Bytes::new(20));
//! let mut evicted = Vec::new();
//! let [a, b, c] = [1, 2, 3].map(|i| PageRef::new(PageId::new(i), Bytes::new(10), 1.0));
//! lru.access(&a, |_, l| l + 1.0, &mut evicted);
//! lru.access(&b, |_, l| l + 1.0, &mut evicted);
//! assert!(lru.access(&a, |_, l| l + 1.0, &mut evicted).is_hit()); // refresh a
//! lru.access(&c, |_, l| l + 1.0, &mut evicted); // evicts b, the least recently used
//! assert_eq!(evicted, [b.page]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counts;
mod engine;
mod index;
mod keyheap;
mod policy;
pub mod snapshot;
mod store;

pub use counts::PageCounts;
pub use engine::GreedyDualEngine;
pub use index::PageUniverse;
pub use keyheap::HeapSlot;
pub use policy::{AccessOutcome, PageRef};
pub use snapshot::{SnapshotError, SnapshotReader};
pub use store::{CacheStore, StoredPage};
