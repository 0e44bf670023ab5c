//! Discrete-event simulator for publish/subscribe content distribution.
//!
//! Replays a [`Workload`](pscd_workload::Workload) (publishing stream +
//! request trace) through a fleet of proxy caches running one
//! [`StrategyKind`](pscd_core::StrategyKind), exactly as the paper's
//! simulator does (§4, figure 2): publish events flow through the
//! matching information into push-time placements; request events hit or
//! miss the local caches; the paper's two metrics — global hit ratio `H`
//! (eq. 8) and publisher→proxy traffic — are collected globally, per
//! proxy and per hour.
//!
//! The replay pipeline has two stages. First the strategy-independent
//! facts of a `(Workload, SubscriptionTable)` pair — timeline order,
//! per-publish fan-out, per-request subscription counts, invalidation
//! lineage — are compiled into [`TraceWindow`]s pulled from a
//! [`ReplaySource`]; then a lineup of strategy × capacity × scheme
//! cells replays those windows through one shared replay loop. One
//! [`Replay`] is a source × a lineup (`&[SimOptions]`), and it is the
//! one way to run one:
//!
//! | source | windows | consumers (members × shards) |
//! |---|---|---|
//! | [`Replay::compiled`] over a [`CompiledTrace`] | one, [`CompiledTrace::full_window`], read in place | one pool fan-out |
//! | [`Replay::streamed`] over a [`StreamingTrace`] | one per slice, drawn and compiled by each consumer | one pool fan-out |
//! | [`Replay::prefetched`] over a [`StreamingTrace`] | [`OwnedWindow`]s compiled once, ahead, on a producer thread | a queue cursor and a thread each |
//!
//! [`Replay::run`] returns one [`SimResult`] per member in lineup order,
//! [`Replay::run_observed`] a merged observer beside each, and
//! [`Replay::traced`] records timeline tracks into a [`TraceSink`].
//! Threads are each member's [`SimOptions::threads`] (auto by default),
//! split across the lineup by [`shard_count`]. [`Simulation`] steps one
//! strategy through a compiled trace event by event. Every source
//! replays to the spec loop's result (`pscd-spec`'s variant table,
//! `crates/spec/tests/variants.rs`, has a row set for each, and one for
//! a lineup of all twelve strategies). [`simulate_compiled`],
//! [`simulate_streamed`] and [`simulate_streamed_prefetched_traced`] are
//! one-member lineups, kept for the repo benchmark's call sites.
//!
//! [`TraceSink`]: pscd_obs::TraceSink
//!
//! Because the proxies are independent caches, one run can also be
//! sharded across threads along the proxy axis ([`SimOptions::threads`]):
//! the fleet is partitioned into contiguous server ranges, each shard
//! replays its sub-timeline in parallel (the same replay loop restricted
//! to a server range), and the shard results merge into totals
//! bit-identical to the sequential replay (the variant table's sharded
//! and sequential rows both equal the spec; see DESIGN.md §7).
//!
//! That loop is [`ReplayState::step`], and it is the workspace's only
//! one: the live broker service (`pscd-service`) resolves each ingest
//! batch into an [`OwnedWindow`] and each of its shards is a
//! [`ReplayState`] stepping through it, so the service and the simulator
//! apply an event through the same code.
//!
//! # Examples
//!
//! ```
//! use pscd_core::StrategyKind;
//! use pscd_sim::{CompiledTrace, Replay, SimOptions};
//! use pscd_topology::FetchCosts;
//! use pscd_workload::{Workload, WorkloadConfig};
//!
//! let workload = Workload::generate(&WorkloadConfig::news_scaled(0.005))?;
//! let trace = CompiledTrace::compile(&workload, &workload.subscriptions(1.0)?)?;
//! let costs = FetchCosts::uniform(workload.server_count());
//! let gd = SimOptions::at_capacity(StrategyKind::GdStar { beta: 2.0 }, 0.05);
//! let results = Replay::compiled(&trace, &costs).run(&[gd])?;
//! println!("GD* hit ratio: {:.1}%", results[0].hit_ratio_percent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod merge;
mod metrics;
pub use pscd_pool as pool;
pub mod prefetch;
pub mod resolve;
mod runner;
mod shard;
pub mod stream;
pub mod trace;
pub mod window;

pub use error::SimError;
pub use metrics::{HourlySeries, SimResult};
pub use prefetch::{
    simulate_streamed_prefetched_traced, PrefetchOptions, PrefetchStats, DEFAULT_PREFETCH_DEPTH,
};
pub use runner::{simulate_compiled, CrashPlan, ReplayState, SimOptions, Simulation, StepEvent};
pub use shard::{shard_count, Replay, ReplaySite, ShardPlan};
pub use stream::{simulate_streamed, StreamingTrace, StreamingWindows};
pub use trace::{CompiledEvent, CompiledEventKind, CompiledTrace};
pub use window::{OwnedWindow, ReplayMeta, ReplaySource, TraceWindow};
