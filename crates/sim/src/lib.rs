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
//! [`ReplaySource`]; then any number of strategy × capacity × scheme
//! cells replay those windows through one shared replay loop. The
//! materialized source compiles everything **once** into an immutable
//! [`CompiledTrace`] — the trace-wide [`ReplayMeta`] plus one
//! [`OwnedWindow`] spanning the timeline — and replays it by reference as
//! one window ([`simulate_compiled`]); the streaming source ([`StreamingTrace`])
//! generates and compiles each slice (at most one window long, at most a
//! budget of drawn events) lazily from the workload config, so peak
//! memory is bounded by the slice, not the trace
//! ([`simulate_streamed`]), and the pipelined variant
//! ([`simulate_streamed_prefetched_traced`]) overlaps that lazy compile
//! with replay through a bounded compile-ahead prefetcher. All three
//! replay to the spec loop's result (`pscd-spec`'s variant table,
//! `crates/spec/tests/variants.rs`, has a row set for each).
//!
//! The replay entry points, one per source:
//!
//! | source | windows | whole run | observed / stepped |
//! |---|---|---|---|
//! | [`CompiledTrace`] | one, [`CompiledTrace::full_window`] | [`simulate_compiled`] | [`simulate_observed_sharded`], [`Simulation::from_compiled`], [`Simulation::from_compiled_observed`] |
//! | [`StreamingTrace`], serial | one per slice, into one reused [`OwnedWindow`] | [`simulate_streamed`] | — |
//! | [`StreamingTrace`], prefetched | [`OwnedWindow`]s compiled ahead on a producer thread | [`simulate_streamed_prefetched_traced`] | — |
//!
//! Threads are [`SimOptions::threads`] (auto by default, resolved per
//! source by [`shard_count`]); tracing is a [`TraceSink`] argument (pass
//! [`TraceSink::disabled`] for none).
//!
//! [`TraceSink`]: pscd_obs::TraceSink
//! [`TraceSink::disabled`]: pscd_obs::TraceSink::disabled
//!
//! Because the proxies are independent caches, one run can also be
//! sharded across threads along the proxy axis ([`SimOptions::threads`]):
//! the fleet is partitioned into contiguous server ranges, each shard
//! replays its sub-timeline in parallel (the same replay loop restricted
//! to a server range), and the shard results merge into totals
//! bit-identical to the sequential replay (the variant table's sharded
//! and sequential rows both equal the spec; see DESIGN.md).
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
//! use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions};
//! use pscd_topology::FetchCosts;
//! use pscd_workload::{Workload, WorkloadConfig};
//!
//! let workload = Workload::generate(&WorkloadConfig::news_scaled(0.005))?;
//! let trace = CompiledTrace::compile(&workload, &workload.subscriptions(1.0)?)?;
//! let costs = FetchCosts::uniform(workload.server_count());
//! let gd = simulate_compiled(&trace, &costs,
//!     &SimOptions::at_capacity(StrategyKind::GdStar { beta: 2.0 }, 0.05))?;
//! println!("GD* hit ratio: {:.1}%", gd.hit_ratio_percent());
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
pub use runner::{
    simulate_compiled, simulate_observed_sharded, CrashPlan, ReplayState, SimOptions, Simulation,
    StepEvent,
};
pub use shard::{shard_count, ReplaySite, ShardPlan};
pub use stream::{simulate_streamed, StreamingTrace, StreamingWindows};
pub use trace::{CompiledEvent, CompiledEventKind, CompiledTrace};
pub use window::{OwnedWindow, ReplayMeta, ReplaySource, TraceWindow};
