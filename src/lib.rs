//! # pscd — Content Distribution for Publish/Subscribe Services
//!
//! A complete Rust implementation of Chen, LaPaugh & Singh, *"Content
//! Distribution for Publish/Subscribe Services"* (Middleware 2003):
//! subscription-aware caching/content-delivery strategies for
//! publish/subscribe systems, plus every substrate the paper's evaluation
//! needs — an MSNBC-calibrated synthetic workload generator, a BRITE-style
//! topology generator, a content-based matching engine, a
//! publisher/proxy delivery engine, and a discrete-event simulator that
//! regenerates all of the paper's tables and figures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `pscd-types` | ids, time, sizes, traces, subscription tables |
//! | [`topology`] | `pscd-topology` | Waxman / Barabási–Albert graphs, fetch costs |
//! | [`matching`] | `pscd-matching` | predicate subscriptions, frozen match kernel |
//! | [`workload`] | `pscd-workload` | NEWS / ALTERNATIVE synthetic traces |
//! | [`cache`] | `pscd-cache` | cache substrate: store, heap, page → count map, greedy-dual engine |
//! | [`strategies`] | `pscd-core` | LRU, GDS, LFU-DA, GD\*, SUB, SG1, SG2, SR, DM, DC-FP, DC-AP, DC-LAP |
//! | [`broker`] | `pscd-broker` | delivery engine, pushing schemes, traffic |
//! | [`sim`] | `pscd-sim` | simulator and metrics |
//! | [`experiments`] | `pscd-experiments` | every exhibit as an `Exhibit` spec, its runner and renderers, the paper's claims |
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use pscd::{
//!     CompiledTrace, FetchCosts, Replay, SimOptions, StrategyKind, Workload, WorkloadConfig,
//! };
//!
//! // 1. Generate a (scaled-down) news workload: publishing stream,
//! //    request trace and subscription model; compile it once.
//! let workload = Workload::generate(&WorkloadConfig::news_scaled(0.01))?;
//! let subscriptions = workload.subscriptions(1.0)?;
//! let trace = CompiledTrace::compile(&workload, &subscriptions)?;
//! let costs = FetchCosts::uniform(workload.server_count());
//!
//! // 2. Replay the paper's best combined strategy (SG2) against the
//! //    access-only baseline (GD*): one lineup over the same events.
//! let lineup = [StrategyKind::Sg2 { beta: 2.0 }, StrategyKind::GdStar { beta: 2.0 }]
//!     .map(|kind| SimOptions::at_capacity(kind, 0.05));
//! let results = Replay::compiled(&trace, &costs).run(&lineup)?;
//! let (sg2, gd) = (&results[0], &results[1]);
//!
//! // 3. Subscription-aware pushing raises the local hit ratio.
//! assert!(sg2.hit_ratio() > gd.hit_ratio());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pscd_broker as broker;
pub use pscd_cache as cache;
pub use pscd_core as strategies;
pub use pscd_experiments as experiments;
pub use pscd_matching as matching;
pub use pscd_sim as sim;
pub use pscd_topology as topology;
pub use pscd_types as types;
pub use pscd_workload as workload;

pub use pscd_broker::{DeliveryEngine, PushScheme, Traffic};
pub use pscd_cache::PageRef;
pub use pscd_core::{Strategy, StrategyKind};
pub use pscd_experiments::ExperimentContext;
pub use pscd_matching::{Content, Predicate, Subscription, Value};
pub use pscd_sim::{CompiledTrace, CrashPlan, Replay, SimOptions, SimResult};
pub use pscd_topology::{FetchCosts, GraphModel, TopologyBuilder};
pub use pscd_types::{Bytes, PageId, PageMeta, ServerId, SimTime, SubscriptionTable};
pub use pscd_workload::{Workload, WorkloadConfig};
