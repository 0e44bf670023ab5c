//! Synthetic publish/subscribe workloads modeled on MSNBC dynamics.
//!
//! No public publish/subscribe workloads exist (a core difficulty the paper
//! calls out), so this crate regenerates the paper's synthetic workload
//! (§4) from the published MSNBC observations of Padmanabhan & Qiu
//! (SIGCOMM 2000):
//!
//! * **Publishing stream** ([`generate_publishing`]): 30,147 pages over 7
//!   days — 6,000 distinct originals, 2,400 of which accumulate ~24,000
//!   modified versions at fixed per-page intervals drawn from a step-wise
//!   distribution; log-normal page sizes.
//! * **Request stream** ([`generate_requests`]): ~195,000 requests across
//!   100 proxies; Zipf popularity (α = 1.5 for the NEWS trace, 1.0 for
//!   ALTERNATIVE); age-decaying request times per popularity class;
//!   popularity-sized per-day server pools with 60% day-over-day overlap.
//! * **Subscriptions** ([`generate_subscriptions`]): per-(page, server)
//!   counts derived from the request trace through the subscription-quality
//!   model (eq. 7).
//!
//! [`Workload`] bundles the three, and [`ContentModel`] optionally dresses
//! pages with news-like attributes for the content-based matching engine.
//!
//! Every draw comes from a per-entity substream ([`seeds`]), so
//! [`RequestStream`] can redraw any page's requests alone, bit for bit:
//! the streaming replay draws one window's pages at a time. A page's draw
//! computes its per-page terms once (the age law's span term, one
//! pool-membership bitset per day roll) and works in a [`PageScratch`]
//! the caller's loop owns, so drawing pages in a loop stops allocating
//! once the scratch has grown to the largest page.
//!
//! # Examples
//!
//! ```
//! use pscd_workload::{Workload, WorkloadConfig};
//!
//! // 1% scale of the paper's NEWS trace — fast enough for tests.
//! let w = Workload::generate(&WorkloadConfig::news_scaled(0.01))?;
//! let subs = w.subscriptions(1.0)?;
//! let capacities = w.cache_capacities(0.05);
//! assert_eq!(capacities.len(), w.server_count() as usize);
//! assert_eq!(subs.page_count(), w.pages().len());
//! # Ok::<(), pscd_workload::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod content;
mod dist;
mod error;
pub mod io;
mod publishing;
mod requests;
mod scenario;
pub mod seeds;
mod subscriptions;
mod workload;

pub use content::{matcher_from_table, ContentModel, CATEGORIES, TAGS};
pub use dist::{AgeDecay, LogNormal, StepwiseInterval, Zipf};
pub use error::WorkloadError;
pub use publishing::{generate_publishing, PublishingConfig, PublishingOutput};
pub use requests::{
    generate_requests, popularity_class, popularity_class_shifted, PageScratch, RequestConfig,
    RequestStream,
};
pub use scenario::{DiurnalCycle, FlashCrowd, ScenarioConfig, ScenarioError, TimeWarp};
pub use subscriptions::{
    generate_subscriptions, generate_subscriptions_from_counts, request_groups,
};
pub use workload::{Workload, WorkloadConfig};
