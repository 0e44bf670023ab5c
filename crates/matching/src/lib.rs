//! Content-based subscription matching for publish/subscribe systems.
//!
//! The paper's architecture (§2) contains a **matching engine** that, when a
//! page is published, determines which subscribers' interest profiles match
//! it; the content-distribution strategies then only consume the *count* of
//! matching subscriptions per (page, proxy). This crate provides both layers:
//!
//! * A full **content-based matching engine**: subscriptions are
//!   conjunctions of [`Predicate`]s over typed page attributes
//!   ([`Content`]). [`EngineMatcher`] owns every proxy's subscriptions and
//!   every page's content, both interned once into symbols, and freezes
//!   the subscriptions into one [`FrozenIndex`], an access-predicate kernel
//!   in the style of Fabret et al. (SIGMOD'01).
//! * The [`Matcher`] abstraction consumed by the broker and simulator:
//!   [`EngineMatcher`] runs the real engine over registered content, while
//!   [`TableMatcher`] wraps a precomputed
//!   [`SubscriptionTable`](pscd_types::SubscriptionTable) — which is what
//!   the paper's synthetic workload produces (only counts are modeled,
//!   §4.3).
//!
//! # Examples
//!
//! ```
//! use pscd_matching::{Content, EngineMatcher, Matcher, Predicate, Subscription, Value};
//! use pscd_types::{PageId, ServerId};
//!
//! let mut m = EngineMatcher::new(1);
//! let sports = Subscription::new(vec![
//!     Predicate::eq("category", Value::str("sports")),
//!     Predicate::contains("tags", "tennis"),
//! ]);
//! m.subscribe(ServerId::new(0), sports)?;
//! m.freeze();
//!
//! let page = Content::new()
//!     .with("category", Value::str("sports"))
//!     .with("tags", Value::tags(["tennis", "us-open"]));
//! m.register_page(PageId::new(0), page);
//! assert_eq!(m.matched_servers(PageId::new(0)), vec![(ServerId::new(0), 1)]);
//! # Ok::<(), pscd_matching::MatchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod content;
mod error;
mod frozen;
mod matcher;
mod predicate;
mod subscription;
mod symbol;

pub use content::{Content, Value};
pub use error::MatchError;
pub use frozen::{FrozenIndex, MatchScratch};
pub use matcher::{EngineMatcher, Matcher, TableMatcher};
pub use predicate::{Op, Predicate};
pub use subscription::{Subscription, SubscriptionId};
pub use symbol::{SymView, SymbolTable};
