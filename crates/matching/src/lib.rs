//! Content-based subscription matching for publish/subscribe systems.
//!
//! The paper's architecture (§2) contains a **matching engine** that, when a
//! page is published, determines which subscribers' interest profiles match
//! it; the content-distribution strategies then only consume the *count* of
//! matching subscriptions per (page, proxy), `f_S(p)` in eq. 2. The paper's
//! synthetic workload models only those counts (§4.3): a
//! [`SubscriptionTable`](pscd_types::SubscriptionTable). This crate computes
//! them from real subscriptions, conjunctions of [`Predicate`]s over typed
//! page attributes ([`Content`]). [`EngineMatcher`] owns every proxy's
//! subscriptions and every page's content, both interned once into
//! symbols, and freezes the subscriptions into one fleet-wide
//! access-predicate kernel in the style of Fabret et al. (SIGMOD'01);
//! [`EngineMatcher::matched_servers_into`] answers a publish and
//! [`EngineMatcher::match_count_with`] a request.
//!
//! # Examples
//!
//! ```
//! use pscd_matching::{Content, EngineMatcher, MatchScratch, Predicate, Subscription, Value};
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
//! let (mut scratch, mut fanout) = (MatchScratch::new(), Vec::new());
//! m.matched_servers_into(PageId::new(0), &mut scratch, &mut fanout);
//! assert_eq!(fanout, vec![(ServerId::new(0), 1)]);
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
pub use frozen::MatchScratch;
pub use matcher::EngineMatcher;
pub use predicate::{Op, Predicate};
pub use subscription::{Subscription, SubscriptionId};
