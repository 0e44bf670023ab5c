//! End-to-end workload assembly.

use serde::{Deserialize, Serialize};

use pscd_types::{
    Bytes, LiveEvent, PageMeta, PublishingStream, RequestTrace, SimTime, SubscriptionTable,
};

use crate::{
    generate_publishing, generate_requests, generate_subscriptions, PublishingConfig,
    RequestConfig, WorkloadError,
};

/// Full configuration of a synthetic publish/subscribe workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadConfig {
    /// Publishing-stream parameters.
    pub publishing: PublishingConfig,
    /// Request-stream parameters.
    pub requests: RequestConfig,
    /// Master seed; all derived randomness is deterministic in it.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's NEWS trace at full scale (α = 1.5).
    pub fn news() -> Self {
        Self {
            publishing: PublishingConfig::paper(),
            requests: RequestConfig::news(),
            seed: 0,
        }
    }

    /// The paper's ALTERNATIVE trace at full scale (α = 1.0).
    pub fn alternative() -> Self {
        Self {
            requests: RequestConfig::alternative(),
            ..Self::news()
        }
    }

    /// A proportionally scaled-down NEWS trace for tests and benches.
    pub fn news_scaled(factor: f64) -> Self {
        Self {
            publishing: PublishingConfig::scaled(factor),
            requests: RequestConfig::scaled(factor),
            seed: 0,
        }
    }

    /// A proportionally scaled-down ALTERNATIVE trace.
    pub fn alternative_scaled(factor: f64) -> Self {
        Self {
            requests: RequestConfig {
                zipf_alpha: 1.0,
                ..RequestConfig::scaled(factor)
            },
            ..Self::news_scaled(factor)
        }
    }

    /// Returns the config with a different master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fully generated workload: page table, publishing stream and request
/// trace. Subscription tables are derived on demand per quality level so a
/// single trace can be evaluated under several SQ values, exactly as the
/// paper does in §5.4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    config: WorkloadConfig,
    pages: Vec<PageMeta>,
    publishing: PublishingStream,
    requests: RequestTrace,
}

impl Workload {
    /// Generates a workload (deterministic in `config.seed`).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid configurations.
    ///
    /// # Examples
    ///
    /// ```
    /// use pscd_workload::{Workload, WorkloadConfig};
    /// let w = Workload::generate(&WorkloadConfig::news_scaled(0.01))?;
    /// assert_eq!(w.server_count(), 100);
    /// assert!(!w.requests().is_empty());
    /// # Ok::<(), pscd_workload::WorkloadError>(())
    /// ```
    pub fn generate(config: &WorkloadConfig) -> Result<Self, WorkloadError> {
        Self::generate_threads(config, 1)
    }

    /// [`Workload::generate`] on up to `threads` pool workers (`0` = auto,
    /// `1` = inline). Output is bit-identical at every thread count: every
    /// random draw comes from a per-entity substream ([`crate::seeds`]),
    /// so parallelism only changes who computes what, never what is
    /// computed.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid configurations.
    pub fn generate_threads(
        config: &WorkloadConfig,
        threads: usize,
    ) -> Result<Self, WorkloadError> {
        if config.publishing.horizon != config.requests.horizon {
            return Err(WorkloadError::invalid(
                "horizon",
                "publishing.horizon == requests.horizon",
            ));
        }
        let publishing = generate_publishing(&config.publishing, config.seed, threads)?;
        let requests =
            generate_requests(&publishing.pages, &config.requests, config.seed, threads)?;
        Ok(Self {
            config: config.clone(),
            pages: publishing.pages,
            publishing: publishing.stream,
            requests,
        })
    }

    /// Assembles a workload from externally produced parts (e.g. traces
    /// loaded through [`crate::io`]). The configuration supplies the
    /// horizon, server count and seed used by derived artifacts
    /// (subscription tables, capacities).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if the publishing stream
    /// does not cover exactly the page table or the request trace
    /// references unknown pages/servers.
    pub fn from_parts(
        config: WorkloadConfig,
        pages: Vec<PageMeta>,
        publishing: PublishingStream,
        requests: RequestTrace,
    ) -> Result<Self, WorkloadError> {
        if publishing.len() != pages.len() {
            return Err(WorkloadError::invalid(
                "publishing",
                "one publish event per page",
            ));
        }
        let mut seen = vec![false; pages.len()];
        for ev in &publishing {
            match seen.get_mut(ev.page.as_usize()) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(WorkloadError::invalid(
                        "publishing",
                        "each page published exactly once",
                    ))
                }
            }
        }
        if requests
            .validate(pages.len(), config.requests.servers)
            .is_err()
        {
            return Err(WorkloadError::invalid(
                "requests",
                "events within the page table and server count",
            ));
        }
        Ok(Self {
            config,
            pages,
            publishing,
            requests,
        })
    }

    /// The generating configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The page table, indexed by page id.
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }

    /// The time-ordered publishing stream.
    pub fn publishing(&self) -> &PublishingStream {
        &self.publishing
    }

    /// The time-ordered request trace.
    pub fn requests(&self) -> &RequestTrace {
        &self.requests
    }

    /// Number of proxy servers.
    pub fn server_count(&self) -> u16 {
        self.config.requests.servers
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.config.publishing.horizon
    }

    /// Derives the subscription table for a target quality (eq. 7);
    /// deterministic in the master seed and `quality`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] unless `0 < quality <= 1`.
    pub fn subscriptions(&self, quality: f64) -> Result<SubscriptionTable, WorkloadError> {
        self.subscriptions_threads(quality, 1)
    }

    /// [`Workload::subscriptions`] on up to `threads` pool workers (`0` =
    /// auto, `1` = inline). Output is bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] unless `0 < quality <= 1`.
    pub fn subscriptions_threads(
        &self,
        quality: f64,
        threads: usize,
    ) -> Result<SubscriptionTable, WorkloadError> {
        generate_subscriptions(
            &self.requests,
            self.pages.len(),
            quality,
            1.0,
            self.config.seed ^ quality.to_bits(),
            threads,
        )
    }

    /// Like [`Workload::subscriptions`], but only a `coverage` fraction of
    /// the (page, server) request pairs carries subscriptions — the
    /// paper's future-work scenario where some requests are not driven by
    /// notifications.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range
    /// parameters.
    pub fn subscriptions_partial(
        &self,
        quality: f64,
        coverage: f64,
    ) -> Result<SubscriptionTable, WorkloadError> {
        generate_subscriptions(
            &self.requests,
            self.pages.len(),
            quality,
            coverage,
            self.config.seed ^ quality.to_bits() ^ coverage.to_bits().rotate_left(17),
            1,
        )
    }

    /// Flattens the workload into the live-service event stream: every
    /// subscription as an up-front [`LiveEvent::Subscribe`] control
    /// message (in the table's page-major order), followed by the
    /// publishing stream and request trace merged in time order with the
    /// same tie-break trace compilation uses (a publish precedes a request
    /// at the same instant). Feeding this stream to the service therefore
    /// reproduces, event for event, the timeline trace compilation
    /// (`CompiledTrace::compile` in `pscd-sim`) builds for batch replay.
    pub fn live_events(&self, subs: &SubscriptionTable) -> Vec<LiveEvent> {
        let sub_count = subs.iter().count();
        let mut events =
            Vec::with_capacity(sub_count + self.publishing.len() + self.requests.len());
        events.extend(
            subs.iter()
                .map(|(page, server, count)| LiveEvent::Subscribe {
                    page,
                    server,
                    count,
                }),
        );
        let mut pubs = self.publishing.iter().peekable();
        let mut reqs = self.requests.iter().peekable();
        loop {
            let publish_first = match (pubs.peek(), reqs.peek()) {
                (Some(p), Some(r)) => p.time <= r.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if publish_first {
                let p = pubs.next().expect("peeked");
                events.push(LiveEvent::Publish {
                    time: p.time,
                    page: p.page,
                });
            } else {
                let r = reqs.next().expect("peeked");
                events.push(LiveEvent::Request {
                    time: r.time,
                    server: r.server,
                    page: r.page,
                });
            }
        }
        events
    }

    /// Per-server unique bytes requested over the whole trace — the basis
    /// for the paper's cache-capacity settings.
    pub fn unique_bytes_per_server(&self) -> Vec<Bytes> {
        self.requests
            .unique_bytes_per_server(&self.pages, self.server_count())
    }

    /// The one-page minimum capacity granted to servers whose trace
    /// requested nothing — exposed so trace compilation can reproduce
    /// [`Workload::cache_capacities`] without the workload in hand.
    pub fn min_cache_capacity(&self) -> Bytes {
        Bytes::new(self.config.publishing.max_page_bytes)
    }

    /// Per-server cache capacities at a fraction of unique requested bytes
    /// (the paper evaluates 1%, 5% and 10%). Servers that requested nothing
    /// get a one-page minimum so they remain functional.
    pub fn cache_capacities(&self, fraction: f64) -> Vec<Bytes> {
        let min = self.min_cache_capacity();
        self.unique_bytes_per_server()
            .into_iter()
            .map(|b| {
                let c = b.scaled(fraction);
                if c.is_zero() {
                    min
                } else {
                    c
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap()
    }

    #[test]
    fn generates_consistent_tables() {
        let w = tiny();
        assert_eq!(w.pages().len(), w.publishing().len());
        assert!(w
            .requests()
            .validate(w.pages().len(), w.server_count())
            .is_ok());
        assert_eq!(w.horizon(), SimTime::from_days(7));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap();
        let b = Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap();
        assert_eq!(a, b);
        let c = Workload::generate(&WorkloadConfig::news_scaled(0.01).with_seed(99)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn subscription_quality_one_matches_requests() {
        let w = tiny();
        let subs = w.subscriptions(1.0).unwrap();
        let mut req_pairs = std::collections::HashMap::new();
        for ev in w.requests() {
            *req_pairs.entry((ev.page, ev.server)).or_insert(0u32) += 1;
        }
        for ((page, server), count) in req_pairs {
            assert_eq!(subs.count(page, server), count);
        }
    }

    #[test]
    fn different_qualities_differ() {
        let w = tiny();
        let hi = w.subscriptions(1.0).unwrap();
        let lo = w.subscriptions(0.25).unwrap();
        let hi_total: u64 = hi.iter().map(|(_, _, c)| c as u64).sum();
        let lo_total: u64 = lo.iter().map(|(_, _, c)| c as u64).sum();
        assert!(lo_total > hi_total);
    }

    #[test]
    fn capacities_track_unique_bytes() {
        let w = tiny();
        let unique = w.unique_bytes_per_server();
        let caps = w.cache_capacities(0.05);
        assert_eq!(unique.len(), caps.len());
        for (u, c) in unique.iter().zip(&caps) {
            if !u.is_zero() {
                assert_eq!(*c, u.scaled(0.05));
            } else {
                assert!(!c.is_zero());
            }
        }
    }

    #[test]
    fn from_parts_roundtrips_generated_workloads() {
        let w = tiny();
        let rebuilt = Workload::from_parts(
            w.config().clone(),
            w.pages().to_vec(),
            w.publishing().clone(),
            w.requests().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt, w);
    }

    #[test]
    fn from_parts_validates() {
        let w = tiny();
        // Dropping a publish event breaks the one-event-per-page rule.
        let mut events: Vec<_> = w.publishing().iter().copied().collect();
        events.pop();
        let bad = pscd_types::PublishingStream::from_unsorted(events);
        assert!(Workload::from_parts(
            w.config().clone(),
            w.pages().to_vec(),
            bad,
            w.requests().clone(),
        )
        .is_err());
        // Duplicated publish event.
        let mut events: Vec<_> = w.publishing().iter().copied().collect();
        let dup = events[0];
        let last = events.len() - 1;
        events[last] = dup;
        let bad = pscd_types::PublishingStream::from_unsorted(events);
        assert!(Workload::from_parts(
            w.config().clone(),
            w.pages().to_vec(),
            bad,
            w.requests().clone(),
        )
        .is_err());
        // Request referencing a missing page.
        let mut cfg = w.config().clone();
        cfg.requests.servers = 1; // most events now out of range
        assert!(Workload::from_parts(
            cfg,
            w.pages().to_vec(),
            w.publishing().clone(),
            w.requests().clone(),
        )
        .is_err());
    }

    #[test]
    fn live_events_cover_the_whole_workload_in_time_order() {
        let w = tiny();
        let subs = w.subscriptions(1.0).unwrap();
        let events = w.live_events(&subs);
        let sub_count = subs.iter().count();
        assert_eq!(
            events.len(),
            sub_count + w.publishing().len() + w.requests().len()
        );
        // All subscribes lead, in table order.
        for (ev, (page, server, count)) in events.iter().zip(subs.iter()) {
            assert_eq!(
                *ev,
                LiveEvent::Subscribe {
                    page,
                    server,
                    count
                }
            );
        }
        // The rest is time-ordered, with publishes winning ties.
        let mut last = SimTime::ZERO;
        let mut publishes = 0;
        let mut requests = 0;
        for ev in &events[sub_count..] {
            let time = match ev {
                LiveEvent::Subscribe { .. } => panic!("subscribe after the timeline started"),
                LiveEvent::Publish { time, .. } => {
                    publishes += 1;
                    *time
                }
                LiveEvent::Request { time, .. } => {
                    requests += 1;
                    *time
                }
            };
            assert!(time >= last, "timeline out of order");
            last = time;
        }
        assert_eq!(publishes, w.publishing().len());
        assert_eq!(requests, w.requests().len());
    }

    #[test]
    fn mismatched_horizons_rejected() {
        let mut cfg = WorkloadConfig::news_scaled(0.01);
        cfg.requests.horizon = SimTime::from_days(3);
        assert!(Workload::generate(&cfg).is_err());
    }

    #[test]
    fn alternative_trace_is_less_skewed() {
        let news = Workload::generate(&WorkloadConfig::news_scaled(0.02)).unwrap();
        let alt = Workload::generate(&WorkloadConfig::alternative_scaled(0.02)).unwrap();
        let top_share = |w: &Workload| {
            let mut counts = vec![0u64; w.pages().len()];
            for ev in w.requests() {
                counts[ev.page.as_usize()] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let total: u64 = counts.iter().sum();
            counts[..10.min(counts.len())].iter().sum::<u64>() as f64 / total as f64
        };
        assert!(top_share(&news) > top_share(&alt));
    }
}
