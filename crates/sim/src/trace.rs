//! The compiled trace: one workload, resolved once, replayed everywhere.
//!
//! Every cell of the paper's evaluation grid (§5: strategy × capacity ×
//! scheme) replays the *same* fixed workload, and so does every shard of
//! a sharded run. The strategy-independent work of that replay — merging
//! the publish and request streams into one time-ordered timeline,
//! resolving each publish event's matched-proxy fan-out and each request
//! event's subscription count against the static matching information
//! (§4.3), and tracking the version lineage that drives stale-page
//! invalidation — is a pure function of `(Workload, SubscriptionTable)`.
//!
//! [`CompiledTrace`] performs that work exactly once. The result is an
//! immutable, `Sync` value: a flat event array with publish-before-request
//! ordering at equal timestamps baked in, a CSR-style fan-out table,
//! per-request subscription counts, per-publish `supersedes` lineage, and
//! the capacity basis. The sequential runner, every shard worker, and every
//! grid cell replay the same compiled value by reference — which is both
//! the speed win (no per-cell re-derivation) and a determinism pillar
//! (no consumer can see a different timeline than any other).

use std::sync::atomic::{AtomicU64, Ordering};

use pscd_cache::PageUniverse;
use pscd_matching::EngineMatcher;
use pscd_types::{
    Bytes, PageId, PageMeta, PublishEvent, RequestEvent, ServerId, SimTime, SubscriptionTable,
};
use pscd_workload::Workload;

use crate::pool::parallel_chunked;
use crate::resolve::{MatchBuffers, Matching, VersionHeads};
use crate::window::{OneWindow, OwnedWindow, ReplayMeta, ReplaySource, TraceWindow};
use crate::SimError;

/// Process-wide count of [`CompiledTrace::compile`] invocations; lets
/// tests assert that a sweep compiles its workload exactly once.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Publishes resolved per fan-out job. Pure scheduling granularity: the
/// fan-out of publish ordinal `i` depends only on `i`, so chunk
/// boundaries never affect the compiled output.
const PUBLISH_CHUNK: usize = 512;

/// One event of the flattened timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledEvent {
    /// The event instant.
    pub time: SimTime,
    /// The page involved (index into [`CompiledTrace::pages`]).
    pub page: PageId,
    /// Publish- or request-specific payload.
    pub kind: CompiledEventKind,
}

/// The payload distinguishing publish events from request events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledEventKind {
    /// A page is published.
    Publish {
        /// Position in the publishing stream; indexes the fan-out table
        /// ([`TraceWindow::matched`]).
        ordinal: u32,
        /// The previously-latest version of this article that this
        /// publish supersedes (the invalidation lineage, resolved at
        /// compile time; `None` for first versions).
        supersedes: Option<PageId>,
    },
    /// A subscriber requests a page at a proxy.
    Request {
        /// The proxy serving the request.
        server: ServerId,
        /// Pre-resolved subscription count of `(page, server)`.
        subs: u32,
    },
}

/// An immutable, thread-shareable compilation of one
/// `(Workload, SubscriptionTable)` pair — build it once, replay it from
/// as many cells, shards and threads as needed.
///
/// # Examples
///
/// ```
/// use pscd_core::StrategyKind;
/// use pscd_sim::{CompiledTrace, Replay, SimOptions};
/// use pscd_topology::FetchCosts;
/// use pscd_workload::{Workload, WorkloadConfig};
///
/// let w = Workload::generate(&WorkloadConfig::news_scaled(0.004))?;
/// let subs = w.subscriptions(1.0)?;
/// let costs = FetchCosts::uniform(w.server_count());
/// let trace = CompiledTrace::compile(&w, &subs)?;
/// // Replay the same compiled trace under two strategies.
/// let lineup = [StrategyKind::GdStar { beta: 2.0 }, StrategyKind::Sg2 { beta: 2.0 }]
///     .map(|kind| SimOptions::at_capacity(kind, 0.05));
/// let results = Replay::compiled(&trace, &costs).run(&lineup)?;
/// assert_eq!(results[0].requests, results[1].requests);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    /// Trace-wide facts shared with every other [`ReplaySource`]
    /// implementation (page table, fleet, capacity/load basis).
    meta: ReplayMeta,
    /// The whole timeline as one window: the merged events (publishes
    /// before requests at equal times), the CSR fan-out table and its
    /// matched pairs.
    window: OwnedWindow,
}

impl CompiledTrace {
    /// Compiles a workload against one subscription table; equivalent to
    /// [`compile_threads`](CompiledTrace::compile_threads) with one
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MismatchedSubscriptions`] if the table covers
    /// a different page universe than the workload.
    pub fn compile(
        workload: &Workload,
        subscriptions: &SubscriptionTable,
    ) -> Result<Self, SimError> {
        Self::compile_threads(workload, subscriptions, 1)
    }

    /// Compiles a workload on up to `threads` pool workers (`0` = auto).
    ///
    /// The stream merge (timeline order, `supersedes` lineage) is
    /// inherently sequential and stays on the caller's thread, and so does
    /// reading each request's subscription count out of the finished
    /// fan-out table; the expensive strategy-independent resolution — the
    /// fan-out table itself — is a pure per-publish function of the static
    /// matching information, so it shards over the pool by publish ordinal
    /// and reassembles in ordinal order. The compiled value is
    /// **bit-identical at every thread count**; the `cold_differential`
    /// suite enforces this.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MismatchedSubscriptions`] if the table covers
    /// a different page universe than the workload.
    pub fn compile_threads(
        workload: &Workload,
        subscriptions: &SubscriptionTable,
        threads: usize,
    ) -> Result<Self, SimError> {
        if subscriptions.page_count() != workload.pages().len() {
            return Err(SimError::MismatchedSubscriptions {
                pages: workload.pages().len(),
                table_pages: subscriptions.page_count(),
            });
        }
        Ok(Self::compile_with(
            workload,
            Matching::Table(subscriptions),
            threads,
        ))
    }

    /// [`compile`](CompiledTrace::compile) resolving through a
    /// content-based [`EngineMatcher`] instead of a precomputed
    /// [`SubscriptionTable`]: every publish fan-out is evaluated live
    /// against the per-proxy subscription indexes.
    ///
    /// The matcher is frozen first (a no-op if already frozen), so the
    /// whole resolution runs on the frozen kernel — interned symbols, CSR
    /// buckets, epoch-bitset counting. When the matcher was synthesized to
    /// reproduce a table (see `pscd_workload::matcher_from_table`), the
    /// compiled value is `==` to the table-compiled one; the fixture
    /// guard of `crates/spec/tests/variants.rs` asserts it, and its
    /// matcher-compiled rows replay it to the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MismatchedMatcher`] if the matcher covers a
    /// different fleet or page universe than the workload (every workload
    /// page must have registered content).
    pub fn compile_from_matcher(
        workload: &Workload,
        matcher: &mut EngineMatcher,
    ) -> Result<Self, SimError> {
        if matcher.server_count() != workload.server_count()
            || !matcher.covers(workload.pages().len())
        {
            return Err(SimError::MismatchedMatcher {
                servers: workload.server_count(),
                matcher_servers: matcher.server_count(),
                pages: workload.pages().len(),
                matcher_pages: matcher.page_count(),
            });
        }
        matcher.freeze();
        Ok(Self::compile_with(workload, Matching::Matcher(matcher), 1))
    }

    /// The one compile body. The stream merge (phase 1) stays on the
    /// caller's thread; fan-outs (phase 2) are per-publish lookups in
    /// `matching`, sharded over the pool by ordinal with one
    /// [`MatchBuffers`] per job and reassembled in ordinal order; request
    /// counts (phase 3) are read out of the rows phase 2 wrote.
    fn compile_with(workload: &Workload, matching: Matching<'_>, threads: usize) -> Self {
        let publishes = workload.publishing().events();
        let requests = workload.requests().events();
        let mut events = Vec::with_capacity(publishes.len() + requests.len());
        let mut heads = VersionHeads::new(workload.pages().len());
        merge_timeline(
            publishes,
            0,
            requests,
            workload.pages(),
            &mut heads,
            &mut events,
        );

        // Phase 2: one CSR fragment per chunk of publish ordinals,
        // stitched in ordinal order.
        let fragments = parallel_chunked(publishes.len(), PUBLISH_CHUNK, threads, |range| {
            let mut buf = MatchBuffers::default();
            let mut ends = Vec::with_capacity(range.len());
            let mut pairs = Vec::new();
            for i in range {
                pairs.extend_from_slice(matching.fanout(publishes[i].page, &mut buf));
                ends.push(pairs.len() as u32);
            }
            vec![(ends, pairs)]
        });
        let mut offsets = Vec::with_capacity(publishes.len() + 1);
        offsets.push(0u32);
        let mut pairs = Vec::with_capacity(fragments.iter().map(|(_, part)| part.len()).sum());
        for (ends, part) in fragments {
            let base = pairs.len() as u32;
            offsets.extend(ends.iter().map(|end| base + end));
            pairs.extend_from_slice(&part);
        }

        // Phase 3: a request's subscription count is its proxy's entry in
        // the row its page's publish wrote. A workload publishes every page
        // exactly once (`Workload::from_parts`), so page → ordinal is total.
        let mut ordinal_of = vec![0u32; workload.pages().len()];
        for (ordinal, publish) in publishes.iter().enumerate() {
            ordinal_of[publish.page.as_usize()] = ordinal as u32;
        }
        for ev in &mut events {
            if let CompiledEventKind::Request { server, subs } = &mut ev.kind {
                let o = ordinal_of[ev.page.as_usize()] as usize;
                let row = &pairs[offsets[o] as usize..offsets[o + 1] as usize];
                let at = row.binary_search_by_key(server, |&(s, _)| s);
                *subs = at.map_or(0, |at| row[at].1);
            }
        }

        let servers = workload.server_count();
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        Self {
            meta: ReplayMeta {
                pages: workload.pages().to_vec(),
                universe: PageUniverse::new(workload.pages().iter().map(PageMeta::size)),
                servers,
                hours: (workload.horizon().as_hours_f64().ceil() as usize).max(1),
                horizon: workload.horizon(),
                publish_count: workload.publishing().len(),
                request_count: workload.requests().len(),
                load: workload.requests().requests_per_server(servers),
                unique_bytes: workload.unique_bytes_per_server(),
                min_capacity: workload.min_cache_capacity(),
            },
            window: OwnedWindow {
                events,
                offsets,
                pairs,
                ordinal_base: 0,
                start_index: 0,
            },
        }
    }

    /// Concatenates every remaining window of `source` into one compiled
    /// trace, each window appended to the one timeline window with its
    /// CSR slice rebased — how
    /// [`StreamingTrace::materialize`](crate::StreamingTrace::materialize)
    /// produces a value comparable (with `==`) against [`compile`]'s.
    /// Counts as a compilation for [`compile_count`].
    ///
    /// [`compile`]: CompiledTrace::compile
    /// [`compile_count`]: CompiledTrace::compile_count
    pub(crate) fn concat(source: &mut impl ReplaySource) -> Self {
        let meta = source.meta().clone();
        let mut window = OwnedWindow::with_capacity(meta.len(), 0);
        while let Some(w) = source.next_window() {
            window.append(&w);
        }
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        Self { meta, window }
    }

    /// Process-wide number of [`compile`](CompiledTrace::compile) calls so
    /// far — the hook the compile-exactly-once tests assert on.
    pub fn compile_count() -> u64 {
        COMPILE_COUNT.load(Ordering::Relaxed)
    }

    /// The merged timeline.
    #[inline]
    pub fn events(&self) -> &[CompiledEvent] {
        &self.window.events
    }

    /// Total events (publishes + requests).
    #[inline]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` if the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Number of request events.
    pub fn request_count(&self) -> usize {
        self.meta.request_count
    }

    /// The page table, indexed by page id.
    pub fn pages(&self) -> &[PageMeta] {
        &self.meta.pages
    }

    /// Hour buckets covering the horizon (≥ 1).
    pub fn hours(&self) -> usize {
        self.meta.hours
    }

    /// The trace-wide replay facts, shared with every other
    /// [`ReplaySource`] implementation.
    pub fn meta(&self) -> &ReplayMeta {
        &self.meta
    }

    /// The whole timeline as a single [`TraceWindow`] — how the
    /// materialized trace plugs into the window-driven replay loop.
    pub fn full_window(&self) -> TraceWindow<'_> {
        self.window.view(&self.meta.pages)
    }

    /// [`full_window`](CompiledTrace::full_window) behind the
    /// [`ReplaySource`] seam: how every replay of a materialized trace
    /// reaches the driver.
    pub(crate) fn source(&self) -> OneWindow<'_> {
        OneWindow::new(&self.meta, self.full_window())
    }

    /// Total matched `(event, server)` pairs across the whole push
    /// schedule — an upper bound on the pages any pushing scheme can
    /// transfer.
    pub fn total_matched_pairs(&self) -> u64 {
        self.window.pairs.len() as u64
    }

    /// Per-server cache capacities at a fraction of unique requested
    /// bytes; identical to `Workload::cache_capacities` (servers that
    /// requested nothing get a one-page minimum).
    pub fn capacities(&self, fraction: f64) -> Vec<Bytes> {
        self.meta.capacities(fraction)
    }
}

/// Phase 1 of both compilers, the monolithic one and the per-window one:
/// merges time-sorted `publishes` and `requests` onto `events`. Publishes
/// go before requests at equal timestamps — a notification must precede
/// the requests it triggers. Publish `i` gets ordinal `first_ordinal + i`
/// and the `supersedes` link `heads` resolves, which the publish stream
/// alone drives. Request `subs` counts are left 0 for the caller.
pub(crate) fn merge_timeline(
    publishes: &[PublishEvent],
    first_ordinal: u32,
    requests: &[RequestEvent],
    pages: &[PageMeta],
    heads: &mut VersionHeads,
    events: &mut Vec<CompiledEvent>,
) {
    let (mut pi, mut ri) = (0usize, 0usize);
    while pi < publishes.len() || ri < requests.len() {
        let publish_next = match (publishes.get(pi), requests.get(ri)) {
            (Some(p), Some(r)) => p.time <= r.time,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if publish_next {
            let ev = publishes[pi];
            let ordinal = first_ordinal + pi as u32;
            pi += 1;
            let supersedes = heads.publish(ev.page, &pages[ev.page.as_usize()]);
            events.push(CompiledEvent {
                time: ev.time,
                page: ev.page,
                kind: CompiledEventKind::Publish {
                    ordinal,
                    supersedes,
                },
            });
        } else {
            let ev = requests[ri];
            ri += 1;
            events.push(CompiledEvent {
                time: ev.time,
                page: ev.page,
                kind: CompiledEventKind::Request {
                    server: ev.server,
                    subs: 0,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_workload::WorkloadConfig;
    use std::collections::HashMap;

    fn fixture() -> (Workload, SubscriptionTable) {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        (w, subs)
    }

    #[test]
    fn timeline_is_merged_in_order_with_publishes_first() {
        let (w, subs) = fixture();
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        assert_eq!(trace.len(), w.publishing().len() + w.requests().len());
        assert_eq!(trace.meta().publish_count(), w.publishing().len());
        assert_eq!(trace.request_count(), w.requests().len());
        for pair in trace.events().windows(2) {
            assert!(pair[0].time <= pair[1].time, "timeline out of order");
            if pair[0].time == pair[1].time {
                // At equal timestamps no request may precede a publish.
                assert!(
                    !(matches!(pair[0].kind, CompiledEventKind::Request { .. })
                        && matches!(pair[1].kind, CompiledEventKind::Publish { .. })),
                    "request before publish at equal time"
                );
            }
        }
    }

    #[test]
    fn fanout_matches_table_lookups() {
        let (w, subs) = fixture();
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        let mut publishes = 0u32;
        let mut pairs = 0u64;
        for ev in trace.events() {
            match ev.kind {
                CompiledEventKind::Publish { ordinal, .. } => {
                    assert_eq!(
                        trace.full_window().matched(ordinal),
                        subs.matched_servers(ev.page)
                    );
                    pairs += trace.full_window().matched(ordinal).len() as u64;
                    publishes += 1;
                }
                CompiledEventKind::Request { server, subs: n } => {
                    assert_eq!(n, subs.count(ev.page, server));
                }
            }
        }
        assert_eq!(publishes as usize, trace.meta().publish_count());
        assert_eq!(pairs, trace.total_matched_pairs());
    }

    #[test]
    fn matched_in_slices_are_exact_partitions() {
        let (w, subs) = fixture();
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        let servers = trace.meta().server_count();
        for ordinal in 0..trace.meta().publish_count().min(40) as u32 {
            for split in [0, 1, servers / 2, servers] {
                let left = trace.full_window().matched_in(ordinal, 0, split);
                let right = trace.full_window().matched_in(ordinal, split, servers);
                let whole: Vec<_> = left.iter().chain(right).copied().collect();
                assert_eq!(whole.as_slice(), trace.full_window().matched(ordinal));
            }
        }
    }

    #[test]
    fn supersedes_links_follow_the_lineage() {
        let (w, subs) = fixture();
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        let mut latest: HashMap<PageId, PageId> = HashMap::new();
        let mut links = 0usize;
        for ev in trace.events() {
            if let CompiledEventKind::Publish { supersedes, .. } = ev.kind {
                let origin = trace
                    .meta()
                    .page(ev.page)
                    .kind()
                    .origin()
                    .unwrap_or(ev.page);
                assert_eq!(supersedes, latest.insert(origin, ev.page));
                if supersedes.is_some() {
                    links += 1;
                }
            }
        }
        assert!(links > 0, "the NEWS trace republishes modified versions");
    }

    #[test]
    fn capacity_basis_matches_workload() {
        let (w, subs) = fixture();
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        for fraction in [0.01, 0.05, 0.10] {
            assert_eq!(trace.capacities(fraction), w.cache_capacities(fraction));
        }
        assert_eq!(
            trace.meta().request_load(),
            w.requests()
                .requests_per_server(w.server_count())
                .as_slice()
        );
        assert_eq!(trace.meta().server_count(), w.server_count());
        assert_eq!(trace.meta().horizon, w.horizon());
    }

    #[test]
    fn matcher_compile_equals_table_compile() {
        let (w, subs) = fixture();
        let reference = CompiledTrace::compile(&w, &subs).unwrap();
        let mut matcher = pscd_workload::matcher_from_table(&subs, w.server_count());
        let seq = CompiledTrace::compile_from_matcher(&w, &mut matcher).unwrap();
        assert_eq!(seq, reference);
        assert!(matcher.is_frozen(), "compile leaves the matcher frozen");
        // A matcher covering the wrong universe is rejected up front.
        let mut empty = EngineMatcher::new(w.server_count());
        assert!(matches!(
            CompiledTrace::compile_from_matcher(&w, &mut empty),
            Err(SimError::MismatchedMatcher { .. })
        ));
    }

    /// Phase 3 reads the rows phase 2 wrote; asking the matching source per
    /// request — what it did before — is the oracle.
    #[test]
    fn phase_3_counts_equal_the_source_asked_per_request() {
        let (w, subs) = fixture();
        let mut matcher = pscd_workload::matcher_from_table(&subs, w.server_count());
        let from_matcher = CompiledTrace::compile_from_matcher(&w, &mut matcher).unwrap();
        let from_table = CompiledTrace::compile(&w, &subs).unwrap();
        let arms = [
            (from_table, Matching::Table(&subs)),
            (from_matcher, Matching::Matcher(&matcher)),
        ];
        let mut buf = MatchBuffers::default();
        for (trace, source) in &arms {
            let mut requests = 0;
            for ev in trace.events() {
                if let CompiledEventKind::Request { server, subs: n } = ev.kind {
                    assert_eq!(n, source.count(ev.page, server, &mut buf), "{ev:?}");
                    requests += 1;
                }
            }
            assert_eq!(requests, w.requests().len());
            assert!(requests > 0);
        }
    }

    /// The right *number* of pages over the wrong ids: page 0 would fan out
    /// to nobody and count 0 without an error.
    #[test]
    fn compile_from_matcher_rejects_a_matcher_over_shifted_ids() {
        let (w, _) = fixture();
        let mut shifted = EngineMatcher::new(w.server_count());
        for id in 1..=w.pages().len() as u32 {
            shifted.register_page(PageId::new(id), pscd_matching::Content::new());
        }
        assert_eq!(shifted.page_count(), w.pages().len());
        assert!(matches!(
            CompiledTrace::compile_from_matcher(&w, &mut shifted),
            Err(SimError::MismatchedMatcher { .. })
        ));
    }

    #[test]
    fn mismatched_subscriptions_rejected_and_counter_advances() {
        let (w, subs) = fixture();
        let before = CompiledTrace::compile_count();
        assert!(matches!(
            CompiledTrace::compile(&w, &SubscriptionTable::empty(1)),
            Err(SimError::MismatchedSubscriptions { .. })
        ));
        let _ = CompiledTrace::compile(&w, &subs).unwrap();
        assert!(CompiledTrace::compile_count() > before);
    }
}
