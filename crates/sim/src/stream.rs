//! Streaming trace compilation: bounded-memory replay straight from the
//! workload config.
//!
//! [`CompiledTrace`] materializes the whole timeline — millions of events
//! for paper-scale traces — before the first replay step. But every
//! random draw in `pscd-workload` already comes from a per-entity
//! substream ([`pscd_workload::seeds`]), so any page's request events can
//! be regenerated on demand, bit for bit, without the rest of the trace.
//! [`StreamingTrace`] exploits that: it keeps only the O(pages) artifacts
//! resident (page table, publish stream, the [`RequestStream`] draws, the
//! subscription table, per-page time spans) and compiles each time-window
//! of the timeline lazily as the replay loop pulls it, carrying the
//! cross-window state — per-origin version heads, the global publish
//! ordinal, the global event index — explicitly in [`WindowState`].
//! Peak memory is O(window), not O(trace); the `stream_memory` suite
//! proves it with a counting allocator.
//!
//! Bit-identity with the monolithic path rests on three facts:
//!
//! 1. **Stable time-sort commutes with time-windowing.** The monolithic
//!    request trace is the stable time-sort of the page-major
//!    concatenation of per-page events; filtering that order to `[t0, t1)`
//!    equals regenerating the pages overlapping the window, filtering
//!    per event, and stable-sorting — equal-time ties resolve page-major
//!    either way. A scenario [`TimeWarp`] is applied per event *before*
//!    the sort in both paths, so warping cannot reorder ties.
//! 2. **Publish/request merging is windowable.** Windows cut the timeline
//!    at instants, so the `publish.time <= request.time` tie-break only
//!    ever compares events landing in the same window.
//! 3. **Resolution is per-event or carried.** Fan-outs and subscription
//!    counts are static table lookups; the only cross-event state,
//!    the per-origin version heads driving `supersedes`, is carried in
//!    [`VersionHeads`] across window seams.
//!
//! Two pulls on the same machinery exist. The serial pass
//! ([`StreamingTrace::open`]) regenerates one window at a time on the
//! replay thread. The pipelined pass (`crate::prefetch`,
//! [`simulate_streamed_prefetched`](crate::simulate_streamed_prefetched))
//! moves generation + compilation to a producer thread that works
//! `prefetch_depth` windows ahead, batching regeneration across the
//! lookahead so pages whose spans straddle seams regenerate once per
//! batch instead of once per window. Both drive the same
//! `gather_batch` +
//! [`compile_window_into`](StreamingTrace::compile_window_into) pair over
//! a [`WindowState`] — the serial pass is the batch of one — so the
//! per-window gather/merge/resolve logic cannot diverge; what the
//! differential suite additionally proves is that a wider batch scatters
//! the same events. A constructor-fused
//! lookahead cache ([`StreamingTrace::with_lookahead`]) goes one step
//! further: the counting scan regenerates every page anyway, so it
//! scatters the first `depth` windows' requests as a side product and the
//! first batch replays without regenerating at all.
//!
//! The `stream_differential` suite asserts [`StreamingTrace::materialize`]
//! `==` [`CompiledTrace::compile`] and replay-result equality for every
//! strategy across window sizes, thread counts, and prefetch depths.

use std::ops::Range;

use pscd_matching::EngineMatcher;
use pscd_obs::{NullObserver, TraceSink};
use pscd_topology::FetchCosts;
use pscd_types::{Bytes, PublishEvent, RequestEvent, ServerId, SimTime, SubscriptionTable};
use pscd_workload::{
    generate_publishing_threads, generate_subscriptions_from_counts, RequestStream, ScenarioConfig,
    TimeWarp, WorkloadConfig, WorkloadError,
};

use crate::pool::parallel_chunked;
use crate::resolve::{MatchBuffers, Matching, VersionHeads};
use crate::runner::{validate_meta, SimOptions};
use crate::shard::run_shards;
use crate::trace::{CompiledEvent, CompiledEventKind, CompiledTrace};
use crate::window::{ReplayMeta, ReplaySource, TraceWindow};
use crate::{SimError, SimResult};

/// Pages per pool job in the counting scan. Scheduling granularity only —
/// every page has its own substream, so chunking never affects output.
const SCAN_CHUNK: usize = 256;

/// A replay source that regenerates and compiles the timeline one
/// time-window at a time, directly from the workload config.
///
/// Construction runs the trace-wide draws ([`RequestStream::prepare`]),
/// the publish stream, and one counting scan over the pages (request
/// counts per `(page, server)`, per-page time spans, the capacity/load
/// basis) — everything O(pages + servers), never the event bulk. The
/// subscription table is derived from the counted `P_{i,j}` exactly as
/// `Workload::subscriptions` derives it from the materialized trace, so
/// both paths resolve against the same table.
///
/// [`open`](StreamingTrace::open) starts a serial window pass;
/// [`simulate_streamed`] replays one (sharded if asked);
/// [`simulate_streamed_prefetched`](crate::simulate_streamed_prefetched)
/// replays through the pipelined prefetcher;
/// [`materialize`](StreamingTrace::materialize) rebuilds the full
/// [`CompiledTrace`] for differential proofs and memoizing consumers.
#[derive(Debug)]
pub struct StreamingTrace {
    meta: ReplayMeta,
    /// The full publish stream, time-sorted (O(pages), kept resident).
    publishes: Vec<PublishEvent>,
    /// The trace-wide request draws; per-page events regenerate from it.
    stream: RequestStream,
    /// Optional scenario intensity remap, applied per event before each
    /// window's stable sort (see the module docs on tie order).
    warp: Option<TimeWarp>,
    subscriptions: SubscriptionTable,
    /// Optional content-based matcher (frozen); when attached, window
    /// resolution evaluates it instead of the table lookups.
    matcher: Option<EngineMatcher>,
    /// Warped `[first, last]` request instants per page; `None` for pages
    /// that drew no requests. The window overlap filter.
    page_span: Vec<Option<(SimTime, SimTime)>>,
    /// Window length in milliseconds.
    window_ms: u64,
    /// Number of windows tiling `[0, horizon)`.
    window_count: usize,
    /// Constructor-fused request cache for the first
    /// [`lookahead_len`](Self::lookahead_len) windows: the counting scan's
    /// per-page regeneration scattered into per-window buckets (warped,
    /// page-major pre-sort order, unsorted). Empty unless built with
    /// [`with_lookahead`](Self::with_lookahead); O(lookahead × window).
    lookahead: Vec<Vec<RequestEvent>>,
}

/// One page's contribution to the counting scan.
struct PageScan {
    page: u32,
    /// `(server, requests)` in ascending server order.
    servers: Vec<(u16, u64)>,
    /// Warped `[first, last]` request instants.
    span: (SimTime, SimTime),
    /// The page's warped events landing in the lookahead prefix (empty
    /// when no lookahead was requested).
    cached: Vec<RequestEvent>,
}

impl StreamingTrace {
    /// Builds a streaming source for `config` with subscriptions at
    /// `quality` (coverage 1, like `Workload::subscriptions`), windows of
    /// length `window` (`0` = one whole-horizon window), on up to
    /// `threads` pool workers (`0` = auto, `1` = inline). Deterministic in
    /// the config seed at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid configs,
    /// mismatched horizons, or an out-of-range quality.
    pub fn new(
        config: &WorkloadConfig,
        quality: f64,
        window: SimTime,
        threads: usize,
    ) -> Result<Self, WorkloadError> {
        Self::with_warp(config, None, quality, window, threads, 0)
    }

    /// [`new`](StreamingTrace::new) plus a constructor-fused lookahead
    /// cache covering the first `lookahead` windows: the counting scan
    /// already regenerates every page once, so it scatters those windows'
    /// requests as a side product and the first prefetch batch (or the
    /// first `lookahead` serial windows) replays without regenerating.
    /// Output is bit-identical to [`new`](StreamingTrace::new); resident
    /// memory grows by O(`lookahead` × window).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] like
    /// [`new`](StreamingTrace::new).
    pub fn with_lookahead(
        config: &WorkloadConfig,
        quality: f64,
        window: SimTime,
        threads: usize,
        lookahead: usize,
    ) -> Result<Self, WorkloadError> {
        Self::with_warp(config, None, quality, window, threads, lookahead)
    }

    /// [`new`](StreamingTrace::new) for a scenario: derives the workload
    /// config and [`TimeWarp`] from `scenario` and streams the warped
    /// timeline — bit-identical to compiling `scenario.build_threads()`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid scenarios or
    /// an out-of-range quality.
    pub fn from_scenario(
        scenario: &ScenarioConfig,
        quality: f64,
        window: SimTime,
        threads: usize,
    ) -> Result<Self, WorkloadError> {
        Self::from_scenario_with_lookahead(scenario, quality, window, threads, 0)
    }

    /// [`from_scenario`](StreamingTrace::from_scenario) with a
    /// constructor-fused lookahead cache (see
    /// [`with_lookahead`](StreamingTrace::with_lookahead)).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for invalid scenarios or
    /// an out-of-range quality.
    pub fn from_scenario_with_lookahead(
        scenario: &ScenarioConfig,
        quality: f64,
        window: SimTime,
        threads: usize,
        lookahead: usize,
    ) -> Result<Self, WorkloadError> {
        let config = scenario.workload_config()?;
        let warp = scenario.time_warp()?;
        Self::with_warp(&config, warp, quality, window, threads, lookahead)
    }

    fn with_warp(
        config: &WorkloadConfig,
        warp: Option<TimeWarp>,
        quality: f64,
        window: SimTime,
        threads: usize,
        lookahead: usize,
    ) -> Result<Self, WorkloadError> {
        if config.publishing.horizon != config.requests.horizon {
            return Err(WorkloadError::InvalidConfig {
                field: "horizon",
                constraint: "publishing.horizon == requests.horizon",
            });
        }
        let horizon = config.publishing.horizon;
        let window_ms = match window.as_millis() {
            0 => horizon.as_millis().max(1),
            ms => ms,
        };
        let window_count = (horizon.as_millis().max(1)).div_ceil(window_ms).max(1) as usize;
        // The cache prefix ends at a window boundary; when it covers every
        // window it must be open-ended like the final window itself.
        let cached_windows = lookahead.min(window_count);
        let cache_end = if cached_windows == 0 {
            SimTime::ZERO
        } else if cached_windows == window_count {
            SimTime::from_millis(u64::MAX)
        } else {
            SimTime::from_millis(window_ms * cached_windows as u64)
        };

        let publishing = generate_publishing_threads(&config.publishing, config.seed, threads)?;
        let pages = publishing.pages;
        let stream = RequestStream::prepare(pages.len(), &config.requests, config.seed, threads)?;

        // The counting scan: regenerate each page's events once, count
        // them per server, note the warped time span — and drop them
        // (except the lookahead prefix, scattered here for free since the
        // events are in hand anyway). This is the only full pass outside
        // replay; it holds one page's events at a time per worker.
        let scans: Vec<PageScan> = parallel_chunked(pages.len(), SCAN_CHUNK, threads, |range| {
            let mut out = Vec::new();
            let mut scratch: Vec<RequestEvent> = Vec::new();
            let mut servers: Vec<u16> = Vec::new();
            for page_idx in range {
                if stream.count(page_idx) == 0 {
                    continue;
                }
                scratch.clear();
                stream.append_page_requests(&pages, page_idx, &mut scratch);
                // Events are time-sorted within the page; a monotone warp
                // keeps first/last the span ends.
                let first = scratch.first().expect("count > 0").time;
                let last = scratch.last().expect("count > 0").time;
                let span = match &warp {
                    Some(w) => (w.apply(first), w.apply(last)),
                    None => (first, last),
                };
                servers.clear();
                servers.extend(scratch.iter().map(|e| e.server.index()));
                servers.sort_unstable();
                let mut counts: Vec<(u16, u64)> = Vec::new();
                for &s in servers.iter() {
                    match counts.last_mut() {
                        Some((prev, n)) if *prev == s => *n += 1,
                        _ => counts.push((s, 1)),
                    }
                }
                let mut cached: Vec<RequestEvent> = Vec::new();
                if span.0 < cache_end {
                    for ev in &scratch {
                        let time = match &warp {
                            Some(w) => w.apply(ev.time),
                            None => ev.time,
                        };
                        if time < cache_end {
                            cached.push(RequestEvent::new(time, ev.server, ev.page));
                        }
                    }
                }
                out.push(PageScan {
                    page: page_idx as u32,
                    servers: counts,
                    span,
                    cached,
                });
            }
            out
        });

        let servers = config.requests.servers;
        let mut load = vec![0u64; servers as usize];
        let mut unique_bytes = vec![Bytes::ZERO; servers as usize];
        let mut page_span = vec![None; pages.len()];
        let mut groups: Vec<(u32, Vec<(u16, u64)>)> = Vec::with_capacity(scans.len());
        let mut lookahead_buckets: Vec<Vec<RequestEvent>> = vec![Vec::new(); cached_windows];
        let mut request_count = 0usize;
        // Scans arrive in ascending page order (chunks concatenate in
        // order), so scattering here keeps each bucket page-major — the
        // exact pre-sort order `scatter_batch` produces at replay time.
        for scan in scans {
            let size = pages[scan.page as usize].size();
            for &(s, n) in &scan.servers {
                load[s as usize] += n;
                unique_bytes[s as usize] += size;
                request_count += n as usize;
            }
            page_span[scan.page as usize] = Some(scan.span);
            for ev in scan.cached {
                let w = ((ev.time.as_millis() / window_ms) as usize).min(cached_windows - 1);
                lookahead_buckets[w].push(ev);
            }
            groups.push((scan.page, scan.servers));
        }

        // Same counts, same per-page substreams, same seed derivation as
        // `Workload::subscriptions` — hence the same table.
        let subscriptions = generate_subscriptions_from_counts(
            &groups,
            pages.len(),
            quality,
            1.0,
            config.seed ^ quality.to_bits(),
            threads,
        )?;

        let publishes = publishing.stream.events().to_vec();
        Ok(Self {
            meta: ReplayMeta {
                publish_count: publishes.len(),
                request_count,
                pages,
                servers,
                hours: (horizon.as_hours_f64().ceil() as usize).max(1),
                horizon,
                load,
                unique_bytes,
                min_capacity: Bytes::new(config.publishing.max_page_bytes),
            },
            publishes,
            stream,
            warp,
            subscriptions,
            matcher: None,
            page_span,
            window_ms,
            window_count,
            lookahead: lookahead_buckets,
        })
    }

    /// Attaches a content-based matcher: every later window pass resolves
    /// publish fan-outs and request counts against its frozen kernel
    /// instead of the subscription table. The matcher is frozen here, once
    /// (a no-op if already frozen). When the matcher reproduces the table
    /// (see `pscd_workload::matcher_from_table`), streaming output stays
    /// bit-identical — the `frozen_differential` suite proves it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MismatchedMatcher`] if the matcher covers a
    /// different fleet or page universe than the trace.
    pub fn attach_matcher(&mut self, mut matcher: EngineMatcher) -> Result<(), SimError> {
        if matcher.server_count() != self.meta.servers
            || matcher.page_count() != self.meta.pages.len()
        {
            return Err(SimError::MismatchedMatcher {
                servers: self.meta.servers,
                matcher_servers: matcher.server_count(),
                pages: self.meta.pages.len(),
                matcher_pages: matcher.page_count(),
            });
        }
        matcher.freeze();
        self.matcher = Some(matcher);
        Ok(())
    }

    /// The trace-wide replay facts (page table, fleet, capacity basis).
    pub fn meta(&self) -> &ReplayMeta {
        &self.meta
    }

    /// The subscription table both paths resolve against.
    pub fn subscriptions(&self) -> &SubscriptionTable {
        &self.subscriptions
    }

    /// Window length.
    pub fn window_size(&self) -> SimTime {
        SimTime::from_millis(self.window_ms)
    }

    /// Number of windows tiling the horizon.
    pub fn window_count(&self) -> usize {
        self.window_count
    }

    /// How many leading windows the constructor-fused cache covers
    /// (`0` unless built with [`with_lookahead`](Self::with_lookahead)).
    pub fn lookahead_len(&self) -> usize {
        self.lookahead.len()
    }

    /// The half-open `[t0, t1)` bounds of window `k`. The final window is
    /// open-ended so clamped events at the horizon edge (and any publish
    /// at it) cannot fall between windows.
    fn window_bounds(&self, k: usize) -> (SimTime, SimTime) {
        let t0 = SimTime::from_millis(self.window_ms * k as u64);
        let t1 = if k + 1 >= self.window_count {
            SimTime::from_millis(u64::MAX)
        } else {
            SimTime::from_millis(self.window_ms * (k as u64 + 1))
        };
        (t0, t1)
    }

    /// Regenerates every page whose span overlaps windows
    /// `[first, first + count)` — once per page for the whole batch — and
    /// scatters the warped, filtered events into `buckets[0..count]`
    /// (ascending page order, so each bucket is page-major pre-sort, the
    /// same relative order the monolithic generator feeds its one stable
    /// sort). Batching is what the prefetcher's speedup is made of: a page
    /// straddling `count` seams regenerates once instead of `count` times.
    fn scatter_batch(
        &self,
        first: usize,
        count: usize,
        scratch: &mut Vec<RequestEvent>,
        buckets: &mut [Vec<RequestEvent>],
    ) {
        debug_assert!(count >= 1 && first + count <= self.window_count);
        debug_assert!(buckets.len() >= count);
        let (t0, _) = self.window_bounds(first);
        let (_, t_end) = self.window_bounds(first + count - 1);
        for (page_idx, span) in self.page_span.iter().enumerate() {
            let Some((p_first, p_last)) = span else {
                continue;
            };
            if *p_last < t0 || *p_first >= t_end {
                continue;
            }
            scratch.clear();
            self.stream
                .append_page_requests(&self.meta.pages, page_idx, scratch);
            for ev in scratch.iter() {
                let time = match &self.warp {
                    Some(w) => w.apply(ev.time),
                    None => ev.time,
                };
                if time >= t0 && time < t_end {
                    // The division maps into the batch; the clamp folds
                    // the open-ended final window back onto its bucket.
                    let w = ((time.as_millis() / self.window_ms) as usize - first).min(count - 1);
                    buckets[w].push(RequestEvent::new(time, ev.server, ev.page));
                }
            }
        }
    }

    /// Gathers the requests of the next `buckets.len()` windows (fewer at
    /// the end of the horizon) into `buckets`, unsorted in page-major
    /// order: from the constructor-fused cache where it covers a window,
    /// regenerated as one batch for the rest. Returns the gathered window
    /// range and the first window that had to be regenerated, or `None`
    /// past the last window. The serial pass is the batch of one.
    pub(crate) fn gather_batch(
        &self,
        state: &WindowState,
        scratch: &mut Vec<RequestEvent>,
        buckets: &mut [Vec<RequestEvent>],
    ) -> Option<(Range<usize>, usize)> {
        let first = state.next_window;
        let end = (first + buckets.len()).min(self.window_count);
        if first >= end {
            return None;
        }
        let cached_end = self.lookahead.len().clamp(first, end);
        for (bucket, k) in buckets.iter_mut().zip(first..end) {
            bucket.clear();
            if k < cached_end {
                bucket.extend_from_slice(&self.lookahead[k]);
            }
        }
        if cached_end < end {
            self.scatter_batch(
                cached_end,
                end - cached_end,
                scratch,
                &mut buckets[cached_end - first..end - first],
            );
        }
        Some((first..end, cached_end))
    }

    /// Compiles the next window (per `state`) from its gathered
    /// `requests` (page-major; stably time-sorted here, so ties land as in
    /// the monolithic path): consumes the publish stream up to the window
    /// end, merges with the `publish.time <= request.time` tie-break, and
    /// resolves fan-outs/counts — the same lookups as
    /// `CompiledTrace::compile`, with the lineage carried in `state.heads`
    /// instead of a trace-local map. Returns the window's
    /// `(ordinal_base, start_index)` and advances every piece of carried
    /// state. Both the serial pass and the pipelined producer funnel
    /// through here, so the merge/resolve logic cannot diverge.
    pub(crate) fn compile_window_into(
        &self,
        state: &mut WindowState,
        requests: &mut [RequestEvent],
        events: &mut Vec<CompiledEvent>,
        offsets: &mut Vec<u32>,
        pairs: &mut Vec<(ServerId, u32)>,
    ) -> (u32, usize) {
        let k = state.next_window;
        debug_assert!(k < self.window_count, "compile past the last window");
        state.next_window += 1;
        let (_t0, t1) = self.window_bounds(k);
        requests.sort_by_key(|e| e.time);
        let matching = match &self.matcher {
            Some(matcher) => Matching::Matcher(matcher),
            None => Matching::Table(&self.subscriptions),
        };

        // Publishes in [t0, t1): everything earlier was consumed by
        // previous windows (the stream is time-sorted).
        let pub_start = state.publish_cursor;
        while self
            .publishes
            .get(state.publish_cursor)
            .is_some_and(|p| p.time < t1)
        {
            state.publish_cursor += 1;
        }
        let window_pubs = &self.publishes[pub_start..state.publish_cursor];

        events.clear();
        offsets.clear();
        offsets.push(0);
        pairs.clear();
        let (mut pi, mut ri) = (0usize, 0usize);
        while pi < window_pubs.len() || ri < requests.len() {
            let publish_next = match (window_pubs.get(pi), requests.get(ri)) {
                (Some(p), Some(r)) => p.time <= r.time,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if publish_next {
                let ev = window_pubs[pi];
                let ordinal = (pub_start + pi) as u32;
                pi += 1;
                let meta = &self.meta.pages[ev.page.as_usize()];
                let supersedes = state.heads.publish(ev.page, meta);
                pairs.extend_from_slice(matching.fanout(ev.page, &mut state.match_buf));
                offsets.push(pairs.len() as u32);
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
                        subs: matching.count(ev.page, ev.server, &mut state.match_buf),
                    },
                });
            }
        }

        let start_index = state.start_index;
        state.start_index += events.len();
        (pub_start as u32, start_index)
    }

    /// Starts a serial window pass: a [`ReplaySource`] yielding the
    /// timeline in `window_size` slices. Each open pass regenerates the
    /// request events window by window (reusing its buffers), carrying
    /// version heads, publish ordinals and event indices across seams.
    /// Multiple passes can be open concurrently — the trace itself is
    /// immutable — which is what lets shard workers each pull their own
    /// sequence.
    pub fn open(&self) -> StreamingWindows<'_> {
        StreamingWindows {
            trace: self,
            state: WindowState::new(self),
            events: Vec::new(),
            offsets: Vec::new(),
            pairs: Vec::new(),
            scratch: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Rebuilds the monolithic [`CompiledTrace`] by draining one window
    /// pass and concatenating (rebasing each window's local CSR onto the
    /// global pair table). The result is `==` to
    /// [`CompiledTrace::compile`] on the materialized workload — the
    /// differential proof, and the bridge for consumers that want to
    /// stream the compile but memoize the result.
    pub fn materialize(&self) -> CompiledTrace {
        CompiledTrace::concat(&mut self.open())
    }
}

/// Every piece of replay state carried across window seams, in one place:
/// the window cursor, the publish cursor (== the next window's ordinal
/// base), the global event index, the per-origin version heads driving
/// `supersedes`, and the matcher scratch. One `WindowState` advances
/// strictly in window order — handing it to
/// [`StreamingTrace::compile_window_into`] is what makes a window pass a
/// pass, whether the serial source or the pipelined producer owns it.
#[derive(Debug)]
pub(crate) struct WindowState {
    next_window: usize,
    publish_cursor: usize,
    start_index: usize,
    heads: VersionHeads,
    /// Lookup scratch for an attached matcher.
    match_buf: MatchBuffers,
}

impl WindowState {
    pub(crate) fn new(trace: &StreamingTrace) -> Self {
        Self {
            next_window: 0,
            publish_cursor: 0,
            start_index: 0,
            heads: VersionHeads::new(trace.meta.pages.len()),
            match_buf: MatchBuffers::default(),
        }
    }
}

/// One serial pass over a [`StreamingTrace`]'s windows: the lazily
/// generating [`ReplaySource`]. All cross-window replay state lives in the
/// owned [`WindowState`]; the window buffers are reused allocation-steady
/// from window to window.
#[derive(Debug)]
pub struct StreamingWindows<'a> {
    trace: &'a StreamingTrace,
    state: WindowState,
    events: Vec<CompiledEvent>,
    offsets: Vec<u32>,
    pairs: Vec<(ServerId, u32)>,
    /// Per-page regeneration buffer.
    scratch: Vec<RequestEvent>,
    /// The window's filtered, warped requests.
    requests: Vec<RequestEvent>,
}

impl StreamingWindows<'_> {
    /// Bytes currently held in the reusable window buffers — what "peak
    /// memory is O(window)" means concretely; the `stream_memory` suite
    /// checks the allocator against it.
    pub fn buffer_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<CompiledEvent>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.pairs.capacity() * std::mem::size_of::<(ServerId, u32)>()
            + self.scratch.capacity() * std::mem::size_of::<RequestEvent>()
            + self.requests.capacity() * std::mem::size_of::<RequestEvent>()
    }
}

impl ReplaySource for StreamingWindows<'_> {
    fn meta(&self) -> &ReplayMeta {
        self.trace.meta()
    }

    fn next_window(&mut self) -> Option<TraceWindow<'_>> {
        let trace = self.trace;
        let requests = std::slice::from_mut(&mut self.requests);
        trace.gather_batch(&self.state, &mut self.scratch, requests)?;
        let (ordinal_base, start_index) = trace.compile_window_into(
            &mut self.state,
            &mut self.requests,
            &mut self.events,
            &mut self.offsets,
            &mut self.pairs,
        );
        Some(TraceWindow {
            pages: &trace.meta.pages,
            events: &self.events,
            offsets: &self.offsets,
            pairs: &self.pairs,
            ordinal_base,
            start_index,
        })
    }
}

/// [`simulate_compiled`](crate::simulate_compiled) without the compiled
/// trace: replays a [`StreamingTrace`] window by window in O(window) peak
/// memory. With [`SimOptions::threads`] beyond one the run shards along
/// the proxy axis like the materialized path — each shard worker opens
/// its own window pass (regenerating the stream per shard, holding one
/// window each). Results are bit-identical to the materialized replay at
/// every window size and thread count; the `stream_differential` suite
/// proves it. This is the serial reference arm — see
/// [`simulate_streamed_prefetched`](crate::simulate_streamed_prefetched)
/// for the pipelined path that overlaps generation with replay and shares
/// one prefetcher across shards.
///
/// # Errors
///
/// Returns [`SimError`] if the fetch-cost vector does not cover the
/// trace's proxies or an option is out of range.
pub fn simulate_streamed(
    trace: &StreamingTrace,
    costs: &FetchCosts,
    options: &SimOptions,
) -> Result<SimResult, SimError> {
    validate_meta(trace.meta(), costs, options)?;
    let open = || trace.open();
    let sink = TraceSink::disabled();
    Ok(run_shards::<_, NullObserver>(trace.meta(), open, costs, options, &sink).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_core::StrategyKind;
    use pscd_workload::Workload;

    fn config() -> WorkloadConfig {
        WorkloadConfig::news_scaled(0.004)
    }

    fn monolithic(config: &WorkloadConfig, quality: f64) -> CompiledTrace {
        let w = Workload::generate(config).unwrap();
        let subs = w.subscriptions(quality).unwrap();
        CompiledTrace::compile(&w, &subs).unwrap()
    }

    #[test]
    fn materialized_stream_equals_monolithic_compile() {
        let reference = monolithic(&config(), 1.0);
        for window in [
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimTime::from_hours(13),
            SimTime::from_days(2),
            SimTime::from_days(30),
        ] {
            let stream = StreamingTrace::new(&config(), 1.0, window, 1).unwrap();
            assert_eq!(stream.meta(), reference.meta(), "window = {window:?}");
            assert_eq!(
                stream.materialize(),
                reference,
                "window = {window:?} ({} windows)",
                stream.window_count()
            );
        }
    }

    #[test]
    fn lookahead_cache_is_bit_identical() {
        let reference = monolithic(&config(), 1.0);
        for depth in [1, 2, 4, 64] {
            let stream =
                StreamingTrace::with_lookahead(&config(), 1.0, SimTime::from_hours(13), 1, depth)
                    .unwrap();
            assert_eq!(stream.lookahead_len(), depth.min(stream.window_count()));
            assert_eq!(stream.materialize(), reference, "depth = {depth}");
        }
    }

    #[test]
    fn streaming_meta_and_table_match_the_workload() {
        let w = Workload::generate(&config()).unwrap();
        let stream = StreamingTrace::new(&config(), 0.8, SimTime::from_days(1), 2).unwrap();
        assert_eq!(stream.subscriptions(), &w.subscriptions(0.8).unwrap());
        assert_eq!(
            stream.meta().request_load(),
            &w.requests().requests_per_server(w.server_count())
        );
        assert_eq!(stream.meta().capacities(0.05), w.cache_capacities(0.05));
        assert_eq!(stream.window_count(), 7);
        assert_eq!(stream.window_size(), SimTime::from_days(1));
    }

    #[test]
    fn windows_tile_with_carried_state() {
        let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(11), 1).unwrap();
        let mut pass = stream.open();
        let mut next_start = 0usize;
        let mut next_ordinal = 0u32;
        let mut windows = 0usize;
        while let Some(w) = pass.next_window() {
            assert_eq!(w.start_index(), next_start);
            next_start = w.end_index();
            for ev in w.events() {
                if let CompiledEventKind::Publish { ordinal, .. } = ev.kind {
                    assert_eq!(ordinal, next_ordinal, "publish ordinals are global");
                    next_ordinal += 1;
                }
            }
            windows += 1;
        }
        assert_eq!(windows, stream.window_count());
        assert_eq!(next_start, stream.meta().len());
        assert_eq!(next_ordinal as usize, stream.meta().publish_count());
    }

    #[test]
    fn streamed_replay_matches_compiled_replay() {
        let reference = monolithic(&config(), 1.0);
        let costs = FetchCosts::uniform(reference.server_count());
        let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(9), 1).unwrap();
        for kind in [StrategyKind::Sg2 { beta: 2.0 }, StrategyKind::Lru] {
            let opt = SimOptions::at_capacity(kind, 0.05);
            let compiled = crate::simulate_compiled(&reference, &costs, &opt).unwrap();
            let streamed = simulate_streamed(&stream, &costs, &opt).unwrap();
            assert_eq!(streamed, compiled);
            // Sharded streaming merges to the same totals.
            let sharded = simulate_streamed(&stream, &costs, &opt.with_threads(4)).unwrap();
            assert_eq!(sharded, compiled);
        }
    }

    #[test]
    fn scenario_stream_matches_compiled_scenario_build() {
        let scenario = ScenarioConfig::flash_crowds();
        let w = scenario.build_threads(0).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let reference = CompiledTrace::compile(&w, &subs).unwrap();
        let stream =
            StreamingTrace::from_scenario(&scenario, 1.0, SimTime::from_hours(6), 0).unwrap();
        assert_eq!(stream.materialize(), reference);
        // The warped lookahead cache scatters the same events.
        let cached = StreamingTrace::from_scenario_with_lookahead(
            &scenario,
            1.0,
            SimTime::from_hours(6),
            0,
            3,
        )
        .unwrap();
        assert_eq!(cached.materialize(), reference);
    }

    #[test]
    fn attached_matcher_streams_bit_identically() {
        let reference = monolithic(&config(), 1.0);
        let mut stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(13), 1).unwrap();
        let matcher =
            pscd_workload::matcher_from_table(stream.subscriptions(), stream.meta().server_count());
        stream.attach_matcher(matcher).unwrap();
        assert_eq!(stream.materialize(), reference);
        // A matcher covering the wrong universe is rejected.
        let mut other = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(13), 1).unwrap();
        assert!(matches!(
            other.attach_matcher(EngineMatcher::new(1)),
            Err(SimError::MismatchedMatcher { .. })
        ));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut bad = config();
        bad.requests.horizon = SimTime::from_days(3);
        assert!(StreamingTrace::new(&bad, 1.0, SimTime::from_hours(1), 1).is_err());
        assert!(StreamingTrace::new(&config(), 0.0, SimTime::from_hours(1), 1).is_err());
        let stream = StreamingTrace::new(&config(), 1.0, SimTime::from_days(1), 1).unwrap();
        let bad_costs = FetchCosts::uniform(3);
        assert!(matches!(
            simulate_streamed(
                &stream,
                &bad_costs,
                &SimOptions::at_capacity(StrategyKind::Sub, 0.05)
            ),
            Err(SimError::MismatchedCosts { .. })
        ));
    }
}
