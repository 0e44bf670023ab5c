//! Streaming trace compilation: bounded-memory replay straight from the
//! workload config.
//!
//! [`CompiledTrace`] materializes the whole timeline before the first
//! replay step. Every random draw in `pscd-workload` comes from a
//! per-entity substream ([`pscd_workload::seeds`]), so any page's request
//! events can be drawn on demand, bit for bit, without the rest of the
//! trace. [`StreamingTrace`] keeps only the O(pages) artifacts resident
//! (page table, publish stream, the [`RequestStream`] draws, the
//! subscription table, each page's first request instant) and compiles
//! the timeline one *slice* at a time as the replay loop pulls it,
//! carrying the cross-slice state — per-origin version heads, the global
//! publish ordinal, the global event index, the pending tail — in a
//! `WindowState`.
//!
//! **Slices.** A slice is a time range bounded both by the configured
//! window and by a fixed budget of drawn events: construction plans the
//! cut instants once, from each page's first request instant and drawn
//! count, adding a cut inside a window wherever the pages first
//! requested since the last cut would draw more than the budget. A flash
//! crowd thus reaches the replay as several small slices instead of one
//! window whose generation stalls it, and a slice's buffers stay bounded
//! whatever the window.
//!
//! **Generate once.** A pass draws each page's substream exactly once, in
//! the batch of slices that contains the page's first request. The
//! events inside the batch go to its buckets; the stragglers beyond it
//! wait on the *pending tail*, one flat vector, and each later gather
//! moves the ones that have come due to their buckets. Request times
//! decay with page age (§4 of the paper), so a page's span is long only
//! because of a few late requests and the tail holds a small share of the
//! trace. Peak memory is O(depth × slice + live tail), not O(trace); the
//! `stream_memory` suite proves it with a counting allocator.
//!
//! Bit-identity with the monolithic path rests on three facts:
//!
//! 1. **A stable `(time, page)` sort commutes with time-windowing and
//!    with draw order.** The monolithic request trace is the stable
//!    time-sort of the page-major concatenation of per-page events: time,
//!    then page, then the page's own generation order. A page is drawn
//!    once, so within a window's bucket its events sit in generation order
//!    (wholly from the tail or wholly from this batch's draw) whatever the
//!    order across pages; sorting the bucket stably by `(time, page)`
//!    restores exactly the monolithic order. A scenario [`TimeWarp`] is
//!    applied per event *before* the sort in both paths, so warping cannot
//!    reorder ties.
//! 2. **Publish/request merging is windowable.** Slices cut the timeline
//!    at instants, so the `publish.time <= request.time` tie-break only
//!    ever compares events landing in the same slice.
//! 3. **Resolution is per-event or carried.** Fan-outs and subscription
//!    counts are static table lookups; the only cross-event state,
//!    the per-origin version heads driving `supersedes`, is carried in
//!    [`VersionHeads`] across window seams.
//!
//! The serial pass ([`StreamingTrace::open`]) gathers one slice at a
//! time on the replay thread. The pipelined pass ([`crate::prefetch`],
//! [`Replay::prefetched`](crate::Replay::prefetched)) moves generation +
//! compilation to a producer thread that works `prefetch_depth` slices
//! ahead. Both drive the same `gather_batch` + `compile_window_into` pair
//! over a `WindowState` — the serial pass is the batch of one — so the
//! per-slice gather/merge/resolve logic cannot diverge; `prefetch::tests`
//! prove that a wider batch scatters the same events.
//!
//! The `stream_differential` suite asserts [`StreamingTrace::materialize`]
//! `==` [`CompiledTrace::compile`] and that crashes and invalidation cross
//! slice seams intact; `crates/spec/tests/variants.rs` checks every
//! strategy's replay against the spec across window sizes, thread counts
//! and prefetch depths.

use std::ops::Range;

use pscd_cache::PageUniverse;
use pscd_matching::EngineMatcher;
use pscd_topology::FetchCosts;
use pscd_types::{count, Bytes, PageMeta, PublishEvent, RequestEvent, SimTime, SubscriptionTable};
use pscd_workload::{
    generate_publishing, generate_subscriptions_from_counts, PageScratch, RequestStream,
    ScenarioConfig, TimeWarp, WorkloadConfig, WorkloadError,
};

use crate::pool::parallel_chunked;
use crate::resolve::{MatchBuffers, Matching, VersionHeads};
use crate::runner::SimOptions;
use crate::trace::{merge_timeline, CompiledEventKind, CompiledTrace};
use crate::window::{OwnedWindow, ReplayMeta, ReplaySource, TraceWindow};
use crate::{Replay, SimError, SimResult};

/// Pages per pool job in the counting scan. Scheduling granularity only —
/// every page has its own substream, so chunking never affects output.
const SCAN_CHUNK: usize = 256;

/// A replay source that generates and compiles the timeline one slice
/// at a time, directly from the workload config.
///
/// Construction runs the trace-wide draws ([`RequestStream::prepare`]),
/// the publish stream, and one counting scan over the pages (request
/// counts per `(page, server)`, per-page first request instants, the
/// capacity/load basis) — everything O(pages + servers), never the event
/// bulk. The subscription table is derived from the counted `P_{i,j}`
/// exactly as `Workload::subscriptions` derives it from the materialized
/// trace, so both paths resolve against the same table.
///
/// [`open`](StreamingTrace::open) starts a serial window pass;
/// [`Replay::streamed`] replays one per consumer;
/// [`Replay::prefetched`] replays through the pipelined prefetcher;
/// [`materialize`](StreamingTrace::materialize) rebuilds the full
/// [`CompiledTrace`] for differential proofs and memoizing consumers.
#[derive(Debug)]
pub struct StreamingTrace {
    meta: ReplayMeta,
    /// The full publish stream, time-sorted (O(pages), kept resident).
    publishes: Vec<PublishEvent>,
    /// The trace-wide request draws; a pass draws each page's events from
    /// it once.
    stream: RequestStream,
    /// Optional scenario intensity remap, applied per event before each
    /// window's stable sort (see the module docs on tie order).
    warp: Option<TimeWarp>,
    subscriptions: SubscriptionTable,
    /// Optional content-based matcher (frozen); when attached, window
    /// resolution evaluates it instead of the table lookups.
    matcher: Option<EngineMatcher>,
    /// `(warped first request instant, page)` of every page that drew
    /// requests, ascending: the order a pass draws pages in, walked by
    /// [`WindowState`]'s cursor.
    draw_order: Vec<(SimTime, u32)>,
    /// Start instant of every slice, ascending from zero (see
    /// [`plan_cuts`]); the last slice is open-ended.
    cuts: Vec<SimTime>,
}

/// Most request events the pages first requested in one slice may draw.
/// A slice whose first draw instant alone draws more is not split
/// further: slices cut the timeline at instants.
const SLICE_DRAWS: u64 = 8_192;

/// Plans a pass's slices over `[0, horizon)`: the start of every
/// `window` (`0` = the whole horizon) is a cut, and inside a window a cut
/// goes at the first request instant of the page that would lift the
/// slice's draws past [`SLICE_DRAWS`].
fn plan_cuts(
    draw_order: &[(SimTime, u32)],
    stream: &RequestStream,
    window: SimTime,
    horizon: SimTime,
) -> Vec<SimTime> {
    let horizon_ms = horizon.as_millis().max(1);
    let window_ms = match window.as_millis() {
        0 => horizon_ms,
        ms => ms,
    };
    let windows = horizon_ms.div_ceil(window_ms);
    let window_start = |k: u64| SimTime::from_millis(window_ms * k);
    let mut cuts = vec![SimTime::ZERO];
    let mut next_window = 1u64;
    let mut drawn = 0u64;
    for group in draw_order.chunk_by(|a, b| a.0 == b.0) {
        let at = group[0].0;
        while next_window < windows && window_start(next_window) <= at {
            cuts.push(window_start(next_window));
            next_window += 1;
            drawn = 0;
        }
        let draws: u64 = group
            .iter()
            .map(|&(_, page)| stream.count(page as usize))
            .sum();
        // `drawn > 0` means earlier instants since the last cut, so `at`
        // lies strictly after it.
        if drawn > 0 && drawn + draws > SLICE_DRAWS {
            cuts.push(at);
            drawn = 0;
        }
        drawn += draws;
    }
    cuts.extend((next_window..windows).map(window_start));
    cuts
}

/// One page's contribution to the counting scan.
struct PageScan {
    page: u32,
    /// `(server, requests)` in ascending server order.
    servers: Vec<(u16, u64)>,
    /// Warped first request instant.
    first: SimTime,
}

impl StreamingTrace {
    /// Builds a streaming source for `config` with subscriptions at
    /// `quality` (coverage 1, like `Workload::subscriptions`), slices no
    /// longer than `window` (`0` = the whole horizon), on up to
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
        Self::with_warp(config, None, quality, window, threads)
    }

    /// [`new`](StreamingTrace::new) for a scenario: derives the workload
    /// config and [`TimeWarp`] from `scenario` and streams the warped
    /// timeline — bit-identical to compiling `scenario.build(threads)`.
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
        let config = scenario.workload_config()?;
        let warp = scenario.time_warp()?;
        Self::with_warp(&config, warp, quality, window, threads)
    }

    fn with_warp(
        config: &WorkloadConfig,
        warp: Option<TimeWarp>,
        quality: f64,
        window: SimTime,
        threads: usize,
    ) -> Result<Self, WorkloadError> {
        if config.publishing.horizon != config.requests.horizon {
            return Err(WorkloadError::InvalidConfig {
                field: "horizon",
                constraint: "publishing.horizon == requests.horizon",
            });
        }
        let horizon = config.publishing.horizon;

        let publishing = generate_publishing(&config.publishing, config.seed, threads)?;
        let pages = publishing.pages;
        let stream = RequestStream::prepare(pages.len(), &config.requests, config.seed, threads)?;

        // The counting scan: draw each page's events once, count them per
        // server, note the warped first instant — and drop them. This is
        // the only full pass outside replay; it holds one page's events at
        // a time per worker.
        let scans: Vec<PageScan> = parallel_chunked(pages.len(), SCAN_CHUNK, threads, |range| {
            let mut out = Vec::new();
            let mut scratch: Vec<RequestEvent> = Vec::new();
            let mut draw = PageScratch::default();
            let mut servers: Vec<u16> = Vec::new();
            for page_idx in range {
                if stream.count(page_idx) == 0 {
                    continue;
                }
                scratch.clear();
                stream.append_page_requests(&pages, page_idx, &mut draw, &mut scratch);
                // Events are time-sorted within the page; a monotone warp
                // keeps the first one first.
                let first = scratch.first().expect("count > 0").time;
                let first = warp.as_ref().map_or(first, |w| w.apply(first));
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
                out.push(PageScan {
                    page: page_idx as u32,
                    servers: counts,
                    first,
                });
            }
            out
        });

        let servers = config.requests.servers;
        let mut load = vec![0u64; servers as usize];
        let mut unique_bytes = vec![Bytes::ZERO; servers as usize];
        let mut draw_order = Vec::with_capacity(scans.len());
        let mut groups: Vec<(u32, Vec<(u16, u64)>)> = Vec::with_capacity(scans.len());
        let mut request_count = 0usize;
        for scan in scans {
            let size = pages[scan.page as usize].size();
            for &(s, n) in &scan.servers {
                load[s as usize] += n;
                unique_bytes[s as usize] += size;
                request_count += n as usize;
            }
            draw_order.push((scan.first, scan.page));
            groups.push((scan.page, scan.servers));
        }
        draw_order.sort_unstable();
        let cuts = plan_cuts(&draw_order, &stream, window, horizon);

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
                universe: PageUniverse::new(pages.iter().map(PageMeta::size)),
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
            draw_order,
            cuts,
        })
    }

    /// Attaches a content-based matcher: every later window pass resolves
    /// publish fan-outs and request counts against its frozen kernel
    /// instead of the subscription table. The matcher is frozen here, once
    /// (a no-op if already frozen). When the matcher reproduces the table
    /// (see `pscd_workload::matcher_from_table`), streaming output stays
    /// bit-identical (`attached_matcher_streams_bit_identically` below).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MismatchedMatcher`] if the matcher covers a
    /// different fleet or page universe than the trace.
    pub fn attach_matcher(&mut self, mut matcher: EngineMatcher) -> Result<(), SimError> {
        if matcher.server_count() != self.meta.servers || !matcher.covers(self.meta.pages.len()) {
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

    /// Number of slices a pass hands over: the configured windows tiling
    /// the horizon, each split where its pages would draw more than a
    /// fixed budget of request events.
    pub fn window_count(&self) -> usize {
        self.cuts.len()
    }

    /// The half-open `[t0, t1)` bounds of slice `k`. The final slice is
    /// open-ended so clamped events at the horizon edge (and any publish
    /// at it) cannot fall between slices.
    fn window_bounds(&self, k: usize) -> (SimTime, SimTime) {
        let t1 = self.cuts.get(k + 1).copied();
        (self.cuts[k], t1.unwrap_or(SimTime::from_millis(u64::MAX)))
    }

    /// Gathers the requests of the next `buckets.len()` slices (fewer at
    /// the end of the horizon) into `buckets`, unsorted. The pending tail's
    /// events that have come due move to their buckets; then every page
    /// whose first request falls before the end of the batch is drawn —
    /// the one time this pass draws it — and its warped events are
    /// scattered: those of the batch into `buckets`, the later ones onto
    /// the tail. Returns the gathered slice range, or `None` past the
    /// last slice. The serial pass is the batch of one.
    pub(crate) fn gather_batch(
        &self,
        state: &mut WindowState,
        buckets: &mut [Vec<RequestEvent>],
    ) -> Option<Range<usize>> {
        let first = state.next_window;
        let end = (first + buckets.len()).min(self.cuts.len());
        if first >= end {
            return None;
        }
        for bucket in buckets.iter_mut() {
            bucket.clear();
        }
        let (_, t_end) = self.window_bounds(end - 1);
        // Earlier batches drew every page that starts before this one and
        // took every event before it, so an event before `t_end` lands in
        // `first..end`: its bucket is the number of the batch's later cuts
        // at or before it (the open-ended final slice takes the rest).
        let inner_cuts = &self.cuts[first + 1..end];
        let mut place = |ev: RequestEvent| {
            let w = inner_cuts.partition_point(|&cut| cut <= ev.time);
            buckets[w].push(ev);
        };
        state.tail.retain(|ev| {
            let due = ev.time < t_end;
            if due {
                place(*ev);
            }
            !due
        });
        while let Some(&(_, page)) = self
            .draw_order
            .get(state.page_cursor)
            .filter(|(t, _)| *t < t_end)
        {
            state.page_cursor += 1;
            let drawn = &mut state.drawn;
            drawn.clear();
            self.stream.append_page_requests(
                &self.meta.pages,
                page as usize,
                &mut state.draw_scratch,
                drawn,
            );
            state.generated_events += drawn.len();
            for ev in drawn.iter() {
                let time = match &self.warp {
                    Some(w) => w.apply(ev.time),
                    None => ev.time,
                };
                let ev = RequestEvent::new(time, ev.server, ev.page);
                if time < t_end {
                    place(ev);
                } else {
                    state.tail.push(ev);
                }
            }
        }
        Some(first..end)
    }

    /// Compiles the next window (per `state`) into `window` from its
    /// gathered `requests` (stably sorted by `(time, page)` here, so ties
    /// land as in the monolithic path whatever order the pages were drawn
    /// in): consumes the publish stream up to the window end, merges
    /// through the monolithic compiler's [`merge_timeline`] with the
    /// lineage carried in `state.heads`, and resolves fan-outs/counts —
    /// the same lookups as `CompiledTrace::compile`. Advances every piece
    /// of carried state. Both the serial pass and the pipelined producer
    /// funnel through here, so the merge/resolve logic cannot diverge.
    pub(crate) fn compile_window_into(
        &self,
        state: &mut WindowState,
        requests: &mut [RequestEvent],
        window: &mut OwnedWindow,
    ) {
        let k = state.next_window;
        debug_assert!(k < self.cuts.len(), "compile past the last slice");
        state.next_window += 1;
        count!(Counter::WindowsCompiled, 1);
        let (_t0, t1) = self.window_bounds(k);
        // The `(time, page)` key, packed: one integer compare per step of
        // the sort instead of a tuple's two.
        requests
            .sort_by_key(|e| (u128::from(e.time.as_millis()) << 32) | u128::from(e.page.index()));
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

        window.clear();
        window.ordinal_base = pub_start as u32;
        window.start_index = state.start_index;
        merge_timeline(
            window_pubs,
            pub_start as u32,
            requests,
            &self.meta.pages,
            &mut state.heads,
            &mut window.events,
        );
        for ev in &mut window.events {
            match &mut ev.kind {
                CompiledEventKind::Publish { .. } => {
                    let fanout = matching.fanout(ev.page, &mut state.match_buf);
                    window.pairs.extend_from_slice(fanout);
                    window.offsets.push(window.pairs.len() as u32);
                }
                CompiledEventKind::Request { server, subs } => {
                    *subs = matching.count(ev.page, *server, &mut state.match_buf);
                }
            }
        }
        state.start_index += window.events.len();
    }

    /// Starts a serial pass: a [`ReplaySource`] yielding the timeline
    /// slice by slice. Each open pass draws the request events slice by
    /// slice (reusing its buffers), carrying version heads, publish
    /// ordinals, event indices and the pending tail across seams.
    /// Multiple passes can be open concurrently — the trace itself is
    /// immutable — which is what lets shard workers each pull their own
    /// sequence.
    pub fn open(&self) -> StreamingWindows<'_> {
        StreamingWindows {
            trace: self,
            state: WindowState::new(self),
            window: OwnedWindow::with_capacity(0, 0),
            requests: Vec::new(),
        }
    }

    /// Rebuilds the monolithic [`CompiledTrace`] by draining one pass and
    /// concatenating (rebasing each slice's local CSR onto the
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
/// `supersedes`, the matcher scratch, the generate-once bookkeeping
/// (draw cursor, pending tail) and the page draw's buffers, reused from
/// page to page for the whole pass. One `WindowState` advances
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
    /// Next entry of [`StreamingTrace::draw_order`] this pass has not
    /// drawn yet.
    page_cursor: usize,
    /// The pending tail: requests already drawn, in draw order, for
    /// windows no batch has gathered yet.
    tail: Vec<RequestEvent>,
    /// One page's drawn events, before they are warped and placed.
    drawn: Vec<RequestEvent>,
    /// The page draw's working buffers.
    draw_scratch: PageScratch,
    /// Request events drawn so far; a full pass ends at exactly
    /// `meta.request_count()`, each page drawn once.
    pub(crate) generated_events: usize,
}

impl WindowState {
    /// Bytes the pending tail holds — its high-water so far, since the
    /// vector is never shrunk during a pass.
    pub(crate) fn tail_bytes(&self) -> usize {
        self.tail.capacity() * std::mem::size_of::<RequestEvent>()
    }

    /// Bytes the pending tail and the page draw's buffers hold.
    fn buffer_bytes(&self) -> usize {
        self.tail_bytes()
            + self.drawn.capacity() * std::mem::size_of::<RequestEvent>()
            + self.draw_scratch.bytes()
    }

    pub(crate) fn new(trace: &StreamingTrace) -> Self {
        Self {
            next_window: 0,
            publish_cursor: 0,
            start_index: 0,
            heads: VersionHeads::new(trace.meta.pages.len()),
            match_buf: MatchBuffers::default(),
            page_cursor: 0,
            tail: Vec::new(),
            drawn: Vec::new(),
            draw_scratch: PageScratch::default(),
            generated_events: 0,
        }
    }
}

/// One serial pass over a [`StreamingTrace`]'s windows: the lazily
/// generating [`ReplaySource`]. All cross-window replay state lives in the
/// owned `WindowState`; the window buffers are reused allocation-steady
/// from window to window.
#[derive(Debug)]
pub struct StreamingWindows<'a> {
    trace: &'a StreamingTrace,
    state: WindowState,
    window: OwnedWindow,
    /// The window's warped requests.
    requests: Vec<RequestEvent>,
}

impl StreamingWindows<'_> {
    /// Bytes currently held in the reusable slice buffers, the page
    /// draw's buffers and the pending tail — what "peak memory is
    /// O(slice + live tail)" means concretely; the `stream_memory` suite
    /// checks the allocator against it.
    pub fn buffer_bytes(&self) -> usize {
        self.window.bytes()
            + self.requests.capacity() * std::mem::size_of::<RequestEvent>()
            + self.state.buffer_bytes()
    }

    /// Request events this pass has drawn so far. After the last window it
    /// equals `meta().request_count()`: every page is drawn exactly once.
    pub fn generated_events(&self) -> usize {
        self.state.generated_events
    }
}

impl ReplaySource for StreamingWindows<'_> {
    fn meta(&self) -> &ReplayMeta {
        self.trace.meta()
    }

    fn next_window(&mut self) -> Option<TraceWindow<'_>> {
        let trace = self.trace;
        let requests = std::slice::from_mut(&mut self.requests);
        trace.gather_batch(&mut self.state, requests)?;
        trace.compile_window_into(&mut self.state, &mut self.requests, &mut self.window);
        Some(self.window.view(&trace.meta.pages))
    }
}

/// [`Replay::streamed`] over a one-member lineup; kept only for the
/// benchmark's call sites.
///
/// # Errors
///
/// As [`Replay::run`].
pub fn simulate_streamed(
    trace: &StreamingTrace,
    costs: &FetchCosts,
    options: &SimOptions,
) -> Result<SimResult, SimError> {
    Replay::streamed(trace, costs).solo(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_core::StrategyKind;
    use pscd_workload::Workload;

    fn config() -> WorkloadConfig {
        WorkloadConfig::news_scaled(0.004)
    }

    #[test]
    fn scenario_stream_matches_compiled_scenario_build() {
        let scenario = ScenarioConfig::flash_crowds();
        let w = scenario.build(0).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let reference = CompiledTrace::compile(&w, &subs).unwrap();
        let stream =
            StreamingTrace::from_scenario(&scenario, 1.0, SimTime::from_hours(6), 0).unwrap();
        assert_eq!(stream.materialize(), reference);
    }

    #[test]
    fn a_flash_crowd_is_sliced_within_the_budget() {
        let scenario = pscd_spec::sliced_flash_crowd();
        let window = SimTime::from_hours(24);
        let stream = StreamingTrace::from_scenario(&scenario, 1.0, window, 1).unwrap();
        let days = scenario.horizon_days as usize;
        assert!(
            stream.window_count() > days,
            "no window split: {} slices",
            stream.window_count()
        );
        assert!(stream.cuts.windows(2).all(|c| c[0] < c[1]));
        let mut window_starts = (0..days as u64).map(SimTime::from_days);
        assert!(window_starts.all(|t| stream.cuts.contains(&t)));

        // A slice draws at most the budget, unless its pages all share one
        // first instant (a cut can only fall between instants).
        let mut slices: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); stream.window_count()];
        for &(first, page) in &stream.draw_order {
            let k = stream.cuts.partition_point(|&cut| cut <= first) - 1;
            slices[k].push((first, stream.stream.count(page as usize)));
        }
        for (k, pages) in slices.iter().enumerate() {
            let draws: u64 = pages.iter().map(|&(_, n)| n).sum();
            let one_instant = pages.iter().all(|&(t, _)| t == pages[0].0);
            assert!(
                draws <= SLICE_DRAWS || one_instant,
                "slice {k} draws {draws} events over several instants"
            );
        }

        // Each slice holds exactly the requests of its time range, gathered
        // alone (the serial pass) or in a batch (the prefetcher): the first
        // request of the page that opens a slice is at its cut.
        for depth in [1, 3] {
            let mut state = WindowState::new(&stream);
            let mut buckets = vec![Vec::new(); depth];
            while let Some(slices) = stream.gather_batch(&mut state, &mut buckets) {
                for (k, bucket) in slices.zip(&mut buckets) {
                    let (t0, t1) = stream.window_bounds(k);
                    let outside = bucket.iter().find(|ev| ev.time < t0 || ev.time >= t1);
                    assert_eq!(
                        outside, None,
                        "depth {depth}: slice {k} is [{t0:?}, {t1:?})"
                    );
                    let mut window = OwnedWindow::with_capacity(0, 0);
                    stream.compile_window_into(&mut state, bucket, &mut window);
                }
            }
        }

        // Slicing changes no event: the replays are compared with the spec
        // in `stream_differential`.
        let w = scenario.build(1).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        assert_eq!(
            stream.materialize(),
            CompiledTrace::compile(&w, &subs).unwrap()
        );
    }

    #[test]
    fn attached_matcher_streams_bit_identically() {
        let w = Workload::generate(&config()).unwrap();
        let reference = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
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

    /// The right *number* of pages over the wrong ids: page 0 would fan out
    /// to nobody and count 0 without an error.
    #[test]
    fn attach_matcher_rejects_a_matcher_over_shifted_ids() {
        let mut stream = StreamingTrace::new(&config(), 1.0, SimTime::from_hours(13), 1).unwrap();
        let pages = stream.meta().pages().len();
        let mut shifted = EngineMatcher::new(stream.meta().server_count());
        for id in 1..=pages as u32 {
            shifted.register_page(pscd_types::PageId::new(id), pscd_matching::Content::new());
        }
        assert_eq!(shifted.page_count(), pages);
        assert!(matches!(
            stream.attach_matcher(shifted),
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
