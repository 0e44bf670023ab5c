//! Windowed replay: bounded chunks of a compiled timeline, pulled from a
//! [`ReplaySource`].
//!
//! The replay loop never needs the whole timeline at once — it consumes
//! events strictly in order. A [`ReplaySource`] hands it one compiled
//! [`TraceWindow`] at a time plus the trace-wide facts ([`ReplayMeta`]:
//! page table, fleet size, capacity basis) that must exist up front.
//! [`CompiledTrace`](crate::CompiledTrace) is the materialized source
//! (one window, or pre-chunked, via
//! [`windows`](crate::CompiledTrace::windows));
//! [`StreamingTrace`](crate::StreamingTrace) generates and compiles each
//! window on demand so peak memory is O(window), not O(trace), either on
//! the replay thread or ahead of it through the prefetch queue. The
//! variant table (`crates/spec/tests/variants.rs`) replays all three to
//! the spec's result.
//!
//! An [`OwnedWindow`] is the one buffer a window is compiled into outside a
//! materialized trace: the serial stream reuses one, the prefetch producer
//! hands each across threads, and the live service (`pscd-service`)
//! resolves every ingest batch into one and drains it through the same
//! replay step.

use pscd_cache::PageUniverse;
use pscd_types::{Bytes, PageId, PageMeta, ServerId, SimTime};

use crate::trace::{CompiledEvent, CompiledEventKind};

/// Trace-wide facts every replay needs before the first window: the page
/// universe, the fleet, the hour-bucket span, and the capacity/load basis.
/// Immutable and cheap to share; the per-event bulk lives in the windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMeta {
    /// Page metadata, indexed by page id.
    pub(crate) pages: Vec<PageMeta>,
    /// The page sizes as the caches see them (each proxy's resident bound).
    pub(crate) universe: PageUniverse,
    pub(crate) servers: u16,
    pub(crate) hours: usize,
    pub(crate) horizon: SimTime,
    pub(crate) publish_count: usize,
    pub(crate) request_count: usize,
    /// Requests per server — the shard-plan load vector.
    pub(crate) load: Vec<u64>,
    /// Per-server unique requested bytes — the capacity basis.
    pub(crate) unique_bytes: Vec<Bytes>,
    /// One-page minimum capacity for servers that requested nothing.
    pub(crate) min_capacity: Bytes,
}

impl ReplayMeta {
    /// The page table, indexed by page id.
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }

    /// The page universe every proxy cache of a replay is built over.
    pub fn universe(&self) -> &PageUniverse {
        &self.universe
    }

    /// Metadata of one page.
    #[inline]
    pub fn page(&self, page: PageId) -> &PageMeta {
        &self.pages[page.as_usize()]
    }

    /// Number of proxy servers.
    pub fn server_count(&self) -> u16 {
        self.servers
    }

    /// Hour buckets covering the horizon (≥ 1).
    pub fn hours(&self) -> usize {
        self.hours
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of publish events across the whole timeline.
    pub fn publish_count(&self) -> usize {
        self.publish_count
    }

    /// Number of request events across the whole timeline.
    pub fn request_count(&self) -> usize {
        self.request_count
    }

    /// Total timeline events (publishes + requests).
    pub fn len(&self) -> usize {
        self.publish_count + self.request_count
    }

    /// `true` if the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests per server over the whole trace — the load vector shard
    /// plans balance on.
    pub fn request_load(&self) -> &[u64] {
        &self.load
    }

    /// Per-server cache capacities at a fraction of unique requested
    /// bytes; identical to `Workload::cache_capacities` (servers that
    /// requested nothing get a one-page minimum).
    pub fn capacities(&self, fraction: f64) -> Vec<Bytes> {
        self.unique_bytes
            .iter()
            .map(|&b| {
                let c = b.scaled(fraction);
                if c.is_zero() {
                    self.min_capacity
                } else {
                    c
                }
            })
            .collect()
    }
}

/// One bounded, fully compiled chunk of the timeline: a contiguous event
/// range with its publish fan-outs resolved into a CSR slice.
///
/// The representation is shared by both sources. `offsets` has one entry
/// per publish in the window plus one; publish ordinal `o` (global) maps
/// to local index `o - ordinal_base`, and `offsets` values index `pairs`
/// directly — for a materialized trace they are global indices into the
/// trace-wide pair table, for a streaming window local indices into the
/// window's own buffer. The arithmetic is identical either way.
#[derive(Debug, Clone, Copy)]
pub struct TraceWindow<'a> {
    /// The full page table (pages outlive any window).
    pub(crate) pages: &'a [PageMeta],
    /// This window's contiguous slice of the merged timeline.
    pub(crate) events: &'a [CompiledEvent],
    /// CSR offsets into `pairs`, one per publish in the window plus one.
    pub(crate) offsets: &'a [u32],
    /// Matched `(server, count)` pairs referenced by `offsets`.
    pub(crate) pairs: &'a [(ServerId, u32)],
    /// Global publish ordinal of the window's first publish.
    pub(crate) ordinal_base: u32,
    /// Global timeline index of `events[0]`.
    pub(crate) start_index: usize,
}

impl<'a> TraceWindow<'a> {
    /// The window's events, in timeline order.
    #[inline]
    pub fn events(&self) -> &'a [CompiledEvent] {
        self.events
    }

    /// Global timeline index of the window's first event.
    #[inline]
    pub fn start_index(&self) -> usize {
        self.start_index
    }

    /// Global timeline index one past the window's last event.
    #[inline]
    pub fn end_index(&self) -> usize {
        self.start_index + self.events.len()
    }

    /// Number of events in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` for a window with no events (legal mid-stream).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Metadata of one page.
    #[inline]
    pub fn page(&self, page: PageId) -> &'a PageMeta {
        &self.pages[page.as_usize()]
    }

    /// The matched `(server, subscription count)` list of publish ordinal
    /// `ordinal` (global), sorted by server id.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` does not belong to this window.
    #[inline]
    pub fn matched(&self, ordinal: u32) -> &'a [(ServerId, u32)] {
        let local = (ordinal - self.ordinal_base) as usize;
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// The part of `ordinal`'s matched list inside the half-open server
    /// range `[start, end)` — a binary-searched subslice, because each
    /// list is sorted by server id (how a shard reads its share of the
    /// push schedule without copying).
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` does not belong to this window.
    #[inline]
    pub fn matched_in(&self, ordinal: u32, start: u16, end: u16) -> &'a [(ServerId, u32)] {
        let matched = self.matched(ordinal);
        let lo = matched.partition_point(|&(s, _)| s.index() < start);
        let hi = matched.partition_point(|&(s, _)| s.index() < end);
        &matched[lo..hi]
    }
}

/// One compiled window in owned buffers, borrowed back as a
/// [`TraceWindow`] through [`view`](OwnedWindow::view). The streaming
/// sources compile into it; the live service fills it with
/// [`push_publish`](OwnedWindow::push_publish) and
/// [`push_request`](OwnedWindow::push_request), one batch at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedWindow {
    pub(crate) events: Vec<CompiledEvent>,
    /// CSR offsets into `pairs`: one per publish in the window plus one.
    pub(crate) offsets: Vec<u32>,
    pub(crate) pairs: Vec<(ServerId, u32)>,
    pub(crate) ordinal_base: u32,
    pub(crate) start_index: usize,
}

impl OwnedWindow {
    /// An empty window at the start of a timeline, with room for `events`
    /// events whose publishes match `pairs` `(server, count)` pairs in all.
    pub fn with_capacity(events: usize, pairs: usize) -> Self {
        let mut offsets = Vec::with_capacity(events + 1);
        offsets.push(0);
        Self {
            events: Vec::with_capacity(events),
            offsets,
            pairs: Vec::with_capacity(pairs),
            ordinal_base: 0,
            start_index: 0,
        }
    }

    /// Appends the publish of `page` at `time`, superseding `supersedes`
    /// and matched at `fanout` (sorted by server). Its ordinal is the
    /// window's base plus the publishes already in it.
    pub fn push_publish(
        &mut self,
        time: SimTime,
        page: PageId,
        supersedes: Option<PageId>,
        fanout: &[(ServerId, u32)],
    ) {
        let ordinal = self.ordinal_base + (self.offsets.len() - 1) as u32;
        self.pairs.extend_from_slice(fanout);
        self.offsets.push(self.pairs.len() as u32);
        self.events.push(CompiledEvent {
            time,
            page,
            kind: CompiledEventKind::Publish {
                ordinal,
                supersedes,
            },
        });
    }

    /// Appends a request for `page` at `server` and `time`, where `subs`
    /// subscriptions match it.
    pub fn push_request(&mut self, time: SimTime, server: ServerId, page: PageId, subs: u32) {
        self.events.push(CompiledEvent {
            time,
            page,
            kind: CompiledEventKind::Request { server, subs },
        });
    }

    /// Number of events in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` for a window with no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Empties the window for the events that follow it: the next one
    /// takes the timeline index after this window's last, and publish
    /// ordinals start again at the window's base. Keeps the buffers.
    pub fn clear(&mut self) {
        self.start_index += self.events.len();
        self.events.clear();
        self.offsets.truncate(1);
        self.pairs.clear();
    }

    /// The window as the replay loop reads it, over the page table
    /// `pages`.
    pub fn view<'a>(&'a self, pages: &'a [PageMeta]) -> TraceWindow<'a> {
        TraceWindow {
            pages,
            events: &self.events,
            offsets: &self.offsets,
            pairs: &self.pairs,
            ordinal_base: self.ordinal_base,
            start_index: self.start_index,
        }
    }

    /// Bytes the buffers hold.
    pub(crate) fn bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<CompiledEvent>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.pairs.capacity() * std::mem::size_of::<(ServerId, u32)>()
    }
}

/// A producer of compiled [`TraceWindow`]s, consumed strictly in timeline
/// order. The implementations are the materialized [`CompiledWindows`]
/// (slices of a [`CompiledTrace`](crate::CompiledTrace)), the lazily
/// generating [`StreamingWindows`](crate::stream::StreamingWindows), and
/// the prefetch queue's per-consumer cursor; the replay loop cannot tell
/// them apart — each source's rows in `crates/spec/tests/variants.rs`
/// equal the spec.
pub trait ReplaySource {
    /// Trace-wide facts, available before (and independent of) any window.
    fn meta(&self) -> &ReplayMeta;

    /// Compiles and returns the next window, or `None` after the last.
    /// Windows tile the timeline: `start_index` of each equals the
    /// previous window's `end_index` (empty windows are legal).
    fn next_window(&mut self) -> Option<TraceWindow<'_>>;
}

/// [`ReplaySource`] over a materialized [`CompiledTrace`]: yields the
/// timeline in `per_window`-event slices (the final slice may be
/// shorter). Created by [`CompiledTrace::windows`].
///
/// [`CompiledTrace`]: crate::CompiledTrace
/// [`CompiledTrace::windows`]: crate::CompiledTrace::windows
#[derive(Debug, Clone)]
pub struct CompiledWindows<'a> {
    pub(crate) trace: &'a crate::CompiledTrace,
    pub(crate) per_window: usize,
    /// Next timeline index to serve.
    pub(crate) cursor: usize,
    /// Publishes before `cursor` (the next window's `ordinal_base`).
    pub(crate) publishes_before: usize,
    /// `true` once the final window has been served (so an empty trace
    /// still yields exactly one empty window, then ends).
    pub(crate) done: bool,
}

impl ReplaySource for CompiledWindows<'_> {
    fn meta(&self) -> &ReplayMeta {
        self.trace.meta()
    }

    fn next_window(&mut self) -> Option<TraceWindow<'_>> {
        if self.done {
            return None;
        }
        let events = self.trace.events();
        let start = self.cursor;
        let end = start.saturating_add(self.per_window).min(events.len());
        self.cursor = end;
        let slice = &events[start..end];
        let first_pub = self.publishes_before;
        self.done = end == events.len();
        let publishes = if self.done {
            // The final window (the only one when `per_window` covers the
            // trace) owns every remaining publish: no counting pass.
            self.trace.publish_count() - first_pub
        } else {
            slice
                .iter()
                .filter(|e| matches!(e.kind, CompiledEventKind::Publish { .. }))
                .count()
        };
        self.publishes_before += publishes;
        Some(TraceWindow {
            pages: self.trace.pages(),
            events: slice,
            // Always a valid subslice, even for a publish-free window
            // (one offset entry delimits zero publishes).
            offsets: &self.trace.offsets()[first_pub..=first_pub + publishes],
            pairs: self.trace.pairs(),
            ordinal_base: first_pub as u32,
            start_index: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CompiledTrace;
    use pscd_workload::{Workload, WorkloadConfig};

    fn fixture() -> CompiledTrace {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        CompiledTrace::compile(&w, &subs).unwrap()
    }

    #[test]
    fn full_window_covers_the_whole_timeline() {
        let trace = fixture();
        let w = trace.full_window();
        assert_eq!(w.start_index(), 0);
        assert_eq!(w.len(), trace.len());
        assert_eq!(w.events(), trace.events());
        for ev in w.events() {
            if let CompiledEventKind::Publish { ordinal, .. } = ev.kind {
                assert_eq!(w.matched(ordinal), trace.matched(ordinal));
            }
        }
    }

    #[test]
    fn chunked_windows_tile_and_agree_with_the_trace() {
        let trace = fixture();
        for per_window in [1, 7, 128, trace.len(), trace.len() + 5] {
            let mut source = trace.windows(per_window);
            assert_eq!(source.meta(), trace.meta());
            let mut next_start = 0usize;
            let mut seen = 0usize;
            while let Some(w) = source.next_window() {
                assert_eq!(w.start_index(), next_start, "windows tile");
                next_start = w.end_index();
                for ev in w.events() {
                    assert_eq!(ev, &trace.events()[seen]);
                    if let CompiledEventKind::Publish { ordinal, .. } = ev.kind {
                        assert_eq!(w.matched(ordinal), trace.matched(ordinal));
                        assert_eq!(
                            w.matched_in(ordinal, 3, 40),
                            trace.matched_in(ordinal, 3, 40)
                        );
                    }
                    seen += 1;
                }
            }
            assert_eq!(seen, trace.len(), "per_window = {per_window}");
        }
    }

    #[test]
    fn capacities_and_meta_match_the_trace_accessors() {
        let trace = fixture();
        let meta = trace.meta();
        assert_eq!(meta.capacities(0.05), trace.capacities(0.05));
        assert_eq!(meta.server_count(), trace.server_count());
        assert_eq!(meta.hours(), trace.hours());
        assert_eq!(meta.horizon(), trace.horizon());
        assert_eq!(meta.request_load(), trace.request_load());
        assert_eq!(meta.len(), trace.len());
        assert_eq!(meta.publish_count(), trace.publish_count());
        assert!(!meta.is_empty());
    }
}
