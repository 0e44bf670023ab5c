//! Windowed replay: bounded chunks of a compiled timeline, pulled from a
//! [`ReplaySource`].
//!
//! The replay loop never needs the whole timeline at once — it consumes
//! events strictly in order. A [`ReplaySource`] hands it one compiled
//! [`TraceWindow`] at a time plus the trace-wide facts ([`ReplayMeta`]:
//! page table, fleet size, capacity basis) that must exist up front.
//! [`CompiledTrace`](crate::CompiledTrace) is the materialized source: one
//! [`OwnedWindow`] spanning the whole timeline, served as one window;
//! [`StreamingTrace`](crate::StreamingTrace) generates and compiles each
//! slice on demand so peak memory is O(slice), not O(trace), either on
//! the replay thread or ahead of it through the prefetch queue. The
//! variant table (`crates/spec/tests/variants.rs`) replays all three to
//! the spec's result.
//!
//! An [`OwnedWindow`] is the one buffer every window is compiled into: a
//! compiled trace holds one, the serial stream reuses one, the prefetch
//! producer hands each across threads, and the live service (`pscd-service`)
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
/// Every window is an [`OwnedWindow`] borrowed through
/// [`view`](OwnedWindow::view). `offsets` has one entry per publish in the
/// window plus one; publish ordinal `o` (global) maps to local index
/// `o - ordinal_base`, and `offsets` values index the window's own
/// `pairs`.
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
#[derive(Debug, PartialEq)]
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

    /// Appends `window`, which must follow this one on the timeline, with
    /// its CSR slice rebased onto this window's pair table.
    pub(crate) fn append(&mut self, window: &TraceWindow<'_>) {
        self.events.extend_from_slice(window.events);
        let (lo, hi) = (window.offsets[0], window.offsets[window.offsets.len() - 1]);
        let base = self.pairs.len() as u32;
        self.offsets
            .extend(window.offsets[1..].iter().map(|off| base + (off - lo)));
        self.pairs
            .extend_from_slice(&window.pairs[lo as usize..hi as usize]);
    }

    /// Bytes the buffers hold.
    pub(crate) fn bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<CompiledEvent>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.pairs.capacity() * std::mem::size_of::<(ServerId, u32)>()
    }
}

impl Clone for OwnedWindow {
    fn clone(&self) -> Self {
        Self {
            events: self.events.clone(),
            offsets: self.offsets.clone(),
            pairs: self.pairs.clone(),
            ordinal_base: self.ordinal_base,
            start_index: self.start_index,
        }
    }

    /// Copies `source` into this window's buffers, which allocate only
    /// where `source` outgrows them (the service's batch ring).
    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
        self.offsets.clone_from(&source.offsets);
        self.pairs.clone_from(&source.pairs);
        self.ordinal_base = source.ordinal_base;
        self.start_index = source.start_index;
    }
}

/// A producer of compiled [`TraceWindow`]s, consumed strictly in timeline
/// order. The implementations are a materialized
/// [`CompiledTrace`](crate::CompiledTrace)'s one window, the lazily
/// generating [`StreamingWindows`](crate::stream::StreamingWindows), and
/// the prefetch queue's per-consumer cursor; the replay loop cannot tell
/// them apart — each source's rows in `crates/spec/tests/variants.rs`
/// equal the spec.
pub trait ReplaySource {
    /// Trace-wide facts, available before (and independent of) any window.
    fn meta(&self) -> &ReplayMeta;

    /// Compiles and returns the next window, or `None` after the last.
    /// Windows tile the timeline: `start_index` of each is one past the
    /// previous window's last event (empty windows are legal).
    fn next_window(&mut self) -> Option<TraceWindow<'_>>;
}

/// A [`ReplaySource`] of exactly one window: the window, then `None`. It
/// is how a materialized [`CompiledTrace`](crate::CompiledTrace) reaches
/// the driver (an empty trace still yields one empty window).
#[derive(Debug, Clone)]
pub(crate) struct OneWindow<'a> {
    meta: &'a ReplayMeta,
    window: Option<TraceWindow<'a>>,
}

impl<'a> OneWindow<'a> {
    /// A source serving `window` once under `meta`.
    pub(crate) fn new(meta: &'a ReplayMeta, window: TraceWindow<'a>) -> Self {
        Self {
            meta,
            window: Some(window),
        }
    }
}

impl ReplaySource for OneWindow<'_> {
    fn meta(&self) -> &ReplayMeta {
        self.meta
    }

    fn next_window(&mut self) -> Option<TraceWindow<'_>> {
        self.window.take()
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
        let mut pairs = 0;
        for ev in w.events() {
            if let CompiledEventKind::Publish { ordinal, .. } = ev.kind {
                pairs += w.matched(ordinal).len() as u64;
            }
        }
        assert_eq!(pairs, trace.total_matched_pairs());

        // The one-window source serves exactly `full_window()`, then ends.
        let mut source = trace.source();
        assert_eq!(source.meta(), trace.meta());
        let served = source.next_window().expect("one window");
        assert!(std::ptr::eq(served.events, w.events));
        assert!(std::ptr::eq(served.offsets, w.offsets));
        assert!(std::ptr::eq(served.pairs, w.pairs));
        assert_eq!(
            (served.ordinal_base, served.start_index),
            (w.ordinal_base, w.start_index)
        );
        assert!(source.next_window().is_none());

        // An empty trace still yields one (empty) window.
        let meta = ReplayMeta {
            publish_count: 0,
            request_count: 0,
            ..trace.meta().clone()
        };
        let none = OwnedWindow::with_capacity(0, 0);
        let empty = CompiledTrace::concat(&mut OneWindow::new(&meta, none.view(&meta.pages)));
        assert!(empty.is_empty());
        let mut source = empty.source();
        let served = source.next_window().expect("one empty window");
        assert!(served.is_empty());
        assert_eq!(served.offsets, [0]);
        assert!(source.next_window().is_none());
    }

    #[test]
    fn capacities_and_meta_match_the_trace_accessors() {
        let trace = fixture();
        let meta = trace.meta();
        assert_eq!(meta.capacities(0.05), trace.capacities(0.05));
        assert_eq!(meta.hours(), trace.hours());
        assert_eq!(meta.pages(), trace.pages());
        assert_eq!(meta.len(), trace.len());
        assert_eq!(meta.request_count(), trace.request_count());
        assert!(!meta.is_empty());
    }
}
