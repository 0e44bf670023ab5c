//! Trace spans: nested, monotonic-timestamped, per-track span events for
//! timeline profiling, exportable as Chrome trace-event JSON (see
//! [`crate::chrome`]).
//!
//! Trace spans are the crate's one span store: they answer *when did phase
//! X run, on which thread, and what ran concurrently*, and
//! [`TraceLog::span_totals`] answers *how long did it take in total*. The
//! design mirrors the rest of the crate:
//!
//! * [`TraceSink`] — a cheap-clone handle shared across threads. A
//!   disabled sink (the default) carries no allocation and turns every
//!   recording call into a branch on a `None`, so tracing is zero-cost
//!   when off (the `alloc_free` suite asserts the hot loop performs zero
//!   allocations with a disabled recorder in the loop).
//! * [`TraceRecorder`] — a per-thread recorder minted by
//!   [`TraceSink::recorder`]. Within one recorder spans may nest
//!   ([`TraceRecorder::begin`]/[`TraceRecorder::end`] tokens, or the
//!   closure-shaped [`TraceRecorder::span`]); events buffer locally and
//!   flush into the sink on drop, so recording takes no lock per span.
//! * [`TraceLog`] — the merged result: named tracks of completed spans.
//!   Logs merge by track name through [`TraceLog::absorb`], the same
//!   monoid shape the metrics registry and the sharded simulator use, so
//!   per-shard recordings fold into one timeline.
//!
//! All timestamps are nanoseconds since the sink's epoch (the instant the
//! sink was enabled), taken from the monotonic clock.
//!
//! # Examples
//!
//! ```
//! use pscd_obs::TraceSink;
//!
//! let sink = TraceSink::enabled();
//! let mut rec = sink.recorder("main");
//! let total = rec.span("sum", || (1..=10).sum::<u32>());
//! assert_eq!(total, 55);
//! rec.flush();
//! let log = sink.drain();
//! assert_eq!(log.tracks().len(), 1);
//! assert_eq!(log.tracks()[0].events[0].label, "sum");
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// One completed span on a track: a label, a start offset, a duration,
/// and an optional free-form detail string (rendered into the Chrome
/// trace `args`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// What ran (e.g. `cold.compile`, `replay.SG2`, `replay.chunk`).
    pub label: String,
    /// Nanoseconds since the sink epoch at which the span began.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional human-readable annotation (chunk ranges, counts, …).
    pub detail: Option<String>,
}

/// A named sequence of spans — one horizontal lane of the exported
/// timeline, usually one worker thread or one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Display name (`main`, `shard 0 [0,50)`, `pool worker 2`, …).
    pub name: String,
    /// Completed spans, in flush order.
    pub events: Vec<SpanEvent>,
}

/// The merged recording of a traced run: every track that flushed into
/// the [`TraceSink`], in first-flush order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    tracks: Vec<Track>,
}

impl TraceLog {
    /// An empty log (the monoid identity for [`absorb`](Self::absorb)).
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded tracks, in first-flush order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Every span, track by track in first-flush order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> + '_ {
        self.tracks.iter().flat_map(|t| &t.events)
    }

    /// Spans aggregated by label across every track, in label order:
    /// `(label, total, count)`. A phase that ran more than once (e.g. one
    /// `cold.compile` per compiled-cache miss) is one row; this is the
    /// rolled-up view reports print.
    pub fn span_totals(&self) -> Vec<(&str, Duration, u64)> {
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for span in self.spans() {
            let entry = totals.entry(span.label.as_str()).or_default();
            entry.0 += span.dur_ns;
            entry.1 += 1;
        }
        totals
            .into_iter()
            .map(|(label, (ns, count))| (label, Duration::from_nanos(ns), count))
            .collect()
    }

    /// Total spans across all tracks.
    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.span_count() == 0
    }

    /// Appends events to the track named `track`, creating it on first
    /// use — tracks merge by name, so short-lived recorders for the same
    /// logical lane accumulate into one timeline row.
    pub fn add_events(&mut self, track: &str, events: Vec<SpanEvent>) {
        if events.is_empty() {
            return;
        }
        match self.tracks.iter_mut().find(|t| t.name == track) {
            Some(t) => t.events.extend(events),
            None => self.tracks.push(Track {
                name: track.to_owned(),
                events,
            }),
        }
    }

    /// Folds another log into this one (tracks merge by name, events
    /// concatenate) — the same exact-merge shape as
    /// [`Registry::merge`](crate::Registry::merge).
    pub fn absorb(&mut self, other: TraceLog) {
        for track in other.tracks {
            self.add_events(&track.name, track.events);
        }
    }
}

#[derive(Debug)]
struct SinkInner {
    epoch: Instant,
    log: Mutex<TraceLog>,
}

/// A shared handle threads record trace spans through.
///
/// Disabled (the default, [`TraceSink::disabled`]) it is a `None` and
/// every derived [`TraceRecorder`] is inert: no clock reads, no
/// allocations, no locks. Enabled ([`TraceSink::enabled`]) it pins the
/// epoch all timestamps are relative to and collects flushed tracks.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// The inert sink: all recording is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live sink whose epoch is now.
    pub fn enabled() -> Self {
        Self::at_epoch(Instant::now())
    }

    /// A live sink with an explicit epoch — for aligning with span
    /// sources that timestamp against their own epoch (e.g. the worker
    /// pool's task spans).
    pub fn at_epoch(epoch: Instant) -> Self {
        Self {
            inner: Some(Arc::new(SinkInner {
                epoch,
                log: Mutex::new(TraceLog::new()),
            })),
        }
    }

    /// `true` when recording is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The instant all span timestamps are relative to (`None` when
    /// disabled).
    pub fn epoch(&self) -> Option<Instant> {
        self.inner.as_ref().map(|i| i.epoch)
    }

    /// Mints a recorder for the track named `track`. Recorders for the
    /// same name (sequentially or from different threads) merge into one
    /// track at flush time.
    pub fn recorder(&self, track: impl Into<String>) -> TraceRecorder {
        TraceRecorder {
            sink: self.clone(),
            track: if self.is_enabled() {
                track.into()
            } else {
                String::new()
            },
            events: Vec::new(),
        }
    }

    /// Appends pre-built events to a named track (used by adapters that
    /// convert externally collected spans, e.g. the pool's task spans).
    pub fn add_events(&self, track: &str, events: Vec<SpanEvent>) {
        if let Some(inner) = &self.inner {
            inner.log.lock().add_events(track, events);
        }
    }

    /// Takes the collected log, leaving the sink empty but live.
    pub fn drain(&self) -> TraceLog {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.log.lock()),
            None => TraceLog::new(),
        }
    }

    /// A copy of the collected log.
    pub fn snapshot(&self) -> TraceLog {
        match &self.inner {
            Some(inner) => inner.log.lock().clone(),
            None => TraceLog::new(),
        }
    }
}

/// A begin token returned by [`TraceRecorder::begin`]; pass it back to
/// [`TraceRecorder::end`] to complete the span. Tokens nest: begin an
/// outer span, begin and end inner spans, then end the outer one.
#[derive(Debug)]
#[must_use = "an OpenSpan records nothing until passed to TraceRecorder::end"]
pub struct OpenSpan {
    /// `None` when the recorder is disabled — no clock was read.
    start: Option<Instant>,
}

/// A per-thread span recorder (see the module docs). Not `Sync`: each
/// thread records into its own recorder and the sink merges the tracks.
#[derive(Debug)]
pub struct TraceRecorder {
    sink: TraceSink,
    track: String,
    events: Vec<SpanEvent>,
}

impl TraceRecorder {
    /// `true` when spans are actually being recorded. Call sites with a
    /// per-event cost should branch on this and keep their uninstrumented
    /// loop when it is `false`.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Opens a span. Free when disabled (no clock read).
    pub fn begin(&self) -> OpenSpan {
        OpenSpan {
            start: if self.is_enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Completes `span` under `label`.
    pub fn end(&mut self, span: OpenSpan, label: &str) {
        self.end_at(span, label, None);
    }

    /// Completes `span` under `label` with a detail annotation built only
    /// when recording is live (so the format cost is zero when off).
    pub fn end_with(&mut self, span: OpenSpan, label: &str, detail: impl FnOnce() -> String) {
        if span.start.is_some() {
            let d = detail();
            self.end_at(span, label, Some(d));
        }
    }

    fn end_at(&mut self, span: OpenSpan, label: &str, detail: Option<String>) {
        let (Some(start), Some(epoch)) = (span.start, self.sink.epoch()) else {
            return;
        };
        let start_ns = start.saturating_duration_since(epoch).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.events.push(SpanEvent {
            label: label.to_owned(),
            start_ns,
            dur_ns,
            detail,
        });
    }

    /// Runs `f` inside a span labeled `label` and returns its result.
    pub fn span<R>(&mut self, label: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin();
        let result = f();
        self.end(open, label);
        result
    }

    /// Pushes the buffered events into the sink. Called automatically on
    /// drop; explicit calls let a long-lived recorder publish early.
    pub fn flush(&mut self) {
        if !self.events.is_empty() {
            self.sink
                .add_events(&self.track, std::mem::take(&mut self.events));
        }
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.epoch().is_none());
        let mut rec = sink.recorder("main");
        assert!(!rec.is_enabled());
        let open = rec.begin();
        assert!(open.start.is_none());
        rec.end(open, "x");
        let v = rec.span("y", || 7);
        assert_eq!(v, 7);
        let open = rec.begin();
        rec.end_with(open, "z", || unreachable!("detail not built when off"));
        rec.flush();
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn spans_nest_and_flush_on_drop() {
        let sink = TraceSink::enabled();
        {
            let mut rec = sink.recorder("main");
            let outer = rec.begin();
            rec.span("inner", || std::hint::black_box(1 + 1));
            rec.end_with(outer, "outer", || "two halves".to_owned());
        } // drop flushes
        let log = sink.drain();
        assert_eq!(log.tracks().len(), 1);
        let events = &log.tracks()[0].events;
        assert_eq!(events.len(), 2);
        // Inner completes first; outer encloses it.
        assert_eq!(events[0].label, "inner");
        assert_eq!(events[1].label, "outer");
        assert!(events[1].start_ns <= events[0].start_ns);
        assert!(
            events[1].start_ns + events[1].dur_ns >= events[0].start_ns + events[0].dur_ns,
            "outer span must enclose the inner one"
        );
        assert_eq!(events[1].detail.as_deref(), Some("two halves"));
        // Drain empties but keeps the sink live.
        assert!(sink.drain().is_empty());
        assert!(sink.is_enabled());
    }

    #[test]
    fn tracks_merge_by_name() {
        let sink = TraceSink::enabled();
        sink.recorder("a").span("one", || ());
        sink.recorder("b").span("two", || ());
        sink.recorder("a").span("three", || ());
        let log = sink.snapshot();
        assert_eq!(log.tracks().len(), 2);
        assert_eq!(log.tracks()[0].name, "a");
        assert_eq!(log.tracks()[0].events.len(), 2);
        assert_eq!(log.tracks()[1].name, "b");
        assert_eq!(log.span_count(), 3);
    }

    #[test]
    fn logs_absorb_like_a_monoid() {
        let mk = |track: &str, label: &str| {
            let mut log = TraceLog::new();
            log.add_events(
                track,
                vec![SpanEvent {
                    label: label.to_owned(),
                    start_ns: 0,
                    dur_ns: 1,
                    detail: None,
                }],
            );
            log
        };
        let mut a = mk("t", "x");
        a.absorb(mk("t", "y"));
        a.absorb(mk("u", "z"));
        a.absorb(TraceLog::new()); // identity
        assert_eq!(a.tracks().len(), 2);
        assert_eq!(a.tracks()[0].events.len(), 2);
        assert_eq!(a.span_count(), 3);
        // Empty event lists do not create tracks.
        let mut e = TraceLog::new();
        e.add_events("ghost", Vec::new());
        assert!(e.is_empty() && e.tracks().is_empty());
    }

    #[test]
    fn span_totals_aggregate_duplicate_labels_across_tracks() {
        let span = |label: &str, dur_ns| SpanEvent {
            label: label.into(),
            start_ns: 0,
            dur_ns,
            detail: None,
        };
        let mut log = TraceLog::new();
        log.add_events("cold", vec![span("compile", 10), span("generate", 5)]);
        log.add_events("audit", vec![span("compile", 30)]);
        // The flat view keeps every recording, track by track…
        let labels: Vec<&str> = log.spans().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["compile", "generate", "compile"]);
        // …while the rolled-up view sums by label, in label order.
        assert_eq!(
            log.span_totals(),
            [
                ("compile", Duration::from_nanos(40), 2),
                ("generate", Duration::from_nanos(5), 1),
            ]
        );
    }

    #[test]
    fn recorders_from_threads_share_one_sink() {
        let sink = TraceSink::enabled();
        std::thread::scope(|scope| {
            for k in 0..3 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let mut rec = sink.recorder(format!("worker {k}"));
                    rec.span("tick", || std::hint::black_box(k * 2));
                });
            }
        });
        let log = sink.drain();
        assert_eq!(log.tracks().len(), 3);
        assert_eq!(log.span_count(), 3);
    }
}
