//! Proves the streaming claim that matters: peak memory is O(depth ×
//! window + live tail), not O(trace).
//!
//! A byte-counting `#[global_allocator]` wraps the system allocator and
//! tracks live bytes plus a high-water mark. The test measures the peak
//! growth of (a) the monolithic path — materialize the workload, derive
//! subscriptions, compile the full timeline — and (b) the streaming path
//! — build a [`StreamingTrace`] and drain a whole window pass — and
//! asserts the streaming peak is a small fraction of the monolithic one,
//! and that the buffers are bounded by the slice whatever the window.
//!
//! The `#[ignore]`d scale test runs the ≥1M-subscription configuration
//! end to end (`cargo test -p pscd-sim --test stream_memory --release --
//! --ignored`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pscd_core::StrategyKind;
use pscd_sim::{CompiledTrace, PrefetchOptions, Replay, ReplaySource, SimOptions, StreamingTrace};
use pscd_topology::FetchCosts;
use pscd_types::{RequestEvent, SimTime};
use pscd_workload::{Workload, WorkloadConfig};

struct ByteCountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the grown size before the old block is released: briefly
        // holding both halves is exactly what a realloc peak looks like.
        note_alloc(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// Runs `f` and returns how far the allocator's high-water mark rose
/// above the live bytes at entry — the peak memory `f` added.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (peak.saturating_sub(base), value)
}

/// The byte counters are process-wide, so the measuring tests take turns:
/// run side by side (the harness default) each would read the other's
/// allocations as its own peak.
static MEASURING: Mutex<()> = Mutex::new(());

/// Everything below runs single-threaded (`threads = 1`) so the peaks
/// measure the algorithms, not pool-worker stacks racing the counter.
#[test]
fn streaming_peak_is_a_fraction_of_the_monolithic_peak() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Event-heavy fixture: the O(trace) term (events) must dwarf the
    // O(pages) state both paths keep resident, or the comparison would
    // measure page tables, not the streaming window bound.
    let mut config = WorkloadConfig::news_scaled(0.05);
    config.requests.total_requests *= 16;

    // Monolithic: materialize the full workload, then compile the whole
    // timeline. The trace (plus the workload's own event vectors) is the
    // O(trace) term this peak captures.
    let (mono_peak, len) = peak_growth(|| {
        let w = Workload::generate_threads(&config, 1).unwrap();
        let subs = w.subscriptions_threads(1.0, 1).unwrap();
        let trace = CompiledTrace::compile_threads(&w, &subs, 1).unwrap();
        trace.len()
    });
    assert!(len > 10_000, "fixture too small to be meaningful ({len})");

    // Streaming: same timeline, 1-hour windows, never materialized.
    let window = SimTime::from_hours(1);
    let (stream_peak, events) = peak_growth(|| {
        let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
        let mut pass = stream.open();
        let mut events = 0usize;
        while let Some(w) = pass.next_window() {
            events += w.len();
        }
        events
    });
    assert_eq!(events, len, "both paths must cover the same timeline");
    eprintln!(
        "16x fixture ({len} events): monolithic peak {:.2} MB, \
         streaming peak {:.2} MB",
        mono_peak as f64 / 1e6,
        stream_peak as f64 / 1e6
    );
    assert!(
        stream_peak * 3 < mono_peak,
        "streaming peak {stream_peak} B is not meaningfully below the \
         monolithic peak {mono_peak} B"
    );

    // O(slice + live tail), concretely: a slice is bounded by a budget of
    // drawn events as well as by the window, so widening the window 168×
    // leaves the high-water buffer bytes (slice buffers and pending tail)
    // within a small factor of 1-hour windows'.
    let buffer_peak = |window: SimTime| {
        let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
        let mut pass = stream.open();
        let mut peak = 0usize;
        while pass.next_window().is_some() {
            peak = peak.max(pass.buffer_bytes());
        }
        peak
    };
    let small = buffer_peak(SimTime::from_hours(1));
    for hours in [24, 168] {
        let large = buffer_peak(SimTime::from_hours(hours));
        eprintln!(
            "slice buffers: 1 h windows = {:.2} MB, {hours} h windows = {:.2} MB",
            small as f64 / 1e6,
            large as f64 / 1e6
        );
        assert!(
            large < small * 4,
            "{hours} h window buffers ({large} B) are not bounded by the \
             slice: 1 h windows hold {small} B"
        );
    }

    // And the streamed replay itself stays bounded: replaying from the
    // streaming source peaks far below the monolithic compile alone.
    let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
    let costs = FetchCosts::uniform(stream.meta().server_count());
    let options = [SimOptions::at_capacity(
        StrategyKind::Sg2 { beta: 2.0 },
        0.05,
    )];
    let (replay_peak, result) =
        peak_growth(|| Replay::streamed(&stream, &costs).run(&options).unwrap());
    assert!(result[0].requests > 0);
    assert!(
        replay_peak < mono_peak,
        "streamed replay peak {replay_peak} B exceeds the monolithic \
         compile peak {mono_peak} B"
    );
}

/// The pipelined prefetcher keeps the O(window) claim: compiling up to
/// `depth` windows ahead of the replay holds at most `depth + 1` windows
/// alive (the in-flight one plus the queue), so its peak is proportional
/// to the prefetch depth times the window size — never O(trace).
#[test]
fn prefetch_peak_is_bounded_by_depth_windows_not_the_trace() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = WorkloadConfig::news_scaled(0.05);
    config.requests.total_requests *= 16;

    // The O(trace) yardstick this fixture must stay below.
    let (mono_peak, len) = peak_growth(|| {
        let w = Workload::generate_threads(&config, 1).unwrap();
        let subs = w.subscriptions_threads(1.0, 1).unwrap();
        CompiledTrace::compile_threads(&w, &subs, 1).unwrap().len()
    });

    // Pipelined replay at the default depth stays a fraction of the
    // monolithic peak — the whole point of streaming survives the
    // compile-ahead overlap.
    let window = SimTime::from_hours(1);
    let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
    let costs = FetchCosts::uniform(stream.meta().server_count());
    let options = [SimOptions::at_capacity(
        StrategyKind::Sg2 { beta: 2.0 },
        0.05,
    )];
    let (serial_peak, serial) =
        peak_growth(|| Replay::streamed(&stream, &costs).run(&options).unwrap());
    let prefetched = |depth| Replay::prefetched(&stream, PrefetchOptions::new(depth), &costs);
    let (pipelined_peak, result) = peak_growth(|| prefetched(2).run(&options).unwrap());
    assert_eq!(result, serial);
    assert_eq!(result[0].requests as usize, stream.meta().request_count());
    eprintln!(
        "16x fixture ({len} events): monolithic peak {:.2} MB, serial \
         streamed replay {:.2} MB, pipelined replay {:.2} MB",
        mono_peak as f64 / 1e6,
        serial_peak as f64 / 1e6,
        pipelined_peak as f64 / 1e6
    );
    // Replay state (per-proxy caches, page table) dominates both replay
    // peaks; what the depth bound must guarantee is that compiling ahead
    // adds only O(depth) windows on top of the serial streamed replay —
    // nowhere near the O(trace) monolithic term.
    assert!(
        pipelined_peak < mono_peak,
        "pipelined replay peak {pipelined_peak} B exceeds the monolithic \
         compile peak {mono_peak} B"
    );
    assert!(
        pipelined_peak < serial_peak * 2,
        "pipelined replay peak {pipelined_peak} B is more than twice the \
         serial streamed replay peak {serial_peak} B — the prefetch queue \
         is not O(depth x window)"
    );

    // A lineup of six shares the one production: at depth 1 (each of its
    // blocking cursors on a thread of its own) it replays each member as
    // its solo replay does, and it peaks below the six solo replays'
    // peaks summed — which count six productions' slices and tails.
    let six: Vec<_> = (StrategyKind::figure4_lineup(2.0).into_iter())
        .map(|kind| SimOptions::at_capacity(kind, 0.05))
        .collect();
    let solos: Vec<_> = six
        .iter()
        .map(|o| peak_growth(|| prefetched(1).run(&[*o]).unwrap()))
        .collect();
    let (lineup_peak, lineup) = peak_growth(|| prefetched(1).run(&six).unwrap());
    let solo_sum: usize = solos.iter().map(|(peak, _)| peak).sum();
    assert_eq!(
        lineup,
        solos
            .into_iter()
            .map(|(_, mut r)| r.remove(0))
            .collect::<Vec<_>>()
    );
    eprintln!(
        "lineup of six at depth 1: {:.2} MB; its six solo replays: {:.2} MB summed",
        lineup_peak as f64 / 1e6,
        solo_sum as f64 / 1e6
    );
    assert!(
        lineup_peak < solo_sum,
        "lineup peak {lineup_peak} B is not below its solo peaks' sum {solo_sum} B"
    );

    // The queue's own high-water accounting agrees with the depth+1
    // bound, and the resident compiled bytes scale with the depth, not
    // the window count (a lineup's count: `prefetch::tests`).
    let [drained, _, deep] = [1, 2, 4].map(|depth| {
        let stats = stream.drain_prefetched(&PrefetchOptions::new(depth));
        assert_eq!((stats.windows, stats.events), (stream.window_count(), len));
        assert!(
            stats.peak_windows <= depth + 1 && stats.peak_bytes > 0,
            "depth {depth}: queue held {} windows",
            stats.peak_windows
        );
        stats
    });
    eprintln!(
        "queue high water: depth 1 = {} windows / {:.2} MB, \
         depth 4 = {} windows / {:.2} MB",
        drained.peak_windows,
        drained.peak_bytes as f64 / 1e6,
        deep.peak_windows,
        deep.peak_bytes as f64 / 1e6
    );
    // A deeper queue may hold proportionally more compiled bytes but
    // never an O(window_count) share of the trace: with 1-hour windows
    // the horizon has ~168 windows, so depth 4's resident set stays far
    // below half the timeline.
    let avg_window = (drained.peak_bytes / drained.peak_windows.max(1)).max(1);
    assert!(
        deep.peak_bytes / avg_window <= 16,
        "depth-4 resident compiled bytes ({} B) are not O(depth) windows \
         (single-window yardstick {} B)",
        deep.peak_bytes,
        avg_window
    );

    // The producer's pending tail — requests drawn with their page but due
    // in a window no batch has gathered yet — is the one term the depth
    // bound does not cover. Age decay keeps it a sliver of the trace: at
    // either depth it stays under the one depth-batch of compiled windows
    // (queued + being replayed) the depth-1 queue keeps alive.
    eprintln!(
        "pending tail high water: depth 1 = {:.3} MB, depth 4 = {:.3} MB \
         of {:.2} MB of requests",
        drained.peak_tail_bytes as f64 / 1e6,
        deep.peak_tail_bytes as f64 / 1e6,
        (stream.meta().request_count() * std::mem::size_of::<RequestEvent>()) as f64 / 1e6
    );
    for (depth, stats) in [(1, drained), (4, deep)] {
        assert!(
            stats.peak_tail_bytes <= drained.peak_bytes,
            "depth {depth}: pending tail {} B exceeds the depth-1 queue's {} B",
            stats.peak_tail_bytes,
            drained.peak_bytes
        );
    }
}

/// The acceptance-scale run: a configuration carrying over a million
/// subscriptions streams end to end with the same O(window) bound.
/// Slow — run with `--release -- --ignored`.
#[test]
#[ignore = "minutes-long at 1M+ subscriptions; run with --release -- --ignored"]
fn million_subscription_run_streams_in_window_memory() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // ~6× the paper's NEWS trace: ~1.17M requests, and at quality 1 every
    // request's (page, server) draw contributes its count to the table,
    // so total subscriptions exceed a million.
    let config = WorkloadConfig::news_scaled(6.0);
    let window = SimTime::from_hours(6);

    // The monolithic yardstick: materialize everything, compile the
    // timeline. (Both paths keep the page table and the O(pairs)
    // subscription table resident — the term streaming removes is the
    // O(events) timeline.)
    let (mono_peak, events) = peak_growth(|| {
        let w = Workload::generate_threads(&config, 1).unwrap();
        let subs = w.subscriptions_threads(1.0, 1).unwrap();
        CompiledTrace::compile_threads(&w, &subs, 1).unwrap().len()
    });
    let compiled_floor = events * std::mem::size_of::<pscd_sim::CompiledEvent>();

    let (build_peak, stream) =
        peak_growth(|| StreamingTrace::new(&config, 1.0, window, 1).unwrap());
    let total_subs: u64 = stream
        .subscriptions()
        .iter()
        .map(|(_, _, count)| u64::from(count))
        .sum();
    assert!(
        total_subs >= 1_000_000,
        "fixture carries only {total_subs} subscriptions"
    );
    assert_eq!(stream.meta().len(), events);

    // O(window): draining a full pass on the built source grows memory by
    // window buffers (plus one page's regeneration scratch), far below
    // the compiled event array alone.
    let (pass_peak, windows) = peak_growth(|| {
        let mut pass = stream.open();
        let mut windows = 0usize;
        while pass.next_window().is_some() {
            windows += 1;
        }
        windows
    });
    assert_eq!(windows, stream.window_count());
    eprintln!(
        "1M-subscription run: {total_subs} subscriptions, {events} events, \
         {windows} windows; monolithic peak {:.2} MB, streaming build \
         {:.2} MB, window pass {:.2} MB (compiled events alone: {:.2} MB)",
        mono_peak as f64 / 1e6,
        build_peak as f64 / 1e6,
        pass_peak as f64 / 1e6,
        compiled_floor as f64 / 1e6
    );
    assert!(
        pass_peak < compiled_floor / 2,
        "window-pass peak {pass_peak} B is not O(window) against a \
         {events}-event timeline (compiled floor {compiled_floor} B)"
    );
    // End to end, streaming peaks below the monolithic pipeline.
    assert!(
        build_peak.max(pass_peak) < mono_peak,
        "streaming peaks (build {build_peak} B, pass {pass_peak} B) \
         do not undercut the monolithic peak {mono_peak} B"
    );
    let costs = FetchCosts::uniform(stream.meta().server_count());
    let options = [SimOptions::at_capacity(
        StrategyKind::Sg2 { beta: 2.0 },
        0.05,
    )];
    let result = Replay::streamed(&stream, &costs).run(&options).unwrap();
    assert_eq!(result[0].requests as usize, stream.meta().request_count());
}
