//! The streaming-replay differential suite: pulling compiled windows
//! lazily from the workload config ([`StreamingTrace`]) must be bit-for-
//! bit indistinguishable from compiling the whole timeline up front
//! ([`CompiledTrace`]) — same compiled events, same `SimResult` (totals,
//! hourly series, AND per-proxy accounting) — with invalidation lineage
//! spanning window seams, empty windows and tail-heavy streams. That a
//! streamed or prefetched replay equals the spec loop for every strategy,
//! at many window sizes, depths and thread counts, with crashes on a seam
//! and inside a window, is a row of the variant table
//! (`crates/spec/tests/variants.rs`).

use std::sync::OnceLock;

use pscd_core::StrategyKind;
use pscd_sim::{
    CompiledEventKind, CompiledTrace, PrefetchOptions, Replay, ReplaySource, SimOptions,
    StreamingTrace,
};
use pscd_spec::{sliced_flash_crowd, spec_replay, SpecInput};
use pscd_topology::FetchCosts;
use pscd_types::{RequestEvent, SimTime};
use pscd_workload::{ScenarioConfig, Workload, WorkloadConfig};

fn config() -> WorkloadConfig {
    WorkloadConfig::news_scaled(0.004)
}

/// The monolithic reference at subscription quality 0.8 (partial quality
/// exercises the non-trivial subscription seed derivation too).
fn reference() -> &'static (CompiledTrace, FetchCosts) {
    static FIX: OnceLock<(CompiledTrace, FetchCosts)> = OnceLock::new();
    FIX.get_or_init(|| {
        let w = Workload::generate(&config()).unwrap();
        let subs = w.subscriptions(0.8).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        (trace, costs)
    })
}

fn streaming(window: SimTime) -> StreamingTrace {
    StreamingTrace::new(&config(), 0.8, window, 1).unwrap()
}

/// The materialized concatenation of the streamed windows is `==` to the
/// monolithic compile — events, CSR fan-out tables, and meta — at window
/// lengths from one hour to past the horizon (`ZERO`: one window), over
/// the workload's own subscription table; a day-long window is one slice.
#[test]
fn materialized_windows_equal_monolithic_compile() {
    let (trace, _) = reference();
    let subs = Workload::generate(&config()).unwrap().subscriptions(0.8);
    assert_eq!(streaming(SimTime::from_days(1)).window_count(), 7);
    for window in [
        SimTime::ZERO,
        SimTime::from_hours(1),
        SimTime::from_hours(13),
        SimTime::from_hours(36),
        SimTime::from_days(2),
        SimTime::from_days(5),
        SimTime::from_days(30),
    ] {
        let stream = streaming(window);
        assert_eq!(stream.subscriptions(), subs.as_ref().unwrap());
        assert_eq!(stream.meta(), trace.meta(), "window = {window:?}");
        assert_eq!(&stream.materialize(), trace, "window = {window:?}");
    }
}

/// Tiny windows leave many interior windows empty; they must still tile
/// the timeline correctly (indices, ordinals, one window per slice the
/// stream counts) and replay identically. Every window's events and
/// fan-outs equal the monolithic compile's (which `materialize()` equals,
/// above) at the same indices.
#[test]
fn empty_windows_mid_stream_are_harmless() {
    let (trace, costs) = reference();
    let whole = trace.full_window();
    let stream = streaming(SimTime::from_millis(10 * 60 * 1000));
    let mut pass = stream.open();
    let (mut empty_interior, mut windows) = (0usize, 0usize);
    let mut seen_nonempty = false;
    let mut next_start = 0usize;
    while let Some(w) = pass.next_window() {
        windows += 1;
        if w.is_empty() {
            if seen_nonempty {
                empty_interior += 1;
            }
        } else {
            seen_nonempty = true;
        }
        assert_eq!(w.start_index(), next_start, "windows tile");
        next_start = w.start_index() + w.len();
        for (at, ev) in (w.start_index()..).zip(w.events()) {
            assert_eq!(ev, &trace.events()[at]);
            if let CompiledEventKind::Publish { ordinal, .. } = ev.kind {
                assert_eq!(w.matched(ordinal), whole.matched(ordinal));
                assert_eq!(
                    w.matched_in(ordinal, 3, 40),
                    whole.matched_in(ordinal, 3, 40)
                );
            }
        }
    }
    assert!(
        empty_interior > 0,
        "fixture has no empty mid-stream windows; shrink the window"
    );
    assert_eq!((next_start, windows), (trace.len(), stream.window_count()));
    let options = [SimOptions::at_capacity(StrategyKind::Gds, 0.05)];
    assert_eq!(
        Replay::compiled(trace, costs).run(&options).unwrap(),
        Replay::streamed(&stream, costs).run(&options).unwrap()
    );
}

/// Generate-once, tested as a count: a pass draws every page's substream
/// exactly once, so the request events it generates number exactly the
/// trace's requests — a regeneration ratio of 1.00× — at every window
/// size and prefetch depth, warped or not. (Before, a page was re-drawn
/// for every batch its span overlapped: 3.92× on `stream-churn`.)
#[test]
fn every_pass_draws_each_request_exactly_once() {
    let flash_crowds = ScenarioConfig::flash_crowds();
    for window in [
        SimTime::from_hours(1),
        SimTime::from_hours(6),
        SimTime::from_hours(13),
        SimTime::ZERO,
    ] {
        let warped = StreamingTrace::from_scenario(&flash_crowds, 1.0, window, 0).unwrap();
        for (name, stream) in [("plain", streaming(window)), ("flash_crowds", warped)] {
            let requests = stream.meta().request_count();
            let mut pass = stream.open();
            while pass.next_window().is_some() {}
            assert_eq!(
                pass.generated_events(),
                requests,
                "{name}, serial, window {window:?}"
            );
            for depth in [1usize, 2, 4] {
                let stats = stream.drain_prefetched(&PrefetchOptions::new(depth));
                assert_eq!(
                    stats.generated_events, requests,
                    "{name}, depth {depth}, window {window:?}"
                );
            }
        }
    }
}

/// The case generate-once's sizing assumption does not hold for: with
/// near-flat age decay a page's requests spread over the whole horizon,
/// so with windows far shorter than that most of the trace passes through
/// the pending tail instead of being a sliver of it. Memory grows; the
/// windows must not change (the prefetched windows themselves are compared
/// with the monolithic compile in `prefetch::tests`). Two fixtures: the 7-day horizon at 1-hour
/// windows, and the same trace squeezed into one hour at 1-minute
/// windows, where millisecond collisions give equal-time requests for one
/// page at different servers — the only place the `(time, page)` sort key
/// could reorder what the monolithic stable time-sort produced.
#[test]
fn slow_decay_tail_heavy_stream_is_bit_identical() {
    let request_server = |kind: CompiledEventKind| match kind {
        CompiledEventKind::Request { server, .. } => Some(server),
        CompiledEventKind::Publish { .. } => None,
    };
    for (horizon, window, volume, wants_ties) in [
        (SimTime::from_days(7), SimTime::from_hours(1), 8, false),
        (
            SimTime::from_hours(1),
            SimTime::from_millis(60_000),
            16,
            true,
        ),
    ] {
        let mut config = config();
        config.publishing.horizon = horizon;
        config.requests.horizon = horizon;
        config.requests.class_gammas = [0.05; 4];
        config.requests.total_requests *= volume;
        let w = Workload::generate(&config).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let reference = CompiledTrace::compile(&w, &subs).unwrap();
        let costs = FetchCosts::uniform(w.server_count());

        let ties = reference
            .events()
            .windows(2)
            .filter(|pair| {
                let (a, b) = (pair[0], pair[1]);
                a.time == b.time
                    && a.page == b.page
                    && matches!(
                        (request_server(a.kind), request_server(b.kind)),
                        (Some(x), Some(y)) if x != y
                    )
            })
            .count();
        assert!(
            ties > 0 || !wants_ties,
            "fixture has no equal-time same-page requests at different servers"
        );

        let stream = StreamingTrace::new(&config, 1.0, window, 1).unwrap();
        let tail = stream.drain_prefetched(&PrefetchOptions::new(1));
        let request_bytes = stream.meta().request_count() * std::mem::size_of::<RequestEvent>();
        eprintln!(
            "slow decay, {} windows: {} requests, {ties} cross-server ties, tail high-water \
             {:.2} of the request bytes",
            stream.window_count(),
            stream.meta().request_count(),
            tail.peak_tail_bytes as f64 / request_bytes as f64
        );
        assert!(
            tail.peak_tail_bytes * 4 > request_bytes,
            "tail high-water {} B is not a large share of the {request_bytes} B of requests; \
             the fixture is not adversarial",
            tail.peak_tail_bytes
        );

        assert_eq!(stream.materialize(), reference);
        let options = [SimOptions::at_capacity(StrategyKind::dc_lap(2.0), 0.05).with_threads(3)];
        let compiled = Replay::compiled(&reference, &costs).run(&options).unwrap();
        for depth in [1usize, 2, 4] {
            let prefetch = PrefetchOptions::new(depth);
            let pipelined = Replay::prefetched(&stream, prefetch, &costs).run(&options);
            assert_eq!(compiled, pipelined.unwrap(), "3 shards, depth = {depth}");
        }
    }
}

/// A flash crowd that lifts one 24 h window's draws past the slice budget
/// (`stream::tests::a_flash_crowd_is_sliced_within_the_budget` checks the
/// budget on the same scenario): the serial streamed replay of a
/// two-strategy lineup equals the spec, and the prefetched lineup at
/// depths 1–3, on one and two shards per member, equals both.
#[test]
fn a_sliced_flash_crowd_replays_like_the_spec() {
    let scenario = sliced_flash_crowd();
    let stream = StreamingTrace::from_scenario(&scenario, 1.0, SimTime::from_hours(24), 1).unwrap();
    let days = scenario.horizon_days as usize;
    assert!(stream.window_count() > days, "no 24 h window was sliced");

    let w = scenario.build(1).unwrap();
    let subs = w.subscriptions(1.0).unwrap();
    let costs = FetchCosts::uniform(w.server_count());
    let input = SpecInput::from_workload(&w, &subs, &costs);
    let lineup = [StrategyKind::Sub, StrategyKind::GdStar { beta: 2.0 }]
        .map(|kind| SimOptions::at_capacity(kind, 0.05).with_invalidation());
    let serial = Replay::streamed(&stream, &costs).run(&lineup).unwrap();
    for (options, result) in lineup.iter().zip(&serial) {
        let expected = spec_replay(&input, options).result;
        assert_eq!(result, &expected, "{}", options.strategy.name());
    }
    for depth in 1..=3 {
        for shards in 1..=2 {
            let threads = lineup.map(|o| o.with_threads(shards * lineup.len()));
            let replay = Replay::prefetched(&stream, PrefetchOptions::new(depth), &costs);
            let pipelined = replay.run(&threads).unwrap();
            assert_eq!(pipelined, serial, "depth {depth}, {shards} shards");
        }
    }
}
