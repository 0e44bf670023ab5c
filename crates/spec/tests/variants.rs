//! One variant table: every way the workspace replays a workload, checked
//! against the spec loop. A row is one variant × the twelve strategies of
//! [`LINEUP`] × one set of option axes, on one fixture (NEWS at 0.004
//! scale: about 780 requests and 120 pages, so the spec's linear scans
//! stay cheap). The spec's result is the expected value of every row, and
//! the whole `SimResult` is compared, `per_server` and `hourly` included.
//!
//! The service has no crash injection, so its rows skip the crash axes;
//! in them it also hands back every proxy's cache state, which must equal
//! the sequential replay's byte for byte.

use std::sync::{Arc, OnceLock};

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_obs::TraceSink;
use pscd_service::{ServiceConfig, ServiceCore};
use pscd_sim::{
    CompiledEventKind, CompiledTrace, CrashPlan, PrefetchOptions, Replay, SimOptions, SimResult,
    Simulation, StreamingTrace,
};
use pscd_spec::{spec_replay, spec_strategy, SpecInput, SpecRun, LINEUP};
use pscd_topology::FetchCosts;
use pscd_types::{Bytes, LiveEvent, PageMeta, ServerId, SimTime, SubscriptionTable};
use pscd_workload::{matcher_from_table, Workload, WorkloadConfig};

const QUALITY: f64 = 0.8;

fn config() -> WorkloadConfig {
    WorkloadConfig::news_scaled(0.004)
}

struct Fixture {
    input: SpecInput,
    costs: FetchCosts,
    trace: CompiledTrace,
    matcher_trace: CompiledTrace,
    subs: SubscriptionTable,
    /// The service's stream: the subscription rows, then the timeline.
    events: Vec<LiveEvent>,
    pages: Arc<[PageMeta]>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = Workload::generate(&config()).unwrap();
        let subs = w.subscriptions(QUALITY).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        let trace = CompiledTrace::compile(&w, &subs).unwrap();
        let mut matcher = matcher_from_table(&subs, w.server_count());
        Fixture {
            input: SpecInput::from_workload(&w, &subs, &costs),
            matcher_trace: CompiledTrace::compile_from_matcher(&w, &mut matcher).unwrap(),
            events: w.live_events(&subs),
            pages: trace.pages().iter().copied().collect(),
            costs,
            trace,
            subs,
        }
    })
}

type Axes = (PushScheme, Option<(u64, f64)>, bool);

/// `(scheme, crash (day, fraction), invalidation)`: the paper's setting,
/// then the extensions in pairs.
const AXES: [Axes; 4] = [
    (PushScheme::Always, None, false),
    (PushScheme::WhenNecessary, None, true),
    (PushScheme::Always, Some((2, 0.5)), true),
    (PushScheme::WhenNecessary, Some((1, 1.0)), false),
];

fn options(kind: StrategyKind, (scheme, crash, invalidate_stale): Axes) -> SimOptions {
    let crash = crash.map(|(day, fraction)| CrashPlan {
        time: SimTime::from_days(day),
        fraction,
        seed: 42,
    });
    SimOptions {
        scheme,
        crash,
        invalidate_stale,
        ..SimOptions::at_capacity(kind, 0.05)
    }
}

/// The spec's run of every axes set × strategy, computed once.
fn spec() -> &'static [[SpecRun; 12]; 4] {
    static SPEC: OnceLock<[[SpecRun; 12]; 4]> = OnceLock::new();
    let input = &fixture().input;
    SPEC.get_or_init(|| {
        AXES.map(|axes| LINEUP.map(|kind| spec_replay(input, &options(kind, axes))))
    })
}

/// Every row of `variant`: each axes set it runs (`run` returns `Some`)
/// × the lineup, the replay equal to the spec.
fn assert_rows(variant: &str, run: impl Fn(&SimOptions) -> Option<SimResult>) {
    for (axes, runs) in AXES.into_iter().zip(spec()) {
        for (kind, expected) in LINEUP.into_iter().zip(runs) {
            if let Some(got) = run(&options(kind, axes)) {
                assert_eq!(got, expected.result, "{variant}, {}, {axes:?}", kind.name());
            }
        }
    }
}

/// The one result of a one-member lineup.
fn solo(replay: Replay<'_>, options: SimOptions) -> SimResult {
    replay.run(&[options]).unwrap().remove(0)
}

#[test]
fn sequential_replay_equals_the_spec() {
    let f = fixture();
    assert_rows("sequential", |o| {
        Some(solo(
            Replay::compiled(&f.trace, &f.costs),
            o.with_threads(1),
        ))
    });
}

#[test]
fn sharded_replay_equals_the_spec() {
    let f = fixture();
    // 0 = auto; 64 clamps to the fleet.
    for threads in [2, 4, 7, 0, 64] {
        assert_rows(&format!("{threads} shards"), |o| {
            Some(solo(
                Replay::compiled(&f.trace, &f.costs),
                o.with_threads(threads),
            ))
        });
    }
}

fn streaming(window: SimTime) -> StreamingTrace {
    StreamingTrace::new(&config(), QUALITY, window, 1).unwrap()
}

#[test]
fn streamed_replay_equals_the_spec() {
    let f = fixture();
    // Windows that do not divide the day, and ones longer than it; the
    // crash instants (days 1 and 2) fall on a seam at 2, 3 and 48 h and
    // inside a window elsewhere.
    let crossed = [2, 7, 9, 50, 100]
        .into_iter()
        .flat_map(|h| [1, 2, 4].map(|t| (h, t)));
    for (hours, threads) in [(3, 1), (25, 2), (48, 7)].into_iter().chain(crossed) {
        let window = SimTime::from_hours(hours);
        let stream = streaming(window);
        assert!(stream.window_count() > 1, "window {window:?} must tile");
        assert_rows(&format!("streamed, {window:?}, {threads} shards"), |o| {
            Some(solo(
                Replay::streamed(&stream, &f.costs),
                o.with_threads(threads),
            ))
        });
    }
}

#[test]
fn prefetched_replay_equals_the_spec() {
    let f = fixture();
    // (depth, window hours): short windows keep a deep pipeline full; at
    // 2 h and 24 h both crash instants fall on a seam, with the producer
    // compiling ahead of the crash.
    let pipelines = [(1, 13), (2, 2), (4, 7)].into_iter();
    let crossed = pipelines.flat_map(|p| [1, 2, 3, 0].map(|t| (p, t)));
    let seams = [((3, 100), 3), ((1, 24), 3), ((4, 24), 1)];
    for ((depth, hours), threads) in crossed.chain(seams) {
        let stream = streaming(SimTime::from_hours(hours));
        let prefetch = PrefetchOptions::new(depth);
        assert_rows(
            &format!("prefetched, depth {depth}, {hours} h, {threads} shards"),
            |o| {
                let replay = Replay::prefetched(&stream, prefetch, &f.costs);
                Some(solo(replay, o.with_threads(threads)))
            },
        );
    }
}

/// A lineup of all twelve strategies per axes set, member by member, over
/// a compiled, a serial streamed and a prefetched source: at 1 and 2
/// threads (one shard per member) and at 24 (two).
#[test]
fn lineup_replay_equals_the_spec() {
    let f = fixture();
    let stream = streaming(SimTime::from_hours(7));
    let sources = [
        ("compiled", Replay::compiled(&f.trace, &f.costs)),
        ("streamed", Replay::streamed(&stream, &f.costs)),
        (
            "prefetched",
            Replay::prefetched(&stream, PrefetchOptions::new(1), &f.costs),
        ),
    ];
    for (source, replay) in &sources {
        for threads in [1, 2, 24] {
            for (axes, runs) in AXES.into_iter().zip(spec()) {
                let lineup = LINEUP.map(|kind| options(kind, axes).with_threads(threads));
                let results = replay.run(&lineup).unwrap();
                for ((got, expected), kind) in results.iter().zip(runs).zip(LINEUP) {
                    let at = format!("{source}, {threads} threads, {axes:?}");
                    assert_eq!(got, &expected.result, "lineup, {at}, {}", kind.name());
                }
            }
        }
    }
}

/// Prefetched and traced at the default (auto) thread count: a streamed
/// source takes one shard, so the sink records exactly one shard track,
/// beside the producer's track with its compile spans.
#[test]
fn prefetched_default_threads_replay_on_one_shard() {
    let f = fixture();
    let stream = streaming(SimTime::from_hours(7));
    let prefetch = PrefetchOptions::new(2);
    assert_rows("prefetched, traced, default threads", |o| {
        let sink = TraceSink::enabled();
        let result = solo(
            Replay::prefetched(&stream, prefetch, &f.costs).traced(&sink),
            *o,
        );
        let log = sink.drain();
        let tracks = log.tracks().iter().filter(|t| t.name.starts_with("shard "));
        assert_eq!(tracks.count(), 1, "auto threads on a streamed source");
        let producer = log.tracks().iter().find(|t| t.name == "prefetch producer");
        let compiles = producer.map(|t| t.events.iter().any(|e| e.label == "prefetch.compile"));
        assert_eq!(
            compiles,
            Some(true),
            "the producer's track and compile spans"
        );
        Some(result)
    });
}

/// Traced on three shards: the sink also records one track per shard and
/// the strategy's replay spans.
#[test]
fn traced_replay_equals_the_spec() {
    let f = fixture();
    assert_rows("traced", |o| {
        let sink = TraceSink::enabled();
        let result = solo(
            Replay::compiled(&f.trace, &f.costs).traced(&sink),
            o.with_threads(3),
        );
        let log = sink.drain();
        let tracks = log.tracks().iter().filter(|t| t.name.starts_with("shard "));
        assert_eq!(tracks.count(), 3, "one track per shard");
        let label = format!("replay.{}", o.strategy.name());
        let mut spans = log.tracks().iter().flat_map(|t| &t.events);
        assert!(spans.any(|e| e.label == label), "no {label} span");
        Some(result)
    });
}

/// The matcher-compiled trace through an untouched `Simulation` run to
/// the end, which at the default thread count shards as a compiled
/// `Replay` does.
#[test]
fn matcher_compiled_replay_equals_the_spec() {
    let f = fixture();
    assert_rows("matcher-compiled, Simulation::run", |o| {
        let sim = Simulation::from_compiled(&f.matcher_trace, &f.costs, o);
        Some(sim.unwrap().run())
    });
}

/// The sequential replay's cache state: every proxy's strategy snapshot.
fn replay_blobs(options: &SimOptions) -> Vec<Vec<u8>> {
    let f = fixture();
    let mut sim = Simulation::from_compiled(&f.trace, &f.costs, options).unwrap();
    while sim.step().is_some() {}
    let blob = |s| {
        let mut blob = Vec::new();
        let strategy = sim.engine().strategy(ServerId::new(s));
        strategy.encode_snapshot(&mut blob);
        blob
    };
    (0..f.trace.meta().server_count()).map(blob).collect()
}

/// The service configuration replaying `o` over the fixture.
fn service_config(o: &SimOptions) -> ServiceConfig {
    let f = fixture();
    let capacities = f.trace.capacities(o.capacity_fraction);
    let (costs, pages) = (f.costs.iter().collect(), Arc::clone(&f.pages));
    let hours = f.trace.hours();
    let mut config = ServiceConfig::new(o.strategy, capacities, costs, o.scheme, pages, hours);
    config.invalidate_stale = o.invalidate_stale;
    config
}

/// The live service's rows, fed in `chunk`-event calls (`ingest` for one
/// event, `ingest_all` for more). In content mode every count comes from
/// a matcher reproducing the table, whose kernel must stay frozen.
fn assert_service_rows(workers: usize, batch: usize, chunk: usize, content: bool) {
    let f = fixture();
    assert_rows(&format!("service, {workers} workers"), |o| {
        if o.crash.is_some() {
            return None;
        }
        let mut config = service_config(o);
        (config.workers, config.batch_size) = (workers, batch);
        let mut core = ServiceCore::new(config).unwrap();
        if content {
            core.attach_matcher(matcher_from_table(&f.subs, f.trace.meta().server_count()))
                .unwrap();
            assert!(core.matcher_frozen(), "attach must freeze the matcher");
        }
        for chunk in f.events.chunks(chunk) {
            match chunk {
                [event] => core.ingest(*event).unwrap(),
                events => core.ingest_all(events).unwrap(),
            }
        }
        assert_eq!(
            core.matcher_frozen(),
            content,
            "resolution leaves it frozen"
        );
        let outcome = core.shutdown().unwrap();
        assert_eq!(
            outcome.proxies,
            replay_blobs(o),
            "cache of {}",
            o.strategy.name()
        );
        Some(outcome.result)
    });
}

#[test]
fn inline_service_equals_the_spec() {
    assert_service_rows(1, 256, usize::MAX, false);
    // One event per call and per batch.
    assert_service_rows(1, 1, 1, false);
}

#[test]
fn threaded_service_equals_the_spec() {
    // Uneven chunks exercise the batching boundaries.
    for (workers, batch, chunk) in [(3, 64, 101), (2, 256, 157)] {
        assert_service_rows(workers, batch, chunk, false);
    }
}

/// Content mode inline, and on the threaded shapes above: each shard
/// matches its own proxies.
#[test]
fn content_mode_service_equals_the_spec() {
    assert_service_rows(1, 256, usize::MAX, true);
    for (workers, batch, chunk) in [(3, 64, 101), (2, 256, 157)] {
        assert_service_rows(workers, batch, chunk, true);
    }
}

/// A journaled service snapshots halfway, journals another quarter and is
/// dropped; recovered from the snapshot and the journal's suffix, it
/// finishes the stream. Restoring decodes every proxy's cache into a
/// fresh fleet.
#[test]
fn recovered_service_equals_the_spec() {
    let f = fixture();
    let (half, three_quarters) = (f.events.len() / 2, f.events.len() * 3 / 4);
    assert_rows("recovered service", |o| {
        if o.crash.is_some() {
            return None;
        }
        let dir = std::env::temp_dir().join(format!(
            "pscd-spec-recovered-{}-{}",
            o.strategy.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = service_config(o).with_persistence(dir.clone(), 0);
        let mut core = ServiceCore::new(config.clone()).unwrap();
        core.ingest_all(&f.events[..half]).unwrap();
        core.snapshot_now().unwrap();
        core.ingest_all(&f.events[half..three_quarters]).unwrap();
        drop(core);
        let mut core = ServiceCore::recover(config).unwrap();
        assert_eq!(core.events_applied(), three_quarters as u64);
        core.ingest_all(&f.events[three_quarters..]).unwrap();
        let outcome = core.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            outcome.proxies,
            replay_blobs(o),
            "cache of {}",
            o.strategy.name()
        );
        Some(outcome.result)
    });
}

/// Guards the table against passing vacuously: the fixture is
/// substantial (and its matcher-compiled trace `==` the table-compiled
/// one: events, fan-out rows, request counts), some version supersedes
/// one published in an earlier 2 h window (the streamed rows carry the
/// lineage across a seam), and in the spec runs every strategy hits and misses,
/// exactly the push-time ones are pushed pages, and each extension the
/// axes turn on does something — When Necessary declines offers,
/// invalidation drops stale copies, the crash restarts proxies.
#[test]
fn the_fixture_exercises_every_part_of_the_loop() {
    let f = fixture();
    assert!(f.trace.len() > 500 && f.events.len() > 1_000 && f.input.subscriptions.len() > 100);
    assert_eq!(f.trace, f.matcher_trace);
    let window = |t: SimTime| t.as_millis() / SimTime::from_hours(2).as_millis();
    let crosses = f.trace.events().iter().any(|ev| match ev.kind {
        CompiledEventKind::Publish { supersedes, .. } => supersedes
            .is_some_and(|old| window(f.pages[old.as_usize()].publish_time()) < window(ev.time)),
        CompiledEventKind::Request { .. } => false,
    });
    assert!(crosses, "no supersedence crosses a 2 h seam");
    for (axes, runs) in AXES.into_iter().zip(spec()) {
        for (kind, run) in LINEUP.into_iter().zip(runs) {
            let (result, name) = (&run.result, kind.name());
            let misses = result.requests - result.hits;
            assert!(result.hits > 0 && misses > 0, "{name}, {axes:?}");
            let pushes = spec_strategy(kind, Bytes::ZERO).uses_push();
            assert_eq!(result.traffic.pushed_pages > 0, pushes, "{name}, {axes:?}");
            assert_eq!(run.victims > 0, axes.1.is_some(), "{name}, {axes:?}");
        }
        let some = |count: fn(&SpecRun) -> u64| runs.iter().any(|run| count(run) > 0);
        let necessary = axes.0 == PushScheme::WhenNecessary;
        assert_eq!(some(|run| run.declined), necessary, "{axes:?}");
        assert_eq!(some(|run| run.dropped), axes.2, "{axes:?}");
    }
}
