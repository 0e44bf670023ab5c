//! The discrete-event simulation runner.
//!
//! There is exactly **one** replay loop in the workspace:
//! [`ReplayState::step`], driven over compiled [`TraceWindow`]s by the
//! driver in `shard.rs`. The sequential runner replays the full server
//! range over one whole-trace window (a [`CompiledTrace`] holds its
//! timeline as one [`OwnedWindow`](crate::OwnedWindow), served by
//! [`CompiledTrace::full_window`]); a shard worker is the same replay
//! over `[start, end)`; a streamed run pulls bounded windows from its
//! [`ReplaySource`](crate::ReplaySource); a live service shard steps each
//! ingest batch. Nothing re-derives timeline order, fan-outs,
//! subscription counts or invalidation lineage per run.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pscd_broker::{DeliveryEngine, PushRecord, PushScheme};
use pscd_cache::PageUniverse;
use pscd_core::StrategyKind;
use pscd_obs::{NullObserver, Observer, SharedObserver};
use pscd_topology::FetchCosts;
use pscd_types::{Bytes, ServerId, SimTime};

use crate::shard::{drain, shard_count, ReplaySite};
use crate::trace::{CompiledEventKind, CompiledTrace};
use crate::window::{ReplayMeta, TraceWindow};
use crate::{HourlySeries, Replay, SimError, SimResult};

/// A fault-injection plan: at `time`, a `fraction` of the proxies crash
/// and restart with empty caches (fresh strategy instances; hit/traffic
/// counters describe history and survive).
///
/// Failure recovery differentiates the strategies sharply: push-time
/// modules repopulate a restarted cache as soon as new pages are
/// published, while access-only caching must pay a miss per page again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// When the crash happens.
    pub time: SimTime,
    /// Fraction of proxies affected, in `[0, 1]`.
    pub fraction: f64,
    /// Seed selecting which proxies crash.
    pub seed: u64,
}

impl CrashPlan {
    /// A crash of `fraction` of the proxies at `time` (seed 0).
    pub fn new(time: SimTime, fraction: f64) -> Self {
        Self {
            time,
            fraction,
            seed: 0,
        }
    }

    /// The deterministic set of crashed servers: a pure function of the
    /// plan's seed and the fleet size, independent of simulation state —
    /// which is what lets fault injection shard cleanly (every shard
    /// filters the same victim set to its own server range).
    pub fn victims(&self, servers: u16) -> Vec<ServerId> {
        let n = ((servers as f64 * self.fraction).round() as usize).min(servers as usize);
        let mut all: Vec<u16> = (0..servers).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc3a5_c85c_97cb_3127);
        all.shuffle(&mut rng);
        all.truncate(n);
        all.into_iter().map(ServerId::new).collect()
    }
}

/// Options for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// The content-distribution strategy under test.
    pub strategy: StrategyKind,
    /// Per-proxy cache capacity as a fraction of the unique bytes the
    /// proxy requests over the whole trace (paper: 0.01 / 0.05 / 0.10).
    pub capacity_fraction: f64,
    /// The pushing scheme (paper §5.6; irrelevant to access-only
    /// strategies).
    pub scheme: PushScheme,
    /// Optional fault injection (not part of the paper's evaluation).
    pub crash: Option<CrashPlan>,
    /// Consistency extension (not part of the paper's evaluation): when a
    /// *modified version* of an article is published, drop the article's
    /// previous version from every proxy cache. Requests to the stale
    /// version then miss — the freshness tax of news caching.
    pub invalidate_stale: bool,
    /// Worker threads for intra-run sharding: `0` (auto, the default)
    /// lets [`shard_count`](crate::shard_count) decide by source — the
    /// machine's available parallelism for an in-memory
    /// [`CompiledTrace`], one thread for a streamed or prefetched source.
    /// `1` replays the whole trace sequentially, and any other count
    /// shards the proxy fleet across that many threads (oversubscription
    /// allowed); a [`Replay`] lineup splits the count across its members.
    /// Sharded totals are bit-identical to sequential ones —
    /// `crates/spec/tests/variants.rs` checks both against the spec loop
    /// for every strategy — so this is purely a speed knob.
    pub threads: usize,
}

impl SimOptions {
    /// Options at the paper's headline setting: the given capacity,
    /// Always-Pushing, no fault injection, auto threads (`threads: 0`;
    /// `.with_threads(1)` pins a sequential replay).
    pub fn at_capacity(strategy: StrategyKind, capacity_fraction: f64) -> Self {
        Self {
            strategy,
            capacity_fraction,
            scheme: PushScheme::Always,
            crash: None,
            invalidate_stale: false,
            threads: 0,
        }
    }

    /// Adds a fault-injection plan.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashPlan) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Sets the worker-thread count (see [`SimOptions::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables stale-version invalidation.
    #[must_use]
    pub fn with_invalidation(mut self) -> Self {
        self.invalidate_stale = true;
        self
    }
}

/// [`Replay::compiled`] over a one-member lineup; kept only for the
/// benchmark's call sites.
///
/// # Errors
///
/// As [`Replay::run`].
pub fn simulate_compiled(
    trace: &CompiledTrace,
    costs: &FetchCosts,
    options: &SimOptions,
) -> Result<SimResult, SimError> {
    Replay::compiled(trace, costs).solo(options)
}

/// Rejects mismatched costs and invalid options; shared by every entry
/// point. The trace-wide facts in [`ReplayMeta`] are all it needs (the
/// subscription table was checked against the workload when the trace was
/// compiled).
pub(crate) fn validate_meta(
    meta: &ReplayMeta,
    costs: &FetchCosts,
    options: &SimOptions,
) -> Result<(), SimError> {
    if costs.server_count() != meta.server_count() {
        return Err(SimError::MismatchedCosts {
            servers: meta.server_count(),
            costs: costs.server_count(),
        });
    }
    check_options(options)
}

fn check_options(options: &SimOptions) -> Result<(), SimError> {
    if options.capacity_fraction.is_nan() || options.capacity_fraction <= 0.0 {
        return Err(SimError::InvalidOption {
            option: "capacity_fraction",
            constraint: "> 0",
        });
    }
    options
        .strategy
        .check()
        .map_err(|(option, constraint)| SimError::InvalidOption { option, constraint })?;
    if let Some(plan) = options.crash {
        if !(0.0..=1.0).contains(&plan.fraction) {
            return Err(SimError::InvalidOption {
                option: "crash.fraction",
                constraint: "in [0, 1]",
            });
        }
    }
    Ok(())
}

/// One processed simulation event, as reported by [`Simulation::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// A newly published version superseded an older one, which was
    /// dropped from `proxies` caches (only with
    /// [`SimOptions::invalidate_stale`]).
    Invalidated {
        /// The stale (previous) version.
        stale: pscd_types::PageId,
        /// Number of proxies that held it.
        proxies: usize,
    },
    /// A fault-injection crash fired, restarting `servers` proxies.
    Crashed {
        /// Number of proxies restarted.
        servers: usize,
    },
    /// A page was published and offered to its matched proxies.
    Published {
        /// The published page.
        page: pscd_types::PageId,
        /// Publication instant.
        time: SimTime,
        /// Number of proxies the content was actually transferred to.
        pushed: usize,
    },
    /// A subscriber request was served.
    Requested {
        /// The requested page.
        page: pscd_types::PageId,
        /// The proxy that served it.
        server: ServerId,
        /// Request instant.
        time: SimTime,
        /// Whether the local cache had the page.
        hit: bool,
    },
}

/// THE replay loop: the single implementation of event processing, shared
/// by the sequential runner (full server range), every shard worker (its
/// `[start, end)` range) and every shard of the live service
/// (`pscd-service`, which resolves each ingest batch into an
/// [`OwnedWindow`](crate::window::OwnedWindow)). Holds everything mutable
/// about a replay — the engine, the hourly series, the global cursor,
/// pending crash/invalidation — while the timeline arrives as
/// [`TraceWindow`]s passed by reference into each call: the whole trace at
/// once ([`CompiledTrace::full_window`]), or one bounded chunk at a time
/// from any [`ReplaySource`](crate::ReplaySource). The state carries
/// nothing window-local, so window boundaries are invisible to replay
/// semantics (the streamed rows of `crates/spec/tests/variants.rs` equal
/// the spec at every window size; `stream_differential` pins crashes and
/// invalidation at the seams).
#[derive(Debug)]
pub struct ReplayState<O: Observer> {
    strategy: StrategyKind,
    invalidate_stale: bool,
    engine: DeliveryEngine<O>,
    obs: SharedObserver<O>,
    /// Full-fleet capacities (crash restarts index by global server id).
    capacities: Vec<Bytes>,
    hourly: HourlySeries,
    /// Next *global* timeline index to process.
    cursor: usize,
    /// Pending crash instant; `None` once fired (or no plan). Compared
    /// against each owned event's time: on the time-sorted timeline the
    /// crash fires before the first owned event at or after the instant,
    /// which needs no whole-trace search and so carries across window
    /// seams for free.
    crash_at: Option<SimTime>,
    /// Crash victims inside `[start, end)`, resolved from the full fleet.
    victims: Vec<ServerId>,
    /// An invalidation to report before processing the next event.
    pending_invalidation: Option<(pscd_types::PageId, usize)>,
    /// The page universe every strategy this replay builds (including
    /// crash restarts) is reserved over.
    universe: PageUniverse,
    /// Reused publish-record buffer: [`DeliveryEngine::publish`]
    /// writes into it, keeping the steady-state loop allocation-free.
    push_scratch: Vec<PushRecord>,
    start: u16,
    end: u16,
}

/// The replay of `options` over `meta`'s trace for servers `range`.
/// Options must already be validated.
pub(crate) fn replay_state<O: Observer>(
    meta: &ReplayMeta,
    costs: &FetchCosts,
    options: &SimOptions,
    obs: SharedObserver<O>,
    range: Range<u16>,
) -> ReplayState<O> {
    ReplayState::new(
        options.strategy,
        options.scheme,
        options.invalidate_stale,
        options.crash,
        meta.capacities(options.capacity_fraction),
        costs,
        meta.universe(),
        HourlySeries::new(meta.hours()),
        obs,
        range,
    )
}

impl<O: Observer> ReplayState<O> {
    /// Builds the proxy fleet for servers `range` of a fleet whose
    /// per-server cache capacities are `capacities` and fetch costs
    /// `costs`: one `strategy` per proxy, reserved over `universe` (see
    /// [`StrategyKind::build`]), delivering under `scheme`. With
    /// `invalidate_stale` a publish first drops the version it supersedes
    /// from every cache in range; `crash` restarts its victims in range.
    /// Accounting adds to `hourly`.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` or `costs` covers fewer servers than `range`
    /// reaches.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        strategy: StrategyKind,
        scheme: PushScheme,
        invalidate_stale: bool,
        crash: Option<CrashPlan>,
        capacities: Vec<Bytes>,
        costs: &FetchCosts,
        universe: &PageUniverse,
        hourly: HourlySeries,
        obs: SharedObserver<O>,
        range: Range<u16>,
    ) -> Self {
        let Range { start, end } = range;
        let strategies = (start..end)
            .map(|s| {
                let server = ServerId::new(s);
                strategy.build(capacities[s as usize], universe, obs.handle(server))
            })
            .collect();
        let local_costs = (start..end).map(|s| costs.cost(ServerId::new(s))).collect();
        let mut engine = DeliveryEngine::new(
            strategies,
            local_costs,
            scheme,
            obs.clone(),
            ServerId::new(start),
        )
        .expect("fresh strategies, one per cost");
        // Size the engine's per-page state (eviction scratch, residency
        // index) once so the hot loop never grows it.
        engine.reserve_pages(universe.page_count());
        // Victims are resolved over the *full* fleet (a pure function of
        // the seed) and filtered to the range, so fault injection hits
        // exactly the proxies it hits sequentially.
        let victims = crash
            .map(|plan| plan.victims(capacities.len() as u16))
            .unwrap_or_default()
            .into_iter()
            .filter(|v| (start..end).contains(&v.index()))
            .collect();
        Self {
            strategy,
            invalidate_stale,
            engine,
            obs,
            capacities,
            hourly,
            cursor: 0,
            crash_at: crash.map(|plan| plan.time),
            victims,
            pending_invalidation: None,
            universe: universe.clone(),
            push_scratch: Vec::with_capacity((end - start) as usize),
            start,
            end,
        }
    }

    fn full_range(&self) -> bool {
        self.start == 0 && self.end as usize == self.capacities.len()
    }

    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    pub(crate) fn pending_invalidation(&self) -> bool {
        self.pending_invalidation.is_some()
    }

    pub(crate) fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Read access to the delivery engine (per-proxy strategies,
    /// counters).
    pub fn engine(&self) -> &DeliveryEngine<O> {
        &self.engine
    }

    /// Write access to the delivery engine, for restoring saved proxy
    /// state before the first step.
    pub fn engine_mut(&mut self) -> &mut DeliveryEngine<O> {
        &mut self.engine
    }

    /// The hourly accounting so far.
    pub fn hourly(&self) -> &HourlySeries {
        &self.hourly
    }

    /// The global server ids this replay owns.
    pub fn servers(&self) -> Range<u16> {
        self.start..self.end
    }

    /// Moves the replay, between windows, onto servers `range` of the same
    /// fleet: the proxies it keeps go on as they were, and each one it
    /// gains starts as a fresh `strategy` at its fetch cost in `costs`,
    /// with zeroed counters, for the caller to restore through
    /// [`engine_mut`](ReplayState::engine_mut). The cursor and the hourly
    /// series stay: what was accounted stays accounted here.
    ///
    /// # Panics
    ///
    /// Panics if a crash is still pending (its victims were filtered to
    /// the old range) or `range` reaches past the fleet.
    pub fn reassign(&mut self, range: Range<u16>, costs: &FetchCosts) {
        assert!(self.crash_at.is_none(), "a pending crash pins the range");
        let Self {
            strategy,
            capacities,
            universe,
            obs,
            engine,
            ..
        } = self;
        let fresh = |server: ServerId| {
            let capacity = capacities[server.as_usize()];
            let built = strategy.build(capacity, universe, obs.handle(server));
            (built, costs.cost(server))
        };
        engine
            .reassign(range.clone(), fresh)
            .expect("fresh strategies are empty");
        self.push_scratch.reserve(range.len());
        (self.start, self.end) = (range.start, range.end);
    }

    /// Processes the next timeline event of `window` owned by this
    /// replay's server range. Returns `None` when the window is exhausted
    /// — the caller then steps through the next window (a `None` on the
    /// final window ends the replay). Consecutive windows must tile the
    /// timeline: each starts at the global index where the last ended.
    pub fn step(&mut self, window: &TraceWindow<'_>) -> Option<StepEvent> {
        if let Some((stale, proxies)) = self.pending_invalidation.take() {
            return Some(StepEvent::Invalidated { stale, proxies });
        }
        let events = window.events();
        debug_assert!(
            self.cursor >= window.start_index(),
            "window behind the replay cursor"
        );
        // A partial-range replay (a shard worker) skips requests owned by
        // other shards — a cursor advance with no observer or engine
        // traffic. The full-range replay never enters this loop body.
        while let Some(ev) = events.get(self.cursor - window.start_index()) {
            match ev.kind {
                CompiledEventKind::Request { server, .. }
                    if !(self.start..self.end).contains(&server.index()) =>
                {
                    self.cursor += 1;
                }
                _ => break,
            }
        }
        let ev = *events.get(self.cursor - window.start_index())?;
        // Stamp the clock first so decision events fired by the engines
        // below carry this event's simulation time.
        self.obs.clock(ev.time);
        // Fault injection fires before the first owned event at/after its
        // instant, window seams included (a crash instant falling between
        // windows fires before the next window's first event). The crash
        // consumes no event.
        if let Some(at) = self.crash_at {
            if ev.time >= at {
                self.crash_at = None;
                if !self.victims.is_empty() || self.full_range() {
                    self.obs.crash(ev.time, &self.victims);
                    for i in 0..self.victims.len() {
                        let server = self.victims[i];
                        let capacity = self.capacities[server.as_usize()];
                        self.engine
                            .replace_strategy(
                                server,
                                self.strategy.build(
                                    capacity,
                                    &self.universe,
                                    self.obs.handle(server),
                                ),
                            )
                            .expect("victims filtered to the replay range");
                        self.obs.restart(ev.time, server);
                    }
                }
                return Some(StepEvent::Crashed {
                    servers: self.victims.len(),
                });
            }
        }
        self.cursor += 1;
        match ev.kind {
            CompiledEventKind::Publish {
                ordinal,
                supersedes,
            } => {
                let meta = window.page(ev.page);
                if self.invalidate_stale {
                    // The superseded version was resolved at compile time;
                    // drop it from every cache in range before notifying.
                    if let Some(stale) = supersedes {
                        let dropped = self.engine.invalidate_everywhere(stale);
                        if dropped > 0 {
                            self.obs.invalidate(ev.time, stale, dropped);
                            self.pending_invalidation = Some((stale, dropped));
                        }
                    }
                }
                let matched = window.matched_in(ordinal, self.start, self.end);
                // Timeline-wide events are reported once: the range owning
                // server 0 fires notify/publish with the *global* matched
                // count (`pushed` stays range-local).
                if self.start == 0 {
                    self.obs
                        .notify(ev.time, ev.page, window.matched(ordinal).len());
                }
                self.engine.publish(meta, matched, &mut self.push_scratch);
                let mut pushed = 0;
                for record in &self.push_scratch {
                    if record.transferred {
                        self.hourly.record_push(ev.time, meta.size());
                        pushed += 1;
                    }
                }
                if self.start == 0 {
                    self.obs.publish(
                        ev.time,
                        ev.page,
                        meta.size(),
                        window.matched(ordinal).len(),
                        pushed,
                    );
                }
                Some(StepEvent::Published {
                    page: ev.page,
                    time: ev.time,
                    pushed,
                })
            }
            CompiledEventKind::Request { server, subs } => {
                let meta = window.page(ev.page);
                let record = self
                    .engine
                    .request(server, meta, subs)
                    .expect("requests filtered to the replay range");
                self.hourly.record_request(ev.time, record.hit, meta.size());
                self.obs
                    .request(ev.time, server, ev.page, meta.size(), record.hit);
                Some(StepEvent::Requested {
                    page: ev.page,
                    server,
                    time: ev.time,
                    hit: record.hit,
                })
            }
        }
    }

    /// Finalizes the result from the current state. The per-server vector
    /// spans the full fleet (zeros outside this replay's range) so shard
    /// results merge by uniform component-wise addition.
    pub fn finish(self) -> SimResult {
        let servers = self.capacities.len();
        let mut per_server = vec![(0u64, 0u64); servers];
        let mut hits = 0u64;
        let mut total_requests = 0u64;
        for s in self.start..self.end {
            let stats = self.engine.hit_stats(ServerId::new(s));
            per_server[s as usize] = stats;
            hits += stats.0;
            total_requests += stats.1;
        }
        SimResult {
            strategy: self.strategy.name().to_owned(),
            hits,
            requests: total_requests,
            traffic: self.engine.total_traffic(),
            hourly: self.hourly,
            per_server,
        }
    }
}

/// A stepping simulation: the same semantics as a [`Replay`],
/// exposed one event at a time so callers can interleave their own logic —
/// live dashboards, additional fault injection, early stopping, custom
/// notification models. It borrows its compiled trace for its lifetime
/// (the trace is immutable and can feed any number of simulations,
/// concurrently included).
///
/// # Examples
///
/// ```
/// use pscd_core::StrategyKind;
/// use pscd_sim::{CompiledTrace, SimOptions, Simulation, StepEvent};
/// use pscd_topology::FetchCosts;
/// use pscd_workload::{Workload, WorkloadConfig};
///
/// let w = Workload::generate(&WorkloadConfig::news_scaled(0.003))?;
/// let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0)?)?;
/// let costs = FetchCosts::uniform(w.server_count());
/// let mut sim = Simulation::from_compiled(
///     &trace,
///     &costs,
///     &SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05),
/// )?;
/// let mut hits = 0;
/// while let Some(event) = sim.step() {
///     if matches!(event, StepEvent::Requested { hit: true, .. }) {
///         hits += 1;
///     }
/// }
/// assert_eq!(sim.finish().hits, hits);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulation<'a, O: Observer = NullObserver> {
    trace: &'a CompiledTrace,
    costs: FetchCosts,
    options: SimOptions,
    state: ReplayState<O>,
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation over a compiled trace (builds the proxy
    /// fleet; consumes no events).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for mismatched costs or invalid options.
    pub fn from_compiled(
        trace: &'a CompiledTrace,
        costs: &FetchCosts,
        options: &SimOptions,
    ) -> Result<Self, SimError> {
        Simulation::from_compiled_observed(trace, costs, options, SharedObserver::disabled())
    }
}

impl<'a, O: Observer> Simulation<'a, O> {
    /// [`from_compiled`](Simulation::from_compiled) with every simulator
    /// decision reported to `obs`: timeline events (publish, request,
    /// crash, invalidation) fire from the runner, push outcomes from the
    /// delivery engine, and cache decisions (admissions, evictions,
    /// relabels) from the per-proxy strategies.
    ///
    /// Keep a [`SharedObserver`] clone to read the observer back after the
    /// run. With a [`NullObserver`] this compiles to exactly
    /// [`from_compiled`](Simulation::from_compiled).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for mismatched costs or invalid options.
    ///
    /// # Examples
    ///
    /// ```
    /// use pscd_core::StrategyKind;
    /// use pscd_obs::{SharedObserver, StatsObserver};
    /// use pscd_sim::{CompiledTrace, SimOptions, Simulation};
    /// use pscd_topology::FetchCosts;
    /// use pscd_workload::{Workload, WorkloadConfig};
    ///
    /// let w = Workload::generate(&WorkloadConfig::news_scaled(0.003))?;
    /// let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0)?)?;
    /// let costs = FetchCosts::uniform(w.server_count());
    /// let obs = SharedObserver::new(StatsObserver::new());
    /// let result = Simulation::from_compiled_observed(
    ///     &trace,
    ///     &costs,
    ///     &SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05),
    ///     obs.clone(),
    /// )?
    /// .run();
    /// let stats = obs.try_unwrap().expect("run dropped its clones");
    /// assert_eq!(stats.requests(), result.requests);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_compiled_observed(
        trace: &'a CompiledTrace,
        costs: &FetchCosts,
        options: &SimOptions,
        obs: SharedObserver<O>,
    ) -> Result<Self, SimError> {
        validate_meta(trace.meta(), costs, options)?;
        let meta = trace.meta();
        let state = replay_state(meta, costs, options, obs, 0..meta.server_count());
        Ok(Self {
            trace,
            costs: costs.clone(),
            options: *options,
            state,
        })
    }

    /// Read access to the live delivery engine (per-proxy strategies,
    /// counters).
    pub fn engine(&self) -> &DeliveryEngine<O> {
        self.state.engine()
    }

    /// Processes the next timeline event (publishes before requests at
    /// equal timestamps, since a notification must precede the requests it
    /// triggers). Returns `None` when the timeline is exhausted.
    pub fn step(&mut self) -> Option<StepEvent> {
        self.state.step(&self.trace.full_window())
    }

    /// Drains the remaining timeline and returns the result.
    ///
    /// An untouched simulation (no [`step`](Simulation::step) calls yet)
    /// runs as a one-member [`Replay`] whenever [`SimOptions::threads`]
    /// resolves to more than one shard — by default on the machine's
    /// cores. The fleet built at construction is dropped first, so only
    /// the shards' fleets are alive while they replay. The totals are
    /// bit-identical to the sequential replay (see
    /// `crates/spec/tests/variants.rs`). A simulation that has already
    /// stepped, or one with an enabled observer (whose event stream is
    /// inherently sequential), always drains on the calling thread.
    pub fn run(self) -> SimResult {
        let Self {
            trace,
            costs,
            options,
            state,
        } = self;
        let servers = trace.meta().server_count();
        let untouched = !O::ENABLED && state.cursor() == 0 && !state.pending_invalidation();
        if untouched && shard_count(options.threads, servers, ReplaySite::Compiled, 1) > 1 {
            drop(state);
            let replay = Replay::compiled(trace, &costs).solo(&options);
            return replay.expect("validated at construction");
        }
        // One shard: the fleet built at construction *is* that shard, so
        // it goes to the driver's loop as it stands.
        drain(state, &mut trace.source(), None)
    }

    /// Finalizes the result from the current state (usable mid-timeline
    /// for early stopping).
    pub fn finish(self) -> SimResult {
        self.state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::OwnedWindow;
    use pscd_types::{PageId, PageKind, PageMeta, SubscriptionTable};
    use pscd_workload::{Workload, WorkloadConfig};

    fn tiny() -> (Workload, CompiledTrace, FetchCosts) {
        let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
        let trace = CompiledTrace::compile(&w, &w.subscriptions(1.0).unwrap()).unwrap();
        let costs = FetchCosts::uniform(w.server_count());
        (w, trace, costs)
    }

    #[test]
    fn crash_victims_are_deterministic_and_pinned() {
        let plan = CrashPlan {
            time: SimTime::from_days(1),
            fraction: 0.5,
            seed: 42,
        };
        let victims = plan.victims(10);
        assert_eq!(victims, plan.victims(10), "same plan, same victims");
        assert_eq!(victims.len(), 5);
        let mut indices: Vec<u16> = victims.iter().map(|s| s.index()).collect();
        let pinned = indices.clone();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 5, "victims are distinct");
        // Pin the exact selection: a change here means the seeded shuffle
        // changed, which silently alters every crash experiment.
        assert_eq!(pinned, CRASH_VICTIMS_SEED42_HALF_OF_10);
        // Edge fractions.
        assert!(plan_with(0.0, 7).victims(10).is_empty());
        assert_eq!(plan_with(1.0, 7).victims(10).len(), 10);
        // A different seed picks a different set.
        assert_ne!(plan_with(0.5, 43).victims(10), victims);
    }

    /// The exact victim set for `seed = 42`, `fraction = 0.5`, 10 servers.
    const CRASH_VICTIMS_SEED42_HALF_OF_10: [u16; 5] = [9, 4, 6, 2, 5];

    fn plan_with(fraction: f64, seed: u64) -> CrashPlan {
        CrashPlan {
            time: SimTime::from_days(1),
            fraction,
            seed,
        }
    }

    /// Regression: these reached a constructor `assert!` and panicked —
    /// on a shard worker when `threads > 1`.
    #[test]
    fn invalid_strategy_parameters_are_a_typed_error_at_every_entry_point() {
        use crate::{simulate_streamed, simulate_streamed_prefetched_traced};
        use crate::{PrefetchOptions, StreamingTrace};
        use pscd_obs::StatsObserver;

        let (_, trace, costs) = tiny();
        let config = WorkloadConfig::news_scaled(0.004);
        let stream = StreamingTrace::new(&config, 1.0, SimTime::from_hours(9), 1).unwrap();
        let sink = pscd_obs::TraceSink::disabled();
        let base = SimOptions::at_capacity(StrategyKind::Sub, 0.05);
        let bad = [
            (
                StrategyKind::DcFp {
                    beta: 2.0,
                    pc_fraction: 1.5,
                },
                "pc_fraction",
            ),
            (
                StrategyKind::DcLap {
                    beta: 2.0,
                    lo: 0.8,
                    hi: 0.9,
                },
                "lo and hi",
            ),
            (StrategyKind::GdStar { beta: f64::NAN }, "beta"),
        ];
        for (kind, parameter) in bad {
            for threads in [1, 2] {
                let opt = SimOptions::at_capacity(kind, 0.05).with_threads(threads);
                let prefetch = PrefetchOptions::default();
                let observed = SharedObserver::new(StatsObserver::new());
                for (entry, result) in [
                    (
                        "compiled",
                        simulate_compiled(&trace, &costs, &opt).map(|_| ()),
                    ),
                    (
                        "lineup",
                        Replay::compiled(&trace, &costs)
                            .run_observed::<StatsObserver>(&[base, opt])
                            .map(|_| ()),
                    ),
                    (
                        "streamed",
                        simulate_streamed(&stream, &costs, &opt).map(|_| ()),
                    ),
                    (
                        "prefetched",
                        simulate_streamed_prefetched_traced(
                            &stream, &costs, &opt, &prefetch, &sink,
                        )
                        .map(|_| ()),
                    ),
                    (
                        "Simulation::from_compiled",
                        Simulation::from_compiled(&trace, &costs, &opt).map(|_| ()),
                    ),
                    (
                        "Simulation::from_compiled_observed",
                        Simulation::from_compiled_observed(&trace, &costs, &opt, observed.clone())
                            .map(|_| ()),
                    ),
                ] {
                    assert!(
                        matches!(result, Err(SimError::InvalidOption { option, .. }) if option == parameter),
                        "{entry}, {threads} threads, {kind:?}: {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (w, trace, costs) = tiny();
        let opt = SimOptions::at_capacity(StrategyKind::Sub, 0.05);
        assert!(matches!(
            Simulation::from_compiled(&trace, &FetchCosts::uniform(3), &opt),
            Err(SimError::MismatchedCosts { .. })
        ));
        assert!(matches!(
            Replay::compiled(&trace, &FetchCosts::uniform(3)).solo(&opt),
            Err(SimError::MismatchedCosts { .. })
        ));
        let bad_opt = SimOptions::at_capacity(StrategyKind::Sub, 0.0);
        assert!(matches!(
            Replay::compiled(&trace, &costs).solo(&bad_opt),
            Err(SimError::InvalidOption { .. })
        ));
        let bad_subs = SubscriptionTable::empty(1);
        assert!(matches!(
            CompiledTrace::compile(&w, &bad_subs),
            Err(SimError::MismatchedSubscriptions { .. })
        ));
    }

    #[test]
    fn invalidation_costs_hits_and_reports_events() {
        let (w, trace, costs) = tiny();
        let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.10);
        let clean = Replay::compiled(&trace, &costs).solo(&base).unwrap();
        let strict = Replay::compiled(&trace, &costs)
            .solo(&base.with_invalidation())
            .unwrap();
        // Dropping superseded versions can only lose hits on this trace.
        assert!(
            strict.hits <= clean.hits,
            "{} > {}",
            strict.hits,
            clean.hits
        );
        assert_eq!(strict.requests, clean.requests);
        // The stepping API reports every event, invalidations included,
        // and ends at the batch run's result.
        let mut sim = Simulation::from_compiled(&trace, &costs, &base.with_invalidation()).unwrap();
        let (mut published, mut requested, mut hits, mut invalidations) = (0, 0, 0, 0);
        while let Some(ev) = sim.step() {
            match ev {
                StepEvent::Published { .. } => published += 1,
                StepEvent::Requested { hit, .. } => {
                    requested += 1;
                    hits += u64::from(hit);
                }
                StepEvent::Invalidated { proxies, .. } => {
                    assert!(proxies > 0);
                    invalidations += 1;
                }
                StepEvent::Crashed { .. } => unreachable!("no crash planned"),
            }
        }
        assert!(invalidations > 0, "expected some stale drops");
        assert_eq!(published, w.publishing().len());
        assert_eq!(requested, w.requests().len());
        assert_eq!(hits, strict.hits);
        assert_eq!(sim.finish(), strict);
        // Determinism.
        let again = Replay::compiled(&trace, &costs)
            .solo(&base.with_invalidation())
            .unwrap();
        assert_eq!(strict, again);
    }

    #[test]
    fn stepping_api_reports_crash_event_and_progress() {
        let (w, trace, costs) = tiny();
        let opt = SimOptions::at_capacity(StrategyKind::GdStar { beta: 2.0 }, 0.05)
            .with_crash(CrashPlan::new(pscd_types::SimTime::from_days(2), 1.0));
        let mut sim = Simulation::from_compiled(&trace, &costs, &opt).unwrap();
        let total = w.publishing().len() + w.requests().len();
        assert_eq!((sim.state.cursor(), trace.len()), (0, total));
        let mut crashes = 0;
        let mut steps = 0usize;
        while let Some(ev) = sim.step() {
            if let StepEvent::Crashed { servers } = ev {
                crashes += 1;
                assert_eq!(servers, w.server_count() as usize);
                // A crash consumes no timeline event.
                assert_eq!(sim.state.cursor(), steps);
            } else {
                steps += 1;
            }
        }
        assert_eq!(crashes, 1);
        assert_eq!(sim.state.cursor(), total);
        assert!(sim.engine().server_count() == w.server_count());
        // Early finish mid-run is usable too.
        let mut sim2 = Simulation::from_compiled(&trace, &costs, &opt).unwrap();
        for _ in 0..50 {
            sim2.step();
        }
        let partial = sim2.finish();
        assert!(partial.requests <= w.requests().len() as u64);
    }

    #[test]
    fn crash_wipes_caches_and_dents_hit_ratio() {
        let (_, trace, costs) = tiny();
        // SG2 relies on cached pushed pages, so losing the caches at day 3
        // must cost hits.
        let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
        let clean = Replay::compiled(&trace, &costs).solo(&base).unwrap();
        let crashed = Replay::compiled(&trace, &costs)
            .solo(&base.with_crash(CrashPlan::new(pscd_types::SimTime::from_days(3), 1.0)))
            .unwrap();
        assert!(
            crashed.hits < clean.hits,
            "{} vs {}",
            crashed.hits,
            clean.hits
        );
        assert_eq!(crashed.requests, clean.requests);
        // Identical histories before the crash hour.
        let crash_hour = 72;
        assert_eq!(
            &clean.hourly.hits[..crash_hour],
            &crashed.hourly.hits[..crash_hour]
        );
        // Determinism with a crash plan.
        let again = Replay::compiled(&trace, &costs)
            .solo(&base.with_crash(CrashPlan::new(pscd_types::SimTime::from_days(3), 1.0)))
            .unwrap();
        assert_eq!(crashed, again);
    }

    #[test]
    fn partial_crash_affects_partial_fleet() {
        let (_, trace, costs) = tiny();
        let base = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
        let clean = Replay::compiled(&trace, &costs).solo(&base).unwrap();
        let half = Replay::compiled(&trace, &costs)
            .solo(&base.with_crash(CrashPlan::new(pscd_types::SimTime::from_days(3), 0.5)))
            .unwrap();
        let full = Replay::compiled(&trace, &costs)
            .solo(&base.with_crash(CrashPlan::new(pscd_types::SimTime::from_days(3), 1.0)))
            .unwrap();
        assert!(clean.hits >= half.hits);
        assert!(half.hits >= full.hits);
        // Invalid fraction rejected.
        assert!(matches!(
            Replay::compiled(&trace, &costs)
                .solo(&base.with_crash(CrashPlan::new(pscd_types::SimTime::ZERO, 1.5)),),
            Err(SimError::InvalidOption { .. })
        ));
    }

    /// A full-range replay of `proxies` proxies over a one-page universe,
    /// and that page.
    fn tiny_state(kind: StrategyKind, proxies: u16) -> (ReplayState<NullObserver>, [PageMeta; 1]) {
        let page = PageMeta::new(
            PageId::new(0),
            Bytes::new(100),
            SimTime::ZERO,
            PageKind::Original,
        );
        let state = ReplayState::new(
            kind,
            PushScheme::Always,
            false,
            None,
            vec![Bytes::new(1_000); proxies as usize],
            &FetchCosts::uniform(proxies),
            &PageUniverse::new([page.size()]),
            HourlySeries::new(2),
            SharedObserver::disabled(),
            0..proxies,
        );
        (state, [page])
    }

    #[test]
    fn a_publish_counts_transfers_and_hourly_pushes() {
        let (mut state, pages) = tiny_state(StrategyKind::Sub, 2);
        let mut window = OwnedWindow::with_capacity(1, 2);
        let fanout = [(ServerId::new(0), 3), (ServerId::new(1), 1)];
        window.push_publish(SimTime::from_secs(10), PageId::new(0), None, &fanout);
        let window = window.view(&pages);
        let pushed = match state.step(&window) {
            Some(StepEvent::Published { pushed, .. }) => pushed,
            other => panic!("not a publish: {other:?}"),
        };
        assert_eq!(pushed, 2);
        assert!(state.step(&window).is_none());
        assert_eq!(state.hourly().pushed_pages[0], 2);
        assert_eq!(state.engine().total_traffic().pushed_pages, 2);
    }

    #[test]
    fn a_request_records_hits_misses_and_fetches() {
        let (mut state, pages) = tiny_state(StrategyKind::GdStar { beta: 2.0 }, 1);
        let t = SimTime::from_secs(5);
        let mut window = OwnedWindow::with_capacity(3, 0);
        // The third is outside the replay's range: skipped, not served.
        for server in [0, 0, 7] {
            window.push_request(t, ServerId::new(server), PageId::new(0), 0);
        }
        let window = window.view(&pages);
        let served: Vec<_> = std::iter::from_fn(|| state.step(&window)).collect();
        assert!(matches!(
            served[..],
            [
                StepEvent::Requested { hit: false, .. },
                StepEvent::Requested { hit: true, .. },
            ]
        ));
        let hourly = state.finish().hourly;
        assert_eq!(hourly.requests[0], 2);
        assert_eq!(hourly.hits[0], 1);
        assert_eq!(hourly.fetched_pages[0], 1);
    }

    #[test]
    fn higher_capacity_does_not_hurt_gdstar() {
        let (_, trace, costs) = tiny();
        let gd = StrategyKind::GdStar { beta: 2.0 };
        let lineup = [0.01, 0.10].map(|capacity| SimOptions::at_capacity(gd, capacity));
        let results = Replay::compiled(&trace, &costs).run(&lineup).unwrap();
        let [lo, hi] = [&results[0], &results[1]];
        assert!(hi.hit_ratio() >= lo.hit_ratio());
    }
}
