//! `match-churn`: the service in content mode over a large subscription
//! population that keeps changing.
//!
//! Every page is registered with `ContentModel::content_for` plus a
//! `page` attribute; the count table becomes page-equality subscriptions
//! (the frozen kernel's singles) and one background subscription of two
//! or three predicates is added per 32 of them (doubles and multis). GD* keeps replay cheap, so a round is matching. Ten times a
//! round the harness subscribes or unsubscribes a never-matching
//! subscription, which thaws the kernel and makes the next batch refreeze
//! it: a faster match kernel that pays with a slower `freeze` loses here.

use pscd_core::StrategyKind;
use pscd_matching::{EngineMatcher, MatchScratch, Predicate, Subscription, SubscriptionId, Value};
use pscd_obs::{TraceRecorder, TraceSink};
use pscd_service::{ServiceConfig, ServiceCore};
use pscd_sim::{simulate_compiled, CompiledTrace, SimOptions, SimResult};
use pscd_types::{LiveEvent, ServerId, SubscriptionTable};
use pscd_workload::{ContentModel, Workload, WorkloadConfig, CATEGORIES, TAGS};

use crate::harness::{
    median, result_counts, timed, topology_costs, Bench, BenchResult, Config, Metrics, Ops, Round,
    RoundClock, SpanLog, SplitMix64,
};
use crate::serve_durable::{batch_layers, service_config, BATCH};

/// Volume relative to the paper's NEWS trace.
const SCALE: f64 = 1.0;
/// Subscribe/unsubscribe calls per round, evenly spaced over the stream.
const CHURN_CALLS: usize = 10;
/// One background subscription per this many page-equality ones. A
/// satisfied background predicate touches every subscription that
/// carries it, so their number sets what a publish costs.
const BACKGROUND_ONE_IN: usize = 32;
const BYTES_FLOORS: [i64; 3] = [2_048, 8_192, 32_768];

pub struct MatchChurn {
    workload: Workload,
    subs: SubscriptionTable,
    seed: u64,
    /// Publishes and requests only: subscriptions live in the matcher.
    events: Vec<LiveEvent>,
    config: ServiceConfig,
    oracle: SimResult,
    /// The set-up's matcher, for the first round; later rounds build
    /// their own, because the service consumes the one it is given.
    matcher: Option<EngineMatcher>,
    subscriptions: usize,
    matched_pairs: u64,
}

/// The matcher of one round: registered pages, the table as
/// page-equality subscriptions, the background population; frozen.
fn build_matcher(
    workload: &Workload,
    subs: &SubscriptionTable,
    seed: u64,
    rec: &mut TraceRecorder,
) -> BenchResult<(EngineMatcher, usize)> {
    let model = ContentModel::new(seed);
    let servers = workload.server_count();
    let mut matcher = EngineMatcher::new(servers);
    rec.span("matching.register_pages", || {
        for page in workload.pages() {
            let id = page.id();
            matcher.register_page(
                id,
                model
                    .content_for(page)
                    .with("page", Value::int(id.index() as i64)),
            );
        }
    });
    let subscribed = rec.span("matching.subscribe", || -> BenchResult<usize> {
        let mut n = 0usize;
        for (page, server, count) in subs.iter() {
            let sub =
                Subscription::new(vec![Predicate::eq("page", Value::int(page.index() as i64))]);
            for _ in 0..count {
                matcher.subscribe(server, sub.clone())?;
                n += 1;
            }
        }
        let mut rng = SplitMix64(seed ^ 0x6d61_7463_682d_6368);
        for i in 0..n / BACKGROUND_ONE_IN {
            let mut predicates = vec![
                Predicate::eq(
                    "category",
                    Value::str(CATEGORIES[rng.below(CATEGORIES.len())]),
                ),
                Predicate::contains("tags", TAGS[rng.below(TAGS.len())]),
            ];
            if i % 2 == 1 {
                predicates.push(Predicate::ge(
                    "bytes",
                    BYTES_FLOORS[rng.below(BYTES_FLOORS.len())],
                ));
            }
            let server = ServerId::new(rng.below(servers as usize) as u16);
            matcher.subscribe(server, Subscription::new(predicates))?;
        }
        Ok(n + n / BACKGROUND_ONE_IN)
    })?;
    rec.span("matching.freeze", || matcher.freeze());
    Ok((matcher, subscribed))
}

impl Bench for MatchChurn {
    fn setup(cfg: &Config, rec: &mut TraceRecorder) -> BenchResult<Self> {
        let config = WorkloadConfig::news_scaled(cfg.scale(SCALE)).with_seed(cfg.seed);
        let workload = rec.span("workload.generate", || Workload::generate(&config))?;
        let subs = rec.span("workload.subscriptions", || workload.subscriptions(1.0))?;
        let events = rec.span("workload.live_events", || {
            let mut events = workload.live_events(&subs);
            events.retain(|e| !matches!(e, LiveEvent::Subscribe { .. }));
            events
        });
        let costs = topology_costs(workload.server_count(), rec)?;
        let (mut matcher, subscriptions) = build_matcher(&workload, &subs, cfg.seed, rec)?;
        let trace = rec.span("sim.compile_from_matcher", || {
            CompiledTrace::compile_from_matcher(&workload, &mut matcher)
        })?;
        let kind = StrategyKind::GdStar { beta: 2.0 };
        let oracle = rec.span("sim.replay.run", || {
            simulate_compiled(&trace, &costs, &SimOptions::at_capacity(kind, 0.05))
        })?;
        Ok(Self {
            config: service_config(&trace, &costs, kind),
            matched_pairs: trace.total_matched_pairs(),
            workload,
            subs,
            seed: cfg.seed,
            events,
            oracle,
            matcher: Some(matcher),
            subscriptions,
        })
    }

    /// The probe runs after the start and at every churn call.
    fn round(&mut self, _sink: &TraceSink, rec: &mut TraceRecorder, ops: &mut Ops) -> Round {
        // Outside the round's time: the harness needs a matcher per
        // service, the service does not need one per run.
        let matcher = match self.matcher.take() {
            Some(matcher) => matcher,
            None => {
                let built = build_matcher(&self.workload, &self.subs, self.seed, rec);
                match ops.call("build_matcher", built.map_err(|e| e.to_string())) {
                    Some((matcher, _)) => matcher,
                    None => return RoundClock::start().finish(rec, 0),
                }
            }
        };

        let mut clock = RoundClock::start();
        let core = rec.span("service.new", || ServiceCore::new(self.config.clone()));
        let Some(mut core) = ops.call("ServiceCore::new", core) else {
            return clock.finish(rec, 0);
        };
        let attached = rec.span("service.attach_matcher", || core.attach_matcher(matcher));
        ops.call("attach_matcher", attached);
        clock.probe(rec);

        let never = || {
            Subscription::new(vec![Predicate::eq(
                "category",
                Value::str("no-such-category"),
            )])
        };
        let batches = self.events.len().div_ceil(BATCH);
        let churn_every = batches.div_ceil(CHURN_CALLS + 1).max(1);
        let mut registered: Option<SubscriptionId> = None;
        for (i, batch) in self.events.chunks(BATCH).enumerate() {
            let churned = i > 0 && i % churn_every == 0;
            if churned {
                clock.probe(rec);
                let server = ServerId::new(0);
                match registered.take() {
                    Some(id) => {
                        let result =
                            rec.span("service.churn", || core.unsubscribe_content(server, id));
                        ops.call("unsubscribe_content", result);
                    }
                    None => {
                        let result =
                            rec.span("service.churn", || core.subscribe_content(server, never()));
                        registered = ops.call("subscribe_content", result);
                    }
                }
            }
            // The batch after a churn call pays for the lazy refreeze.
            let label = if churned {
                "service.ingest.refreeze"
            } else {
                "service.ingest"
            };
            let result = rec.span(label, || core.ingest_all(batch));
            ops.call("ingest_all", result);
        }
        let result = rec.span("service.flush", || core.flush());
        ops.call("flush", result);
        let outcome = rec.span("service.shutdown", || core.shutdown());
        rec.span("harness.verify", || {
            if let Some(outcome) = ops.call("shutdown", outcome) {
                ops.check(outcome.result == self.oracle, || {
                    "service result differs from simulate_compiled over compile_from_matcher".into()
                });
            }
        });
        clock.finish(rec, self.events.len() as u64)
    }

    fn layers(&mut self, log: &SpanLog, ops: &mut Ops, out: &mut Metrics) -> BenchResult<()> {
        out.set("workload.events", self.events.len() as f64);
        out.set("workload.pages", self.workload.pages().len() as f64);
        let mut batches = log.durations("service.ingest");
        batches.extend(log.durations("service.ingest.refreeze"));
        batch_layers(&batches, out);
        // The log holds the set-up's build and the traced round's: halve.
        let builds = log.durations("matching.freeze").len().max(1) as f64;
        out.set(
            "matching.subscribe_s",
            log.total("matching.subscribe") / builds,
        );
        out.set("matching.freeze_s", log.total("matching.freeze") / builds);
        out.set("matching.subscriptions", self.subscriptions as f64);
        let refreeze_ms: Vec<f64> = log
            .durations("service.ingest.refreeze")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.set("matching.refreeze_ms_p50", median(&refreeze_ms));
        out.set("matching.refreezes", refreeze_ms.len() as f64);
        let publishes = self.workload.publishing().len();
        out.set("matching.matched_pairs", self.matched_pairs as f64);
        out.set(
            "matching.pairs_per_publish",
            self.matched_pairs as f64 / publishes.max(1) as f64,
        );
        result_counts([&self.oracle], out);

        // The matcher alone, frozen, over the run's own events.
        let mut idle = TraceSink::disabled().recorder("");
        let (matcher, _) = build_matcher(&self.workload, &self.subs, self.seed, &mut idle)?;
        let mut scratch = MatchScratch::new();
        let mut fanout = Vec::new();
        let (mut publish_us, mut pairs) = (Vec::with_capacity(publishes), 0u64);
        for event in &self.events {
            if let LiveEvent::Publish { page, .. } = *event {
                let ((), secs) =
                    timed(|| matcher.matched_servers_into(page, &mut scratch, &mut fanout));
                publish_us.push(secs * 1e6);
                pairs += fanout.len() as u64;
            }
        }
        // Requests are too short to time one by one: one clock pair
        // around all of them.
        let (requests, secs) = timed(|| {
            let mut requests = 0u64;
            for event in &self.events {
                if let LiveEvent::Request { page, server, .. } = *event {
                    std::hint::black_box(matcher.match_count_with(page, server, &mut scratch));
                    requests += 1;
                }
            }
            requests
        });
        ops.check(pairs == self.matched_pairs, || {
            format!(
                "direct fan-out found {pairs} pairs, the compiled trace {}",
                self.matched_pairs
            )
        });
        out.set("matching.publish_match_us_p50", median(&publish_us));
        out.set(
            "matching.request_count_ns",
            secs * 1e9 / requests.max(1) as f64,
        );
        Ok(())
    }
}
