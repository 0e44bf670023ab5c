//! The benchmark's vocabulary: workload names with the reason each was
//! chosen, and every metric name with its unit and direction.
//! `BENCHMARK.json` lists exactly these names (`smoke.sh` checks it).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `(name, why)` — the reason is the one line `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "replay-grid",
        "48-cell strategy x capacity x trace x scheme grid over compiled paper-scale traces: replay is >95% of the wall, generation and matching are bypassed",
    ),
    (
        "stream-churn",
        "high-churn flash-crowd scenario through the prefetched streaming source: every round regenerates and recompiles every window beside the replay, on two threads, over a large page universe",
    ),
    (
        "serve-durable",
        "closed-loop one-client 256-event batches into the journaled service with harness-driven snapshots, then kill and recover: persistence sits beside replay",
    ),
    (
        "match-churn",
        "content-mode service over ~200k subscriptions with periodic subscribe/unsubscribe forcing refreezes: matching and freeze dominate, replay is kept cheap",
    ),
];

/// What a user of the system sees; reported by untraced runs only.
pub const END_TO_END: [MetricDef; 3] = [
    hi("events_per_s", "events/s"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer metrics; reported by the traced run only. A workload
/// reports 0 for the layers it does not exercise. Counts have no better
/// direction: they repeat exactly for a seed and must not move under a
/// speed-only change (the direction given is the one a correctness fix
/// would be expected to take, for the file format's sake).
pub const PER_LAYER: [MetricDef; 83] = [
    lo("workload.generate_s", "s"),
    lo("workload.subscriptions_s", "s"),
    lo("workload.live_events_s", "s"),
    hi("workload.events", "count"),
    hi("workload.pages", "count"),
    lo("topology.build_s", "s"),
    lo("topology.costs_s", "s"),
    lo("sim.compile_s", "s"),
    lo("sim.compile_from_matcher_s", "s"),
    lo("sim.replay.construct_s", "s"),
    lo("sim.replay.run_s", "s"),
    lo("sim.replay.ns_per_event", "ns/event"),
    lo("sim.replay.cell_ms_p50", "ms"),
    lo("sim.replay.cell_ms_max", "ms"),
    lo("core.replay_ns_per_event.lru", "ns/event"),
    lo("core.replay_ns_per_event.gds", "ns/event"),
    lo("core.replay_ns_per_event.lfu-da", "ns/event"),
    lo("core.replay_ns_per_event.gdstar", "ns/event"),
    lo("core.replay_ns_per_event.sub", "ns/event"),
    lo("core.replay_ns_per_event.sg1", "ns/event"),
    lo("core.replay_ns_per_event.sg2", "ns/event"),
    lo("core.replay_ns_per_event.sr", "ns/event"),
    lo("core.replay_ns_per_event.dm", "ns/event"),
    lo("core.replay_ns_per_event.dc-fp", "ns/event"),
    lo("core.replay_ns_per_event.dc-ap", "ns/event"),
    lo("core.replay_ns_per_event.dc-lap", "ns/event"),
    lo("broker.publish_ns", "ns"),
    lo("broker.request_ns", "ns"),
    lo("broker.push_offers", "count"),
    hi("broker.push_stored", "count"),
    hi("broker.push_stored_ratio", "ratio"),
    lo("broker.pushed_pages", "count"),
    lo("broker.fetched_pages", "count"),
    lo("cache.evictions", "count"),
    lo("cache.invalidate_dropped", "count"),
    lo("core.relabels", "count"),
    hi("sim.hits", "count"),
    hi("sim.requests", "count"),
    lo("sim.result_digest", "hash"),
    lo("obs.stats_overhead_pct", "%"),
    lo("sim.shard_t2.ns_per_event", "ns/event"),
    hi("service.workers2.events_per_s", "events/s"),
    lo("sim.stream.build_s", "s"),
    lo("sim.stream.drain_s", "s"),
    lo("sim.stream.window_ms_p50", "ms"),
    lo("sim.stream.window_ms_max", "ms"),
    lo("sim.stream.peak_buffer_mb", "MB"),
    hi("sim.stream.windows", "count"),
    hi("sim.stream.events", "count"),
    lo("sim.prefetch.drain_s", "s"),
    lo("sim.prefetch.peak_windows", "count"),
    lo("sim.prefetch.peak_mb", "MB"),
    lo("sim.stream.replay_s.sub", "s"),
    lo("sim.stream.replay_s.gdstar", "s"),
    lo("sim.stream.serial_replay_s", "s"),
    lo("service.new_s", "s"),
    lo("service.ingest_s", "s"),
    lo("service.flush_s", "s"),
    lo("service.shutdown_s", "s"),
    lo("service.batch_p50_us", "us"),
    lo("service.batch_p99_us", "us"),
    lo("service.batch_max_us", "us"),
    lo("service.snapshot_ms_p50", "ms"),
    lo("service.snapshot_ms_max", "ms"),
    hi("service.snapshots", "count"),
    lo("service.journal_mb", "MB"),
    lo("service.snapshot_mb", "MB"),
    hi("service.inmem_events_per_s", "events/s"),
    hi("service.journal_only_events_per_s", "events/s"),
    lo("service.recover_s", "s"),
    lo("matching.subscribe_s", "s"),
    hi("matching.subscriptions", "count"),
    lo("matching.freeze_s", "s"),
    lo("matching.publish_match_us_p50", "us"),
    lo("matching.request_count_ns", "ns"),
    hi("matching.matched_pairs", "count"),
    hi("matching.pairs_per_publish", "ratio"),
    lo("matching.refreeze_ms_p50", "ms"),
    hi("matching.refreezes", "count"),
    lo("harness.wall_s", "s"),
    lo("harness.unattributed_pct", "%"),
    lo("harness.trace_overhead_pct", "%"),
    lo("harness.calibration_ns", "ns"),
];
