//! Seeded load generation against a live [`ServiceCore`].
//!
//! `run_load` drives a precomputed event stream into the service in
//! fixed-size batches, timing every batch and recording service metrics
//! (`service.events`, `service.batches`, `service.batch_micros`) into a
//! [`Registry`] plus optional trace spans — the sustained-throughput
//! harness behind `repro serve --load`.

use std::time::Instant;

use pscd_obs::{Registry, TraceSink};
use pscd_types::LiveEvent;

use crate::config::ServiceError;
use crate::core::ServiceCore;

/// What a load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Events ingested.
    pub events: u64,
    /// Ingest batches submitted.
    pub batches: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Sustained ingest rate.
    pub events_per_sec: f64,
    /// Median batch ingest latency in microseconds.
    pub batch_micros_p50: f64,
    /// Tail batch ingest latency in microseconds.
    pub batch_micros_p99: f64,
}

/// Drives `events` into the service in batches of `batch` (the ingest
/// granularity a client would use), recording per-batch
/// latency into `registry` and a span per batch into `sink`.
///
/// # Errors
///
/// The first [`ServiceCore::ingest_all`] error, with everything before
/// it already applied.
pub fn run_load(
    core: &mut ServiceCore,
    events: &[LiveEvent],
    batch: usize,
    registry: &mut Registry,
    sink: &TraceSink,
) -> Result<LoadReport, ServiceError> {
    let batch = batch.max(1);
    let mut recorder = sink.recorder("service.load");
    let mut batches = 0u64;
    let started = Instant::now();
    for chunk in events.chunks(batch) {
        let span = recorder.begin();
        let chunk_started = Instant::now();
        core.ingest_all(chunk)?;
        let micros = chunk_started.elapsed().as_secs_f64() * 1e6;
        recorder.end_with(span, "ingest_batch", || format!("{} events", chunk.len()));
        registry.observe("service.batch_micros", micros);
        registry.add("service.events", chunk.len() as u64);
        registry.inc("service.batches");
        batches += 1;
    }
    core.flush()?;
    let elapsed_secs = started.elapsed().as_secs_f64();
    let hist = registry.histogram("service.batch_micros");
    Ok(LoadReport {
        events: events.len() as u64,
        batches,
        elapsed_secs,
        events_per_sec: if elapsed_secs > 0.0 {
            events.len() as f64 / elapsed_secs
        } else {
            0.0
        },
        batch_micros_p50: hist.map_or(0.0, pscd_obs::Log2Histogram::p50),
        batch_micros_p99: hist.map_or(0.0, pscd_obs::Log2Histogram::p99),
    })
}
