//! Per-proxy workers: shard state and the persistent worker threads.
//!
//! A [`DeliveryEngine`] is deliberately single-threaded (its observer
//! handle is an `Rc`), so the service never shares engines across
//! threads. Instead each worker thread *builds and owns* its shard of
//! the fleet, and the supervisor streams fully resolved batches to every
//! worker over a channel. Message order per channel is FIFO, so a
//! snapshot or shutdown request enqueued after a batch observes that
//! batch applied — no separate barrier is needed.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pscd_broker::{DeliveryEngine, PushRecord, Traffic};
use pscd_cache::snapshot::{put_u32, put_u64};
use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_core::Strategy;
use pscd_obs::SharedObserver;
use pscd_sim::live::{apply_publish, apply_request};
use pscd_sim::{HourlySeries, SimResult};
use pscd_types::{PageId, PageMeta, ServerId, SimTime};

use crate::config::{ServiceConfig, ServiceError};

/// One ingest event with all strategy-independent resolution already
/// done by the supervisor: publish fan-outs are materialized as slices
/// of the batch's pair table, requests carry their subscription count,
/// and version lineage is resolved to a concrete superseded page.
///
/// Resolving at ingest (not at apply) is what makes batching invisible:
/// a `Subscribe` inside a batch updates the supervisor's rows
/// immediately, but the fan-outs of publishes resolved *before* it were
/// already copied out, exactly as if every event were applied the moment
/// it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedEvent {
    /// A publish: deliver `pairs[pair_lo..pair_hi]` of the batch.
    Publish {
        /// Publication instant.
        time: SimTime,
        /// The published page.
        page: PageId,
        /// Start of the matched-pair slice in the batch's pair table.
        pair_lo: u32,
        /// End of the matched-pair slice.
        pair_hi: u32,
        /// The previous version to invalidate, if any.
        supersedes: Option<PageId>,
    },
    /// A subscriber request.
    Request {
        /// Request instant.
        time: SimTime,
        /// The proxy serving it.
        server: ServerId,
        /// The requested page.
        page: PageId,
        /// Subscriptions matching the page at that proxy.
        subs: u32,
    },
}

/// A batch of resolved events plus the pair table their publish slices
/// index into. Buffers are reused across batches on the inline path.
#[derive(Debug, Default)]
pub(crate) struct ResolvedBatch {
    pub(crate) events: Vec<ResolvedEvent>,
    pub(crate) pairs: Vec<(ServerId, u32)>,
}

impl ResolvedBatch {
    /// Preallocates for `batch_size` events over a fleet of `servers`.
    /// One publish fans out to at most the whole fleet, so
    /// `batch_size * servers` bounds the pair table — the same
    /// worst-case-dense sizing the replay's eviction scratch uses, which
    /// is what keeps the inline ingest path allocation-free in steady
    /// state.
    pub(crate) fn with_capacity(batch_size: usize, servers: u16) -> Self {
        Self {
            events: Vec::with_capacity(batch_size),
            pairs: Vec::with_capacity(batch_size * servers as usize),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.pairs.clear();
    }
}

/// One proxy's share of a decoded snapshot file: its accounting, and
/// where in the file its strategy blob lies.
#[derive(Debug, Clone)]
pub(crate) struct ServerSnap {
    pub(crate) hits: u64,
    pub(crate) requests: u64,
    pub(crate) traffic: Traffic,
    pub(crate) blob: Range<usize>,
}

/// What one shard contributes to a snapshot: its hourly series and its
/// servers' records as the snapshot file holds them, in range order.
#[derive(Debug)]
pub(crate) struct ShardSnap {
    pub(crate) hourly: HourlySeries,
    pub(crate) servers: Vec<u8>,
}

/// State to restore into a freshly built shard before it processes any
/// event.
#[derive(Debug)]
pub(crate) struct ShardRestore {
    /// The snapshot file the blob ranges index: shared, not copied, by
    /// every shard restored from it.
    pub(crate) file: Arc<Vec<u8>>,
    /// Per-server state for the shard's range, in range order.
    pub(crate) servers: Vec<ServerSnap>,
    /// The merged hourly series; only one shard receives it (absorb is
    /// component-wise addition, so where the buckets live is irrelevant
    /// to the merged totals).
    pub(crate) hourly: Option<HourlySeries>,
}

/// One shard of the proxy fleet: a range-local [`DeliveryEngine`] plus
/// its accounting, with the same apply semantics as the batch replay
/// loop (both call into [`pscd_sim::live`]).
#[derive(Debug)]
pub(crate) struct Shard {
    engine: DeliveryEngine,
    hourly: HourlySeries,
    push_scratch: Vec<PushRecord>,
    start: u16,
    end: u16,
}

impl Shard {
    /// Builds the shard owning global servers `[start, end)`.
    pub(crate) fn build(config: &ServiceConfig, start: u16, end: u16) -> Self {
        let obs = SharedObserver::disabled();
        let strategies = (start..end)
            .map(|s| {
                config.strategy.build(
                    config.capacities[s as usize],
                    config.pages.len(),
                    obs.handle(ServerId::new(s)),
                )
            })
            .collect();
        let costs = (start..end).map(|s| config.costs[s as usize]).collect();
        let mut engine =
            DeliveryEngine::new(strategies, costs, config.scheme, obs, ServerId::new(start))
                .expect("fresh strategies, one per cost");
        engine.reserve_pages(config.pages.len());
        Self {
            engine,
            hourly: HourlySeries::new(config.hours),
            push_scratch: Vec::with_capacity((end - start) as usize),
            start,
            end,
        }
    }

    /// Applies every event of `batch` that touches this shard's range.
    pub(crate) fn apply(
        &mut self,
        batch: &ResolvedBatch,
        pages: &[PageMeta],
        invalidate_stale: bool,
    ) {
        for ev in &batch.events {
            match *ev {
                ResolvedEvent::Publish {
                    time,
                    page,
                    pair_lo,
                    pair_hi,
                    supersedes,
                } => {
                    if invalidate_stale {
                        if let Some(stale) = supersedes {
                            self.engine.invalidate_everywhere(stale);
                        }
                    }
                    let pairs = &batch.pairs[pair_lo as usize..pair_hi as usize];
                    let lo = pairs.partition_point(|&(s, _)| s.index() < self.start);
                    let hi = pairs.partition_point(|&(s, _)| s.index() < self.end);
                    apply_publish(
                        &mut self.engine,
                        &mut self.hourly,
                        &pages[page.as_usize()],
                        time,
                        &pairs[lo..hi],
                        &mut self.push_scratch,
                    );
                }
                ResolvedEvent::Request {
                    time,
                    server,
                    page,
                    subs,
                } => {
                    if (self.start..self.end).contains(&server.index()) {
                        apply_request(
                            &mut self.engine,
                            &mut self.hourly,
                            server,
                            &pages[page.as_usize()],
                            time,
                            subs,
                        )
                        .expect("server filtered to the shard range");
                    }
                }
            }
        }
    }

    /// The shard's hourly accounting.
    pub(crate) fn hourly(&self) -> &HourlySeries {
        &self.hourly
    }

    /// Appends the shard's servers to a snapshot file, in range order:
    /// each one's accounting, then its strategy blob behind its length.
    /// The strategy encodes straight into `out`; the length is patched in
    /// behind it.
    pub(crate) fn encode_servers(&self, out: &mut Vec<u8>) {
        for s in self.start..self.end {
            let server = ServerId::new(s);
            let (hits, requests) = self.engine.hit_stats(server);
            let traffic = self.engine.traffic(server);
            put_u64(out, hits);
            put_u64(out, requests);
            put_u64(out, traffic.pushed_pages);
            put_u64(out, traffic.pushed_bytes.as_u64());
            put_u64(out, traffic.fetched_pages);
            put_u64(out, traffic.fetched_bytes.as_u64());
            let at = out.len();
            put_u32(out, 0);
            self.engine.strategy(server).encode_snapshot(out);
            let len = (out.len() - at - 4) as u32;
            out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Captures the shard's full mutable state.
    pub(crate) fn snapshot(&self) -> ShardSnap {
        let mut servers = Vec::new();
        self.encode_servers(&mut servers);
        ShardSnap {
            hourly: self.hourly.clone(),
            servers,
        }
    }

    /// Restores state captured by [`Shard::encode_servers`] into this
    /// freshly built shard.
    pub(crate) fn restore(&mut self, restore: &ShardRestore) -> Result<(), SnapshotError> {
        debug_assert_eq!(restore.servers.len(), (self.end - self.start) as usize);
        for (i, snap) in restore.servers.iter().enumerate() {
            let server = ServerId::new(self.start + i as u16);
            let mut r = SnapshotReader::new(&restore.file[snap.blob.clone()]);
            self.engine.restore_strategy(server, &mut r)?;
            if !r.is_empty() {
                return Err(SnapshotError::Corrupt("trailing bytes in strategy blob"));
            }
            self.engine
                .restore_accounting(server, snap.hits, snap.requests, snap.traffic);
        }
        if let Some(hourly) = &restore.hourly {
            self.hourly = hourly.clone();
        }
        Ok(())
    }

    /// The shard's contribution to the final result: an identity-shaped
    /// [`SimResult`] (zeros outside the range) plus the per-proxy
    /// strategy blobs, in range order.
    pub(crate) fn finish(&self, servers_total: u16) -> ShardFinish {
        let mut per_server = vec![(0u64, 0u64); servers_total as usize];
        let mut hits = 0u64;
        let mut requests = 0u64;
        for s in self.start..self.end {
            let stats = self.engine.hit_stats(ServerId::new(s));
            per_server[s as usize] = stats;
            hits += stats.0;
            requests += stats.1;
        }
        let name = self.engine.strategy(ServerId::new(self.start)).name();
        let result = SimResult {
            strategy: name.to_owned(),
            hits,
            requests,
            traffic: self.engine.total_traffic(),
            hourly: self.hourly.clone(),
            per_server,
        };
        let mut proxies = Vec::with_capacity((self.end - self.start) as usize);
        // One buffer grows to a blob's size once; each proxy keeps an
        // exact copy.
        let mut blob = Vec::new();
        for s in self.start..self.end {
            blob.clear();
            self.engine
                .strategy(ServerId::new(s))
                .encode_snapshot(&mut blob);
            proxies.push(blob.clone());
        }
        (result, proxies)
    }
}

/// What a shard hands back at shutdown: its partial `SimResult` plus the
/// canonical per-proxy cache snapshots for its server range.
pub(crate) type ShardFinish = (SimResult, Vec<Vec<u8>>);

/// Messages to a worker thread. FIFO channel order doubles as the
/// barrier: a `Snapshot`/`Finish` reply reflects every batch sent before
/// it.
pub(crate) enum ToWorker {
    Batch(Arc<ResolvedBatch>),
    Snapshot(Sender<ShardSnap>),
    Finish(Sender<ShardFinish>),
}

impl std::fmt::Debug for ToWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToWorker::Batch(b) => write!(f, "Batch({} events)", b.events.len()),
            ToWorker::Snapshot(_) => write!(f, "Snapshot"),
            ToWorker::Finish(_) => write!(f, "Finish"),
        }
    }
}

/// A handle to one persistent worker thread. Dropping the handle closes
/// the channel and joins the thread.
#[derive(Debug)]
pub(crate) struct WorkerHandle {
    tx: Option<Sender<ToWorker>>,
    join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Spawns a worker owning servers `[start, end)`, optionally restored
    /// from snapshot state before it accepts batches.
    pub(crate) fn spawn(
        config: &ServiceConfig,
        start: u16,
        end: u16,
        restore: Option<ShardRestore>,
    ) -> Result<Self, ServiceError> {
        let (tx, rx) = mpsc::channel::<ToWorker>();
        // The restore result must reach the supervisor before it starts
        // streaming batches into a possibly half-restored shard.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), SnapshotError>>();
        let config = config.clone();
        let join = std::thread::Builder::new()
            .name(format!("pscd-worker-{start}"))
            .spawn(move || worker_main(&config, start, end, restore, &ready_tx, &rx))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(Self {
                tx: Some(tx),
                join: Some(join),
            }),
            Ok(Err(e)) => {
                join.join().ok();
                Err(e.into())
            }
            Err(_) => {
                join.join().ok();
                Err(ServiceError::Stopped)
            }
        }
    }

    /// Sends a message; [`ServiceError::Stopped`] if the worker died.
    pub(crate) fn send(&self, msg: ToWorker) -> Result<(), ServiceError> {
        self.tx
            .as_ref()
            .ok_or(ServiceError::Stopped)?
            .send(msg)
            .map_err(|_| ServiceError::Stopped)
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Close the channel first so the worker's recv loop ends, then
        // join to keep thread lifetimes inside the supervisor's.
        self.tx.take();
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
    }
}

fn worker_main(
    config: &ServiceConfig,
    start: u16,
    end: u16,
    restore: Option<ShardRestore>,
    ready: &Sender<Result<(), SnapshotError>>,
    rx: &Receiver<ToWorker>,
) {
    let mut shard = Shard::build(config, start, end);
    let restored = match &restore {
        Some(r) => shard.restore(r),
        None => Ok(()),
    };
    let failed = restored.is_err();
    ready.send(restored).ok();
    if failed {
        return;
    }
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Batch(batch) => {
                shard.apply(&batch, &config.pages, config.invalidate_stale);
            }
            ToWorker::Snapshot(reply) => {
                reply.send(shard.snapshot()).ok();
            }
            ToWorker::Finish(reply) => {
                reply.send(shard.finish(config.server_count())).ok();
                return;
            }
        }
    }
}

/// Decodes one server record of a snapshot file (what
/// [`Shard::encode_servers`] wrote for it), leaving the blob where it is:
/// `r` must read the file from its first byte, so that positions are
/// file offsets.
pub(crate) fn read_server_snap(r: &mut SnapshotReader<'_>) -> Result<ServerSnap, SnapshotError> {
    let hits = r.read_u64()?;
    let requests = r.read_u64()?;
    let traffic = Traffic {
        pushed_pages: r.read_u64()?,
        pushed_bytes: pscd_types::Bytes::new(r.read_u64()?),
        fetched_pages: r.read_u64()?,
        fetched_bytes: pscd_types::Bytes::new(r.read_u64()?),
    };
    let len = r.read_u32()? as usize;
    let at = r.position();
    r.read_bytes(len)?;
    Ok(ServerSnap {
        hits,
        requests,
        traffic,
        blob: at..at + len,
    })
}
