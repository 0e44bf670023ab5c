//! Per-proxy workers: shard state and the persistent worker threads.
//!
//! A shard is the simulator's own replay over the shard's server range, a
//! [`ReplayState`]: the supervisor resolves each batch into the
//! simulator's window buffer ([`OwnedWindow`]) and a shard drains it with
//! [`ReplayState::step`], the step batch replay runs. A `ReplayState`'s
//! [`DeliveryEngine`](pscd_broker::DeliveryEngine) is deliberately
//! single-threaded (its observer handle is an `Rc`), so the service never
//! shares shards across threads. Instead each worker thread *builds and
//! owns* its shard of the fleet, and the supervisor streams every batch
//! to every worker over a channel. Message order per channel is FIFO, so
//! a snapshot or shutdown request enqueued after a batch observes that
//! batch applied — no separate barrier is needed.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pscd_broker::Traffic;
use pscd_cache::snapshot::{put_u32, put_u64};
use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_obs::{NullObserver, SharedObserver};
use pscd_sim::{HourlySeries, OwnedWindow, ReplayState, SimResult};
use pscd_topology::FetchCosts;
use pscd_types::ServerId;

use crate::config::{ServiceConfig, ServiceError};

/// One shard of the proxy fleet.
pub(crate) type Shard = ReplayState<NullObserver>;

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

/// Builds the shard owning global servers `[start, end)`, restored from
/// `restore` when given.
pub(crate) fn build_shard(
    config: &ServiceConfig,
    costs: &FetchCosts,
    start: u16,
    end: u16,
    mut restore: Option<ShardRestore>,
) -> Result<Shard, SnapshotError> {
    let hourly = restore.as_mut().and_then(|r| r.hourly.take());
    let mut shard = ReplayState::new(
        config.strategy,
        config.scheme,
        config.invalidate_stale,
        None,
        config.capacities.clone(),
        costs,
        config.pages.len(),
        hourly.unwrap_or_else(|| HourlySeries::new(config.hours)),
        SharedObserver::disabled(),
        start..end,
    );
    let Some(restore) = restore else {
        return Ok(shard);
    };
    debug_assert_eq!(restore.servers.len(), (end - start) as usize);
    let engine = shard.engine_mut();
    for (server, snap) in (start..end).map(ServerId::new).zip(&restore.servers) {
        let mut r = SnapshotReader::new(&restore.file[snap.blob.clone()]);
        engine.restore_strategy(server, &mut r)?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes in strategy blob"));
        }
        engine.restore_accounting(server, snap.hits, snap.requests, snap.traffic);
    }
    Ok(shard)
}

/// The servers a shard owns, in order.
fn servers(shard: &Shard) -> impl Iterator<Item = ServerId> {
    let first = shard.engine().first_server().index();
    (first..first + shard.engine().server_count()).map(ServerId::new)
}

/// Appends the shard's servers to a snapshot file, in range order: each
/// one's accounting, then its strategy blob behind its length. The
/// strategy encodes straight into `out`; the length is patched in behind
/// it.
pub(crate) fn encode_servers(shard: &Shard, out: &mut Vec<u8>) {
    let engine = shard.engine();
    for server in servers(shard) {
        let (hits, requests) = engine.hit_stats(server);
        let traffic = engine.traffic(server);
        put_u64(out, hits);
        put_u64(out, requests);
        put_u64(out, traffic.pushed_pages);
        put_u64(out, traffic.pushed_bytes.as_u64());
        put_u64(out, traffic.fetched_pages);
        put_u64(out, traffic.fetched_bytes.as_u64());
        let at = out.len();
        put_u32(out, 0);
        engine.strategy(server).encode_snapshot(out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Captures the shard's full mutable state.
fn snapshot(shard: &Shard) -> ShardSnap {
    let mut servers = Vec::new();
    encode_servers(shard, &mut servers);
    ShardSnap {
        hourly: shard.hourly().clone(),
        servers,
    }
}

/// The shard's contribution to the final result: its [`SimResult`]
/// (zeros outside the range) plus the per-proxy strategy blobs, in range
/// order.
pub(crate) fn finish(shard: Shard) -> ShardFinish {
    // One buffer grows to a blob's size once; each proxy keeps an exact
    // copy.
    let mut blob = Vec::new();
    let proxies = servers(&shard)
        .map(|server| {
            blob.clear();
            shard.engine().strategy(server).encode_snapshot(&mut blob);
            blob.clone()
        })
        .collect();
    (shard.finish(), proxies)
}

/// What a shard hands back at shutdown: its partial `SimResult` plus the
/// canonical per-proxy cache snapshots for its server range.
pub(crate) type ShardFinish = (SimResult, Vec<Vec<u8>>);

/// Messages to a worker thread. FIFO channel order doubles as the
/// barrier: a `Snapshot`/`Finish` reply reflects every batch sent before
/// it.
pub(crate) enum ToWorker {
    Batch(Arc<OwnedWindow>),
    Snapshot(Sender<ShardSnap>),
    Finish(Sender<ShardFinish>),
}

impl std::fmt::Debug for ToWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToWorker::Batch(b) => write!(f, "Batch({} events)", b.len()),
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
        costs: &FetchCosts,
        start: u16,
        end: u16,
        restore: Option<ShardRestore>,
    ) -> Result<Self, ServiceError> {
        let (tx, rx) = mpsc::channel::<ToWorker>();
        // The restore result must reach the supervisor before it starts
        // streaming batches into a possibly half-restored shard.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), SnapshotError>>();
        let config = config.clone();
        let costs = costs.clone();
        let join = std::thread::Builder::new()
            .name(format!("pscd-worker-{start}"))
            .spawn(move || {
                worker_main(&config, &costs, start, end, restore, &ready_tx, &rx);
            })?;
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
    costs: &FetchCosts,
    start: u16,
    end: u16,
    restore: Option<ShardRestore>,
    ready: &Sender<Result<(), SnapshotError>>,
    rx: &Receiver<ToWorker>,
) {
    let mut shard = match build_shard(config, costs, start, end, restore) {
        Ok(shard) => shard,
        Err(e) => {
            ready.send(Err(e)).ok();
            return;
        }
    };
    ready.send(Ok(())).ok();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Batch(batch) => {
                let window = batch.view(&config.pages);
                while shard.step(&window).is_some() {}
            }
            ToWorker::Snapshot(reply) => {
                reply.send(snapshot(&shard)).ok();
            }
            ToWorker::Finish(reply) => {
                reply.send(finish(shard)).ok();
                return;
            }
        }
    }
}

/// Decodes one server record of a snapshot file (what
/// [`encode_servers`] wrote for it), leaving the blob where it is: `r`
/// must read the file from its first byte, so that positions are file
/// offsets.
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
