//! The service supervisor: event ingestion, routing, snapshots and
//! crash recovery.
//!
//! [`ServiceCore`] owns everything strategy-independent — the live
//! subscription rows, version lineage, the write-ahead journal and the
//! snapshot cadence — and resolves each batch into the simulator's own
//! window buffer ([`OwnedWindow`]), which every shard of the proxy fleet
//! drains through the simulator's replay step. Events are **resolved at
//! ingest**: a publish's fan-out is copied out of the subscription rows
//! the moment it arrives, so a later subscribe in the same batch can
//! never retroactively change it. That is what makes the service
//! bit-identical to the batch replay, which performs the same resolution
//! in [`CompiledTrace::compile`] — and the resolution state machines
//! themselves live in [`pscd_sim::resolve`], shared verbatim by both
//! paths.
//!
//! [`CompiledTrace::compile`]: pscd_sim::CompiledTrace::compile

use std::fs;
use std::sync::mpsc;
use std::sync::Arc;

use pscd_cache::snapshot::{put_u16, put_u32, put_u64};
use pscd_cache::SnapshotReader;
use pscd_matching::{EngineMatcher, MatchScratch, Subscription, SubscriptionId};
use pscd_pool::effective_threads;
use pscd_sim::resolve::{SubscriptionRows, VersionHeads};
use pscd_sim::{HourlySeries, OwnedWindow, SimResult};
use pscd_topology::FetchCosts;
use pscd_types::{LiveEvent, PageId, ServerId};

use crate::config::{ServiceConfig, ServiceError};
use crate::journal::Journal;
use crate::kept::KeptFanouts;
use crate::wire::SNAPSHOT_MAGIC;
use crate::worker::{
    build_shard, encode_servers, finish, read_server_snap, ServerSnap, Shard, ShardRestore,
    ShardSnap, ToWorker, WorkerHandle,
};

const JOURNAL_FILE: &str = "journal.bin";
const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The proxy fleet: either one shard applied inline on the ingesting
/// thread (the allocation-free single-threaded path), or persistent
/// worker threads each owning a contiguous server range.
#[derive(Debug)]
enum Fleet {
    Inline(Box<Shard>),
    Threaded(Vec<WorkerHandle>),
}

/// The final state of a drained service: the run's accounting (the same
/// [`SimResult`] shape the batch simulation produces) plus every proxy's
/// serialized cache state, in server order.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Merged accounting across the fleet.
    pub result: SimResult,
    /// Per-proxy strategy snapshots ([`StrategyImpl::encode_snapshot`]
    /// blobs), indexed by server.
    ///
    /// [`StrategyImpl::encode_snapshot`]: pscd_core::StrategyImpl::encode_snapshot
    pub proxies: Vec<Vec<u8>>,
}

/// A live broker service: ingests publish/subscribe/request events one
/// at a time (no pre-merged timeline), journals them, and applies them
/// to the proxy fleet.
#[derive(Debug)]
pub struct ServiceCore {
    config: ServiceConfig,
    /// Live subscription rows (shared resolution state machine).
    rows: SubscriptionRows,
    /// Invalidation lineage: latest published version per origin page.
    heads: VersionHeads,
    fleet: Fleet,
    journal: Option<Journal>,
    /// The pending batch. Publish ordinals are batch-local, so they never
    /// wrap however long the service runs.
    batch: OwnedWindow,
    /// The last snapshot file's bytes, kept so the next one is encoded
    /// into storage that is already there.
    snapshot_buf: Vec<u8>,
    events_applied: u64,
    last_snapshot: u64,
    /// Optional content-based matcher. When attached, publish fan-outs
    /// resolve against its frozen kernel instead of the count rows, and
    /// request counts against the fan-out their page's publish found
    /// (`kept`), or the kernel where that is stale; the kernel absorbs
    /// dynamic [`subscribe_content`] calls, and only a burst past what it
    /// absorbs makes the next resolve refreeze it.
    ///
    /// [`subscribe_content`]: ServiceCore::subscribe_content
    matcher: Option<EngineMatcher>,
    /// Counting scratch for the attached matcher's frozen kernel.
    match_scratch: MatchScratch,
    /// Fan-out buffer for the attached matcher (reused per publish).
    fanout_buf: Vec<(ServerId, u32)>,
    /// The fan-outs the attached matcher has computed, per page. In-memory
    /// state like the matcher: emptied when one is attached, never
    /// persisted.
    kept: KeptFanouts,
}

/// Contiguous even partition of `servers` across `workers` shards.
fn partition(servers: u16, workers: usize) -> Vec<(u16, u16)> {
    let workers = workers as u16;
    let base = servers / workers;
    let rem = servers % workers;
    let mut ranges = Vec::with_capacity(workers as usize);
    let mut start = 0u16;
    for i in 0..workers {
        let len = base + u16::from(i < rem);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// An empty batch with room for `batch_size` events. One publish fans out
/// to at most the whole fleet, so `batch_size * servers` bounds the pair
/// table — the same worst-case-dense sizing the replay's eviction scratch
/// uses, which is what keeps the inline ingest path allocation-free in
/// steady state.
fn new_batch(config: &ServiceConfig) -> OwnedWindow {
    let servers = config.server_count() as usize;
    OwnedWindow::with_capacity(config.batch_size, config.batch_size * servers)
}

impl ServiceCore {
    /// Starts a fresh service. With a persistence directory configured,
    /// any existing journal is truncated — use [`ServiceCore::recover`]
    /// to resume from persisted state instead.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let costs = config.checked_costs()?;
        let journal = match &config.dir {
            Some(dir) => {
                fs::create_dir_all(dir)?;
                Some(Journal::create(&dir.join(JOURNAL_FILE))?)
            }
            None => None,
        };
        let fleet = Self::build_fleet(&config, &costs, None)?;
        let pages = config.pages.len();
        Ok(Self {
            rows: SubscriptionRows::new(pages),
            heads: VersionHeads::new(pages),
            fleet,
            journal,
            batch: new_batch(&config),
            snapshot_buf: Vec::new(),
            events_applied: 0,
            last_snapshot: 0,
            matcher: None,
            match_scratch: MatchScratch::new(),
            fanout_buf: Vec::new(),
            kept: KeptFanouts::default(),
            config,
        })
    }

    /// Rebuilds a crashed service from its persistence directory: the
    /// last snapshot (if any) restores the fleet, then the journal's
    /// suffix replays through the ordinary ingest path. Converges to the
    /// exact state of a service that never crashed, because resolution
    /// and apply are deterministic functions of the event sequence.
    pub fn recover(config: ServiceConfig) -> Result<Self, ServiceError> {
        let costs = config.checked_costs()?;
        let dir = config.dir.clone().ok_or(ServiceError::Config {
            what: "dir",
            constraint: "set for recovery",
        })?;
        let journal_path = dir.join(JOURNAL_FILE);
        let snapshot = match fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Some(decode_snapshot_file(Arc::new(bytes), &config)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let (k, rows, heads, restore) = match snapshot {
            Some(s) => (s.events_applied, s.rows, s.heads, Some(s.restore)),
            None => {
                let pages = config.pages.len();
                (
                    0,
                    SubscriptionRows::new(pages),
                    VersionHeads::new(pages),
                    None,
                )
            }
        };
        // The snapshot covers the journal's first `k` records: they are
        // walked, not decoded.
        let events = Journal::read_from(&journal_path, k)?;
        let fleet = Self::build_fleet(&config, &costs, restore)?;
        let mut core = Self {
            rows,
            heads,
            fleet,
            journal: None,
            batch: new_batch(&config),
            snapshot_buf: Vec::new(),
            events_applied: k,
            last_snapshot: k,
            matcher: None,
            match_scratch: MatchScratch::new(),
            fanout_buf: Vec::new(),
            kept: KeptFanouts::default(),
            config,
        };
        // Replay the journal suffix without re-journaling and without
        // taking cadence snapshots (the journal already covers it).
        for ev in &events {
            core.check(ev)?;
            core.resolve(*ev);
            if core.batch.len() >= core.config.batch_size {
                core.dispatch()?;
            }
        }
        core.flush()?;
        core.journal = Some(Journal::open_append(&journal_path)?);
        Ok(core)
    }

    fn build_fleet(
        config: &ServiceConfig,
        costs: &FetchCosts,
        restore: Option<FleetRestore>,
    ) -> Result<Fleet, ServiceError> {
        let servers = config.server_count();
        let workers = effective_threads(config.workers, servers as usize);
        // Restored state arrives as one merged snapshot: all servers in
        // order plus one hourly series. The servers are dealt back across
        // the fleet; the hourly buckets all land on the first shard
        // (absorb is component-wise addition, so placement is irrelevant
        // to totals).
        let mut restore = restore.map(|r| (r.file, r.servers.into_iter(), Some(r.hourly)));
        let mut restore_of = |start: u16, end: u16| {
            restore
                .as_mut()
                .map(|(file, servers, hourly)| ShardRestore {
                    file: Arc::clone(file),
                    servers: servers.by_ref().take((end - start) as usize).collect(),
                    hourly: hourly.take(),
                })
        };
        if workers <= 1 {
            let shard = build_shard(config, costs, 0, servers, restore_of(0, servers))?;
            return Ok(Fleet::Inline(Box::new(shard)));
        }
        let mut handles = Vec::with_capacity(workers);
        for (start, end) in partition(servers, workers) {
            let restore = restore_of(start, end);
            handles.push(WorkerHandle::spawn(config, costs, start, end, restore)?);
        }
        Ok(Fleet::Threaded(handles))
    }

    /// Total events accepted so far (journal offset of the next event).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Attaches a content-based matcher: from now on, publish fan-outs
    /// resolve against its frozen kernel instead of the count rows, and a
    /// request's subscription count is the one its page's last publish
    /// found at that proxy — or the kernel's, for a page not published
    /// since the attach or a proxy whose content subscriptions changed
    /// after that publish ([`LiveEvent::Subscribe`] events still maintain
    /// the rows — and the snapshot format — but no longer drive
    /// resolution). The matcher is frozen here; later content calls keep
    /// that compilation current instead of dropping it.
    ///
    /// The matcher and the fan-outs kept from it are in-memory state, not
    /// persisted: a [`recover`](ServiceCore::recover)ed service starts
    /// back in count-row mode until a matcher is attached again, and
    /// attaching one forgets what was kept from the last.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if the matcher covers a different fleet or
    /// page universe than the configured one.
    pub fn attach_matcher(&mut self, mut matcher: EngineMatcher) -> Result<(), ServiceError> {
        if matcher.server_count() != self.config.server_count()
            || !matcher.covers(self.config.pages.len())
        {
            return Err(ServiceError::Config {
                what: "matcher",
                constraint: "covering the configured fleet and page universe",
            });
        }
        matcher.freeze();
        self.matcher = Some(matcher);
        self.kept
            .reset(self.config.pages.len(), self.config.server_count());
        Ok(())
    }

    /// `true` while a content matcher is attached and a frozen kernel
    /// answers for it. Stays `true` across content subscribes and
    /// unsubscribes; `false` only between a burst of them that outgrew the
    /// kernel and the next resolved event, which rebuilds it.
    pub fn matcher_frozen(&self) -> bool {
        self.matcher.as_ref().is_some_and(EngineMatcher::is_frozen)
    }

    /// Registers a content-based subscription at `server` — the dynamic
    /// subscribe path of the content mode. Takes effect at once, for the
    /// next resolved event, with no rebuild: the matcher evaluates it
    /// beside its frozen kernel (see [`EngineMatcher::freeze`] for the
    /// burst size past which the next resolve recompiles instead).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if no matcher is attached,
    /// [`ServiceError::UnknownServer`] if `server` is outside the fleet.
    pub fn subscribe_content(
        &mut self,
        server: ServerId,
        subscription: Subscription,
    ) -> Result<SubscriptionId, ServiceError> {
        let servers = self.config.server_count();
        let matcher = self.matcher.as_mut().ok_or(ServiceError::Config {
            what: "matcher",
            constraint: "attached before subscribe_content",
        })?;
        let unknown = ServiceError::UnknownServer {
            server: server.index(),
            servers,
        };
        let id = matcher
            .subscribe(server, subscription)
            .map_err(|_| unknown)?;
        self.kept.churned(server, self.events_applied);
        Ok(id)
    }

    /// Removes a content-based subscription — one registered by
    /// [`subscribe_content`](ServiceCore::subscribe_content) or one the
    /// attached matcher came with; like a subscribe it takes effect at
    /// once and costs no rebuild.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if no matcher is attached or the
    /// subscription is not registered at `server`,
    /// [`ServiceError::UnknownServer`] if `server` is outside the fleet.
    pub fn unsubscribe_content(
        &mut self,
        server: ServerId,
        id: SubscriptionId,
    ) -> Result<(), ServiceError> {
        let servers = self.config.server_count();
        let matcher = self.matcher.as_mut().ok_or(ServiceError::Config {
            what: "matcher",
            constraint: "attached before unsubscribe_content",
        })?;
        matcher.unsubscribe(server, id).map_err(|e| match e {
            pscd_matching::MatchError::UnknownServer { .. } => ServiceError::UnknownServer {
                server: server.index(),
                servers,
            },
            _ => ServiceError::Config {
                what: "subscription id",
                constraint: "registered at the given server",
            },
        })?;
        self.kept.churned(server, self.events_applied);
        Ok(())
    }

    /// Ingests one event.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPage`]/[`ServiceError::UnknownServer`] if
    /// the event references ids outside the configured universe (the
    /// event is rejected before it is journaled), or a persistence error.
    pub fn ingest(&mut self, ev: LiveEvent) -> Result<(), ServiceError> {
        self.ingest_all(std::slice::from_ref(&ev))
    }

    /// Ingests a sequence of events as one journal write.
    ///
    /// # Errors
    ///
    /// As [`ServiceCore::ingest`]; validation runs over the whole slice
    /// before anything is journaled, so a rejected call changes nothing.
    pub fn ingest_all(&mut self, events: &[LiveEvent]) -> Result<(), ServiceError> {
        for ev in events {
            self.check(ev)?;
        }
        if let Some(journal) = &mut self.journal {
            journal.append(events)?;
        }
        for ev in events {
            self.resolve(*ev);
            if self.batch.len() >= self.config.batch_size {
                self.dispatch()?;
            }
            if self.config.snapshot_every > 0
                && self.events_applied - self.last_snapshot >= self.config.snapshot_every
            {
                self.snapshot_now()?;
            }
        }
        Ok(())
    }

    /// Bounds-checks an event against the configured universe.
    fn check(&self, ev: &LiveEvent) -> Result<(), ServiceError> {
        let (page, server) = match *ev {
            LiveEvent::Subscribe { page, server, .. } => (page, Some(server)),
            LiveEvent::Publish { page, .. } => (page, None),
            LiveEvent::Request { page, server, .. } => (page, Some(server)),
        };
        if page.as_usize() >= self.config.pages.len() {
            return Err(ServiceError::UnknownPage {
                page: page.index(),
                pages: self.config.pages.len(),
            });
        }
        if let Some(server) = server {
            if server.index() >= self.config.server_count() {
                return Err(ServiceError::UnknownServer {
                    server: server.index(),
                    servers: self.config.server_count(),
                });
            }
        }
        Ok(())
    }

    /// Resolves one (already bounds-checked) event into the pending
    /// batch, updating the supervisor's live state through the shared
    /// resolution machines in [`pscd_sim::resolve`].
    fn resolve(&mut self, ev: LiveEvent) {
        self.events_applied += 1;
        match ev {
            LiveEvent::Subscribe {
                page,
                server,
                count,
            } => {
                // Subscribes take effect instantly and are never
                // dispatched: every publish resolved before this point
                // already copied its fan-out out of the rows.
                self.rows.set(page, server, count);
            }
            LiveEvent::Publish { time, page } => {
                let meta = &self.config.pages[page.as_usize()];
                let supersedes = self.heads.publish(page, meta);
                let fanout = match &mut self.matcher {
                    Some(m) => {
                        // Lazy refreeze: a burst of content calls since the
                        // last resolve may have outgrown the kernel; rebuild
                        // it before the fan-out (a no-op while one answers).
                        m.freeze();
                        m.matched_servers_into(page, &mut self.match_scratch, &mut self.fanout_buf);
                        self.kept.keep(page, &self.fanout_buf, self.events_applied);
                        &self.fanout_buf[..]
                    }
                    None => self.rows.row(page),
                };
                self.batch.push_publish(time, page, supersedes, fanout);
            }
            LiveEvent::Request { time, server, page } => {
                let subs = match &mut self.matcher {
                    Some(m) => {
                        m.freeze();
                        // What the page's publish found at this proxy, unless
                        // the proxy's subscriptions changed since.
                        self.kept.count(page, server).unwrap_or_else(|| {
                            m.match_count_with(page, server, &mut self.match_scratch)
                        })
                    }
                    None => self.rows.subs(page, server),
                };
                self.batch.push_request(time, server, page, subs);
            }
        }
    }

    /// Applies the pending batch to the fleet: every shard steps through
    /// all of it.
    fn dispatch(&mut self) -> Result<(), ServiceError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        match &mut self.fleet {
            Fleet::Inline(shard) => {
                let window = self.batch.view(&self.config.pages);
                while shard.step(&window).is_some() {}
            }
            Fleet::Threaded(handles) => {
                let batch = Arc::new(self.batch.clone());
                for handle in handles.iter() {
                    handle.send(ToWorker::Batch(Arc::clone(&batch)))?;
                }
            }
        }
        self.batch.clear();
        Ok(())
    }

    /// Applies every buffered event now.
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        self.dispatch()
    }

    /// Takes a state snapshot immediately (flushing buffered events
    /// first) and writes it atomically to the persistence directory.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if no persistence directory is
    /// configured; otherwise snapshot-encoding or I/O errors.
    pub fn snapshot_now(&mut self) -> Result<(), ServiceError> {
        let dir = self.config.dir.clone().ok_or(ServiceError::Config {
            what: "dir",
            constraint: "set for snapshots",
        })?;
        self.flush()?;
        let Self {
            snapshot_buf: out,
            config,
            rows,
            heads,
            fleet,
            ..
        } = self;
        out.clear();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u64(out, self.events_applied);
        put_u32(out, config.pages.len() as u32);
        for row in rows.rows() {
            put_u32(out, row.len() as u32);
            for &(server, count) in row {
                put_u16(out, server.index());
                put_u32(out, count);
            }
        }
        for latest in heads.heads() {
            put_u32(out, latest.map_or(u32::MAX, PageId::index));
        }
        // The merged hourly series, the fleet size, then every server in
        // order. The inline shard encodes straight into the file's buffer;
        // workers encode their ranges side by side and hand them over.
        match fleet {
            Fleet::Inline(shard) => {
                put_hourly(out, shard.hourly());
                put_u16(out, config.server_count());
                encode_servers(shard, out);
            }
            Fleet::Threaded(handles) => {
                let mut replies = Vec::with_capacity(handles.len());
                for handle in handles.iter() {
                    let (tx, rx) = mpsc::channel();
                    handle.send(ToWorker::Snapshot(tx))?;
                    replies.push(rx);
                }
                let snaps = replies
                    .into_iter()
                    .map(|rx| rx.recv().map_err(|_| ServiceError::Stopped))
                    .collect::<Result<Vec<ShardSnap>, ServiceError>>()?;
                let mut hourly = snaps[0].hourly.clone();
                for snap in &snaps[1..] {
                    hourly.absorb(&snap.hourly);
                }
                put_hourly(out, &hourly);
                put_u16(out, config.server_count());
                for snap in &snaps {
                    out.extend_from_slice(&snap.servers);
                }
            }
        }
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        fs::write(&tmp, &*out)?;
        fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        self.last_snapshot = self.events_applied;
        Ok(())
    }

    /// Drains the service: flushes buffered events, stops the workers,
    /// and returns the merged accounting plus every proxy's serialized
    /// cache state.
    pub fn shutdown(mut self) -> Result<ServiceOutcome, ServiceError> {
        self.flush()?;
        let servers = self.config.server_count();
        let partials = match self.fleet {
            Fleet::Inline(shard) => vec![finish(*shard)],
            Fleet::Threaded(handles) => {
                let mut replies = Vec::with_capacity(handles.len());
                for handle in handles.iter() {
                    let (tx, rx) = mpsc::channel();
                    handle.send(ToWorker::Finish(tx))?;
                    replies.push(rx);
                }
                replies
                    .into_iter()
                    .map(|rx| rx.recv().map_err(|_| ServiceError::Stopped))
                    .collect::<Result<Vec<_>, ServiceError>>()?
            }
        };
        let mut result = SimResult::identity(&partials[0].0.strategy, self.config.hours, servers);
        let mut proxies = Vec::with_capacity(servers as usize);
        for (partial, blobs) in partials {
            result.absorb(&partial);
            proxies.extend(blobs);
        }
        Ok(ServiceOutcome { result, proxies })
    }
}

/// A decoded snapshot file.
struct SnapshotState {
    events_applied: u64,
    rows: SubscriptionRows,
    heads: VersionHeads,
    restore: FleetRestore,
}

/// The fleet's share of a decoded snapshot file: every server in order,
/// blobs still in the file, and the merged hourly series.
struct FleetRestore {
    file: Arc<Vec<u8>>,
    servers: Vec<ServerSnap>,
    hourly: HourlySeries,
}

fn put_hourly(out: &mut Vec<u8>, hourly: &HourlySeries) {
    put_u32(out, hourly.hours() as u32);
    for series in [
        &hourly.hits,
        &hourly.requests,
        &hourly.pushed_pages,
        &hourly.pushed_bytes,
        &hourly.fetched_pages,
        &hourly.fetched_bytes,
    ] {
        for &v in series {
            put_u64(out, v);
        }
    }
}

/// Reads a series [`put_hourly`] wrote, which must span `hours` buckets.
fn read_hourly(r: &mut SnapshotReader<'_>, hours: usize) -> Result<HourlySeries, ServiceError> {
    if r.read_u32()? as usize != hours {
        return Err(ServiceError::CorruptFile("snapshot hour count"));
    }
    let mut hourly = HourlySeries::new(hours);
    for series in [
        &mut hourly.hits,
        &mut hourly.requests,
        &mut hourly.pushed_pages,
        &mut hourly.pushed_bytes,
        &mut hourly.fetched_pages,
        &mut hourly.fetched_bytes,
    ] {
        for v in series.iter_mut() {
            *v = r.read_u64()?;
        }
    }
    Ok(hourly)
}

fn decode_snapshot_file(
    file: Arc<Vec<u8>>,
    config: &ServiceConfig,
) -> Result<SnapshotState, ServiceError> {
    // From the file's first byte, so that positions are file offsets.
    let mut r = SnapshotReader::new(&file);
    if r.read_bytes(SNAPSHOT_MAGIC.len()).ok() != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(ServiceError::CorruptFile("snapshot header"));
    }
    let events_applied = r.read_u64()?;
    let page_count = r.read_u32()? as usize;
    if page_count != config.pages.len() {
        return Err(ServiceError::CorruptFile("snapshot page universe"));
    }
    // Bound what the file says before allocating for it: a row lists each
    // proxy at most once, in ascending order.
    let fleet = config.server_count();
    let mut rows = Vec::with_capacity(page_count);
    for _ in 0..page_count {
        let len = r.read_u32()? as usize;
        if len > fleet as usize {
            return Err(ServiceError::CorruptFile("snapshot row length"));
        }
        let mut row: Vec<(ServerId, u32)> = Vec::with_capacity(len);
        for _ in 0..len {
            let server = r.read_u16()?;
            let ascending = row.last().is_none_or(|&(last, _)| last.index() < server);
            if !ascending || server >= fleet {
                return Err(ServiceError::CorruptFile("snapshot row servers"));
            }
            row.push((ServerId::new(server), r.read_u32()?));
        }
        rows.push(row);
    }
    let mut heads = Vec::with_capacity(page_count);
    for _ in 0..page_count {
        let head = match r.read_u32()? {
            u32::MAX => None,
            raw if (raw as usize) < page_count => Some(PageId::new(raw)),
            _ => return Err(ServiceError::CorruptFile("snapshot version head")),
        };
        heads.push(head);
    }
    let hourly = read_hourly(&mut r, config.hours)?;
    let server_count = r.read_u16()?;
    if server_count != fleet {
        return Err(ServiceError::CorruptFile("snapshot fleet size"));
    }
    let mut servers = Vec::with_capacity(server_count as usize);
    for _ in 0..server_count {
        servers.push(read_server_snap(&mut r)?);
    }
    if !r.is_empty() {
        return Err(ServiceError::CorruptFile("trailing snapshot bytes"));
    }
    Ok(SnapshotState {
        events_applied,
        rows: SubscriptionRows::from_rows(rows),
        heads: VersionHeads::from_heads(heads),
        restore: FleetRestore {
            servers,
            hourly,
            file,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use pscd_broker::PushScheme;
    use pscd_core::StrategyKind;
    use pscd_matching::{Content, Predicate, Value};
    use pscd_sim::CompiledEventKind;
    use pscd_types::{Bytes, PageKind, PageMeta, SimTime};

    const CATEGORIES: [&str; 3] = ["a", "b", "c"];

    /// A service over `pages` original pages and `servers` proxies.
    fn tiny_config(servers: u16, pages: u32) -> ServiceConfig {
        let metas = (0..pages).map(|id| {
            let size = Bytes::new(10 + u64::from(id));
            PageMeta::new(PageId::new(id), size, SimTime::ZERO, PageKind::Original)
        });
        ServiceConfig::new(
            StrategyKind::Sg2 { beta: 2.0 },
            vec![Bytes::new(100); servers as usize],
            vec![1.0; servers as usize],
            PushScheme::Always,
            metas.collect(),
            1,
        )
    }

    /// [`tiny_config`]'s service, whose batch outlasts the test, so every
    /// resolved event stays readable.
    fn tiny_service(servers: u16, pages: u32) -> ServiceCore {
        ServiceCore::new(tiny_config(servers, pages).with_batch_size(1 << 16)).unwrap()
    }

    /// Page `id` carries `page = id`, `n = id` and one of three categories.
    fn tiny_matcher(servers: u16, pages: u32) -> EngineMatcher {
        let mut matcher = EngineMatcher::new(servers);
        for id in 0..pages {
            let content = Content::new()
                .with("page", Value::int(i64::from(id)))
                .with("n", Value::int(i64::from(id)))
                .with("cat", Value::str(CATEGORIES[id as usize % 3]));
            matcher.register_page(PageId::new(id), content);
        }
        matcher
    }

    fn page_sub(page: i64) -> Subscription {
        Subscription::new(vec![Predicate::eq("page", Value::int(page))])
    }

    fn publish(page: u32) -> LiveEvent {
        LiveEvent::Publish {
            time: SimTime::ZERO,
            page: PageId::new(page),
        }
    }

    fn request(server: u16, page: u32) -> LiveEvent {
        LiveEvent::Request {
            time: SimTime::ZERO,
            server: ServerId::new(server),
            page: PageId::new(page),
        }
    }

    /// The last resolved event.
    fn last_event(core: &ServiceCore) -> CompiledEventKind {
        let window = core.batch.view(&core.config.pages);
        window.events().last().expect("an event resolved").kind
    }

    /// The `subs` of the last resolved event, a request.
    fn last_subs(core: &ServiceCore) -> u32 {
        match last_event(core) {
            CompiledEventKind::Request { subs, .. } => subs,
            other => panic!("not a request: {other:?}"),
        }
    }

    #[test]
    fn a_request_before_its_publish_resolves_through_the_kernel() {
        let mut core = tiny_service(2, 3);
        let mut matcher = tiny_matcher(2, 3);
        for _ in 0..2 {
            matcher.subscribe(ServerId::new(1), page_sub(2)).unwrap();
        }
        core.attach_matcher(matcher).unwrap();
        let mut rows = tiny_service(2, 3);
        rows.ingest(LiveEvent::Subscribe {
            page: PageId::new(2),
            server: ServerId::new(1),
            count: 2,
        })
        .unwrap();

        assert_eq!(core.kept.count(PageId::new(2), ServerId::new(1)), None);
        for ev in [request(1, 2), request(0, 2), publish(2), request(1, 2)] {
            core.ingest(ev).unwrap();
            rows.ingest(ev).unwrap();
        }
        assert_eq!(core.kept.count(PageId::new(2), ServerId::new(1)), Some(2));
        assert_eq!(core.batch, rows.batch);
        assert_eq!(last_subs(&core), 2);
    }

    #[test]
    fn a_page_published_twice_reads_the_second_row() {
        let mut core = tiny_service(3, 2);
        let mut matcher = tiny_matcher(3, 2);
        let first = matcher.subscribe(ServerId::new(0), page_sub(0)).unwrap();
        matcher.subscribe(ServerId::new(2), page_sub(0)).unwrap();
        core.attach_matcher(matcher).unwrap();
        let read = |core: &mut ServiceCore, server: u16| {
            core.ingest(request(server, 0)).unwrap();
            last_subs(core)
        };

        core.ingest(publish(0)).unwrap();
        assert_eq!(core.kept.arena_len(), 2);
        assert_eq!([read(&mut core, 0), read(&mut core, 1)], [1, 0]);

        // Unchanged: the same span. Proxy 0 leaves and proxy 2 gains one:
        // a shorter row, in place, and proxy 0's stale stamp is behind it.
        core.ingest(publish(0)).unwrap();
        assert_eq!(core.kept.arena_len(), 2, "an unchanged page does not grow");
        core.unsubscribe_content(ServerId::new(0), first).unwrap();
        core.subscribe_content(ServerId::new(2), page_sub(0))
            .unwrap();
        assert_eq!(core.kept.count(PageId::new(0), ServerId::new(0)), None);
        assert_eq!(core.kept.count(PageId::new(0), ServerId::new(1)), Some(0));
        assert_eq!([read(&mut core, 0), read(&mut core, 2)], [0, 2], "kernel");
        core.ingest(publish(0)).unwrap();
        assert_eq!(core.kept.arena_len(), 2, "a shorter row fits");
        for (server, subs) in [(0, 0), (1, 0), (2, 2)] {
            let kept = core.kept.count(PageId::new(0), ServerId::new(server));
            assert_eq!(kept, Some(subs));
            assert_eq!(read(&mut core, server), subs);
        }

        // All three proxies match: longer than the span, so appended.
        for server in [0, 1] {
            core.subscribe_content(ServerId::new(server), Subscription::wildcard())
                .unwrap();
        }
        core.ingest(publish(0)).unwrap();
        assert_eq!(core.kept.arena_len(), 2 + 3);
        for (server, subs) in [(0, 1), (1, 1), (2, 2)] {
            let kept = core.kept.count(PageId::new(0), ServerId::new(server));
            assert_eq!(kept, Some(subs));
            assert_eq!(read(&mut core, server), subs);
        }
    }

    #[test]
    fn a_second_attach_forgets_every_row() {
        let mut core = tiny_service(2, 2);
        let mut matcher = tiny_matcher(2, 2);
        matcher.subscribe(ServerId::new(0), page_sub(1)).unwrap();
        core.attach_matcher(matcher).unwrap();
        core.ingest(publish(1)).unwrap();
        core.subscribe_content(ServerId::new(1), page_sub(0))
            .unwrap();
        assert_eq!(core.kept.count(PageId::new(1), ServerId::new(0)), Some(1));
        assert_eq!(core.kept.count(PageId::new(1), ServerId::new(1)), None);

        // The same pages under other subscriptions: the old row would say 1.
        let mut other = tiny_matcher(2, 2);
        for _ in 0..5 {
            other.subscribe(ServerId::new(0), page_sub(1)).unwrap();
        }
        core.attach_matcher(other).unwrap();
        assert_eq!(core.kept.arena_len(), 0);
        assert_eq!(core.kept.count(PageId::new(1), ServerId::new(0)), None);
        core.ingest(request(0, 1)).unwrap();
        assert_eq!(last_subs(&core), 5);
        // Proxy 1's stamp went with the rows.
        core.ingest(publish(1)).unwrap();
        assert_eq!(core.kept.count(PageId::new(1), ServerId::new(1)), Some(0));
    }

    /// A call the matcher rejected changed no subscription: the proxy's
    /// kept rows stay readable (a stamp there would send its requests to
    /// the kernel for nothing).
    #[test]
    fn a_rejected_content_call_leaves_the_stamp_untouched() {
        let mut core = tiny_service(2, 2);
        let mut matcher = tiny_matcher(2, 2);
        matcher.subscribe(ServerId::new(0), page_sub(1)).unwrap();
        core.attach_matcher(matcher).unwrap();
        core.ingest(publish(1)).unwrap();
        let unknown = SubscriptionId::new(u64::MAX);
        assert!(core.unsubscribe_content(ServerId::new(0), unknown).is_err());
        assert!(core.unsubscribe_content(ServerId::new(2), unknown).is_err());
        let wildcard = Subscription::wildcard();
        assert!(core.subscribe_content(ServerId::new(2), wildcard).is_err());
        for (server, subs) in [(0, 1), (1, 0)] {
            let kept = core.kept.count(PageId::new(1), ServerId::new(server));
            assert_eq!(kept, Some(subs));
        }
    }

    /// Counter-based draws from one seed (`pscd_workload::seeds`).
    struct Draws {
        seed: u64,
        drawn: u64,
    }

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.drawn += 1;
            (pscd_workload::seeds::substream(self.seed, 0, self.drawn) % n as u64) as usize
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Publishes, requests (before, between and after their page's
        /// publishes) and content churn in any order: every resolved event
        /// of the content-mode service equals what a count-row service
        /// told the resulting counts resolves, and what the matcher says
        /// when asked directly.
        #[test]
        fn content_mode_resolves_as_count_rows_and_the_matcher_do(
            seed in 0u64..u64::MAX,
            servers in 1u16..=4,
            pages in 1u32..=16,
            steps in 1usize..=300,
        ) {
            let mut draw = Draws { seed, drawn: 0 };
            let subscription = |draw: &mut Draws| match draw.below(8) {
                0 => Subscription::wildcard(),
                1 => page_sub(-1),
                2 | 3 => Subscription::new(vec![
                    Predicate::eq("cat", Value::str(CATEGORIES[draw.below(3)])),
                    Predicate::ge("n", draw.below(pages as usize) as i64),
                ]),
                _ => page_sub(draw.below(pages as usize) as i64),
            };
            // The same calls go to the attached matcher and to a twin that
            // is asked directly; ids are per-proxy counters, so they agree.
            let mut twin = tiny_matcher(servers, pages);
            let mut attached = tiny_matcher(servers, pages);
            let mut live: Vec<(ServerId, SubscriptionId)> = Vec::new();
            for _ in 0..draw.below(12) {
                let server = ServerId::new(draw.below(servers as usize) as u16);
                let sub = subscription(&mut draw);
                let id = twin.subscribe(server, sub.clone()).unwrap();
                prop_assert_eq!(attached.subscribe(server, sub).unwrap(), id);
                live.push((server, id));
            }
            let mut core = tiny_service(servers, pages);
            core.attach_matcher(attached).unwrap();
            let mut rows = tiny_service(servers, pages);
            // Tells the count-row service what `server`'s subscriptions
            // now count, page by page.
            let tell = |rows: &mut ServiceCore, twin: &EngineMatcher, server: ServerId| {
                let mut scratch = MatchScratch::new();
                for page in (0..pages).map(PageId::new) {
                    let count = twin.match_count_with(page, server, &mut scratch);
                    rows.ingest(LiveEvent::Subscribe { page, server, count }).unwrap();
                }
            };
            for server in (0..servers).map(ServerId::new) {
                tell(&mut rows, &twin, server);
            }

            let mut scratch = MatchScratch::new();
            let mut fanout = Vec::new();
            let (mut kept_reads, mut kernel_reads) = (0u32, 0u32);
            for _ in 0..steps {
                let server = ServerId::new(draw.below(servers as usize) as u16);
                let page = draw.below(pages as usize) as u32;
                match draw.below(20) {
                    0..=7 => {
                        match core.kept.count(PageId::new(page), server) {
                            Some(_) => kept_reads += 1,
                            None => kernel_reads += 1,
                        }
                        let ev = request(server.index(), page);
                        core.ingest(ev).unwrap();
                        rows.ingest(ev).unwrap();
                        let direct = twin.match_count_with(PageId::new(page), server, &mut scratch);
                        prop_assert_eq!(last_subs(&core), direct);
                    }
                    8..=12 => {
                        core.ingest(publish(page)).unwrap();
                        rows.ingest(publish(page)).unwrap();
                        twin.matched_servers_into(PageId::new(page), &mut scratch, &mut fanout);
                        let CompiledEventKind::Publish { ordinal, .. } = last_event(&core) else {
                            panic!("not a publish");
                        };
                        let window = core.batch.view(&core.config.pages);
                        prop_assert_eq!(window.matched(ordinal), &fanout[..]);
                    }
                    13..=15 => {
                        let sub = subscription(&mut draw);
                        let id = twin.subscribe(server, sub.clone()).unwrap();
                        prop_assert_eq!(core.subscribe_content(server, sub).unwrap(), id);
                        live.push((server, id));
                        tell(&mut rows, &twin, server);
                    }
                    16..=18 if !live.is_empty() => {
                        let (server, id) = live.swap_remove(draw.below(live.len()));
                        twin.unsubscribe(server, id).unwrap();
                        core.unsubscribe_content(server, id).unwrap();
                        tell(&mut rows, &twin, server);
                    }
                    16..=18 => {}
                    _ => {
                        // A burst of ghosts the kernel cannot absorb: the
                        // next resolve answers from a rebuild.
                        for k in 0..60 {
                            let id = twin.subscribe(server, page_sub(-2 - k)).unwrap();
                            core.subscribe_content(server, page_sub(-2 - k)).unwrap();
                            live.push((server, id));
                        }
                        prop_assert!(!core.matcher_frozen());
                    }
                }
            }
            prop_assert_eq!(&core.batch, &rows.batch);
            // Both ways to a count are exercised in any run of some length.
            prop_assert!(steps < 100 || (kept_reads > 0 && kernel_reads > 0));
        }
    }

    #[test]
    fn partition_is_contiguous_and_even() {
        assert_eq!(partition(8, 3), vec![(0, 3), (3, 6), (6, 8)]);
        assert_eq!(partition(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(partition(5, 2), vec![(0, 3), (3, 5)]);
        let ranges = partition(7, 3);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 7);
    }

    #[test]
    fn hourly_round_trips() {
        let mut h = HourlySeries::new(3);
        h.record_request(
            pscd_types::SimTime::from_hours(1),
            false,
            pscd_types::Bytes::new(7),
        );
        h.record_push(
            pscd_types::SimTime::from_hours(2),
            pscd_types::Bytes::new(9),
        );
        let mut out = Vec::new();
        put_hourly(&mut out, &h);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(read_hourly(&mut r, 3).unwrap(), h);
        assert!(r.is_empty());
    }

    /// The snapshot file of a journaled two-proxy, three-page service whose
    /// page 0 row lists both proxies and whose page 0 was published (it
    /// heads its own lineage), and the config that recovers from it.
    fn persisted_snapshot(tag: &str) -> (ServiceConfig, Vec<u8>) {
        let dir =
            std::env::temp_dir().join(format!("pscd-service-corrupt-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let config = tiny_config(2, 3).with_persistence(dir.clone(), 0);
        let mut core = ServiceCore::new(config.clone()).unwrap();
        for server in [0, 1] {
            core.ingest(LiveEvent::Subscribe {
                page: PageId::new(0),
                server: ServerId::new(server),
                count: 1,
            })
            .unwrap();
        }
        core.ingest(publish(0)).unwrap();
        core.snapshot_now().unwrap();
        drop(core);
        let file = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        (config, file)
    }

    /// Offsets in [`persisted_snapshot`]'s file: page 0's row length, its
    /// two server ids, the first version head and the hour count.
    const ROW_0: usize = SNAPSHOT_MAGIC.len() + 8 + 4;
    const ROW_0_SERVERS: [usize; 2] = [ROW_0 + 4, ROW_0 + 10];
    const HEAD_0: usize = ROW_0 + 16 + 2 * 4;
    const HOURS: usize = HEAD_0 + 3 * 4;

    /// Recovers from `file` with `patch` written at `at`, then removes the
    /// persistence directory.
    fn recover_patched(
        config: &ServiceConfig,
        file: &[u8],
        at: usize,
        patch: &[u8],
    ) -> Result<ServiceCore, ServiceError> {
        let mut file = file.to_vec();
        file[at..at + patch.len()].copy_from_slice(patch);
        let dir = config.dir.as_ref().unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), file).unwrap();
        let recovered = ServiceCore::recover(config.clone());
        fs::remove_dir_all(dir).ok();
        recovered
    }

    fn assert_corrupt(recovered: Result<ServiceCore, ServiceError>, what: &str) {
        match recovered {
            Err(ServiceError::CorruptFile(field)) => assert_eq!(field, what),
            other => panic!("expected a corrupt {what}: {other:?}"),
        }
    }

    /// Regression: the length was allocated for before it was read, and
    /// `u32::MAX` aborted the process.
    #[test]
    fn snapshot_row_longer_than_the_fleet_is_corrupt() {
        let (config, file) = persisted_snapshot("row-length");
        assert!(recover_patched(&config, &file, ROW_0, &2u32.to_le_bytes()).is_ok());
        for len in [3, u32::MAX] {
            let (config, file) = persisted_snapshot("row-length");
            let recovered = recover_patched(&config, &file, ROW_0, &len.to_le_bytes());
            assert_corrupt(recovered, "snapshot row length");
        }
    }

    /// Regression: a row naming a proxy outside the fleet recovered `Ok`.
    #[test]
    fn snapshot_row_servers_out_of_order_or_outside_the_fleet_are_corrupt() {
        for (at, server) in [(1, 9u16), (1, 2), (1, 0), (0, 1)] {
            let (config, file) = persisted_snapshot("row-servers");
            let at = ROW_0_SERVERS[at];
            let recovered = recover_patched(&config, &file, at, &server.to_le_bytes());
            assert_corrupt(recovered, "snapshot row servers");
        }
    }

    #[test]
    fn snapshot_version_head_outside_the_page_universe_is_corrupt() {
        let (config, file) = persisted_snapshot("head");
        assert!(recover_patched(&config, &file, HEAD_0, &2u32.to_le_bytes()).is_ok());
        let (config, file) = persisted_snapshot("head");
        let recovered = recover_patched(&config, &file, HEAD_0, &3u32.to_le_bytes());
        assert_corrupt(recovered, "snapshot version head");
    }

    #[test]
    fn snapshot_hour_count_other_than_the_configs_is_corrupt() {
        for hours in [0, 2, u32::MAX] {
            let (config, file) = persisted_snapshot("hours");
            let recovered = recover_patched(&config, &file, HOURS, &hours.to_le_bytes());
            assert_corrupt(recovered, "snapshot hour count");
        }
    }
}
