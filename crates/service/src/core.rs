//! The service supervisor: event ingestion, routing, snapshots and
//! crash recovery.
//!
//! [`ServiceCore`] owns everything strategy-independent and
//! order-dependent — bounds checks, the write-ahead journal, the live
//! subscription counts, version lineage and the snapshot cadence — and
//! resolves each batch into the simulator's own window buffer
//! ([`OwnedWindow`]), which every shard of the proxy fleet drains through
//! the simulator's replay step. Events are **resolved at ingest**: a
//! publish's fan-out is copied out of the subscription counts the moment
//! it arrives, so a later subscribe in the same batch can never
//! retroactively change it. That is what makes the service bit-identical
//! to the batch replay, which performs the same resolution in
//! [`CompiledTrace::compile`] — over the same [`SubscriptionTable`], with
//! the lineage of [`pscd_sim::resolve`], shared verbatim by both paths.
//!
//! In content mode the lineage is still resolved here, but the matching
//! is the shards': a publish goes into the batch without a fan-out and a
//! request without a count, and each shard matches them for its own
//! proxies when the batch reaches it (`crate::kept`). The content calls
//! keep that as exact as resolving at ingest: they flush the pending
//! batch and wait until no shard holds the matcher before they change it,
//! so every event is matched against the subscriptions of its place in
//! the stream.
//!
//! Shard 0 is stepped by the ingesting thread between the work only that
//! thread does, so in count-row mode it is smaller than the others
//! (`crate::balance`). Attaching a matcher moves the shards to equal
//! ranges at a barrier: proxies that move between shards travel as the
//! records a snapshot file holds, in memory.
//!
//! [`CompiledTrace::compile`]: pscd_sim::CompiledTrace::compile

use std::fs;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::thread;

use pscd_cache::PageUniverse;
use pscd_matching::{EngineMatcher, Subscription, SubscriptionId};
use pscd_sim::resolve::VersionHeads;
use pscd_sim::{
    shard_count, OwnedWindow, ReplaySite, ShardPlan, SimResult, DEFAULT_PREFETCH_DEPTH,
};
use pscd_topology::FetchCosts;
use pscd_types::{LiveEvent, PageMeta, ServerId, SubscriptionTable};

use crate::balance::{cut, outside, ranges};
use crate::config::{ServiceConfig, ServiceError};
use crate::journal::Journal;
use crate::kept::{Content, ShardMatching};
use crate::wire::{
    decode_snapshot_file, put_snapshot_fleet, put_snapshot_rows, restamp_snapshot_rows,
    ServerRecords, SnapshotState,
};
use crate::worker::{
    build_shard, finish, join, leave, shard_window, Shard, Starting, ToWorker, Worker,
};

const JOURNAL_FILE: &str = "journal.bin";
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";

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
    /// Live subscription counts, one row per page, kept current by
    /// [`SubscriptionTable::set`].
    counts: SubscriptionTable,
    /// Invalidation lineage: latest published version per origin page.
    heads: VersionHeads,
    /// The configured fetch costs, for the proxies a re-plan moves.
    costs: FetchCosts,
    /// Shard 0 of the fleet, the first server range, stepped on the
    /// ingesting thread.
    shard: Shard,
    /// Shards 1.., one worker thread each.
    workers: Vec<Worker>,
    /// Every shard's server range, in shard order ([`crate::balance`]).
    ranges: Vec<Range<u16>>,
    journal: Option<Journal>,
    /// The pending batch. Publish ordinals are batch-local, so they never
    /// wrap however long the service runs.
    batch: OwnedWindow,
    /// The buffers a dispatch copies the batch into and shares with every
    /// worker, used in turn (`next`); empty without workers, where shard 0
    /// steps the batch in place.
    ring: Vec<Arc<OwnedWindow>>,
    next: usize,
    /// The last snapshot file's bytes, kept so the next one is encoded
    /// into storage that is already there.
    snapshot_buf: Vec<u8>,
    /// Where `snapshot_buf`'s subscription rows end while they are the
    /// live counts' — the next snapshot keeps them and re-encodes only
    /// what follows; `None` once a subscribe changed the counts.
    rows_end: Option<usize>,
    events_applied: u64,
    last_snapshot: u64,
    /// Optional content-based matcher, shared with the shards each batch
    /// goes to. When attached, publish fan-outs resolve against its
    /// frozen kernel instead of the count rows, and request counts
    /// against the fan-out their page's publish found, or the kernel where
    /// that is stale — each shard for its own proxies. The kernel absorbs
    /// dynamic [`subscribe_content`] calls, and only a burst past what it
    /// absorbs makes the next resolved event refreeze it.
    ///
    /// [`subscribe_content`]: ServiceCore::subscribe_content
    content: Option<Arc<Content>>,
    /// Shard 0's matching in content mode, built by its first content
    /// batch. In-memory state like the matcher, never persisted.
    matching: Option<ShardMatching>,
}

impl ServiceCore {
    /// Starts a fresh service. With a persistence directory configured,
    /// any existing journal is truncated — use [`ServiceCore::recover`]
    /// to resume from persisted state instead.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let costs = config.checked_costs()?;
        let journal = config.dir.as_deref().map(fresh_journal).transpose()?;
        let fresh = SnapshotState::fresh(config.pages.len());
        let (core, ()) = Self::start(config, costs, fresh, journal, || Ok(()))?;
        Ok(core)
    }

    /// Rebuilds a crashed service from its persistence directory: the
    /// last snapshot (if any) restores the fleet, then the journal's
    /// suffix replays through the ordinary ingest path. Converges to the
    /// exact state of a service that never crashed, because resolution
    /// and apply are deterministic functions of the event sequence. A
    /// directory with neither file (or none at all) recovers a fresh
    /// service, journal created as [`ServiceCore::new`] creates it.
    pub fn recover(config: ServiceConfig) -> Result<Self, ServiceError> {
        let costs = config.checked_costs()?;
        let dir = config.dir.clone().ok_or(ServiceError::Config {
            what: "dir",
            constraint: "set for recovery",
        })?;
        let journal_path = dir.join(JOURNAL_FILE);
        let state = match fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => decode_snapshot_file(bytes, &config)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                SnapshotState::fresh(config.pages.len())
            }
            Err(e) => return Err(e.into()),
        };
        // The snapshot covers the journal's first `events_applied`
        // records: they are walked, not decoded, while the workers restore.
        let covered = state.events_applied;
        let read = || Journal::read_from(&journal_path, covered);
        let (mut core, (events, end)) = Self::start(config, costs, state, None, read)?;
        // Replay the journal suffix without re-journaling and without
        // taking cadence snapshots (the journal already covers it).
        for ev in &events {
            core.check(ev)?;
            core.resolve(*ev);
            if core.batch.len() >= core.config.batch_size {
                core.flush()?;
            }
        }
        core.flush()?;
        core.journal = Some(match end {
            // No journal: the snapshot, if any, covers no records.
            0 => fresh_journal(&dir)?,
            _ => Journal::open_append(&journal_path, end)?,
        });
        Ok(core)
    }

    /// The service resuming from `state`: the fleet is cut for count-row
    /// mode, a worker is spawned for each later shard, and shard 0 is
    /// built and `beside` run here while the workers build theirs.
    fn start<T>(
        config: ServiceConfig,
        costs: FetchCosts,
        state: SnapshotState,
        journal: Option<Journal>,
        beside: impl FnOnce() -> Result<T, ServiceError>,
    ) -> Result<(Self, T), ServiceError> {
        let servers = config.server_count();
        let shards = shard_count(config.workers, servers, ReplaySite::Compiled, 1);
        let ranges = cut(servers, shards, true);
        // Restored state arrives as one merged snapshot: each shard restores
        // its servers from it, and the hourly buckets all land on shard 0
        // (absorb is component-wise addition, so placement is irrelevant to
        // totals).
        let restore = state.restore.map(Arc::new);
        let hourly = restore.as_ref().map(|r| r.hourly.clone());
        let universe = PageUniverse::new(config.pages.iter().map(PageMeta::size));
        let workers = ranges[1..].iter().enumerate().map(|(i, range)| {
            let restore = restore.clone();
            Worker::spawn(i + 1, &config, &costs, &universe, range.clone(), restore)
        });
        let workers: Vec<Starting> = workers.collect::<Result<_, _>>()?;
        let shard = build_shard(
            &config,
            &costs,
            &universe,
            ranges[0].clone(),
            restore.as_deref(),
            hourly,
        )?;
        drop(restore);
        let beside = beside()?;
        // One publish fans out to at most the whole fleet, so this bounds
        // the batch's pair table — the same worst-case-dense sizing the
        // replay's eviction scratch uses, which is what keeps the ingest
        // path allocation-free in steady state.
        let pairs = config.batch_size * servers as usize;
        let window = || OwnedWindow::with_capacity(config.batch_size, pairs);
        // A worker holds at most the batch it steps and the
        // `DEFAULT_PREFETCH_DEPTH` its inbox queues, and takes them in
        // order, so one more buffer is always free for the next dispatch.
        let ring = match workers.len() {
            0 => Vec::new(),
            _ => (0..DEFAULT_PREFETCH_DEPTH + 2)
                .map(|_| Arc::new(window()))
                .collect(),
        };
        let workers = workers.into_iter().map(Starting::ready);
        let workers = workers.collect::<Result<_, _>>()?;
        let core = Self {
            counts: state.counts,
            heads: state.heads,
            costs,
            shard,
            workers,
            ranges,
            journal,
            batch: window(),
            ring,
            next: 0,
            snapshot_buf: Vec::new(),
            rows_end: None,
            events_applied: state.events_applied,
            last_snapshot: state.events_applied,
            content: None,
            matching: None,
            config,
        };
        Ok((core, beside))
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
    /// that compilation current instead of dropping it. Events ingested
    /// before the call resolve as they would have without it. The shards
    /// resolve their own proxies from then on, so the fleet is cut anew
    /// into equal shards.
    ///
    /// The matcher and the fan-outs kept from it are in-memory state, not
    /// persisted: a [`recover`](ServiceCore::recover)ed service starts
    /// back in count-row mode until a matcher is attached again, and
    /// attaching one forgets what was kept from the last.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if the matcher covers a different fleet or
    /// page universe than the configured one;
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
    pub fn attach_matcher(&mut self, mut matcher: EngineMatcher) -> Result<(), ServiceError> {
        if matcher.server_count() != self.config.server_count()
            || !matcher.covers(self.config.pages.len())
        {
            return Err(ServiceError::Config {
                what: "matcher",
                constraint: "covering the configured fleet and page universe",
            });
        }
        self.settle()?;
        matcher.freeze();
        self.content = Some(Arc::new(Content::new(matcher, &self.batch)));
        let servers = self.config.server_count();
        self.replan(cut(servers, self.ranges.len(), false))?;
        Ok(())
    }

    /// `true` while a content matcher is attached and a frozen kernel
    /// answers for it. Stays `true` across content subscribes and
    /// unsubscribes; `false` only between a burst of them that outgrew the
    /// kernel and the next resolved event, which rebuilds it.
    pub fn matcher_frozen(&self) -> bool {
        self.content.as_ref().is_some_and(|c| c.matcher.is_frozen())
    }

    /// Registers a content-based subscription at `server` — the dynamic
    /// subscribe path of the content mode. Takes effect at once, for the
    /// next ingested event, with no rebuild: the matcher evaluates it
    /// beside its frozen kernel (see [`EngineMatcher::freeze`] for the
    /// burst size past which the next resolved event recompiles instead).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if no matcher is attached,
    /// [`ServiceError::UnknownServer`] if `server` is outside the fleet,
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
    pub fn subscribe_content(
        &mut self,
        server: ServerId,
        subscription: Subscription,
    ) -> Result<SubscriptionId, ServiceError> {
        let servers = self.config.server_count();
        let (content, at) = self.content_alone("attached before subscribe_content")?;
        let unknown = ServiceError::UnknownServer {
            server: server.index(),
            servers,
        };
        let id = content
            .matcher
            .subscribe(server, subscription)
            .map_err(|_| unknown)?;
        content.churned(server, at);
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
    /// [`ServiceError::UnknownServer`] if `server` is outside the fleet,
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
    pub fn unsubscribe_content(
        &mut self,
        server: ServerId,
        id: SubscriptionId,
    ) -> Result<(), ServiceError> {
        let servers = self.config.server_count();
        let (content, at) = self.content_alone("attached before unsubscribe_content")?;
        content
            .matcher
            .unsubscribe(server, id)
            .map_err(|e| match e {
                pscd_matching::MatchError::UnknownServer { .. } => ServiceError::UnknownServer {
                    server: server.index(),
                    servers,
                },
                _ => ServiceError::Config {
                    what: "subscription id",
                    constraint: "registered at the given server",
                },
            })?;
        content.churned(server, at);
        Ok(())
    }

    /// The attached content, taken back from the shards ([`settle`]), and
    /// the timeline index of the next event: where a change to it takes
    /// effect.
    ///
    /// [`settle`]: ServiceCore::settle
    fn content_alone(
        &mut self,
        constraint: &'static str,
    ) -> Result<(&mut Content, u64), ServiceError> {
        if self.content.is_none() {
            return Err(ServiceError::Config {
                what: "matcher",
                constraint,
            });
        }
        self.settle()?;
        let at = self.batch.view(&self.config.pages).start_index() as u64;
        let content = self.content.as_mut().and_then(Arc::get_mut);
        Ok((content.expect("settled: no shard holds it"), at))
    }

    /// Flushes the pending batch and waits until every shard has resolved
    /// every batch it was sent — a worker lets go of the content once it
    /// has — so that the matcher can change without a queued event being
    /// matched against the change.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerPanicked`] once a worker has died: one that
    /// died holding the content closed its inbox before letting go of it.
    fn settle(&mut self) -> Result<(), ServiceError> {
        self.flush()?;
        if let Some(content) = &mut self.content {
            while Arc::get_mut(content).is_none() {
                thread::yield_now();
            }
        }
        for worker in &mut self.workers {
            worker.alive()?;
        }
        Ok(())
    }

    /// Ingests one event.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPage`]/[`ServiceError::UnknownServer`] if
    /// the event references ids outside the configured universe (the
    /// event is rejected before it is journaled), a persistence error, or
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
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
                self.flush()?;
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
                // already copied its fan-out out of the counts.
                self.counts.set(page, server, count);
                self.rows_end = None;
            }
            LiveEvent::Publish { time, page } => {
                let meta = &self.config.pages[page.as_usize()];
                let supersedes = self.heads.publish(page, meta);
                // In content mode each shard matches the publish for its
                // own proxies.
                let fanout = match &mut self.content {
                    Some(content) => {
                        refreeze(content);
                        &[]
                    }
                    None => self.counts.matched_servers(page),
                };
                self.batch.push_publish(time, page, supersedes, fanout);
            }
            LiveEvent::Request { time, server, page } => {
                let subs = match &mut self.content {
                    Some(content) => {
                        refreeze(content);
                        0
                    }
                    None => self.counts.count(page, server),
                };
                self.batch.push_request(time, server, page, subs);
            }
        }
    }

    /// Applies every buffered event now: every shard of the fleet steps
    /// through the pending batch, the workers' while shard 0's does.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        if !self.workers.is_empty() {
            let k = self.next;
            self.next = (k + 1) % self.ring.len();
            let slot = &mut self.ring[k];
            // Free by the ring's size, unless a dead worker is still
            // letting go of what it held.
            while Arc::get_mut(slot).is_none() {
                thread::yield_now();
            }
            Arc::get_mut(slot)
                .expect("no worker holds it")
                .clone_from(&self.batch);
            let batch = Arc::clone(slot);
            let content = self.content.clone();
            self.send_all(|| ToWorker::Batch(Arc::clone(&batch), content.clone()))?;
        }
        let content = self.content.as_deref();
        let matching = &mut self.matching;
        let window = shard_window(&self.shard, matching, &self.config, &self.batch, content);
        let window = window.view(&self.config.pages);
        while self.shard.step(&window).is_some() {}
        self.batch.clear();
        Ok(())
    }

    /// Cuts the fleet anew at `ranges`, between batches. Proxies move
    /// between shards as the records a snapshot file holds, in memory; in
    /// content mode each one that moved is stamped churned, so that no
    /// shard reads a kept row computed without it.
    ///
    /// # Panics
    ///
    /// Panics if a moved proxy's records do not decode: every shard has
    /// dropped what it gave up by then, so the service could not go on.
    fn replan(&mut self, ranges: Vec<Range<u16>>) -> Result<(), ServiceError> {
        if ranges == self.ranges {
            return Ok(());
        }
        for (worker, range) in self.workers.iter_mut().zip(&ranges[1..]) {
            worker.send(ToWorker::Leave(range.clone()))?;
        }
        let mut records = Vec::new();
        leave(&mut self.shard, &ranges[0], &self.costs, &mut records);
        for worker in &mut self.workers {
            records.extend(worker.leaving()?);
        }
        let moved = (self.ranges.iter().zip(&ranges)).flat_map(|(old, new)| outside(old, new));
        let moved: Vec<u16> = moved.flatten().collect();
        let fleet = self.config.server_count();
        let records = ServerRecords::read(records, moved.iter().copied(), fleet);
        let records = Arc::new(records.expect("a proxy decodes what it encoded"));
        if let Some(content) = &mut self.content {
            let at = self.batch.view(&self.config.pages).start_index() as u64;
            let content = Arc::get_mut(content).expect("every worker has left: none holds it");
            for &server in &moved {
                content.churned(ServerId::new(server), at);
            }
        }
        for (worker, range) in self.workers.iter_mut().zip(&ranges[1..]) {
            worker.send(ToWorker::Join(range.clone(), Arc::clone(&records)))?;
        }
        let (shard, matching) = (&mut self.shard, &mut self.matching);
        let range = ranges[0].clone();
        join(shard, matching, &self.config, &self.costs, range, &records)
            .expect("a proxy decodes what it encoded");
        self.ranges = ranges;
        Ok(())
    }

    /// Applies every buffered event, then cuts the fleet so that shard 0
    /// owns servers `0..cut` (clamped to leave each later shard one) and
    /// the later shards split the rest evenly. Results do not depend on the
    /// cut: this exists so that tests outside the crate can move proxies
    /// where they choose. A one-shard service is left as it is.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerPanicked`] once a worker has died.
    #[doc(hidden)]
    pub fn replan_at(&mut self, cut: u16) -> Result<(), ServiceError> {
        self.flush()?;
        if self.workers.is_empty() {
            return Ok(());
        }
        let (servers, later) = (self.config.server_count(), self.workers.len());
        let cut = cut.clamp(1, servers - later as u16);
        let rest = ShardPlan::balanced(&vec![1; usize::from(servers - cut)], later);
        let rest = ranges(&rest)
            .into_iter()
            .map(|r| r.start + cut..r.end + cut);
        self.replan(std::iter::once(0..cut).chain(rest).collect())
    }

    /// Sends `msg()` to every worker, or to none once one has been found
    /// dead: a call that failed halfway is never half-repeated.
    fn send_all(&mut self, msg: impl Fn() -> ToWorker) -> Result<(), ServiceError> {
        for worker in &mut self.workers {
            worker.alive()?;
        }
        for worker in &mut self.workers {
            worker.send(msg())?;
        }
        Ok(())
    }

    /// Takes a state snapshot immediately (flushing buffered events
    /// first) and writes it atomically to the persistence directory.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] if no persistence directory is
    /// configured; otherwise snapshot-encoding, I/O or worker errors.
    pub fn snapshot_now(&mut self) -> Result<(), ServiceError> {
        let dir = self.config.dir.clone().ok_or(ServiceError::Config {
            what: "dir",
            constraint: "set for snapshots",
        })?;
        self.flush()?;
        // The workers encode their ranges while the supervisor encodes
        // what precedes them in the file and shard 0's.
        self.send_all(|| ToWorker::Snapshot)?;
        let out = &mut self.snapshot_buf;
        match self.rows_end {
            Some(rows_end) => restamp_snapshot_rows(out, rows_end, self.events_applied),
            None => {
                put_snapshot_rows(out, self.events_applied, &self.counts);
                self.rows_end = Some(out.len());
            }
        }
        let workers = &mut self.workers;
        let snaps = || workers.iter_mut().map(Worker::snapshot).collect();
        let servers = self.config.server_count();
        put_snapshot_fleet(out, &self.heads, servers, &self.shard, snaps)?;
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        fs::write(&tmp, &*out)?;
        fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        self.last_snapshot = self.events_applied;
        Ok(())
    }

    /// Drains the service: flushes buffered events, stops the workers,
    /// and returns the merged accounting plus every proxy's serialized
    /// cache state.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerPanicked`] if a worker died.
    pub fn shutdown(mut self) -> Result<ServiceOutcome, ServiceError> {
        self.flush()?;
        // Every worker finishes its shard while shard 0 finishes here.
        self.send_all(|| ToWorker::Finish)?;
        let servers = self.config.server_count();
        let mut partials = vec![finish(self.shard)];
        for worker in self.workers {
            partials.push(worker.join()?);
        }
        let mut result = SimResult::identity(&partials[0].0.strategy, self.config.hours, servers);
        let mut proxies = Vec::with_capacity(servers as usize);
        for (partial, blobs) in partials {
            result.absorb(&partial);
            proxies.extend(blobs);
        }
        Ok(ServiceOutcome { result, proxies })
    }
}

/// A fresh journal in `dir`, made first if need be.
fn fresh_journal(dir: &Path) -> Result<Journal, ServiceError> {
    fs::create_dir_all(dir)?;
    Journal::create(&dir.join(JOURNAL_FILE))
}

/// Lazy refreeze: a burst of content calls since the last resolved event
/// may have outgrown the kernel; rebuild it before the shards match
/// against it (a no-op while one answers). Only a content call thaws it,
/// and that call left no shard holding it, with no batch sent since.
fn refreeze(content: &mut Arc<Content>) {
    if !content.matcher.is_frozen() {
        let content = Arc::get_mut(content).expect("thawed by a content call, which settled");
        content.matcher.freeze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{self, AtomicBool};
    use std::sync::mpsc;
    use std::time::Duration;

    use proptest::prelude::*;
    use pscd_broker::PushScheme;
    use pscd_core::StrategyKind;
    use pscd_matching::{Content, MatchScratch, Predicate, Value};
    use pscd_sim::{CompiledEventKind, CompiledTrace, Replay, SimOptions, DEFAULT_PREFETCH_DEPTH};
    use pscd_spec::within_a_minute;
    use pscd_types::{PageId, SimTime};
    use pscd_workload::{Workload, WorkloadConfig};

    use crate::test_support::{publish, tiny_config};

    const CATEGORIES: [&str; 3] = ["a", "b", "c"];

    /// [`tiny_config`]'s service on one shard, whose batch outlasts the
    /// test: shard 0 resolves the whole fleet whenever the test flushes.
    fn tiny_service(servers: u16, pages: u32) -> ServiceCore {
        let config = tiny_config(servers, pages).with_workers(1);
        ServiceCore::new(config.with_batch_size(1 << 16)).unwrap()
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

    fn request(server: u16, page: u32) -> LiveEvent {
        LiveEvent::Request {
            time: SimTime::ZERO,
            server: ServerId::new(server),
            page: PageId::new(page),
        }
    }

    /// Shard 0's matching, once every ingested event is resolved.
    fn matching(core: &mut ServiceCore) -> &ShardMatching {
        core.flush().unwrap();
        core.matching.as_ref().expect("a content batch resolved")
    }

    /// The count shard 0 kept for `page` at `server`, once every ingested
    /// event is resolved.
    fn kept(core: &mut ServiceCore, page: u32, server: u16) -> Option<u32> {
        core.flush().unwrap();
        let content = core.content.as_deref().expect("attached");
        let matching = core.matching.as_ref()?;
        matching.kept(PageId::new(page), ServerId::new(server), content)
    }

    /// The last resolved event.
    fn last_event(core: &mut ServiceCore) -> CompiledEventKind {
        let pages = Arc::clone(&core.config.pages);
        let window = matching(core).window.view(&pages);
        window.events().last().expect("an event resolved").kind
    }

    /// The `subs` of the last resolved event, a request.
    fn last_subs(core: &mut ServiceCore) -> u32 {
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

        assert_eq!(kept(&mut core, 2, 1), None);
        for ev in [request(1, 2), request(0, 2), publish(2), request(1, 2)] {
            core.ingest(ev).unwrap();
            rows.ingest(ev).unwrap();
        }
        assert_eq!(kept(&mut core, 2, 1), Some(2));
        assert_eq!(matching(&mut core).window, rows.batch);
        assert_eq!(matching(&mut core).reads, [1, 2], "kept once, kernel twice");
        assert_eq!(last_subs(&mut core), 2);
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
        let arena = |core: &mut ServiceCore| matching(core).kept.arena_len();

        core.ingest(publish(0)).unwrap();
        assert_eq!(arena(&mut core), 2);
        assert_eq!([read(&mut core, 0), read(&mut core, 1)], [1, 0]);

        // Unchanged: the same span. Proxy 0 leaves and proxy 2 gains one:
        // a shorter row, in place, and proxy 0's stale stamp is behind it.
        core.ingest(publish(0)).unwrap();
        assert_eq!(arena(&mut core), 2, "an unchanged page does not grow");
        core.unsubscribe_content(ServerId::new(0), first).unwrap();
        core.subscribe_content(ServerId::new(2), page_sub(0))
            .unwrap();
        assert_eq!(kept(&mut core, 0, 0), None);
        assert_eq!(kept(&mut core, 0, 1), Some(0));
        assert_eq!([read(&mut core, 0), read(&mut core, 2)], [0, 2], "kernel");
        core.ingest(publish(0)).unwrap();
        assert_eq!(arena(&mut core), 2, "a shorter row fits");
        for (server, subs) in [(0, 0), (1, 0), (2, 2)] {
            assert_eq!(kept(&mut core, 0, server), Some(subs));
            assert_eq!(read(&mut core, server), subs);
        }

        // All three proxies match: longer than the span, so appended.
        for server in [0, 1] {
            core.subscribe_content(ServerId::new(server), Subscription::wildcard())
                .unwrap();
        }
        core.ingest(publish(0)).unwrap();
        assert_eq!(arena(&mut core), 2 + 3);
        for (server, subs) in [(0, 1), (1, 1), (2, 2)] {
            assert_eq!(kept(&mut core, 0, server), Some(subs));
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
        assert_eq!(kept(&mut core, 1, 0), Some(1));
        assert_eq!(kept(&mut core, 1, 1), None);

        // The same pages under other subscriptions: the old row would say 1.
        let mut other = tiny_matcher(2, 2);
        for _ in 0..5 {
            other.subscribe(ServerId::new(0), page_sub(1)).unwrap();
        }
        core.attach_matcher(other).unwrap();
        assert_eq!(kept(&mut core, 1, 0), None);
        core.ingest(request(0, 1)).unwrap();
        assert_eq!(last_subs(&mut core), 5);
        // Proxy 1's stamp went with the rows.
        core.ingest(publish(1)).unwrap();
        assert_eq!(kept(&mut core, 1, 1), Some(0));
        assert_eq!(kept(&mut core, 1, 0), Some(5));
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
            assert_eq!(kept(&mut core, 1, server), Some(subs));
        }
    }

    /// Counter-based draws from one seed and stream
    /// (`pscd_workload::seeds`).
    struct Draws {
        seed: u64,
        stream: u64,
        drawn: u64,
    }

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.drawn += 1;
            let draw = pscd_workload::seeds::substream(self.seed, self.stream, self.drawn);
            (draw % n as u64) as usize
        }
    }

    /// What the matcher said, asked directly when an event was ingested.
    enum Direct {
        Count(u32),
        Fanout(Vec<(ServerId, u32)>),
    }

    /// Checks `window`, a batch a shard resolved for the proxies
    /// `servers`, event by event against `rows` — a count-row service
    /// whose one batch holds every event — over the same range, and
    /// against `direct`, one answer per timeline event. Returns the
    /// timeline index after the window.
    fn assert_resolved(
        window: &OwnedWindow,
        servers: &std::ops::Range<u16>,
        rows: &ServiceCore,
        direct: &[Direct],
    ) -> usize {
        let pages = &rows.config.pages;
        let (window, truth) = (window.view(pages), rows.batch.view(pages));
        let (lo, hi) = (servers.start, servers.end);
        for (at, ev) in (window.start_index()..).zip(window.events()) {
            let want = truth.events()[at];
            prop_assert_eq!((ev.time, ev.page), (want.time, want.page));
            match (ev.kind, want.kind, &direct[at]) {
                (
                    CompiledEventKind::Publish {
                        ordinal,
                        supersedes,
                    },
                    CompiledEventKind::Publish {
                        ordinal: o,
                        supersedes: s,
                    },
                    Direct::Fanout(fanout),
                ) => {
                    prop_assert_eq!(supersedes, s);
                    prop_assert_eq!(window.matched(ordinal), truth.matched_in(o, lo, hi));
                    let own = fanout.iter().filter(|(s, _)| servers.contains(&s.index()));
                    prop_assert_eq!(
                        window.matched(ordinal),
                        &own.copied().collect::<Vec<_>>()[..]
                    );
                }
                (
                    CompiledEventKind::Request { server, subs },
                    CompiledEventKind::Request { server: s, subs: n },
                    &Direct::Count(count),
                ) => {
                    prop_assert_eq!(server, s);
                    let own = servers.contains(&server.index());
                    prop_assert_eq!(subs, if own { n } else { 0 });
                    prop_assert_eq!(subs, if own { count } else { 0 });
                }
                _ => prop_assert!(
                    false,
                    "event {} resolved as {:?}, not {:?}",
                    at,
                    ev.kind,
                    want.kind
                ),
            }
        }
        window.start_index() + window.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Publishes, requests (before, between and after their page's
        /// publishes) and content churn in any order, flushed at any
        /// point: every event a shard of the content-mode service resolves
        /// equals what a count-row service told the resulting counts
        /// resolves over the shard's proxies, and what the matcher says
        /// when asked directly — shard 0 of the service over the whole
        /// fleet, and the shards of a drawn split of the fleet, fed the
        /// same batches, each over its own range.
        #[test]
        fn content_mode_resolves_as_count_rows_and_the_matcher_do(
            seed in 0u64..u64::MAX,
            servers in 1u16..=4,
            pages in 1u32..=16,
            steps in 1usize..=300,
            cuts in 0u32..8,
        ) {
            let mut draw = Draws { seed, stream: 0, drawn: 0 };
            // Where the batch is flushed, from a stream of its own.
            let mut flush = Draws { seed, stream: 1, drawn: 0 };
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
            // The split: a range ends before every proxy whose bit is set
            // in `cuts`.
            let mut starts: Vec<u16> = (1..servers).filter(|s| cuts >> s & 1 == 1).collect();
            starts.insert(0, 0);
            let ends = starts[1..].iter().copied().chain([servers]);
            let content = core.content.as_deref().unwrap();
            let mut shards: Vec<_> = starts
                .iter()
                .zip(ends)
                .map(|(&lo, hi)| (lo..hi, ShardMatching::new(lo..hi, &core.config, content)))
                .collect();
            // Resolves the pending batch in every shard of the split, checks
            // each, and returns the timeline index after it. The service's
            // own shard 0 resolves the batch at its next flush, on its own
            // or inside a content call.
            let mut resolve_pending = |core: &ServiceCore, rows: &ServiceCore, direct: &[Direct]| {
                let batch = core.batch.view(&core.config.pages);
                let content = core.content.as_deref().unwrap();
                let mut end = 0;
                for (servers, shard) in &mut shards {
                    end = assert_resolved(shard.resolve(&batch, content), servers, rows, direct);
                }
                end
            };
            // Checks shard 0's last window, once the service has flushed: the
            // batch that ends at `end`, or the one before an empty batch.
            let shard0 = |core: &ServiceCore, rows: &ServiceCore, direct: &[Direct], end: usize| {
                if let Some(shard0) = &core.matching {
                    let whole = 0..core.config.server_count();
                    prop_assert_eq!(assert_resolved(&shard0.window, &whole, rows, direct), end);
                }
            };

            let mut scratch = MatchScratch::new();
            let mut direct = Vec::new();
            for _ in 0..steps {
                let server = ServerId::new(draw.below(servers as usize) as u16);
                let page = draw.below(pages as usize) as u32;
                match draw.below(20) {
                    0..=7 => {
                        let ev = request(server.index(), page);
                        core.ingest(ev).unwrap();
                        rows.ingest(ev).unwrap();
                        let count = twin.match_count_with(PageId::new(page), server, &mut scratch);
                        direct.push(Direct::Count(count));
                    }
                    8..=12 => {
                        core.ingest(publish(page)).unwrap();
                        rows.ingest(publish(page)).unwrap();
                        let mut fanout = Vec::new();
                        twin.matched_servers_into(PageId::new(page), &mut scratch, &mut fanout);
                        direct.push(Direct::Fanout(fanout));
                    }
                    13..=15 => {
                        let end = resolve_pending(&core, &rows, &direct);
                        let sub = subscription(&mut draw);
                        let id = twin.subscribe(server, sub.clone()).unwrap();
                        prop_assert_eq!(core.subscribe_content(server, sub).unwrap(), id);
                        shard0(&core, &rows, &direct, end);
                        live.push((server, id));
                        tell(&mut rows, &twin, server);
                    }
                    16..=18 if !live.is_empty() => {
                        let end = resolve_pending(&core, &rows, &direct);
                        let (server, id) = live.swap_remove(draw.below(live.len()));
                        twin.unsubscribe(server, id).unwrap();
                        core.unsubscribe_content(server, id).unwrap();
                        shard0(&core, &rows, &direct, end);
                        tell(&mut rows, &twin, server);
                    }
                    16..=18 => {}
                    _ => {
                        // A burst of ghosts the kernel cannot absorb: the
                        // next resolved event answers from a rebuild.
                        let end = resolve_pending(&core, &rows, &direct);
                        for k in 0..60 {
                            let id = twin.subscribe(server, page_sub(-2 - k)).unwrap();
                            core.subscribe_content(server, page_sub(-2 - k)).unwrap();
                            live.push((server, id));
                        }
                        shard0(&core, &rows, &direct, end);
                        prop_assert!(!core.matcher_frozen());
                    }
                }
                // A flush between churn calls: kept rows cross batches.
                if flush.below(6) == 0 {
                    let end = resolve_pending(&core, &rows, &direct);
                    core.flush().unwrap();
                    shard0(&core, &rows, &direct, end);
                }
            }
            let end = resolve_pending(&core, &rows, &direct);
            core.flush().unwrap();
            shard0(&core, &rows, &direct, end);
            prop_assert_eq!(end, direct.len(), "every event resolved");
            // Both ways to a count are exercised in any run of some length.
            let [kept_reads, kernel_reads] = core.matching.as_ref().map_or([0; 2], |m| m.reads);
            let both = kept_reads > 0 && kernel_reads > 0;
            prop_assert!(steps < 100 || both, "{kept_reads} kept, {kernel_reads} kernel reads");
        }
    }

    /// Runs `hook` on shard `shard`'s worker thread when its next batch
    /// arrives, before the worker steps it.
    fn hook_worker(core: &mut ServiceCore, shard: usize, hook: impl FnOnce() + Send + 'static) {
        let worker = &mut core.workers[shard - 1];
        worker.send(ToWorker::Hook(Box::new(hook))).unwrap();
    }

    fn assert_panicked<T: std::fmt::Debug>(result: Result<T, ServiceError>, shard: usize) {
        match result {
            Err(ServiceError::WorkerPanicked { shard: s, message }) => {
                assert_eq!((s, message), (shard, format!("shard {shard} gives up")));
            }
            other => panic!("expected shard {shard}'s panic: {other:?}"),
        }
    }

    /// A worker that panics takes the service down with a typed error: the
    /// call that finds it dead — a snapshot waiting for its reply, or a
    /// shutdown joining it — and every call after it return the panic,
    /// none of them hangs, and the surviving worker is sent nothing more.
    #[test]
    fn a_panicked_worker_fails_every_later_call() {
        for (shard, snapshot_first) in [(1, true), (2, true), (2, false)] {
            within_a_minute(move || {
                let dir = std::env::temp_dir().join(format!(
                    "pscd-service-panic-{shard}-{snapshot_first}-{}",
                    std::process::id()
                ));
                fs::remove_dir_all(&dir).ok();
                let config = tiny_config(3, 2)
                    .with_workers(3)
                    .with_batch_size(2)
                    .with_persistence(dir.clone(), 0);
                let mut core = ServiceCore::new(config).unwrap();
                let batch = [publish(0), request(shard as u16, 0)];
                core.ingest_all(&batch).unwrap();
                hook_worker(&mut core, shard, move || panic!("shard {shard} gives up"));
                // The batch that meets the hook is sent before the worker
                // dies on it.
                core.ingest_all(&batch).unwrap();
                let stepped = Arc::new(AtomicBool::new(false));
                if snapshot_first {
                    assert_panicked(core.snapshot_now(), shard);
                    let stepped = Arc::clone(&stepped);
                    let survivor = 3 - shard;
                    hook_worker(&mut core, survivor, move || {
                        stepped.store(true, atomic::Ordering::SeqCst)
                    });
                    assert_panicked(core.ingest_all(&batch), shard);
                    assert_panicked(core.flush(), shard);
                }
                assert_panicked(core.shutdown(), shard);
                // The dropped service joined the survivor: it met no batch.
                assert!(!stepped.load(atomic::Ordering::SeqCst));
                fs::remove_dir_all(&dir).ok();
            });
        }
    }

    /// A content call takes the matcher back only once no worker holds
    /// it. A worker that dies holding it — on the batch it was sent with —
    /// makes the call return the panic rather than wait for it or go on
    /// without the shard, and every later call, content or not, does the
    /// same.
    #[test]
    fn a_content_call_after_a_panicked_worker_fails() {
        // Each content call: a subscribe, an unsubscribe (of an id the
        // matcher would reject) and an attach.
        fn content_call(core: &mut ServiceCore, call: usize) -> Result<(), ServiceError> {
            match call {
                0 => core
                    .subscribe_content(ServerId::new(0), page_sub(0))
                    .map(drop),
                1 => core.unsubscribe_content(ServerId::new(0), SubscriptionId::new(9)),
                _ => core.attach_matcher(tiny_matcher(3, 2)),
            }
        }
        for call in 0..3 {
            within_a_minute(move || {
                let config = tiny_config(3, 2).with_workers(3).with_batch_size(2);
                let mut core = ServiceCore::new(config).unwrap();
                core.attach_matcher(tiny_matcher(3, 2)).unwrap();
                let batch = [publish(0), request(2, 0)];
                core.ingest_all(&batch).unwrap();
                hook_worker(&mut core, 2, || panic!("shard 2 gives up"));
                // Sent with the matcher, before the worker dies on it.
                core.ingest_all(&batch).unwrap();
                assert_panicked(content_call(&mut core, call), 2);
                for later in 0..3 {
                    assert_panicked(content_call(&mut core, later), 2);
                }
                assert_panicked(core.ingest_all(&batch), 2);
                assert_panicked(core.shutdown(), 2);
            });
        }
    }

    /// A churn call that lands while earlier batches are still queued to a
    /// held worker waits until that worker has matched them, and the one
    /// still pending is flushed before it: every event is matched against
    /// the subscriptions of its place in the stream, as a count-row
    /// service told the same churn as counts resolves it.
    #[test]
    fn a_churn_call_waits_for_the_batches_queued_before_it() {
        within_a_minute(|| {
            let config = tiny_config(2, 3).with_batch_size(2);
            let mut core = ServiceCore::new(config.clone().with_workers(2)).unwrap();
            let mut rows = ServiceCore::new(config.with_workers(1)).unwrap();
            let mut matcher = tiny_matcher(2, 3);
            let id = matcher.subscribe(ServerId::new(1), page_sub(2)).unwrap();
            core.attach_matcher(matcher).unwrap();
            let count = |count| LiveEvent::Subscribe {
                page: PageId::new(2),
                server: ServerId::new(1),
                count,
            };
            rows.ingest(count(1)).unwrap();

            let (open, gate) = mpsc::channel::<()>();
            hook_worker(&mut core, 1, move || {
                let _ = gate.recv();
            });
            // Two batches queue at the held worker, which owns proxy 1;
            // the last publish is still pending.
            let traffic = [
                publish(2),
                request(1, 2),
                request(1, 2),
                publish(2),
                publish(2),
            ];
            core.ingest_all(&traffic).unwrap();
            rows.ingest_all(&traffic).unwrap();
            let opened = Arc::new(AtomicBool::new(false));
            let opener = std::thread::spawn({
                let opened = Arc::clone(&opened);
                move || {
                    std::thread::sleep(Duration::from_millis(100));
                    opened.store(true, atomic::Ordering::SeqCst);
                    drop(open);
                }
            });
            core.unsubscribe_content(ServerId::new(1), id).unwrap();
            assert!(
                opened.load(atomic::Ordering::SeqCst),
                "the churn did not wait for the held worker"
            );
            rows.ingest(count(0)).unwrap();
            core.ingest_all(&traffic).unwrap();
            rows.ingest_all(&traffic).unwrap();
            opener.join().unwrap();
            let (core, rows) = (core.shutdown().unwrap(), rows.shutdown().unwrap());
            assert_eq!(core.result, rows.result);
            assert_eq!(core.proxies, rows.proxies);
            assert!(core.result.hits > 0, "the churn must matter");
        });
    }

    /// The hand-off to a worker is bounded: with worker 1 holding its first
    /// batch, `DEFAULT_PREFETCH_DEPTH` more fit its channel, and the
    /// dispatch after them waits until the worker moves. The run still ends
    /// where the batch replay does.
    #[test]
    fn a_full_worker_channel_blocks_dispatch() {
        const BATCH: usize = 16;
        within_a_minute(|| {
            let w = Workload::generate(&WorkloadConfig::news_scaled(0.002)).unwrap();
            let subs = w.subscriptions(1.0).unwrap();
            let events = w.live_events(&subs);
            let trace = CompiledTrace::compile(&w, &subs).unwrap();
            let costs = FetchCosts::uniform(w.server_count());
            let kind = StrategyKind::Sg2 { beta: 2.0 };
            let options = SimOptions::at_capacity(kind, 0.05);
            let reference = Replay::compiled(&trace, &costs)
                .run(&[options])
                .unwrap()
                .remove(0);
            let config = ServiceConfig::new(
                kind,
                trace.capacities(0.05),
                costs.iter().collect(),
                PushScheme::Always,
                trace.pages().iter().copied().collect(),
                trace.hours(),
            );
            let mut core = ServiceCore::new(config.with_workers(2).with_batch_size(BATCH)).unwrap();
            // The subscription rows open the stream and are never
            // dispatched; behind them every `BATCH` events are one dispatch.
            let is_row = |ev: &LiveEvent| matches!(ev, LiveEvent::Subscribe { .. });
            let traffic = events.iter().position(|ev| !is_row(ev)).unwrap();
            assert!(events[traffic..].iter().all(|ev| !is_row(ev)));
            core.ingest_all(&events[..traffic]).unwrap();
            let mut batches = events[traffic..].chunks(BATCH);
            assert!(batches.len() > DEFAULT_PREFETCH_DEPTH + 2);

            let (open, gate) = mpsc::channel::<()>();
            hook_worker(&mut core, 1, move || {
                let _ = gate.recv();
            });
            let opened = Arc::new(AtomicBool::new(false));
            let (full, wait) = mpsc::channel();
            let opener = std::thread::spawn({
                let opened = Arc::clone(&opened);
                move || {
                    wait.recv().unwrap();
                    // Time for a dispatch that does not wait to return first.
                    std::thread::sleep(Duration::from_millis(100));
                    opened.store(true, atomic::Ordering::SeqCst);
                    drop(open);
                }
            });
            for batch in batches.by_ref().take(DEFAULT_PREFETCH_DEPTH + 1) {
                core.ingest_all(batch).unwrap();
            }
            assert!(!opened.load(atomic::Ordering::SeqCst));
            full.send(()).unwrap();
            core.ingest_all(batches.next().unwrap()).unwrap();
            assert!(
                opened.load(atomic::Ordering::SeqCst),
                "dispatch {} did not wait for the held worker",
                DEFAULT_PREFETCH_DEPTH + 2
            );
            for batch in batches {
                core.ingest_all(batch).unwrap();
            }
            opener.join().unwrap();
            assert_eq!(core.shutdown().unwrap().result, reference);
        });
    }
}
