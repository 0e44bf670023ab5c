//! The fleet's shards, and the worker threads that own shards 1…
//!
//! A shard is the simulator's own replay over the shard's server range, a
//! [`ReplayState`]: it drains each batch, in the simulator's window
//! buffer ([`OwnedWindow`]), with [`ReplayState::step`], the step batch
//! replay runs. In count-row mode the supervisor resolved the batch and
//! every shard steps it as it is; in content mode each shard first
//! matches the batch for its own proxies ([`ShardMatching`]) against the
//! [`Content`] the batch came with, lets go of it, and steps what it
//! resolved ([`shard_window`]). Shard 0, the first server range, runs on
//! the ingesting thread. A shard's
//! [`DeliveryEngine`](pscd_broker::DeliveryEngine) is deliberately
//! single-threaded (its observer handle is an `Rc`), so every other shard
//! is built and owned by a [`Worker`] thread, and the supervisor sends it
//! each batch through an [`Inbox`] bounded at [`DEFAULT_PREFETCH_DEPTH`]:
//! a supervisor that outruns its slowest worker waits for it. Message
//! order per inbox is FIFO, so a snapshot or finish request sent
//! after a batch observes that batch applied — no separate barrier is
//! needed. A re-plan is two more requests: each shard encodes and drops
//! the proxies it gives up ([`leave`]), then takes its new range and
//! restores the proxies it gains from what every shard gave up
//! ([`join`]). An inbox that closes without a finish request (a dropped
//! service) ends the thread without finishing its shard; a thread that
//! ends closes its inbox before it lets go of the content it held, so
//! whoever waits for that content finds the worker dead.

use std::collections::VecDeque;
use std::fmt;
use std::hint;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pscd_cache::{PageUniverse, SnapshotError};
use pscd_obs::{NullObserver, SharedObserver};
use pscd_sim::{HourlySeries, OwnedWindow, ReplayState, SimResult, DEFAULT_PREFETCH_DEPTH};
use pscd_topology::FetchCosts;
use pscd_types::ServerId;

use crate::balance::outside;
use crate::config::{ServiceConfig, ServiceError};
use crate::kept::{Content, ShardMatching};
use crate::wire::{
    encode_servers, restore_servers, shard_snap, FleetRestore, ServerRecords, ShardSnap,
};

/// One shard of the proxy fleet.
pub(crate) type Shard = ReplayState<NullObserver>;

/// Builds the shard owning global servers `range` over `universe` (the
/// configured pages'), restored from `restore` and starting from the
/// `hourly` series when given.
pub(crate) fn build_shard(
    config: &ServiceConfig,
    costs: &FetchCosts,
    universe: &PageUniverse,
    range: Range<u16>,
    restore: Option<&FleetRestore>,
    hourly: Option<HourlySeries>,
) -> Result<Shard, SnapshotError> {
    let mut shard = ReplayState::new(
        config.strategy,
        config.scheme,
        config.invalidate_stale,
        None,
        config.capacities.clone(),
        costs,
        universe,
        hourly.unwrap_or_else(|| HourlySeries::new(config.hours)),
        SharedObserver::disabled(),
        range,
    );
    if let Some(restore) = restore {
        let range = shard.servers();
        restore_servers(&mut shard, &restore.servers, range)?;
    }
    Ok(shard)
}

/// Appends the records of the proxies `shard` gives up for `range` to
/// `out`, in server order, and drops them: a re-plan frees every proxy
/// that moves before any shard builds one.
pub(crate) fn leave(shard: &mut Shard, range: &Range<u16>, costs: &FetchCosts, out: &mut Vec<u8>) {
    let owned = shard.servers();
    for run in outside(&owned, range) {
        encode_servers(shard, run, out);
    }
    let kept = owned.start.max(range.start)..owned.end.min(range.end);
    let kept = if kept.is_empty() {
        range.start..range.start
    } else {
        kept
    };
    shard.reassign(kept, costs);
}

/// Moves `shard`, and its `matching`, onto `range`: the proxies it gains
/// are restored from `moved`, which carries every proxy a shard gave up.
pub(crate) fn join(
    shard: &mut Shard,
    matching: &mut Option<ShardMatching>,
    config: &ServiceConfig,
    costs: &FetchCosts,
    range: Range<u16>,
    moved: &ServerRecords,
) -> Result<(), SnapshotError> {
    let gained = outside(&range, &shard.servers());
    shard.reassign(range.clone(), costs);
    for run in gained {
        restore_servers(shard, moved, run)?;
    }
    if let Some(matching) = matching {
        matching.reassign(range, config);
    }
    Ok(())
}

/// The shard's contribution to the final result: its [`SimResult`]
/// (zeros outside the range) plus the per-proxy strategy blobs, in range
/// order.
pub(crate) fn finish(shard: Shard) -> ShardFinish {
    // One buffer grows to a blob's size once; each proxy keeps an exact
    // copy.
    let mut blob = Vec::new();
    let proxies = shard
        .servers()
        .map(|server| {
            blob.clear();
            let strategy = shard.engine().strategy(ServerId::new(server));
            strategy.encode_snapshot(&mut blob);
            blob.clone()
        })
        .collect();
    (shard.finish(), proxies)
}

/// What a shard hands back at shutdown: its partial `SimResult` plus the
/// canonical per-proxy cache snapshots for its server range.
pub(crate) type ShardFinish = (SimResult, Vec<Vec<u8>>);

/// The window `shard` steps for `batch`: the batch itself in count-row
/// mode; in content mode, the batch resolved for the shard's own proxies
/// by its `matching`, which the first content batch builds.
pub(crate) fn shard_window<'a>(
    shard: &Shard,
    matching: &'a mut Option<ShardMatching>,
    config: &ServiceConfig,
    batch: &'a OwnedWindow,
    content: Option<&Content>,
) -> &'a OwnedWindow {
    let Some(content) = content else {
        return batch;
    };
    let matching =
        matching.get_or_insert_with(|| ShardMatching::new(shard.servers(), config, content));
    matching.resolve(&batch.view(&config.pages), content)
}

/// Messages to a worker.
pub(crate) enum ToWorker {
    /// Step every event of the batch, resolved against the content first
    /// in content mode.
    Batch(Arc<OwnedWindow>, Option<Arc<Content>>),
    /// Reply with the shard's [`ShardSnap`].
    Snapshot,
    /// Reply with the records of the proxies the shard gives up for the
    /// range ([`leave`]).
    Leave(Range<u16>),
    /// Take the range, restoring the proxies gained from the records
    /// ([`join`]).
    Join(Range<u16>, Arc<ServerRecords>),
    /// Finish the shard; the thread returns its [`ShardFinish`].
    Finish,
    /// Run the hook on the worker's thread when the next batch arrives,
    /// before stepping it: a test's slow or failing shard.
    #[cfg(test)]
    Hook(Box<dyn FnOnce() + Send>),
}

/// How long an idle worker spins looking for its next message before it
/// parks: longer than the supervisor takes to resolve a batch, so that a
/// worker that keeps up is not put to sleep and woken once per batch. A
/// busy spin, not `yield_now`: a yielding worker that the scheduler put
/// on the supervisor's core took turns with it there.
const SPIN: Duration = Duration::from_micros(200);

/// A worker's queue of messages: at most [`DEFAULT_PREFETCH_DEPTH`], in
/// storage allocated at spawn, so that no hand-off allocates, whether it
/// waits or not. Each side sleeps only at its end of the queue — the
/// worker when it is empty, the supervisor when it is full — and is
/// notified only when the queue leaves that end, so a worker takes every
/// queued batch before it parks.
struct Inbox {
    queue: Mutex<Queue>,
    /// Signalled when a message lands in an empty queue, and on close.
    filled: Condvar,
    /// Signalled when a message leaves a full queue, and on close.
    drained: Condvar,
}

struct Queue {
    messages: VecDeque<ToWorker>,
    /// Either side let go: the supervisor dropped the worker (which then
    /// steps what is queued), or the thread ended (what is queued is
    /// dropped with it).
    closed: bool,
}

impl fmt::Debug for Inbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inbox").finish_non_exhaustive()
    }
}

impl Inbox {
    fn new() -> Self {
        Self {
            queue: Mutex::new(Queue {
                messages: VecDeque::with_capacity(DEFAULT_PREFETCH_DEPTH),
                closed: false,
            }),
            filled: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    /// Neither side panics holding the lock, and a panic elsewhere leaves
    /// the queue consistent.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg`, waiting while the queue is full; `false` once the
    /// inbox is closed.
    fn push(&self, msg: ToWorker) -> bool {
        let mut queue = self.lock();
        while queue.messages.len() == DEFAULT_PREFETCH_DEPTH && !queue.closed {
            queue = self
                .drained
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if queue.closed {
            return false;
        }
        queue.messages.push_back(msg);
        if queue.messages.len() == 1 {
            self.filled.notify_one();
        }
        true
    }

    /// The next message, waiting while there is none; `None` once the
    /// queue is empty and closed.
    fn pop(&self) -> Option<ToWorker> {
        let mut idle_since = None;
        let mut queue = self.lock();
        loop {
            if let Some(msg) = queue.messages.pop_front() {
                if queue.messages.len() + 1 == DEFAULT_PREFETCH_DEPTH {
                    self.drained.notify_one();
                }
                return Some(msg);
            }
            if queue.closed {
                return None;
            }
            if idle_since.get_or_insert_with(Instant::now).elapsed() < SPIN {
                // Off the lock, so that a push is not held up.
                drop(queue);
                for _ in 0..64 {
                    hint::spin_loop();
                }
                queue = self.lock();
            } else {
                queue = self
                    .filled
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// `true` once either side let go.
    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Closes the inbox and wakes both sides; `discard` drops what is
    /// queued (the worker's end, which releases the batches it held).
    fn close(&self, discard: bool) {
        let mut queue = self.lock();
        queue.closed = true;
        if discard {
            queue.messages.clear();
        }
        self.filled.notify_all();
        self.drained.notify_all();
    }
}

/// Closes the inbox when the worker thread ends, however it ends, and
/// only then lets go of the content the worker was resolving a batch
/// against: a supervisor that has it back alone sees the inbox closed.
struct Closer {
    inbox: Arc<Inbox>,
    content: Option<Arc<Content>>,
}

impl Drop for Closer {
    fn drop(&mut self) {
        self.inbox.close(true);
    }
}

/// A worker thread and the shard it owns. Dropping it closes its inbox
/// and joins the thread; only [`Worker::join`] reports how it ended.
#[derive(Debug)]
pub(crate) struct Worker {
    /// The shard's index in the fleet.
    shard: usize,
    /// Closed once dropped: the thread then steps what is queued and
    /// returns.
    inbox: Arc<Inbox>,
    /// One reply per [`ToWorker::Snapshot`] and [`ToWorker::Leave`].
    replies: Receiver<Reply>,
    /// `None` once joined.
    thread: Option<JoinHandle<Result<Option<ShardFinish>, SnapshotError>>>,
    /// What the thread panicked with, once joined.
    panic: String,
}

/// A worker whose thread is building its shard: [`Starting::ready`]
/// waits for it.
#[derive(Debug)]
pub(crate) struct Starting {
    worker: Worker,
    ready: Receiver<()>,
}

impl Starting {
    /// The worker, once its shard is built and restored.
    ///
    /// # Errors
    ///
    /// The restore error or panic that ended the thread first.
    pub(crate) fn ready(mut self) -> Result<Worker, ServiceError> {
        match self.ready.recv() {
            Ok(()) => Ok(self.worker),
            Err(_) => Err(self.worker.stopped()),
        }
    }
}

impl Worker {
    /// Spawns the worker for shard `shard`, owning servers `range` and
    /// restored from `restore` on its own thread before it takes a batch.
    pub(crate) fn spawn(
        shard: usize,
        config: &ServiceConfig,
        costs: &FetchCosts,
        universe: &PageUniverse,
        range: Range<u16>,
        restore: Option<Arc<FleetRestore>>,
    ) -> Result<Starting, ServiceError> {
        let inbox = Arc::new(Inbox::new());
        let closer = Closer {
            inbox: Arc::clone(&inbox),
            content: None,
        };
        let (reply_tx, replies) = mpsc::channel();
        let (ready_tx, ready) = mpsc::channel();
        let (config, costs, universe) = (config.clone(), costs.clone(), universe.clone());
        let thread = thread::Builder::new()
            .name(format!("pscd-worker-{shard}"))
            .spawn(move || {
                let mut closer = closer;
                let state =
                    build_shard(&config, &costs, &universe, range, restore.as_deref(), None)?;
                drop(restore);
                // A service whose start failed no longer waits.
                let _ = ready_tx.send(());
                Ok(run(state, &config, &costs, &mut closer, &reply_tx))
            })?;
        let worker = Self {
            shard,
            inbox,
            replies,
            thread: Some(thread),
            panic: String::new(),
        };
        Ok(Starting { worker, ready })
    }

    /// Fails once the worker is dead: joined (its end is its panic), or
    /// its thread closed the inbox on the way out.
    pub(crate) fn alive(&mut self) -> Result<(), ServiceError> {
        match self.thread.is_some() && !self.inbox.is_closed() {
            true => Ok(()),
            false => Err(self.stopped()),
        }
    }

    /// Queues `msg`, waiting while the worker's inbox is full.
    pub(crate) fn send(&mut self, msg: ToWorker) -> Result<(), ServiceError> {
        match self.inbox.push(msg) {
            true => Ok(()),
            false => Err(self.stopped()),
        }
    }

    /// The next reply, to the request sent longest ago.
    fn reply(&mut self) -> Result<Reply, ServiceError> {
        self.replies.recv().map_err(|_| self.stopped())
    }

    /// The reply to the [`ToWorker::Snapshot`] sent last.
    pub(crate) fn snapshot(&mut self) -> Result<ShardSnap, ServiceError> {
        match self.reply()? {
            Reply::Snap(snap) => Ok(snap),
            _ => unreachable!("one reply per request, in order"),
        }
    }

    /// The reply to the [`ToWorker::Leave`] sent last.
    pub(crate) fn leaving(&mut self) -> Result<Vec<u8>, ServiceError> {
        match self.reply()? {
            Reply::Leaving(records) => Ok(records),
            _ => unreachable!("one reply per request, in order"),
        }
    }

    /// Returns the shard's finish, once [`ToWorker::Finish`] is sent.
    pub(crate) fn join(mut self) -> Result<ShardFinish, ServiceError> {
        Ok(self.end()?.expect("sent `Finish`, a worker returns"))
    }

    /// Why a worker whose inbox or reply broke stopped.
    fn stopped(&mut self) -> ServiceError {
        // Only a restore error or a panic ends a worker whose inbox is
        // open before it is sent `Finish`.
        self.end()
            .expect_err("a worker returns only on `Finish` or a closed inbox")
    }

    /// Joins the thread (the first call) and returns how it ended; a panic
    /// is kept for every later call.
    fn end(&mut self) -> Result<Option<ShardFinish>, ServiceError> {
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(end) => return end.map_err(ServiceError::from),
                Err(payload) => {
                    self.panic = match payload.downcast::<String>() {
                        Ok(message) => *message,
                        Err(payload) => payload
                            .downcast_ref::<&str>()
                            .copied()
                            .unwrap_or("a panic payload that is not a string")
                            .to_owned(),
                    };
                }
            }
        }
        Err(ServiceError::WorkerPanicked {
            shard: self.shard,
            message: self.panic.clone(),
        })
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.inbox.close(false);
        // A dropped service has no caller to tell how the worker ended.
        let _ = self.end();
    }
}

/// A worker's answer to a request of the supervisor's.
enum Reply {
    Snap(ShardSnap),
    Leaving(Vec<u8>),
}

/// Steps `shard` through every batch the inbox brings and answers the
/// supervisor's requests. Returns the shard's finish when asked for it,
/// and nothing when the inbox closes first.
fn run(
    mut shard: Shard,
    config: &ServiceConfig,
    costs: &FetchCosts,
    closer: &mut Closer,
    replies: &Sender<Reply>,
) -> Option<ShardFinish> {
    let mut matching = None;
    let reply = |reply| {
        replies
            .send(reply)
            .expect("the receiver outlives the thread")
    };
    #[cfg(test)]
    let mut hook: Option<Box<dyn FnOnce() + Send>> = None;
    while let Some(msg) = closer.inbox.pop() {
        match msg {
            ToWorker::Batch(batch, content) => {
                closer.content = content;
                #[cfg(test)]
                if let Some(hook) = hook.take() {
                    hook();
                }
                let content = closer.content.as_deref();
                let window = shard_window(&shard, &mut matching, config, &batch, content);
                // Resolved: the supervisor may change the matcher while
                // the shard steps.
                closer.content = None;
                let window = window.view(&config.pages);
                while shard.step(&window).is_some() {}
            }
            ToWorker::Snapshot => reply(Reply::Snap(shard_snap(&shard))),
            ToWorker::Leave(range) => {
                let mut records = Vec::new();
                leave(&mut shard, &range, costs, &mut records);
                reply(Reply::Leaving(records));
            }
            ToWorker::Join(range, moved) => {
                join(&mut shard, &mut matching, config, costs, range, &moved)
                    .expect("a proxy decodes what it encoded");
            }
            ToWorker::Finish => return Some(finish(shard)),
            #[cfg(test)]
            ToWorker::Hook(next) => hook = Some(next),
        }
    }
    None
}
