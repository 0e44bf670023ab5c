//! The content-delivery engine: publisher-side pushing and proxy-side
//! request handling.

use serde::{Deserialize, Serialize};

use pscd_cache::{AccessOutcome, PageRef, SnapshotError, SnapshotReader};
use pscd_core::{Strategy, StrategyImpl};
use pscd_obs::{NullObserver, Observer, SharedObserver};
use pscd_types::{count, Bytes, PageId, PageMeta, ServerId};

use crate::residency::Residency;
use crate::{BrokerError, Traffic};

/// How the push-time module moves content from the publisher to a proxy
/// (paper §5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PushScheme {
    /// *Always Pushing*: a matched page is always transferred; the proxy
    /// then decides whether to store it (bandwidth is wasted when it
    /// declines).
    #[default]
    Always,
    /// *Pushing When Necessary*: the proxy first evaluates the page's
    /// meta-information and only asks for the transfer if it will store the
    /// page.
    WhenNecessary,
}

/// What happened when one matched page was offered to one proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushRecord {
    /// The proxy involved.
    pub server: ServerId,
    /// Whether the page's content crossed the network.
    pub transferred: bool,
    /// Whether the proxy stored the page.
    pub stored: bool,
}

/// What happened when one request was served at one proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// The proxy involved.
    pub server: ServerId,
    /// Whether the request hit the local cache.
    pub hit: bool,
}

/// One proxy server: a content-distribution strategy plus its network
/// distance to the publisher.
#[derive(Debug)]
struct Proxy<O: Observer> {
    strategy: StrategyImpl<O>,
    cost: f64,
    traffic: Traffic,
    hits: u64,
    requests: u64,
}

/// The publisher↔proxies delivery engine.
///
/// Owns one [`Strategy`] per proxy and routes the two event kinds through
/// them, keeping per-proxy hit and traffic counters:
///
/// * [`publish`](DeliveryEngine::publish) — a page was published and the
///   matching engine reported which proxies have matching subscriptions;
/// * [`request`](DeliveryEngine::request) — a subscriber asks its proxy
///   for a page.
///
/// # Examples
///
/// ```
/// use pscd_broker::{DeliveryEngine, PushScheme};
/// use pscd_cache::PageUniverse;
/// use pscd_core::StrategyKind;
/// use pscd_obs::{ObsHandle, SharedObserver};
/// use pscd_types::{Bytes, PageId, PageKind, PageMeta, ServerId, SimTime};
///
/// // The empty universe: the strategy's tables grow on demand.
/// let sg2 = StrategyKind::Sg2 { beta: 2.0 };
/// let universe = PageUniverse::default();
/// let mut engine = DeliveryEngine::new(
///     vec![sg2.build(Bytes::from_kib(64), &universe, ObsHandle::disabled())],
///     vec![1.0],
///     PushScheme::Always,
///     SharedObserver::disabled(),
///     ServerId::new(0),
/// )?;
/// let page = PageMeta::new(PageId::new(0), Bytes::new(512), SimTime::ZERO, PageKind::Original);
/// let mut records = Vec::new();
/// engine.publish(&page, &[(ServerId::new(0), 4)], &mut records);
/// assert!(records[0].stored);
/// let rec = engine.request(ServerId::new(0), &page, 4)?;
/// assert!(rec.hit);
/// # Ok::<(), pscd_broker::BrokerError>(())
/// ```
#[derive(Debug)]
pub struct DeliveryEngine<O: Observer = NullObserver> {
    proxies: Vec<Proxy<O>>,
    scheme: PushScheme,
    obs: SharedObserver<O>,
    /// Reused eviction scratch handed to the strategies, so the hot path
    /// performs no per-event allocation once it has grown to the high-water
    /// mark (see [`reserve_pages`](Self::reserve_pages)).
    scratch: Vec<PageId>,
    /// Which proxies may hold each page: asleep until the first
    /// [`invalidate_everywhere`](Self::invalidate_everywhere), which marks
    /// every resident; from then on marked wherever a strategy reports an
    /// admission, and consumed by each invalidation.
    residency: Residency,
    /// Global id of the first proxy this engine owns. Non-zero only for
    /// shard-local engines, which own the contiguous server range
    /// `[first, first + proxies.len())` while keeping global
    /// [`ServerId`]s in every public API.
    first: u16,
}

impl<O: Observer> DeliveryEngine<O> {
    /// Creates an engine from per-proxy strategies (made by
    /// [`StrategyKind::build`](pscd_core::StrategyKind::build)) and fetch
    /// costs, reporting push outcomes to `obs`. Cache-level decisions
    /// (admissions, evictions) are reported by the strategies themselves,
    /// through the handle each was built with.
    ///
    /// The engine owns the contiguous server range starting at `first`:
    /// proxy `i` of `strategies` serves global server `first + i`. All
    /// public APIs speak global [`ServerId`]s, so a shard-local engine is
    /// a drop-in replacement for a full one (`first` 0) over its range.
    ///
    /// The strategies must be empty: the engine learns what a proxy holds
    /// from the outcomes it reports (the [`Strategy`] residency contract),
    /// and state saved earlier comes in through
    /// [`restore_strategy`](Self::restore_strategy).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::MismatchedCosts`] if `strategies` and `costs`
    /// differ in length, and [`BrokerError::NonEmptyStrategy`] for the
    /// first strategy that already holds pages.
    pub fn new(
        strategies: Vec<StrategyImpl<O>>,
        costs: Vec<f64>,
        scheme: PushScheme,
        obs: SharedObserver<O>,
        first: ServerId,
    ) -> Result<Self, BrokerError> {
        if strategies.len() != costs.len() {
            return Err(BrokerError::MismatchedCosts {
                strategies: strategies.len(),
                costs: costs.len(),
            });
        }
        if let Some(i) = strategies.iter().position(|s| !s.is_empty()) {
            return Err(BrokerError::NonEmptyStrategy {
                server: ServerId::new(first.index() + i as u16),
                resident: strategies[i].len(),
            });
        }
        Ok(Self {
            residency: Residency::new(strategies.len()),
            proxies: strategies
                .into_iter()
                .zip(costs)
                .map(|(strategy, cost)| Proxy {
                    strategy,
                    cost,
                    traffic: Traffic::ZERO,
                    hits: 0,
                    requests: 0,
                })
                .collect(),
            scheme,
            obs,
            first: first.index(),
            scratch: Vec::new(),
        })
    }

    /// Sizes the engine's per-page state for the page ordinals
    /// `0..page_count`: the eviction scratch (a single event can evict at
    /// most the resident page count, so the universe is a safe bound) and
    /// the residency index (`page_count × ⌈proxies / 64⌉` words, reserved
    /// as address space and written only when the first
    /// [`invalidate_everywhere`](Self::invalidate_everywhere) wakes it).
    /// Call once before entering an allocation-free replay loop; without
    /// it both grow on demand.
    pub fn reserve_pages(&mut self, page_count: usize) {
        if self.scratch.capacity() < page_count {
            self.scratch.reserve(page_count - self.scratch.capacity());
        }
        self.residency.reserve(page_count);
    }

    /// Translates a global server id into this engine's proxy slot, or
    /// `None` if the server lies outside the owned range.
    #[inline]
    fn slot(&self, server: ServerId) -> Option<usize> {
        server
            .as_usize()
            .checked_sub(self.first as usize)
            .filter(|&i| i < self.proxies.len())
    }

    /// Number of proxies.
    pub fn server_count(&self) -> u16 {
        self.proxies.len() as u16
    }

    /// The configured pushing scheme.
    pub fn scheme(&self) -> PushScheme {
        self.scheme
    }

    /// Delivers a freshly published page to every matched proxy according
    /// to the pushing scheme. `matched` lists `(server, subscription
    /// count)` pairs from the matching engine; proxies without a push-time
    /// module are skipped entirely (no traffic, no placement). One record
    /// per offered proxy is written into `out`, which is cleared on entry
    /// and reused by the caller, so the replay loop stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a matched server is out of range.
    pub fn publish(
        &mut self,
        page: &PageMeta,
        matched: &[(ServerId, u32)],
        out: &mut Vec<PushRecord>,
    ) {
        out.clear();
        let first = self.first as usize;
        let scheme = self.scheme;
        let Self {
            proxies,
            obs,
            scratch,
            residency,
            ..
        } = self;
        // Stored bits of one residency word, ORed into the page's row once:
        // matched servers ascend, so a word is complete when the next begins
        // (in any other order a word is merely flushed more than once).
        let (mut word, mut stored_bits) = (0, 0u64);
        for &(server, subs) in matched {
            let slot = server
                .as_usize()
                .checked_sub(first)
                .filter(|&i| i < proxies.len())
                .expect("matched server out of range");
            let proxy = &mut proxies[slot];
            if !proxy.strategy.uses_push() {
                continue;
            }
            let page_ref = PageRef::new(page.id(), page.size(), proxy.cost);
            let stored = proxy.strategy.on_push(&page_ref, subs, scratch).is_stored();
            count!(Counter::PushOffers, 1);
            count!(Counter::Admissions, u64::from(stored));
            count!(Counter::Evictions, scratch.len());
            // Under PWN the push is the meta-information check itself: a
            // declined push changes nothing (`Strategy::would_store`'s
            // contract), and only a stored page's content crosses.
            let transferred = stored || scheme == PushScheme::Always;
            if transferred {
                proxy.traffic.record_push(page.size());
            }
            if stored {
                if slot / 64 != word {
                    residency.mark_word(page.id(), word, stored_bits);
                    (word, stored_bits) = (slot / 64, 0);
                }
                stored_bits |= 1 << (slot % 64);
            }
            if O::ENABLED {
                obs.push(server, page.id(), page.size(), transferred, stored);
            }
            out.push(PushRecord {
                server,
                transferred,
                stored,
            });
        }
        residency.mark_word(page.id(), word, stored_bits);
    }

    /// Serves a subscriber request for `page` at `server`, passing the
    /// page's subscription count at this proxy (`subs`, needed by the
    /// combined strategies' value functions; 0 where it is unknown). A
    /// miss fetches the page from the publisher (counted in the proxy's
    /// traffic) whether or not the strategy then caches it.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownServer`] if `server` is out of range.
    pub fn request(
        &mut self,
        server: ServerId,
        page: &PageMeta,
        subs: u32,
    ) -> Result<RequestRecord, BrokerError> {
        let count = self.proxies.len() as u16;
        let slot = self.slot(server).ok_or(BrokerError::UnknownServer {
            server,
            server_count: count,
        })?;
        let Self {
            proxies,
            scratch,
            residency,
            ..
        } = self;
        let proxy = &mut proxies[slot];
        let page_ref = PageRef::new(page.id(), page.size(), proxy.cost);
        let outcome = proxy.strategy.on_access(&page_ref, subs, scratch);
        count!(Counter::Evictions, scratch.len());
        if outcome == AccessOutcome::MissAdmitted {
            count!(Counter::Admissions, 1);
            residency.mark(page.id(), slot);
        }
        proxy.requests += 1;
        let hit = outcome.is_hit();
        if hit {
            proxy.hits += 1;
        } else {
            proxy.traffic.record_fetch(page.size());
        }
        Ok(RequestRecord { server, hit })
    }

    /// Per-proxy traffic counters.
    pub fn traffic(&self, server: ServerId) -> Traffic {
        self.proxies[self.slot(server).expect("server out of range")].traffic
    }

    /// Aggregate traffic across all proxies.
    pub fn total_traffic(&self) -> Traffic {
        self.proxies
            .iter()
            .fold(Traffic::ZERO, |acc, p| acc.merged(p.traffic))
    }

    /// Hits and requests at one proxy.
    pub fn hit_stats(&self, server: ServerId) -> (u64, u64) {
        let p = &self.proxies[self.slot(server).expect("server out of range")];
        (p.hits, p.requests)
    }

    /// Global hit ratio `H` over all proxies (eq. 8). Zero when no
    /// requests have been served.
    pub fn global_hit_ratio(&self) -> f64 {
        let (hits, requests) = self
            .proxies
            .iter()
            .fold((0u64, 0u64), |(h, r), p| (h + p.hits, r + p.requests));
        if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        }
    }

    /// Bytes currently cached at one proxy.
    pub fn cache_used(&self, server: ServerId) -> Bytes {
        self.proxies[self.slot(server).expect("server out of range")]
            .strategy
            .used()
    }

    /// Read access to a proxy's strategy, snapshot encoding included
    /// ([`StrategyImpl::encode_snapshot`](pscd_core::StrategyImpl::encode_snapshot)).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn strategy(&self, server: ServerId) -> &StrategyImpl<O> {
        &self.proxies[self.slot(server).expect("server out of range")].strategy
    }

    /// Restores a proxy's strategy in place from bytes written by
    /// [`StrategyImpl::encode_snapshot`](pscd_core::StrategyImpl::encode_snapshot),
    /// then, once the residency index is awake, marks every restored page
    /// in it — a restore is the one way pages enter a strategy without
    /// the engine seeing an admission.
    ///
    /// # Errors
    ///
    /// Whatever
    /// [`StrategyImpl::decode_snapshot`](pscd_core::StrategyImpl::decode_snapshot)
    /// returns; the proxy's strategy is then unspecified and the engine
    /// should be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn restore_strategy(
        &mut self,
        server: ServerId,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        let slot = self.slot(server).expect("server out of range");
        let Self {
            proxies, residency, ..
        } = self;
        let strategy = &mut proxies[slot].strategy;
        strategy.decode_snapshot(r)?;
        if residency.is_awake() {
            strategy.for_each_resident(|page| residency.mark(page, slot));
        }
        Ok(())
    }

    /// Overwrites a proxy's accounting counters (hits, requests, traffic)
    /// with values restored from a snapshot. The strategy state itself is
    /// restored separately via
    /// [`restore_strategy`](Self::restore_strategy).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn restore_accounting(
        &mut self,
        server: ServerId,
        hits: u64,
        requests: u64,
        traffic: Traffic,
    ) {
        let slot = self.slot(server).expect("server out of range");
        let proxy = &mut self.proxies[slot];
        proxy.hits = hits;
        proxy.requests = requests;
        proxy.traffic = traffic;
    }

    /// Drops a stale page from every proxy cache (e.g. a newer version of
    /// the same article was just published). Returns the number of proxies
    /// that actually held it.
    ///
    /// Only the proxies the residency index marks for `page` are asked, in
    /// ascending server order, so the cost follows the copies that may
    /// exist rather than the size of the fleet; each still answers through
    /// [`Strategy::invalidate`], which checks exactly and reports the
    /// observer event. The page's marks are cleared: nobody holds it
    /// afterwards. The first call wakes the index: it writes the rows
    /// [`reserve_pages`](Self::reserve_pages) made room for and marks
    /// every page every proxy holds.
    pub fn invalidate_everywhere(&mut self, page: PageId) -> usize {
        let Self {
            proxies, residency, ..
        } = self;
        if !residency.is_awake() {
            wake(residency, proxies);
        }
        let mut dropped = 0;
        residency.take(page, |slot| {
            dropped += usize::from(proxies[slot].strategy.invalidate(page));
        });
        dropped
    }

    /// Replaces a proxy's strategy with a fresh (empty) instance, modeling
    /// a proxy crash/restart: all cached content and algorithm state is
    /// lost, while the hit/traffic counters (which describe the past)
    /// are kept. The residency index keeps the old strategy's marks; over
    /// an empty cache they are still a superset.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownServer`] if `server` is out of range
    /// and [`BrokerError::NonEmptyStrategy`] if `strategy` already holds
    /// pages (the engine would never ask it to drop them); the proxy keeps
    /// its old strategy then.
    pub fn replace_strategy(
        &mut self,
        server: ServerId,
        strategy: StrategyImpl<O>,
    ) -> Result<(), BrokerError> {
        let count = self.proxies.len() as u16;
        let slot = self.slot(server).ok_or(BrokerError::UnknownServer {
            server,
            server_count: count,
        })?;
        if !strategy.is_empty() {
            return Err(BrokerError::NonEmptyStrategy {
                server,
                resident: strategy.len(),
            });
        }
        self.proxies[slot].strategy = strategy;
        Ok(())
    }

    /// Moves the engine onto the contiguous server range `range`: the
    /// proxies it owns outside `range` are dropped with their counters,
    /// the ones it owns inside keep theirs, and each server of `range` it
    /// did not own gets `fresh(server)` — an empty strategy and its fetch
    /// cost — with zeroed counters, ready for
    /// [`restore_strategy`](Self::restore_strategy) and
    /// [`restore_accounting`](Self::restore_accounting). The residency
    /// index is rebuilt asleep over the new slots, with the room it had;
    /// the next [`invalidate_everywhere`](Self::invalidate_everywhere)
    /// wakes it as the first one did.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::NonEmptyStrategy`] for the first fresh
    /// strategy that already holds pages; the engine is then unspecified
    /// and should be discarded.
    pub fn reassign(
        &mut self,
        range: std::ops::Range<u16>,
        mut fresh: impl FnMut(ServerId) -> (StrategyImpl<O>, f64),
    ) -> Result<(), BrokerError> {
        let owned = self.first..self.first + self.proxies.len() as u16;
        let kept = range.start.max(owned.start)..range.end.min(owned.end);
        let mut kept_proxies = std::mem::take(&mut self.proxies);
        let (head, tail) = match kept.is_empty() {
            true => {
                kept_proxies.clear();
                (range.clone(), range.end..range.end)
            }
            false => {
                kept_proxies.truncate(usize::from(kept.end - owned.start));
                kept_proxies.drain(..usize::from(kept.start - owned.start));
                (range.start..kept.start, kept.end..range.end)
            }
        };
        let mut proxy = |s: u16| {
            let server = ServerId::new(s);
            let (strategy, cost) = fresh(server);
            if !strategy.is_empty() {
                return Err(BrokerError::NonEmptyStrategy {
                    server,
                    resident: strategy.len(),
                });
            }
            Ok(Proxy {
                strategy,
                cost,
                traffic: Traffic::ZERO,
                hits: 0,
                requests: 0,
            })
        };
        let mut proxies = Vec::with_capacity(range.len());
        for s in head {
            proxies.push(proxy(s)?);
        }
        proxies.append(&mut kept_proxies);
        for s in tail {
            proxies.push(proxy(s)?);
        }
        self.proxies = proxies;
        self.first = range.start;
        self.residency.reslot(self.proxies.len());
        Ok(())
    }
}

/// Wakes a sleeping residency index over the fleet it indexes.
#[cold]
#[inline(never)]
fn wake<O: Observer>(residency: &mut Residency, proxies: &[Proxy<O>]) {
    residency.wake();
    for (slot, proxy) in proxies.iter().enumerate() {
        proxy
            .strategy
            .for_each_resident(|page| residency.mark(page, slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_cache::PageUniverse;
    use pscd_core::StrategyKind;
    use pscd_obs::ObsHandle;
    use pscd_types::{PageId, PageKind, SimTime};

    fn page(i: u32, size: u64) -> PageMeta {
        PageMeta::new(
            PageId::new(i),
            Bytes::new(size),
            SimTime::ZERO,
            PageKind::Original,
        )
    }

    fn build(kind: StrategyKind, capacity: u64) -> StrategyImpl {
        kind.build(
            Bytes::new(capacity),
            &PageUniverse::default(),
            ObsHandle::disabled(),
        )
    }

    /// A two-proxy engine owning global servers `first` and `first + 1`.
    fn engine_from(kind: StrategyKind, scheme: PushScheme, first: u16) -> DeliveryEngine {
        DeliveryEngine::new(
            vec![build(kind, 1_000), build(kind, 1_000)],
            vec![1.0, 2.0],
            scheme,
            SharedObserver::disabled(),
            ServerId::new(first),
        )
        .unwrap()
    }

    fn engine(kind: StrategyKind, scheme: PushScheme) -> DeliveryEngine {
        engine_from(kind, scheme, 0)
    }

    fn publish<O: Observer>(
        e: &mut DeliveryEngine<O>,
        page: &PageMeta,
        matched: &[(ServerId, u32)],
    ) -> Vec<PushRecord> {
        // A leftover record, which `publish` must clear.
        let mut records = vec![PushRecord {
            server: ServerId::new(99),
            transferred: true,
            stored: true,
        }];
        e.publish(page, matched, &mut records);
        records
    }

    /// A proxy the engine keeps across a re-range keeps its cache and
    /// counters; one it gains starts fresh at its own cost; an awake
    /// residency index sleeps again and wakes over the new slots.
    #[test]
    fn reassign_keeps_the_overlap_and_adds_fresh_proxies() {
        let kind = StrategyKind::Sub;
        let mut e = engine_from(kind, PushScheme::Always, 1);
        let (p, q) = (page(7, 100), page(8, 100));
        publish(&mut e, &p, &[(ServerId::new(1), 1), (ServerId::new(2), 1)]);
        assert!(e.request(ServerId::new(2), &p, 1).unwrap().hit);
        assert_eq!(e.invalidate_everywhere(PageId::new(9)), 0, "awake");
        let kept = (e.hit_stats(ServerId::new(2)), e.traffic(ServerId::new(2)));

        let mut asked = Vec::new();
        e.reassign(2..5, |server| {
            asked.push(server.index());
            (build(kind, 1_000), 3.0)
        })
        .unwrap();
        assert_eq!(asked, [3, 4]);
        assert_eq!(e.server_count(), 3);
        assert!(e.slot(ServerId::new(1)).is_none());
        assert_eq!(
            (e.hit_stats(ServerId::new(2)), e.traffic(ServerId::new(2))),
            kept
        );
        assert_eq!(e.hit_stats(ServerId::new(4)), (0, 0));
        assert!(!e.residency.is_awake());
        publish(&mut e, &q, &[(ServerId::new(4), 1)]);
        assert_eq!(e.proxies[2].cost, 3.0);
        assert_eq!(e.invalidate_everywhere(p.id()), 1, "proxy 2's copy");
        assert_eq!(e.invalidate_everywhere(q.id()), 1, "proxy 4's copy");

        // Disjoint: every proxy is fresh, ahead of the old range too.
        e.reassign(0..2, |_| (build(kind, 1_000), 1.0)).unwrap();
        assert_eq!(
            (e.server_count(), e.hit_stats(ServerId::new(0))),
            (2, (0, 0))
        );
        let full = |_| {
            let mut s = build(kind, 1_000);
            s.on_push(&PageRef::new(p.id(), p.size(), 1.0), 1, &mut Vec::new());
            (s, 1.0)
        };
        let err = e.reassign(0..3, full).unwrap_err();
        assert!(matches!(err, BrokerError::NonEmptyStrategy { .. }));
    }

    #[test]
    fn mismatched_costs_rejected() {
        let err = DeliveryEngine::new(
            vec![build(StrategyKind::Sub, 10)],
            vec![1.0, 2.0],
            PushScheme::Always,
            SharedObserver::disabled(),
            ServerId::new(0),
        )
        .unwrap_err();
        assert!(matches!(err, BrokerError::MismatchedCosts { .. }));
    }

    /// Regression: a strategy that already held pages was accepted (the
    /// check was a debug assertion), and since the residency index never
    /// saw those pages arrive, `invalidate_everywhere` left them cached.
    #[test]
    fn populated_strategies_are_refused() {
        let kind = StrategyKind::Sg2 { beta: 2.0 };
        let p = page(1, 100);
        let populated = || {
            let mut s = build(kind, 1_000);
            let at = PageRef::new(p.id(), p.size(), 1.0);
            assert!(s.on_push(&at, 3, &mut Vec::new()).is_stored());
            s
        };
        let err = DeliveryEngine::new(
            vec![build(kind, 1_000), populated()],
            vec![1.0, 2.0],
            PushScheme::Always,
            SharedObserver::disabled(),
            ServerId::new(3),
        )
        .unwrap_err();
        assert_eq!(
            err,
            BrokerError::NonEmptyStrategy {
                server: ServerId::new(4),
                resident: 1,
            }
        );

        let mut e = engine(kind, PushScheme::Always);
        let err = e
            .replace_strategy(ServerId::new(1), populated())
            .unwrap_err();
        assert_eq!(
            err,
            BrokerError::NonEmptyStrategy {
                server: ServerId::new(1),
                resident: 1,
            }
        );
        // The refused strategy never took the proxy's place, so no stale
        // copy survives an invalidation.
        assert_eq!(e.strategy(ServerId::new(1)).len(), 0);
        assert_eq!(e.invalidate_everywhere(p.id()), 0);
        assert!(!e.request(ServerId::new(1), &p, 3).unwrap().hit);
    }

    #[test]
    fn always_pushing_counts_transfer_even_when_declined() {
        let mut e = engine(StrategyKind::Sub, PushScheme::Always);
        // Fill proxy 0 with a high-value page, then push a worthless one.
        publish(&mut e, &page(1, 1_000), &[(ServerId::new(0), 100)]);
        let recs = publish(&mut e, &page(2, 1_000), &[(ServerId::new(0), 1)]);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].transferred);
        assert!(!recs[0].stored);
        assert_eq!(e.traffic(ServerId::new(0)).pushed_pages, 2);
    }

    #[test]
    fn when_necessary_skips_declined_transfers() {
        let mut e = engine(StrategyKind::Sub, PushScheme::WhenNecessary);
        publish(&mut e, &page(1, 1_000), &[(ServerId::new(0), 100)]);
        let recs = publish(&mut e, &page(2, 1_000), &[(ServerId::new(0), 1)]);
        assert!(!recs[0].transferred);
        assert!(!recs[0].stored);
        assert_eq!(e.traffic(ServerId::new(0)).pushed_pages, 1);
        assert_eq!(e.scheme(), PushScheme::WhenNecessary);
    }

    #[test]
    fn access_only_strategies_receive_no_pushes() {
        let mut e = engine(StrategyKind::GdStar { beta: 2.0 }, PushScheme::Always);
        let recs = publish(&mut e, &page(1, 100), &[(ServerId::new(0), 50)]);
        assert!(recs.is_empty());
        assert_eq!(e.total_traffic().pushed_pages, 0);
    }

    #[test]
    fn hits_and_misses_tracked_per_proxy() {
        let mut e = engine(StrategyKind::GdStar { beta: 2.0 }, PushScheme::Always);
        let p = page(1, 100);
        let r = e.request(ServerId::new(0), &p, 0).unwrap();
        assert!(!r.hit);
        let r = e.request(ServerId::new(0), &p, 0).unwrap();
        assert!(r.hit);
        assert_eq!(e.hit_stats(ServerId::new(0)), (1, 2));
        assert_eq!(e.hit_stats(ServerId::new(1)), (0, 0));
        assert_eq!(e.traffic(ServerId::new(0)).fetched_pages, 1);
        assert!((e.global_hit_ratio() - 0.5).abs() < 1e-12);
        assert!(e.cache_used(ServerId::new(0)) >= Bytes::new(100));
        assert_eq!(e.strategy(ServerId::new(0)).name(), "GD*");
    }

    #[test]
    fn unknown_server_errors() {
        let mut e = engine(StrategyKind::Sub, PushScheme::Always);
        assert!(matches!(
            e.request(ServerId::new(9), &page(1, 10), 0),
            Err(BrokerError::UnknownServer { .. })
        ));
    }

    #[test]
    fn push_then_request_hits_without_fetch() {
        let mut e = engine(StrategyKind::Sg2 { beta: 2.0 }, PushScheme::Always);
        let p = page(1, 100);
        publish(&mut e, &p, &[(ServerId::new(0), 5), (ServerId::new(1), 2)]);
        let r = e.request(ServerId::new(0), &p, 5).unwrap();
        assert!(r.hit);
        assert_eq!(e.traffic(ServerId::new(0)).fetched_pages, 0);
        assert_eq!(e.total_traffic().pushed_pages, 2);
        assert_eq!(e.server_count(), 2);
        assert_eq!(e.global_hit_ratio(), 1.0);
    }

    #[test]
    fn invalidate_everywhere_drops_stale_copies() {
        let mut e = engine(StrategyKind::Sg2 { beta: 2.0 }, PushScheme::Always);
        let p = page(1, 100);
        publish(&mut e, &p, &[(ServerId::new(0), 3), (ServerId::new(1), 2)]);
        assert_eq!(e.invalidate_everywhere(p.id()), 2);
        assert_eq!(e.invalidate_everywhere(p.id()), 0);
        // The stale page now misses.
        assert!(!e.request(ServerId::new(0), &p, 3).unwrap().hit);
    }

    #[test]
    fn replace_strategy_models_a_crash() {
        let gd = StrategyKind::GdStar { beta: 2.0 };
        let mut e = engine(gd, PushScheme::Always);
        let p = page(1, 100);
        e.request(ServerId::new(0), &p, 0).unwrap(); // miss, cached
        assert!(e.request(ServerId::new(0), &p, 0).unwrap().hit);
        // Crash: fresh strategy, empty cache; counters survive.
        e.replace_strategy(ServerId::new(0), build(gd, 1_000))
            .unwrap();
        assert_eq!(e.cache_used(ServerId::new(0)), Bytes::ZERO);
        assert_eq!(e.hit_stats(ServerId::new(0)), (1, 2));
        assert!(!e.request(ServerId::new(0), &p, 0).unwrap().hit);
        assert!(e
            .replace_strategy(ServerId::new(9), build(StrategyKind::Sub, 1))
            .is_err());
    }

    #[test]
    fn offset_engine_speaks_global_server_ids() {
        let kind = StrategyKind::Sg2 { beta: 2.0 };
        // A shard-local engine owning global servers 3 and 4.
        let mut e = engine_from(kind, PushScheme::Always, 3);
        let p = page(1, 100);
        let recs = publish(&mut e, &p, &[(ServerId::new(3), 5), (ServerId::new(4), 2)]);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].server, ServerId::new(3));
        let r = e.request(ServerId::new(4), &p, 2).unwrap();
        assert!(r.hit);
        assert_eq!(e.hit_stats(ServerId::new(4)), (1, 1));
        assert_eq!(e.traffic(ServerId::new(3)).pushed_pages, 1);
        assert!(e.cache_used(ServerId::new(3)) >= Bytes::new(100));
        assert_eq!(e.strategy(ServerId::new(4)).name(), "SG2");
        // Servers below or above the owned range are unknown.
        assert!(matches!(
            e.request(ServerId::new(2), &p, 0),
            Err(BrokerError::UnknownServer { .. })
        ));
        assert!(matches!(
            e.request(ServerId::new(5), &p, 0),
            Err(BrokerError::UnknownServer { .. })
        ));
        e.replace_strategy(ServerId::new(4), build(kind, 1_000))
            .unwrap();
        assert_eq!(e.cache_used(ServerId::new(4)), Bytes::ZERO);
        assert!(e
            .replace_strategy(ServerId::new(0), build(kind, 1))
            .is_err());
    }

    #[test]
    fn empty_engine_hit_ratio_is_zero() {
        let e = engine(StrategyKind::Sub, PushScheme::Always);
        assert_eq!(e.global_hit_ratio(), 0.0);
    }

    #[test]
    fn observed_engine_reports_push_outcomes() {
        use pscd_obs::{StatsObserver, K_PUSH_TRANSFERS};

        let shared = SharedObserver::new(StatsObserver::new());
        let kind = StrategyKind::Sub;
        let mut e = DeliveryEngine::new(
            vec![
                kind.build(
                    Bytes::new(1_000),
                    &PageUniverse::default(),
                    shared.handle(ServerId::new(0)),
                ),
                kind.build(
                    Bytes::new(1_000),
                    &PageUniverse::default(),
                    shared.handle(ServerId::new(1)),
                ),
            ],
            vec![1.0, 2.0],
            PushScheme::Always,
            shared.clone(),
            ServerId::new(0),
        )
        .unwrap();
        publish(&mut e, &page(1, 1_000), &[(ServerId::new(0), 100)]);
        // Full proxy 0 declines this one; proxy 1 stores it.
        publish(
            &mut e,
            &page(2, 1_000),
            &[(ServerId::new(0), 1), (ServerId::new(1), 1)],
        );
        drop(e);
        let stats = shared.try_unwrap().unwrap();
        let reg = stats.registry();
        assert_eq!(reg.counter("push.offers"), 3);
        assert_eq!(reg.counter(K_PUSH_TRANSFERS), 3); // Always-Pushing transfers all
        assert_eq!(reg.counter("push.stored"), 2);
        assert_eq!(reg.counter("admit.push"), 2);
        assert_eq!(reg.bytes("bytes.pushed"), 3_000);
    }
}
