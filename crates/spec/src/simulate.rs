//! The spec simulator: the paper's replay (§4, figure 2) as one plain
//! loop over plain vectors, driving the [`spec_strategy`] models.
//!
//! It is written from the paper, not from `pscd-sim`: it calls no
//! delivery engine, residency index, compiled trace or subscription
//! table, and keeps no ordinals and no scratch between runs. It shares
//! only plain data types and the [`Traffic`] / [`HourlySeries`]
//! accumulators with the code it checks. Its three decisions where the
//! paper is silent:
//!
//! - at equal timestamps every publish precedes every request (a
//!   notification precedes the requests it triggers);
//! - a crash fires before the first event at or after its instant and
//!   consumes none; its victims get fresh caches and keep their hit and
//!   traffic counters;
//! - invalidation is a sweep: when a modified version is published, every
//!   proxy is asked to drop the version it supersedes.

use pscd_broker::{PushScheme, Traffic};
use pscd_cache::PageRef;
use pscd_core::Strategy;
use pscd_sim::{HourlySeries, SimOptions, SimResult};
use pscd_topology::FetchCosts;
use pscd_types::{
    Bytes, PageId, PageMeta, PublishEvent, RequestEvent, ServerId, SubscriptionTable,
};
use pscd_workload::Workload;

use crate::{spec_strategy, ties};

/// One workload as plain vectors: everything the spec loop reads.
#[derive(Debug, Clone)]
pub struct SpecInput {
    /// Page metadata, indexed by page id.
    pub pages: Vec<PageMeta>,
    /// The publishing stream, in time order.
    pub publishes: Vec<PublishEvent>,
    /// The request trace, in time order.
    pub requests: Vec<RequestEvent>,
    /// `(page, proxy, count)`: `count` subscriptions at `proxy` match
    /// `page` (`f_S(p)` of eq. 2, `s` of eq. 3–5). Scanned linearly.
    pub subscriptions: Vec<(PageId, ServerId, u32)>,
    /// Each proxy's fetch cost `c`.
    pub costs: Vec<f64>,
    /// Each proxy's capacity basis (§5.1): the bytes of the distinct
    /// pages it is asked for over the whole trace.
    pub asked_bytes: Vec<Bytes>,
    /// The capacity of a proxy whose share of its basis rounds to nothing.
    pub min_capacity: Bytes,
    /// Hour buckets of the hourly series.
    pub hours: usize,
}

impl SpecInput {
    /// Copies a workload, its subscription table and its fetch costs out
    /// into plain vectors.
    pub fn from_workload(w: &Workload, subs: &SubscriptionTable, costs: &FetchCosts) -> Self {
        let costs: Vec<f64> = costs.iter().collect();
        let mut asked = vec![Vec::new(); costs.len()];
        for ev in w.requests().events() {
            let pages: &mut Vec<PageId> = &mut asked[ev.server.as_usize()];
            if !pages.contains(&ev.page) {
                pages.push(ev.page);
            }
        }
        let bytes =
            |pages: &Vec<PageId>| pages.iter().map(|p| w.pages()[p.as_usize()].size()).sum();
        Self {
            pages: w.pages().to_vec(),
            publishes: w.publishing().events().to_vec(),
            requests: w.requests().events().to_vec(),
            subscriptions: subs.iter().collect(),
            asked_bytes: asked.iter().map(bytes).collect(),
            costs,
            min_capacity: w.min_cache_capacity(),
            hours: (w.horizon().as_hours_f64().ceil() as usize).max(1),
        }
    }

    /// The subscriptions at `proxy` matching `page`.
    pub fn count(&self, page: PageId, proxy: ServerId) -> u32 {
        let rows = self.subscriptions.iter();
        let matching = rows.filter(|&&(p, s, _)| p == page && s == proxy);
        matching.map(|&(.., count)| count).sum()
    }

    /// Each proxy's capacity: `fraction` of its
    /// [`asked_bytes`](Self::asked_bytes), or
    /// [`min_capacity`](Self::min_capacity) if that rounds to nothing.
    pub fn capacities(&self, fraction: f64) -> Vec<Bytes> {
        let capacity = |bytes: &Bytes| match bytes.scaled(fraction) {
            share if share.is_zero() => self.min_capacity,
            share => share,
        };
        self.asked_bytes.iter().map(capacity).collect()
    }
}

/// A spec run: the result, and counts that say which parts of the loop
/// the run exercised.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRun {
    /// What `simulate_compiled` must return for the same run.
    pub result: SimResult,
    /// Offers a proxy declined to have transferred (`WhenNecessary`).
    pub declined: u64,
    /// Stale copies the invalidation sweeps dropped.
    pub dropped: u64,
    /// Proxies the crash restarted (0 if it never fired).
    pub victims: u64,
    /// Evictions whose victim shared its value with another resident, so
    /// that the age rule chose it.
    pub ties: u64,
}

/// One proxy: its cache, its distance to the publisher, its counters.
struct Proxy {
    cache: Box<dyn Strategy>,
    capacity: Bytes,
    cost: f64,
    /// `(hits, requests)`.
    served: (u64, u64),
    traffic: Traffic,
}

/// The spec loop: its answer for one run, with the counts of what it
/// exercised.
///
/// [`SimOptions::threads`] is ignored: the spec runs one loop.
pub fn spec_replay(input: &SpecInput, options: &SimOptions) -> SpecRun {
    let ties_before = ties();
    let kind = options.strategy;
    let fresh = |capacity| spec_strategy(kind, capacity);
    let capacities = input.capacities(options.capacity_fraction);
    let mut proxies: Vec<Proxy> = capacities
        .iter()
        .zip(&input.costs)
        .map(|(&capacity, &cost)| Proxy {
            cache: fresh(capacity),
            capacity,
            cost,
            served: (0, 0),
            traffic: Traffic::ZERO,
        })
        .collect();
    let mut hourly = HourlySeries::new(input.hours);
    let (mut declined, mut dropped, mut victims) = (0, 0, 0);
    // Each original's newest version so far: `(origin, newest)`.
    let mut newest: Vec<(PageId, PageId)> = Vec::new();
    let mut crash = options.crash;
    let mut evicted = Vec::new();
    let (mut next_publish, mut next_request) = (0, 0);
    loop {
        let publish = input.publishes.get(next_publish);
        let request = input.requests.get(next_request);
        let (time, is_publish) = match (publish, request) {
            (Some(p), Some(r)) => (p.time.min(r.time), p.time <= r.time),
            (Some(p), None) => (p.time, true),
            (None, Some(r)) => (r.time, false),
            (None, None) => break,
        };
        if let Some(plan) = crash.filter(|plan| time >= plan.time) {
            crash = None;
            for victim in plan.victims(proxies.len() as u16) {
                let proxy = &mut proxies[victim.as_usize()];
                proxy.cache = fresh(proxy.capacity);
                victims += 1;
            }
        }
        if is_publish {
            let ev = input.publishes[next_publish];
            next_publish += 1;
            let page = input.pages[ev.page.as_usize()];
            let origin = page.kind().origin().unwrap_or(ev.page);
            let stale = match newest.iter_mut().find(|(o, _)| *o == origin) {
                Some((_, version)) => Some(std::mem::replace(version, ev.page)),
                None => {
                    newest.push((origin, ev.page));
                    None
                }
            };
            if let Some(stale) = stale.filter(|_| options.invalidate_stale) {
                for proxy in &mut proxies {
                    dropped += u64::from(proxy.cache.invalidate(stale));
                }
            }
            for (server, proxy) in proxies.iter_mut().enumerate() {
                let subs = input.count(ev.page, ServerId::new(server as u16));
                if subs == 0 || !proxy.cache.uses_push() {
                    continue;
                }
                let offer = PageRef::new(ev.page, page.size(), proxy.cost);
                // §5.6: Always Pushing transfers every offer and lets the
                // proxy decide; Pushing When Necessary transfers only
                // what the proxy says it will store.
                let transfer = match options.scheme {
                    PushScheme::Always => true,
                    PushScheme::WhenNecessary => proxy.cache.would_store(&offer, subs),
                };
                if !transfer {
                    declined += 1;
                    continue;
                }
                proxy.cache.on_push(&offer, subs, &mut evicted);
                proxy.traffic.record_push(page.size());
                hourly.record_push(ev.time, page.size());
            }
        } else {
            let ev = input.requests[next_request];
            next_request += 1;
            let size = input.pages[ev.page.as_usize()].size();
            let subs = input.count(ev.page, ev.server);
            let proxy = &mut proxies[ev.server.as_usize()];
            let asked = PageRef::new(ev.page, size, proxy.cost);
            let hit = proxy.cache.on_access(&asked, subs, &mut evicted).is_hit();
            proxy.served.0 += u64::from(hit);
            proxy.served.1 += 1;
            if !hit {
                proxy.traffic.record_fetch(size);
            }
            hourly.record_request(ev.time, hit, size);
        }
    }
    let per_server: Vec<(u64, u64)> = proxies.iter().map(|p| p.served).collect();
    let traffic = proxies.iter().map(|p| p.traffic);
    SpecRun {
        result: SimResult {
            strategy: kind.name().to_owned(),
            hits: per_server.iter().map(|&(h, _)| h).sum(),
            requests: per_server.iter().map(|&(_, r)| r).sum(),
            traffic: traffic.fold(Traffic::ZERO, Traffic::merged),
            hourly,
            per_server,
        },
        declined,
        dropped,
        victims,
        ties: ties() - ties_before,
    }
}
