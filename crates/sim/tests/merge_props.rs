//! Merge-algebra properties: shard-local `SimResult`/`HourlySeries`/
//! stats-registry values form a commutative monoid under `absorb` —
//! associative, commutative, identity-preserving — so a sharded run's
//! totals are independent of both the shard count and the join order.

use proptest::collection::vec;
use proptest::prelude::*;

use pscd_broker::Traffic;
use pscd_obs::{AdmitOrigin, MergeableObserver, Observer, StatsObserver};
use pscd_sim::{HourlySeries, SimResult};
use pscd_types::{Bytes, PageId, ServerId, SimTime};

const HOURS: usize = 4;
const SERVERS: usize = 3;

/// A strategy for shard-shaped `SimResult`s: fixed hour/server geometry
/// (as real shards of one run have), arbitrary integer counters.
fn arb_result() -> impl Strategy<Value = SimResult> {
    vec(0u64..1_000, 6 * HOURS..(6 * HOURS + 1)).prop_map(|vals| {
        let chunk = |k: usize| vals[k * HOURS..(k + 1) * HOURS].to_vec();
        let hourly = HourlySeries {
            hits: chunk(0),
            requests: chunk(1),
            pushed_pages: chunk(2),
            pushed_bytes: chunk(3),
            fetched_pages: chunk(4),
            fetched_bytes: chunk(5),
        };
        let per_server: Vec<(u64, u64)> = (0..SERVERS)
            .map(|s| (vals[s], vals[s] + vals[SERVERS + s]))
            .collect();
        SimResult {
            strategy: "SG2".into(),
            hits: per_server.iter().map(|&(h, _)| h).sum(),
            requests: per_server.iter().map(|&(_, r)| r).sum(),
            traffic: Traffic {
                pushed_pages: vals[0],
                pushed_bytes: Bytes::new(vals[1]),
                fetched_pages: vals[2],
                fetched_bytes: Bytes::new(vals[3]),
            },
            hourly,
            per_server,
        }
    })
}

/// A strategy for shard-local stats observers, driven through the real
/// `Observer` hooks so every counter family (counters, bytes, histograms)
/// is exercised.
fn arb_stats() -> impl Strategy<Value = StatsObserver> {
    vec(0u64..64, 1..24).prop_map(|events| {
        let mut obs = StatsObserver::new();
        for (i, &e) in events.iter().enumerate() {
            let t = SimTime::from_secs(i as u64);
            let page = PageId::new((e % 7) as u32);
            let server = ServerId::new((e % SERVERS as u64) as u16);
            let size = Bytes::new(e * 100 + 1);
            match e % 4 {
                0 => obs.on_request(t, server, page, size, e % 2 == 0),
                1 => obs.on_push(server, page, size, e % 2 == 0, e % 3 == 0),
                2 => obs.on_publish(t, page, size, (e % 5) as usize, (e % 3) as usize),
                _ => obs.on_admit(server, page, size, e as f64 / 8.0, AdmitOrigin::Push),
            }
        }
        obs
    })
}

fn absorbed(mut a: SimResult, b: &SimResult) -> SimResult {
    a.absorb(b);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simresult_absorb_is_a_commutative_monoid(
        a in arb_result(),
        b in arb_result(),
        c in arb_result(),
    ) {
        prop_assert_eq!(absorbed(a.clone(), &b), absorbed(b.clone(), &a));
        let left = absorbed(absorbed(a.clone(), &b), &c);
        prop_assert_eq!(left, absorbed(a.clone(), &absorbed(b, &c)));
        let id = SimResult::identity("SG2", HOURS, SERVERS as u16);
        prop_assert_eq!(&absorbed(id.clone(), &a), &a);
        prop_assert_eq!(&absorbed(a.clone(), &id), &a);
    }

    #[test]
    fn shard_count_and_join_order_do_not_matter(
        shards in vec(arb_result(), 1..6),
    ) {
        // Fold left-to-right vs fold in reverse vs pairwise tree: all
        // equal, so any parallel reduction of shard results is safe.
        let id = || SimResult::identity("SG2", HOURS, SERVERS as u16);
        let forward = shards.iter().fold(id(), absorbed);
        let reverse = shards.iter().rev().fold(id(), absorbed);
        prop_assert_eq!(&forward, &reverse);
        let mut layer = shards.clone();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => absorbed(a.clone(), b),
                    [a] => a.clone(),
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
        }
        prop_assert_eq!(&forward, &layer[0]);
    }

    #[test]
    fn hourly_absorb_is_commutative_and_associative(
        a in arb_result(),
        b in arb_result(),
        c in arb_result(),
    ) {
        let (a, b, c) = (a.hourly, b.hourly, c.hourly);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        prop_assert_eq!(&ab, &ba);
        let mut left = ab;
        left.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        prop_assert_eq!(&left, &right);
        // Identity: the empty series.
        let mut with_id = a.clone();
        with_id.absorb(&HourlySeries::new(0));
        prop_assert_eq!(&with_id, &a);
    }

    #[test]
    fn stats_registry_absorb_is_commutative_and_identity_preserving(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        let keys = [
            "request.hits",
            "request.misses",
            "push.offers",
            "push.transfers",
            "push.stored",
            "publish.events",
            "admit.push",
        ];
        let mut ab = a.clone();
        ab.absorb(b.clone());
        let mut ba = b.clone();
        ba.absorb(a.clone());
        let mut left = ab.clone();
        left.absorb(c.clone());
        let mut bc = b.clone();
        bc.absorb(c.clone());
        let mut right = a.clone();
        right.absorb(bc);
        let mut with_id = a.clone();
        with_id.absorb(StatsObserver::default());
        for key in keys {
            prop_assert_eq!(ab.registry().counter(key), ba.registry().counter(key));
            prop_assert_eq!(left.registry().counter(key), right.registry().counter(key));
            prop_assert_eq!(with_id.registry().counter(key), a.registry().counter(key));
        }
        for key in ["bytes.pushed", "bytes.fetched"] {
            prop_assert_eq!(ab.registry().bytes(key), ba.registry().bytes(key));
            prop_assert_eq!(left.registry().bytes(key), right.registry().bytes(key));
        }
        // Histogram counts (integer parts of the distributions) add too.
        if let (Some(h_ab), Some(h_ba)) = (
            ab.registry().histogram("page_size"),
            ba.registry().histogram("page_size"),
        ) {
            prop_assert_eq!(h_ab.count(), h_ba.count());
        }
        prop_assert_eq!(ab.requests(), a.requests() + b.requests());
    }
}
