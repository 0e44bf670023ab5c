//! Proves the batched match kernel is allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! freezes a heterogeneous population (equality, tag, range, wildcard
//! subscriptions), warms one `MatchScratch` and output buffer past their
//! one-time growth, then matches every content again and asserts the
//! allocation counter did not move — the `matched_servers_into` /
//! `match_count_with` contract the publish fan-out and request loops rely
//! on. Two matchers are measured: one proxy frozen with no churn, and a
//! fleet run the way a live broker runs it, with subscriptions added since
//! the freeze on two proxies and frozen ones of every class retired.
//!
//! Everything lives in ONE `#[test]` so no harness bookkeeping runs — and
//! allocates — inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscd_matching::{Content, EngineMatcher, MatchScratch, Predicate, Subscription, Value};
use pscd_types::{PageId, ServerId};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_matching_does_not_allocate() {
    let categories = ["sports", "politics", "tech", "music", "science"];
    let tags = ["tennis", "elections", "ai", "jazz", "space", "live"];

    // One proxy whose population exercises every bucket type: equality
    // pairs, tag containment, range predicates (the scan path), wildcards.
    let mut single = EngineMatcher::new(1);
    let mut population = Vec::new();
    for i in 0..2_000usize {
        let cat = categories[i % categories.len()];
        let tag = tags[i % tags.len()];
        let sub = match i % 4 {
            0 => Subscription::new(vec![Predicate::eq("category", Value::str(cat))]),
            1 => Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", tag),
            ]),
            2 => Subscription::new(vec![Predicate::ge("bytes", (i as i64 % 16) * 1_024)]),
            _ => Subscription::wildcard(),
        };
        single.subscribe(ServerId::new(0), sub.clone()).unwrap();
        population.push(sub);
    }

    // A fleet over the same kind of mix, every class at most proxies —
    // uneven populations, proxy 5 empty, a three-predicate conjunction
    // every tenth — driving the batched `matched_servers_into` fan-out and
    // the per-request `match_count_with`.
    let mut engine = EngineMatcher::new(8);
    let mut frozen_ids = Vec::new();
    for i in 0..1_600usize {
        let server = ServerId::new(if i % 8 == 5 { 0 } else { (i % 8) as u16 });
        let cat = categories[i % categories.len()];
        let tag = tags[i % tags.len()];
        let sub = match i % 10 {
            0..=2 => Subscription::new(vec![Predicate::eq("category", Value::str(cat))]),
            3 | 4 => Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", tag),
            ]),
            5 | 6 => Subscription::new(vec![Predicate::ge("bytes", (i as i64 % 16) * 1_024)]),
            7 => Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", tag),
                Predicate::lt("bytes", (i as i64 % 16) * 2_048),
            ]),
            8 => Subscription::new(vec![Predicate::contains("tags", tag)]),
            _ => Subscription::wildcard(),
        };
        frozen_ids.push((server, engine.subscribe(server, sub).unwrap()));
    }
    // Conjunctions whose residuals cover every operator the access
    // predicate leaves to verification — prefix, tag-set `==` and `!=`,
    // `!=` on strings and integers, `exists`, range — and one of
    // scanned-family predicates only, at several proxies.
    for i in 0..240usize {
        let server = ServerId::new((i % 7) as u16);
        let cat = Predicate::eq("category", Value::str(categories[i % categories.len()]));
        let tag = tags[i % tags.len()];
        let residual = match i % 8 {
            0 => Predicate::prefix("category", &categories[i % categories.len()][..2]),
            1 => Predicate::eq("tags", Value::tags([tag])),
            2 => Predicate::ne("tags", Value::tags([tag, "live"])),
            3 => Predicate::ne("author", Value::str("staff")),
            4 => Predicate::ne("bytes", Value::int(4_096)),
            5 => Predicate::exists("author"),
            6 => Predicate::gt("bytes", 2_048),
            _ => Predicate::contains("tags", tag),
        };
        let sub = if i % 24 == 23 {
            Subscription::new(vec![
                Predicate::le("bytes", 8_192),
                Predicate::exists("tags"),
                Predicate::prefix("category", "s"),
            ])
        } else {
            Subscription::new(vec![residual, cat])
        };
        engine.subscribe(server, sub).unwrap();
    }

    let contents: Vec<Content> = (0..64usize)
        .map(|i| {
            let content = Content::new()
                .with("category", Value::str(categories[i % categories.len()]))
                .with("tags", Value::tags([tags[i % tags.len()]]))
                .with("bytes", Value::int((i as i64 % 20) * 1_024));
            match i % 3 {
                0 => content,
                1 => content.with("author", Value::str("staff")),
                _ => content.with("author", Value::str("a-stringer")),
            }
        })
        .collect();
    for (i, content) in contents.iter().enumerate() {
        single.register_page(PageId::new(i as u32), content.clone());
        engine.register_page(PageId::new(i as u32), content.clone());
    }

    // The frozen kernels: the one proxy's and the fleet's.
    single.freeze();
    engine.freeze();
    // Churn the kernel absorbs: a single, a double, a triple and a
    // wildcard are retired, and a single and a conjunction join at proxy 2
    // and at proxy 5 — which holds nothing else, so its fan-out row is
    // inserted by the delta alone.
    for i in [0, 3, 7, 9] {
        let (server, id) = frozen_ids[i];
        engine.unsubscribe(server, id).unwrap();
    }
    for server in [2, 5] {
        for sub in [
            Subscription::new(vec![Predicate::contains("tags", tags[0])]),
            Subscription::new(vec![
                Predicate::exists("author"),
                Predicate::ge("bytes", 4_096),
            ]),
        ] {
            engine.subscribe(ServerId::new(server), sub).unwrap();
        }
    }
    assert!(engine.is_frozen());

    let mut scratch = MatchScratch::new();
    let mut fanout = Vec::new();
    let at = ServerId::new(0);

    // Warm-up: every content once, so scratch arrays, the touched list,
    // and the output buffers reach their high-water marks.
    let mut warm_matches = 0usize;
    for (i, content) in contents.iter().enumerate() {
        let page = PageId::new(i as u32);
        let brute = population.iter().filter(|sub| sub.matches(content)).count() as u32;
        single.matched_servers_into(page, &mut scratch, &mut fanout);
        // A wildcard matches every page, so the row is never empty.
        assert_eq!(
            fanout,
            [(at, brute)],
            "frozen kernel and brute force disagree"
        );
        let count = single.match_count_with(page, at, &mut scratch);
        assert_eq!(count, brute, "frozen kernel and brute force disagree");
        warm_matches += 2 * count as usize;
    }
    // The fan-out's per-proxy count array and the fleet-wide bitsets grow
    // here, in warm-up, and never again.
    let (mut fleet_matches, mut delta_rows) = (0usize, 0usize);
    for i in 0..contents.len() {
        let page = PageId::new(i as u32);
        engine.matched_servers_into(page, &mut scratch, &mut fanout);
        let rows: u32 = fanout.iter().map(|&(_, n)| n).sum();
        delta_rows += fanout
            .iter()
            .filter(|&&(s, _)| s == ServerId::new(5))
            .count();
        let mut requests = 0;
        for server in 0..9 {
            requests += engine.match_count_with(page, ServerId::new(server), &mut scratch);
        }
        assert_eq!(rows, requests, "fan-out rows and per-proxy counts disagree");
        fleet_matches += rows as usize;
    }
    assert!(fleet_matches > 0, "fleet matched nothing — bad fixture");
    assert!(delta_rows > 0, "the delta inserted no row — bad fixture");
    warm_matches += 2 * fleet_matches;
    assert!(warm_matches > 0, "warm-up matched nothing — bad fixture");

    // Measurement window: the same calls must not touch the allocator —
    // both frozen matchers' fan-out and request paths.
    let before = allocations();
    let mut steady_matches = 0usize;
    for _ in 0..4 {
        for i in 0..contents.len() {
            let page = PageId::new(i as u32);
            single.matched_servers_into(page, &mut scratch, &mut fanout);
            steady_matches += fanout.iter().map(|&(_, n)| n as usize).sum::<usize>();
            steady_matches += single.match_count_with(page, at, &mut scratch) as usize;
        }
        for i in 0..contents.len() {
            let page = PageId::new(i as u32);
            engine.matched_servers_into(page, &mut scratch, &mut fanout);
            steady_matches += fanout.iter().map(|&(_, n)| n as usize).sum::<usize>();
            for server in 0..9 {
                steady_matches +=
                    engine.match_count_with(page, ServerId::new(server), &mut scratch) as usize;
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{} allocation(s) across {} steady-state matches",
        after - before,
        steady_matches,
    );
    assert_eq!(steady_matches, warm_matches * 4);
}
