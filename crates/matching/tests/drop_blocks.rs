//! Counts the heap blocks an `EngineMatcher` frees when it is dropped.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The test
//! builds the same matcher at three sizes — the same proxies, conjunctions
//! and vocabulary, ever more single-predicate subscriptions and registered
//! pages — freezes it, churns it (a subscription in the delta, frozen ones
//! retired) and drops it. The blocks freed must be the same at every size,
//! and at most `C · proxies + conjunctions + C`: a block per proxy's rows,
//! one per conjunction, and a constant for the symbol table, the page
//! arena and the frozen kernel. A single or a page owns no block.
//!
//! Everything lives in ONE `#[test]` so no harness bookkeeping runs — and
//! frees — inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscd_matching::{Content, EngineMatcher, Predicate, Subscription, Value};
use pscd_types::{PageId, ServerId};

struct CountingAlloc;

static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PROXIES: u16 = 8;
const CONJUNCTIONS: usize = 500;
/// Blocks per proxy, and blocks the matcher holds whatever its size: 565
/// are freed here, 8 proxies + 499 conjunctions + 58, against a bound of
/// 643.
const C: u64 = 16;

const CATEGORIES: [&str; 5] = ["sports", "politics", "tech", "music", "science"];
const TAGS: [&str; 6] = ["tennis", "elections", "ai", "jazz", "space", "live"];

/// A frozen, churned matcher: `singles` page-equality and other
/// one-predicate subscriptions (rare operators among them), the fixed
/// conjunctions, and `pages` registered pages. Returns it with the number
/// of conjunctions it holds.
fn matcher(singles: usize, pages: usize) -> (EngineMatcher, usize) {
    let mut m = EngineMatcher::new(PROXIES);
    let at = |i: usize| ServerId::new((i % usize::from(PROXIES)) as u16);
    for page in 0..pages {
        let content = Content::new()
            .with("page", Value::int(page as i64))
            .with("category", Value::str(CATEGORIES[page % CATEGORIES.len()]))
            .with("tags", Value::tags([TAGS[page % TAGS.len()], "live"]))
            .with("bytes", Value::int((page as i64 % 16) * 1_024));
        m.register_page(PageId::new(page as u32), content);
    }
    for i in 0..singles {
        let pred = match i % 8 {
            0 => Predicate::prefix("category", &CATEGORIES[i % CATEGORIES.len()][..2]),
            1 => Predicate::eq("tags", Value::tags([TAGS[i % TAGS.len()]])),
            2 => Predicate::ge("bytes", (i as i64 % 16) * 1_024),
            _ => Predicate::eq("page", Value::int((i % pages.max(1)) as i64)),
        };
        m.subscribe(at(i), Subscription::new(vec![pred])).unwrap();
    }
    let mut conjunctions = Vec::new();
    for i in 0..CONJUNCTIONS {
        let mut preds = vec![
            Predicate::eq("category", Value::str(CATEGORIES[i % CATEGORIES.len()])),
            Predicate::contains("tags", TAGS[i % TAGS.len()]),
        ];
        if i % 3 == 0 {
            preds.push(Predicate::ne("tags", Value::tags(["live", "jazz"])));
        }
        conjunctions.push((at(i), m.subscribe(at(i), Subscription::new(preds)).unwrap()));
    }
    m.freeze();
    // Churn the kernel absorbs: two conjunctions retired (their blocks go
    // now), one joins the delta.
    for &(server, id) in &conjunctions[..2] {
        m.unsubscribe(server, id).unwrap();
    }
    let late = Subscription::new(vec![
        Predicate::prefix("category", "sp"),
        Predicate::exists("author"),
    ]);
    m.subscribe(ServerId::new(3), late).unwrap();
    assert!(m.is_frozen());
    (m, CONJUNCTIONS - 2 + 1)
}

#[test]
fn a_dropped_matcher_frees_blocks_per_proxy_and_conjunction_not_per_single_or_page() {
    let mut freed = Vec::new();
    for (singles, pages) in [(2_000, 200), (20_000, 2_000), (40_000, 4_000)] {
        let (m, conjunctions) = matcher(singles, pages);
        assert_eq!(m.page_count(), pages);
        let before = FREES.load(Ordering::Relaxed);
        drop(m);
        let blocks = FREES.load(Ordering::Relaxed) - before;
        let bound = C * u64::from(PROXIES) + conjunctions as u64 + C;
        assert!(
            blocks <= bound,
            "{singles} singles, {pages} pages: {blocks} blocks freed, bound {bound}"
        );
        freed.push(blocks);
    }
    assert!(
        freed.windows(2).all(|w| w[0] == w[1]),
        "blocks freed grew with singles and pages: {freed:?}"
    );
}
