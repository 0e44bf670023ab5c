//! Cost tracking for the store's two hot operations since the
//! value-index removal: the placement query
//! [`CacheStore::candidates_cover`] (a sweep of the heap's compact slot
//! array that stops once the candidates cover the need, 64 queries per
//! iteration) and a mixed insert/update/evict churn loop (1,000
//! mutations per iteration — the traffic that used to pay treap
//! maintenance on every step) over a store whose position index is
//! reserved for exactly the pages its capacity can hold.
//!
//! The sweep is `O(live)` per query at worst with zero bookkeeping on
//! the mutation paths; replayed traces keep the live population small
//! (tens of pages at the paper's capacities), so trading the `O(log n)`
//! indexed query for maintenance-free mutations is a large net win,
//! which the repo benchmark's `replay-grid` workload measures end to end.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_cache::{CacheStore, PageUniverse};
use pscd_types::{Bytes, PageId};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A store holding `entries` pages of a universe of as many, its
/// capacity exactly their total, plus the `(value, need)` queries the
/// placement path would ask.
fn populated(entries: u32) -> (CacheStore, Vec<(f64, Bytes)>) {
    let mut x = 0x1234_5678_9abc_def0u64;
    let pages: Vec<(f64, Bytes)> = (0..entries)
        .map(|_| {
            let value = ((xorshift(&mut x) % 1_024) as f64) / 8.0;
            (value, Bytes::new(xorshift(&mut x) % 10_000 + 500))
        })
        .collect();
    let universe = PageUniverse::new(pages.iter().map(|&(_, size)| size));
    let mut store = CacheStore::dense(pages.iter().map(|&(_, size)| size).sum(), &universe);
    for (i, &(value, size)) in pages.iter().enumerate() {
        store.insert(PageId::new(i as u32), size, value);
    }
    let queries = (0..64)
        .map(|_| {
            let value = ((xorshift(&mut x) % 1_024) as f64) / 8.0;
            (value, Bytes::new(xorshift(&mut x) % 10_000 + 500))
        })
        .collect();
    (store, queries)
}

fn store_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_prefix");
    for entries in [64u32, 1_000, 8_000] {
        let (store, queries) = populated(entries);
        group.bench_function(&format!("query_{entries}"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .filter(|&&(value, need)| store.candidates_cover(value, need))
                    .count()
            })
        });
        group.bench_function(&format!("churn_{entries}"), |b| {
            let mut store = store.clone();
            let mut x = 0x9e37_79b9u64;
            b.iter(|| {
                for _ in 0..1_000 {
                    let p = PageId::new((xorshift(&mut x) % entries as u64) as u32);
                    match xorshift(&mut x) % 4 {
                        0 => {
                            let size = Bytes::new(xorshift(&mut x) % 10_000 + 500);
                            let value = ((xorshift(&mut x) % 1_024) as f64) / 8.0;
                            store.insert(p, size, value);
                        }
                        1 => {
                            store.pop_min();
                        }
                        _ => {
                            let value = ((xorshift(&mut x) % 1_024) as f64) / 8.0;
                            store.update_value(p, value);
                        }
                    }
                }
                store.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, store_ops);
criterion_main!(benches);
