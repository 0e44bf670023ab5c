//! Cost tracking for the store's two hot operations since the
//! value-index removal: the placement query
//! [`CacheStore::candidate_size_below`] (one branch-predictable sweep of
//! the heap's compact slot array, 64 queries per iteration) and a mixed
//! insert/update/evict churn loop (1,000 mutations per iteration — the
//! traffic that used to pay treap maintenance on every step).
//!
//! The sweep is `O(live)` per query with zero bookkeeping on the
//! mutation paths; replayed traces keep the live population small (tens
//! of pages at the paper's capacities), so trading the `O(log n)`
//! indexed query for maintenance-free mutations is a large net win,
//! which the repo benchmark's `replay-grid` workload measures end to end.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_cache::CacheStore;
use pscd_types::{Bytes, PageId};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A populated store plus the query values the placement path would ask.
fn populated(entries: u32) -> (CacheStore, Vec<f64>) {
    let mut store = CacheStore::new(Bytes::new(u64::MAX));
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..entries {
        let value = ((xorshift(&mut x) % 1_024) as f64) / 8.0;
        let size = Bytes::new(xorshift(&mut x) % 10_000 + 500);
        store.insert(PageId::new(i), size, value);
    }
    let queries: Vec<f64> = (0..64)
        .map(|_| ((xorshift(&mut x) % 1_024) as f64) / 8.0)
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
                    .map(|&q| store.candidate_size_below(q).as_u64())
                    .sum::<u64>()
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
