//! Cold-path benchmarks: what workload generation, subscription
//! synthesis, and trace compilation cost serially vs on the worker pool,
//! and what the batched match kernel buys over the allocating wrapper.
//!
//! Three workload tiers (1%, 5%, 20% of the paper's trace) price the
//! `generate`/`subscriptions`/`compile` phases at `threads = 1` and
//! `threads = 0` (auto) — the two ends of the `repro --threads` knob,
//! proven bit-identical by the `cold_differential` suite, so the gap
//! here is pure speed. The matching tier freezes a one-million
//! subscription population — far past any workload tier. EXPERIMENTS.md
//! reports these numbers.

use criterion::{criterion_group, criterion_main, Criterion};

use pscd_matching::{
    Content, FrozenIndex, MatchScratch, Predicate, Subscription, SubscriptionId, SymbolTable, Value,
};
use pscd_sim::CompiledTrace;
use pscd_workload::{Workload, WorkloadConfig};

/// The three workload tiers: (label, scale of the paper's NEWS trace).
const TIERS: [(&str, f64); 3] = [("1pct", 0.01), ("5pct", 0.05), ("20pct", 0.20)];

fn generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_generate");
    group.sample_size(10);
    for (label, scale) in TIERS {
        let config = WorkloadConfig::news_scaled(scale);
        for (arm, threads) in [("t1", 1usize), ("auto", 0)] {
            group.bench_function(&format!("news_{label}_{arm}"), |b| {
                b.iter(|| {
                    Workload::generate_threads(&config, threads)
                        .expect("generates")
                        .pages()
                        .len()
                })
            });
        }
    }
    group.finish();
}

fn subscriptions(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_subscriptions");
    group.sample_size(10);
    for (label, scale) in TIERS {
        let w = Workload::generate(&WorkloadConfig::news_scaled(scale)).expect("generates");
        for (arm, threads) in [("t1", 1usize), ("auto", 0)] {
            group.bench_function(&format!("news_{label}_{arm}"), |b| {
                b.iter(|| {
                    w.subscriptions_threads(1.0, threads)
                        .expect("valid quality")
                        .page_count()
                })
            });
        }
    }
    group.finish();
}

fn compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_compile");
    group.sample_size(10);
    for (label, scale) in TIERS {
        let w = Workload::generate(&WorkloadConfig::news_scaled(scale)).expect("generates");
        let subs = w.subscriptions(1.0).expect("valid quality");
        for (arm, threads) in [("t1", 1usize), ("auto", 0)] {
            group.bench_function(&format!("news_{label}_{arm}"), |b| {
                b.iter(|| {
                    CompiledTrace::compile_threads(&w, &subs, threads)
                        .expect("compiles")
                        .len()
                })
            });
        }
    }
    group.finish();
}

/// One million subscriptions numbered as one proxy's, spread over 2,000
/// distinct categories (~500 matches per content), plus a tag layer —
/// the ISSUE's ≥1M-subscription matching tier.
fn million_subs() -> (Vec<(SubscriptionId, Subscription)>, Vec<Content>) {
    const SUBS: usize = 1_000_000;
    const CATEGORIES: usize = 2_000;
    let categories: Vec<String> = (0..CATEGORIES).map(|i| format!("cat{i}")).collect();
    let mut rows = Vec::with_capacity(SUBS);
    for i in 0..SUBS {
        let cat = &categories[i % CATEGORIES];
        let sub = if i % 10 == 0 {
            Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", "breaking"),
            ])
        } else {
            Subscription::new(vec![Predicate::eq("category", Value::str(cat))])
        };
        rows.push((SubscriptionId::new(i as u64), sub));
    }
    let contents = (0..64usize)
        .map(|i| {
            Content::new()
                .with("category", Value::str(&categories[(i * 31) % CATEGORIES]))
                .with(
                    "tags",
                    Value::tags(if i % 2 == 0 { ["breaking"] } else { ["local"] }),
                )
        })
        .collect();
    (rows, contents)
}

fn matching_1m(c: &mut Criterion) {
    let (subs, contents) = million_subs();
    let mut group = c.benchmark_group("cold_match_1m_subs");
    group.sample_size(20);
    // The frozen kernel: interned symbols, CSR buckets and epoch bitsets,
    // caller-owned scratch and output (compile cost excluded here —
    // `match_kernel.freeze_build` in the pinned suite prices it).
    let mut symbols = SymbolTable::new();
    let frozen = FrozenIndex::freeze(&subs, &mut symbols);
    group.bench_function("matches_into_frozen", |b| {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for content in &contents {
                frozen.matches_into(&symbols, content, &mut scratch, &mut out);
                total += out.len();
            }
            total
        })
    });
    group.bench_function("match_count_frozen", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut total = 0usize;
            for content in &contents {
                total += frozen.match_count(&symbols, content, &mut scratch);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, generate, subscriptions, compile, matching_1m);
criterion_main!(benches);
