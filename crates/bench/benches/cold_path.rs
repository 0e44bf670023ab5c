//! Cold-path benchmarks: what workload generation, subscription
//! synthesis, and trace compilation cost serially vs on the worker pool,
//! and what freezing and matching a one-million-subscription population
//! costs in the frozen match kernel.
//!
//! Three workload tiers (1%, 5%, 20% of the paper's trace) price the
//! `generate`/`subscriptions`/`compile` phases at `threads = 1` and
//! `threads = 0` (auto) — the two ends of the `repro --threads` knob,
//! proven bit-identical by the `cold_differential` suite, so the gap
//! here is pure speed. The matching tier freezes a one-million
//! subscription population — far past any workload tier, and past the
//! repo benchmark's `match-churn` (~200k), which is why it lives here.
//! `experiments/log/PR01-14.md` reports these numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use pscd_matching::{Content, EngineMatcher, MatchScratch, Predicate, Subscription, Value};
use pscd_sim::CompiledTrace;
use pscd_types::{PageId, ServerId};
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

/// One million subscriptions, spread over 2,000 distinct categories (~500
/// matches per content), plus a tag layer.
fn million_subs() -> (Vec<Subscription>, Vec<Content>) {
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
        rows.push(sub);
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

/// A one-proxy matcher holding `subs`, each interned and compiled at
/// `subscribe`.
fn subscribed(subs: Vec<Subscription>) -> EngineMatcher {
    let mut matcher = EngineMatcher::new(1);
    for sub in subs {
        matcher
            .subscribe(ServerId::new(0), sub)
            .expect("proxy 0 is in the fleet");
    }
    matcher
}

fn matching_1m(c: &mut Criterion) {
    let (subs, contents) = million_subs();
    let mut group = c.benchmark_group("cold_match_1m_subs");
    group.sample_size(20);
    // Building the frozen kernel from scratch over the whole population
    // (interning and compiling at `subscribe` included), which the
    // matching arms below exclude. Cloning the subscriptions is untimed.
    group.bench_function("freeze_1m", |b| {
        b.iter_batched(
            || subs.clone(),
            |subs| {
                let mut matcher = subscribed(subs);
                matcher.freeze();
                matcher.is_frozen()
            },
            BatchSize::LargeInput,
        )
    });
    // The frozen kernel over pages registered once: interned symbols, CSR
    // buckets and epoch bitsets, caller-owned scratch and output (freeze
    // cost excluded: `freeze_1m` above prices it).
    let mut matcher = subscribed(subs);
    let pages = contents.len() as u32;
    for (page, content) in (0..pages).map(PageId::new).zip(contents) {
        matcher.register_page(page, content);
    }
    matcher.freeze();
    group.bench_function("matches_into_frozen", |b| {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0u32;
            for page in (0..pages).map(PageId::new) {
                matcher.matched_servers_into(page, &mut scratch, &mut out);
                total += out.iter().map(|&(_, n)| n).sum::<u32>();
            }
            total
        })
    });
    group.bench_function("match_count_frozen", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            let mut total = 0u32;
            for page in (0..pages).map(PageId::new) {
                total += matcher.match_count_with(page, ServerId::new(0), &mut scratch);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, generate, subscriptions, compile, matching_1m);
criterion_main!(benches);
