//! Cold-path differential suite: every parallel cold-path stage —
//! workload generation, subscription synthesis, trace compilation, the
//! batched match kernel, and the per-source shortest-path fan-out — must
//! be **bit-identical** to its sequential form at every thread count.
//!
//! The RNG substream scheme makes workload generation order-independent
//! by construction (each entity draws only from its own stream, see
//! `pscd_workload::seeds`), and the compiler/topology fan-outs are pure
//! per-index functions reassembled in index order; this suite is where
//! those constructions are *proven*, not just argued. The anchors are
//! the `threads = 1` outputs — the same values the sequential paths
//! produced — compared structurally (`PartialEq` over every field)
//! against `threads ∈ {2, 4, auto}`.

use proptest::prelude::*;

use pscd_core::StrategyKind;
use pscd_matching::{EngineMatcher, MatchScratch, Predicate, Subscription, Value};
use pscd_sim::{CompiledTrace, Replay, SimOptions};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::ServerId;
use pscd_workload::{ContentModel, Workload, WorkloadConfig};

/// The two exhibit workloads at test scale, plus a reseeded variant of
/// each — bit-identity must hold for every seed, not one lucky one.
fn exhibit_configs() -> Vec<WorkloadConfig> {
    vec![
        WorkloadConfig::news_scaled(0.01),
        WorkloadConfig::news_scaled(0.01).with_seed(0xfeed),
        WorkloadConfig::alternative_scaled(0.01),
        WorkloadConfig::alternative_scaled(0.01).with_seed(7),
    ]
}

#[test]
fn workload_generation_is_bit_identical_at_every_thread_count() {
    for config in exhibit_configs() {
        let sequential = Workload::generate_threads(&config, 1).unwrap();
        for threads in [2, 4, 0] {
            let parallel = Workload::generate_threads(&config, threads).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        // The plain constructor is the sequential path.
        assert_eq!(sequential, Workload::generate(&config).unwrap());
    }
}

#[test]
fn subscription_synthesis_is_bit_identical_at_every_thread_count() {
    for config in exhibit_configs() {
        let w = Workload::generate(&config).unwrap();
        for quality in [0.25, 1.0] {
            let sequential = w.subscriptions_threads(quality, 1).unwrap();
            assert_eq!(sequential, w.subscriptions(quality).unwrap());
            for threads in [2, 4, 0] {
                let parallel = w.subscriptions_threads(quality, threads).unwrap();
                assert_eq!(
                    sequential, parallel,
                    "quality = {quality}, threads = {threads}"
                );
            }
        }
    }
}

#[test]
fn trace_compilation_is_bit_identical_at_every_thread_count() {
    for config in exhibit_configs() {
        let w = Workload::generate(&config).unwrap();
        let subs = w.subscriptions(1.0).unwrap();
        let sequential = CompiledTrace::compile_threads(&w, &subs, 1).unwrap();
        assert_eq!(sequential, CompiledTrace::compile(&w, &subs).unwrap());
        for threads in [2, 4, 0] {
            let parallel = CompiledTrace::compile_threads(&w, &subs, threads).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }
}

/// The end-to-end guarantee the CLI relies on (`repro all --threads 0`
/// vs `--threads 1`): a workload generated, synthesized, and compiled
/// entirely on the pool replays to the same `SimResult` as one built
/// entirely sequentially.
#[test]
fn end_to_end_cold_path_yields_identical_sim_results() {
    let config = WorkloadConfig::news_scaled(0.01);
    let build = |threads: usize| -> (CompiledTrace, u16) {
        let w = Workload::generate_threads(&config, threads).unwrap();
        let subs = w.subscriptions_threads(1.0, threads).unwrap();
        let trace = CompiledTrace::compile_threads(&w, &subs, threads).unwrap();
        let servers = w.server_count();
        (trace, servers)
    };
    let (seq_trace, servers) = build(1);
    let (par_trace, _) = build(0);
    assert_eq!(seq_trace, par_trace);
    let costs = FetchCosts::uniform(servers);
    let lineup = [
        StrategyKind::GdStar { beta: 2.0 },
        StrategyKind::Sg2 { beta: 2.0 },
    ]
    .map(|kind| SimOptions::at_capacity(kind, 0.05));
    let a = Replay::compiled(&seq_trace, &costs).run(&lineup).unwrap();
    let b = Replay::compiled(&par_trace, &costs).run(&lineup).unwrap();
    assert_eq!(a, b);
}

/// A deliberately heterogeneous proxy: equality, tag-containment, range
/// (scan path), and wildcard subscriptions, with enough of each that
/// every bucket type participates; a third of the conjunctions are
/// unsubscribed again, leaving gaps in the ids. Returns the matcher and
/// its live subscriptions.
fn heterogeneous_proxy() -> (EngineMatcher, Vec<Subscription>) {
    let categories = ["sports", "politics", "tech", "music"];
    let tags = ["tennis", "elections", "ai", "jazz", "live"];
    let (mut matcher, at) = (EngineMatcher::new(1), ServerId::new(0));
    let mut live = Vec::new();
    for (i, &cat) in categories.iter().enumerate() {
        for (j, &tag) in tags.iter().enumerate() {
            let sub = Subscription::new(vec![
                Predicate::eq("category", Value::str(cat)),
                Predicate::contains("tags", tag),
            ]);
            let id = matcher.subscribe(at, sub.clone()).unwrap();
            if (i + j) % 3 == 0 {
                matcher.unsubscribe(at, id).unwrap();
            } else {
                live.push(sub);
            }
        }
        live.push(Subscription::new(vec![Predicate::ge("bytes", 2_048)]));
        matcher.subscribe(at, live[live.len() - 1].clone()).unwrap();
    }
    live.push(Subscription::wildcard());
    matcher.subscribe(at, Subscription::wildcard()).unwrap();
    (matcher, live)
}

#[test]
fn frozen_match_kernel_agrees_with_brute_force() {
    let (mut matcher, live) = heterogeneous_proxy();
    let w = Workload::generate(&WorkloadConfig::news_scaled(0.004)).unwrap();
    let model = ContentModel::new(w.config().seed);
    let pages = &w.pages()[..w.pages().len().min(400)];
    for page in pages {
        matcher.register_page(page.id(), model.content_for(page));
    }
    matcher.freeze();
    let at = ServerId::new(0);
    let mut scratch = MatchScratch::new();
    let mut fanout = Vec::new();
    for page in pages {
        let content = model.content_for(page);
        // Brute force: evaluate every live subscription directly.
        let expected = live.iter().filter(|sub| sub.matches(&content)).count() as u32;
        matcher.matched_servers_into(page.id(), &mut scratch, &mut fanout);
        // The wildcard matches every page, so the row is never empty.
        assert_eq!(fanout, [(at, expected)]);
        assert_eq!(
            matcher.match_count_with(page.id(), at, &mut scratch),
            expected
        );
    }
}

#[test]
fn shortest_path_fanout_matches_looped_singles() {
    let g = TopologyBuilder::new(101).seed(42).build().unwrap();
    let publishers: Vec<usize> = (0..8).collect();
    let looped: Vec<FetchCosts> = publishers
        .iter()
        .map(|&p| FetchCosts::from_topology(&g, p).unwrap())
        .collect();
    for threads in [1, 2, 0] {
        let many = FetchCosts::from_topology_many(&g, &publishers, threads).unwrap();
        assert_eq!(many, looped, "threads = {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rotating seed × scale × thread count: the bit-identity argument
    /// cannot depend on any particular workload shape.
    #[test]
    fn cold_path_is_bit_identical_for_arbitrary_seeds(
        seed in 0u64..u64::MAX,
        scale in proptest::sample::select(vec![0.002_f64, 0.005, 0.01]),
        threads in proptest::sample::select(vec![2_usize, 3, 4]),
        news in proptest::sample::select(vec![true, false]),
    ) {
        let base = if news {
            WorkloadConfig::news_scaled(scale)
        } else {
            WorkloadConfig::alternative_scaled(scale)
        };
        let config = base.with_seed(seed);
        let sequential = Workload::generate_threads(&config, 1).unwrap();
        let parallel = Workload::generate_threads(&config, threads).unwrap();
        prop_assert_eq!(&sequential, &parallel);
        let seq_subs = sequential.subscriptions_threads(0.75, 1).unwrap();
        let par_subs = parallel.subscriptions_threads(0.75, threads).unwrap();
        prop_assert_eq!(&seq_subs, &par_subs);
        let seq_trace = CompiledTrace::compile_threads(&sequential, &seq_subs, 1).unwrap();
        let par_trace = CompiledTrace::compile_threads(&parallel, &par_subs, threads).unwrap();
        prop_assert_eq!(seq_trace, par_trace);
    }
}
