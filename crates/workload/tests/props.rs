//! Property tests for the workload generators.

use proptest::prelude::*;

use pscd_workload::{
    generate_publishing, generate_requests, generate_subscriptions, PublishingConfig, RequestConfig,
};

fn publishing_config() -> impl Strategy<Value = PublishingConfig> {
    (10usize..80, 0usize..40, 0usize..300).prop_map(|(distinct, updated_raw, extra)| {
        let updated = updated_raw.min(distinct);
        PublishingConfig {
            distinct_pages: distinct,
            updated_pages: updated,
            total_pages: distinct + if updated == 0 { 0 } else { extra },
            ..PublishingConfig::paper()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The publishing generator hits its page count exactly, keeps
    /// versions after their originals, and stays within the horizon.
    #[test]
    fn publishing_invariants(cfg in publishing_config(), seed in 0u64..500) {
        let out = generate_publishing(&cfg, seed, 1).unwrap();
        prop_assert_eq!(out.pages.len(), cfg.total_pages);
        prop_assert_eq!(out.stream.len(), cfg.total_pages);
        let originals = out.pages.iter().filter(|p| p.kind().is_original()).count();
        prop_assert_eq!(originals, cfg.distinct_pages);
        for p in &out.pages {
            prop_assert!(p.publish_time() < cfg.horizon);
            prop_assert!(p.size().as_u64() >= cfg.min_page_bytes);
            prop_assert!(p.size().as_u64() <= cfg.max_page_bytes);
            if let Some(origin) = p.kind().origin() {
                prop_assert!(origin.as_usize() < cfg.distinct_pages);
                prop_assert!(
                    p.publish_time() > out.pages[origin.as_usize()].publish_time()
                );
            }
        }
        // Stream is sorted.
        let times: Vec<_> = out.stream.iter().map(|e| e.time).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The request generator hits its request count exactly and respects
    /// publish times, horizons and the server population.
    #[test]
    fn request_invariants(
        seed in 0u64..200,
        servers in 1u16..30,
        total in 50u64..2_000,
        alpha in proptest::sample::select(vec![1.0f64, 1.5]),
        shift in proptest::sample::select(vec![0.0f64, 50.0, 100.0]),
    ) {
        let pcfg = PublishingConfig {
            distinct_pages: 50,
            updated_pages: 20,
            total_pages: 150,
            ..PublishingConfig::paper()
        };
        let pages = generate_publishing(&pcfg, seed, 1).unwrap().pages;
        let rcfg = RequestConfig {
            servers,
            total_requests: total,
            zipf_alpha: alpha,
            zipf_shift: shift,
            ..RequestConfig::news()
        };
        let trace = generate_requests(&pages, &rcfg, seed, 1).unwrap();
        prop_assert_eq!(trace.len() as u64, total);
        prop_assert!(trace.validate(pages.len(), servers).is_ok());
        for ev in &trace {
            let page = &pages[ev.page.as_usize()];
            prop_assert!(ev.time >= page.publish_time());
            prop_assert!(ev.time < rcfg.horizon);
        }
    }

    /// Subscription counts are never below request counts (SQ <= 1 means
    /// at least as many subscribers as readers), and SQ = 1 is exact.
    #[test]
    fn subscription_counts_bound_requests(
        seed in 0u64..200,
        quality in proptest::sample::select(vec![0.25f64, 0.5, 0.75, 1.0]),
        coverage in proptest::sample::select(vec![0.5f64, 1.0]),
    ) {
        let pcfg = PublishingConfig {
            distinct_pages: 40,
            updated_pages: 10,
            total_pages: 80,
            ..PublishingConfig::paper()
        };
        let pages = generate_publishing(&pcfg, seed, 1).unwrap().pages;
        let rcfg = RequestConfig {
            servers: 10,
            total_requests: 500,
            ..RequestConfig::news()
        };
        let trace = generate_requests(&pages, &rcfg, seed, 1).unwrap();
        let table =
            generate_subscriptions(&trace, pages.len(), quality, coverage, seed, 1)
                .unwrap();
        let mut requests: std::collections::HashMap<(u32, u16), u32> =
            std::collections::HashMap::new();
        for ev in &trace {
            *requests.entry((ev.page.index(), ev.server.index())).or_default() += 1;
        }
        for (page, server, count) in table.iter() {
            let p = requests[&(page.index(), server.index())];
            prop_assert!(count >= p, "subs {count} < requests {p}");
            if quality == 1.0 {
                prop_assert_eq!(count, p);
            }
        }
        if coverage == 1.0 {
            // Every request pair has subscriptions.
            prop_assert_eq!(table.iter().count(), requests.len());
        } else {
            prop_assert!(table.iter().count() <= requests.len());
        }
    }
}
