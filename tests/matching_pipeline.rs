//! Integration of the content-based matching engine with the workload's
//! content model and the delivery engine.

use pscd::cache::PageUniverse;
use pscd::matching::{EngineMatcher, MatchScratch};
use pscd::workload::{ContentModel, CATEGORIES};
use pscd::{
    Content, DeliveryEngine, Predicate, PushScheme, ServerId, StrategyKind, Subscription,
    SubscriptionTable, Value, Workload, WorkloadConfig,
};
use pscd_obs::{ObsHandle, SharedObserver};

fn workload() -> Workload {
    Workload::generate(&WorkloadConfig::news_scaled(0.01)).unwrap()
}

#[test]
fn engine_matcher_agrees_with_manual_evaluation() {
    let w = workload();
    let model = ContentModel::new(3);
    let mut matcher = EngineMatcher::new(w.server_count());

    // One category subscription per server, round-robin over categories.
    let mut subs_at: Vec<Subscription> = Vec::new();
    for s in 0..w.server_count() {
        let category = CATEGORIES[s as usize % CATEGORIES.len()];
        let sub = Subscription::new(vec![Predicate::eq("category", Value::str(category))]);
        matcher.subscribe(ServerId::new(s), sub.clone()).unwrap();
        subs_at.push(sub);
    }
    for page in w.pages().iter().take(300) {
        matcher.register_page(page.id(), model.content_for(page));
    }
    let (mut scratch, mut matched) = (MatchScratch::new(), Vec::new());
    for page in w.pages().iter().take(300) {
        let content: Content = model.content_for(page);
        matcher.matched_servers_into(page.id(), &mut scratch, &mut matched);
        for s in 0..w.server_count() {
            let expected = subs_at[s as usize].matches(&content);
            let got = matched.iter().any(|&(srv, _)| srv == ServerId::new(s));
            assert_eq!(expected, got, "page {} server {s}", page.id());
            assert_eq!(
                matcher.match_count_with(page.id(), ServerId::new(s), &mut scratch),
                u32::from(expected)
            );
        }
    }
}

#[test]
fn table_matcher_and_engine_matcher_drive_the_same_delivery_api() {
    // The broker accepts matched-server lists from either matcher.
    let w = workload();
    let table = w.subscriptions(1.0).unwrap();
    let capacities = w.cache_capacities(0.05);

    let strategies = capacities
        .iter()
        .map(|&c| {
            StrategyKind::Sg1 { beta: 2.0 }.build(
                c,
                &PageUniverse::default(),
                ObsHandle::disabled(),
            )
        })
        .collect();
    let mut engine = DeliveryEngine::new(
        strategies,
        vec![1.0; w.server_count() as usize],
        PushScheme::Always,
        SharedObserver::disabled(),
        ServerId::new(0),
    )
    .unwrap();

    let from_table: &SubscriptionTable = &table;
    let mut pushed = 0u64;
    let mut records = Vec::new();
    for ev in w.publishing().iter().take(500) {
        let meta = &w.pages()[ev.page.as_usize()];
        engine.publish(meta, from_table.matched_servers(ev.page), &mut records);
        pushed += records.iter().filter(|r| r.transferred).count() as u64;
    }
    assert!(pushed > 0);
    assert_eq!(engine.total_traffic().pushed_pages, pushed);
}

#[test]
fn modified_versions_match_like_their_originals() {
    let w = workload();
    let model = ContentModel::new(9);
    let mut matcher = EngineMatcher::new(1);
    // Subscribe to every category so every page matches; counts must be
    // equal for originals and their modified versions.
    for cat in CATEGORIES {
        matcher
            .subscribe(
                ServerId::new(0),
                Subscription::new(vec![Predicate::eq("category", Value::str(cat))]),
            )
            .unwrap();
    }
    for page in w.pages() {
        matcher.register_page(page.id(), model.content_for(page));
    }
    let mut scratch = MatchScratch::new();
    let mut count = |page| matcher.match_count_with(page, ServerId::new(0), &mut scratch);
    for page in w.pages() {
        if let Some(origin) = page.kind().origin() {
            assert_eq!(
                count(page.id()),
                count(origin),
                "version {} vs origin {origin}",
                page.id()
            );
        }
    }
}
