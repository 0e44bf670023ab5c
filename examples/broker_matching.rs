//! End-to-end publish/subscribe with real content-based matching.
//!
//! The paper's workload only models subscription *counts*; this example
//! exercises the full pipeline instead: users register predicate
//! subscriptions ("category == sports AND tags contains tennis"), the
//! matching engine's frozen kernel evaluates each published page, and the
//! delivery engine pushes matched pages to the subscribers' proxies.
//!
//! ```text
//! cargo run --release --example broker_matching
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pscd::cache::PageUniverse;
use pscd::matching::{EngineMatcher, MatchScratch};
use pscd::workload::{ContentModel, CATEGORIES};
use pscd::{
    Content, DeliveryEngine, Predicate, PushScheme, ServerId, StrategyKind, Subscription, Value,
    Workload, WorkloadConfig,
};
use pscd_obs::{ObsHandle, SharedObserver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig::news_scaled(0.02))?;
    let servers = workload.server_count();
    let model = ContentModel::new(7);
    let mut rng = StdRng::seed_from_u64(99);

    // 1. Register ~2,000 synthetic users, each with a category-based
    //    subscription (some also require a minimum article size).
    let mut matcher = EngineMatcher::new(servers);
    for _ in 0..2_000 {
        let server = ServerId::new(rng.random_range(0..servers));
        let category = CATEGORIES[rng.random_range(0..CATEGORIES.len())];
        let mut predicates = vec![Predicate::eq("category", Value::str(category))];
        if rng.random::<f64>() < 0.3 {
            predicates.push(Predicate::ge("bytes", 4_096));
        }
        matcher.subscribe(server, Subscription::new(predicates))?;
    }
    // Compile every proxy's subscriptions into the fleet-wide kernel that
    // answers each publish below.
    matcher.freeze();

    // 2. Proxies run SG2; deliveries use Pushing-When-Necessary.
    let capacities = workload.cache_capacities(0.05);
    //    Unobserved, page tables growing on demand (page count 0).
    let strategies = capacities
        .iter()
        .map(|&c| {
            StrategyKind::Sg2 { beta: 2.0 }.build(
                c,
                &PageUniverse::default(),
                ObsHandle::disabled(),
            )
        })
        .collect();
    let mut engine = DeliveryEngine::new(
        strategies,
        vec![1.0; servers as usize],
        PushScheme::WhenNecessary,
        SharedObserver::disabled(),
        ServerId::new(0),
    )?;

    // 3. Replay the publishing stream through the matching engine; after
    //    each notification, most subscribers read the page right away and
    //    some never do (notification-driven access, ~70% read rate).
    let pages = workload.pages();
    let mut notified_pairs = 0u64;
    let mut requests = 0u64;
    let mut pushes = Vec::new();
    let (mut scratch, mut matched) = (MatchScratch::new(), Vec::new());
    for ev in workload.publishing() {
        let meta = &pages[ev.page.as_usize()];
        let content: Content = model.content_for(meta);
        matcher.register_page(ev.page, content);
        matcher.matched_servers_into(ev.page, &mut scratch, &mut matched);
        notified_pairs += matched.len() as u64;
        engine.publish(meta, &matched, &mut pushes);
        for &(server, subs) in &matched {
            if rng.random::<f64>() < 0.7 {
                engine.request(server, meta, subs)?;
                requests += 1;
            }
        }
    }
    println!(
        "published {} pages; {} (page, proxy) notification pairs",
        pages.len(),
        notified_pairs
    );
    println!(
        "served {requests} notification-driven requests; hit ratio {:.1}%",
        100.0 * engine.global_hit_ratio()
    );
    println!(
        "traffic: {} pushed pages, {} fetched pages",
        engine.total_traffic().pushed_pages,
        engine.total_traffic().fetched_pages
    );
    Ok(())
}
