//! Export → import → simulate round-trip through the TSV trace format.

use pscd::workload::io::{
    read_pages, read_requests, read_subscriptions, write_pages, write_requests, write_subscriptions,
};
use pscd::{CompiledTrace, FetchCosts, Replay, SimOptions, StrategyKind, Workload, WorkloadConfig};

#[test]
fn exported_traces_simulate_identically() {
    let original = Workload::generate(&WorkloadConfig::news_scaled(0.005)).unwrap();
    let subs = original.subscriptions(1.0).unwrap();

    // Export everything to in-memory TSV …
    let mut pages_tsv = Vec::new();
    let mut requests_tsv = Vec::new();
    let mut subs_tsv = Vec::new();
    write_pages(&mut pages_tsv, original.pages()).unwrap();
    write_requests(&mut requests_tsv, original.requests()).unwrap();
    write_subscriptions(&mut subs_tsv, &subs).unwrap();

    // … import it back …
    let pages = read_pages(pages_tsv.as_slice()).unwrap();
    let requests = read_requests(requests_tsv.as_slice()).unwrap();
    let subs_back = read_subscriptions(subs_tsv.as_slice(), pages.len()).unwrap();

    // … rebuild a workload (publishing events are derivable from pages) …
    let publish_events: Vec<_> = pages
        .iter()
        .map(|p| pscd::types::PublishEvent::new(p.publish_time(), p.id()))
        .collect();
    let publishing = pscd::types::PublishingStream::from_unsorted(publish_events);
    let rebuilt =
        Workload::from_parts(original.config().clone(), pages, publishing, requests).unwrap();

    // … and simulate both: identical results.
    let costs = FetchCosts::uniform(original.server_count());
    let opt = SimOptions::at_capacity(StrategyKind::Sg2 { beta: 2.0 }, 0.05);
    let replay = |w: &Workload, subs| {
        let trace = CompiledTrace::compile(w, subs).unwrap();
        Replay::compiled(&trace, &costs).run(&[opt]).unwrap()
    };
    let a = replay(&original, &subs);
    let b = replay(&rebuilt, &subs_back);
    assert_eq!(a, b);
    assert_eq!(subs_back, subs);
}
