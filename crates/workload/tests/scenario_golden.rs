//! Golden tests for the shipped scenario library: every scenario's
//! workload digest is pinned, so any change to the generators, the seed
//! derivations, the time-warp, or the scenario parameters themselves
//! shows up as a failed digest — the cross-PR stability contract for
//! config-driven workloads. Plus the text codec's round-trip and
//! strict-parsing (unknown fields rejected) guarantees.

use pscd_types::SubscriptionTable;
use pscd_workload::{ScenarioConfig, TimeWarp, Workload, WorkloadConfig};

/// Pinned `(name, digest)` pairs: the shipped library in presentation
/// order, then the generator outputs no scenario reaches. A digest is an
/// FNV-1a fold over the full generated workload (pages, publish stream,
/// warped request trace) or subscription table — update ONLY when a
/// generator change is intentional, and say so in the commit.
const GOLDEN: [(&str, u64); 7] = [
    ("news-baseline", 0x34c1_a420_70fd_fc85),
    ("catalog-churn", 0xa5ba_f361_0cbc_ecc9),
    ("flash-crowds", 0xef3b_d8e8_bc3e_7083),
    ("diurnal", 0x311a_99d8_8adb_e28c),
    // `WorkloadConfig::alternative_scaled(0.05)` through
    // `Workload::generate` (scenarios build through `RequestStream`).
    ("alternative-trace", 0x6b08_baee_b4a9_f4e6),
    // `Workload::subscriptions(q)` of `news_scaled(0.05)`; the workload
    // digest folds pages, publishes and requests only.
    ("subscriptions-q1.0", 0xe9c4_7175_8586_0703),
    ("subscriptions-q0.5", 0x3c95_e30f_673d_5d75),
];

/// 64-bit FNV-1a over little-endian `u64` words — the fold
/// `ScenarioConfig::digest` uses.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `ScenarioConfig::digest` fold over an already-built workload.
fn workload_digest(w: &Workload) -> u64 {
    let pages = w
        .pages()
        .iter()
        .flat_map(|p| [u64::from(p.id().index()), p.size().as_u64()]);
    let publishes = w
        .publishing()
        .iter()
        .flat_map(|e| [e.time.as_millis(), u64::from(e.page.index())]);
    let requests = w.requests().iter().flat_map(|e| {
        [
            e.time.as_millis(),
            u64::from(e.server.index()),
            u64::from(e.page.index()),
        ]
    });
    fnv1a(pages.chain(publishes).chain(requests))
}

/// Every `(page, server, count)` row, in the table's page-major order.
fn table_digest(subs: &SubscriptionTable) -> u64 {
    fnv1a(subs.iter().flat_map(|(page, server, count)| {
        [
            u64::from(page.index()),
            u64::from(server.index()),
            u64::from(count),
        ]
    }))
}

#[test]
fn shipped_scenario_digests_are_pinned() {
    let shipped = ScenarioConfig::shipped();
    let (scenarios, generators) = GOLDEN.split_at(shipped.len());
    for (scenario, &(name, digest)) in shipped.iter().zip(scenarios) {
        assert_eq!(scenario.name, name, "library order changed");
        assert_eq!(
            scenario.digest().unwrap(),
            digest,
            "{name}: workload digest drifted from its pinned value"
        );
        // The local fold is the library's, so the rows below pin the
        // same kind of digest.
        assert_eq!(workload_digest(&scenario.build(1).unwrap()), digest);
    }
    let alternative = Workload::generate(&WorkloadConfig::alternative_scaled(0.05)).unwrap();
    let news = Workload::generate(&WorkloadConfig::news_scaled(0.05)).unwrap();
    let computed = [
        workload_digest(&alternative),
        table_digest(&news.subscriptions(1.0).unwrap()),
        table_digest(&news.subscriptions(0.5).unwrap()),
    ];
    assert_eq!(generators.len(), computed.len(), "library size changed");
    for (&(name, digest), got) in generators.iter().zip(computed) {
        assert_eq!(
            got, digest,
            "{name}: generator digest {got:#018x} drifted from its pinned value"
        );
    }
}

#[test]
fn digests_are_thread_and_rebuild_stable() {
    let scenario = ScenarioConfig::flash_crowds();
    let again = scenario.digest().unwrap();
    assert_eq!(again, scenario.digest().unwrap());
    // Thread count must not leak into the generated workload.
    let w1 = scenario.build(1).unwrap();
    let w4 = scenario.build(4).unwrap();
    assert_eq!(w1, w4);
}

#[test]
fn text_codec_round_trips_every_shipped_scenario() {
    for scenario in ScenarioConfig::shipped() {
        let text = scenario.to_text();
        let parsed =
            ScenarioConfig::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(parsed, scenario, "{} round-trip drifted", scenario.name);
        // Round-tripping the parse re-emits identical text.
        assert_eq!(parsed.to_text(), text);
    }
}

#[test]
fn unknown_fields_are_rejected_not_ignored() {
    let mut text = ScenarioConfig::news_baseline().to_text();
    text.push_str("surprise_knob = 3\n");
    let err = ScenarioConfig::from_text(&text).expect_err("unknown field must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("surprise_knob"),
        "error must name the field: {msg}"
    );

    // Unknown keys inside an inline record are rejected too.
    let crowd = ScenarioConfig::flash_crowds()
        .to_text()
        .replace("boost", "bosst");
    assert!(ScenarioConfig::from_text(&crowd).is_err());

    // Duplicates are rejected, comments and blank lines are not.
    let dup = format!("{}seed = 7\n", ScenarioConfig::news_baseline().to_text());
    assert!(ScenarioConfig::from_text(&dup).is_err());
    let commented = format!(
        "# a comment\n\n{}",
        ScenarioConfig::news_baseline().to_text()
    );
    assert_eq!(
        ScenarioConfig::from_text(&commented).unwrap(),
        ScenarioConfig::news_baseline()
    );
}

#[test]
fn scenarios_build_valid_workloads_with_expected_shapes() {
    for scenario in ScenarioConfig::shipped() {
        let w = scenario
            .build(1)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(!w.pages().is_empty(), "{}", scenario.name);
        assert!(!w.requests().is_empty(), "{}", scenario.name);
        // Catalog churn publishes far more versions per original than the
        // news baseline.
        if scenario.name == "catalog-churn" {
            let news = ScenarioConfig::news_baseline().build(1).unwrap();
            assert!(w.pages().len() > 2 * news.pages().len());
        }
    }
}

#[test]
fn time_warp_is_monotone_for_every_shipped_scenario() {
    for scenario in ScenarioConfig::shipped() {
        let Some(warp): Option<TimeWarp> = scenario.time_warp().unwrap() else {
            continue;
        };
        let horizon = scenario.workload_config().unwrap().requests.horizon;
        let mut prev = pscd_types::SimTime::ZERO;
        for i in 0..=1000u64 {
            let t = pscd_types::SimTime::from_millis(horizon.as_millis() * i / 1000);
            let out = warp.apply(t);
            assert!(out >= prev, "{}: warp not monotone at {t:?}", scenario.name);
            assert!(out < horizon, "{}: warp escaped the horizon", scenario.name);
            prev = out;
        }
    }
}
