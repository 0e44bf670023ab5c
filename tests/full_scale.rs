//! Full paper-scale shape checks, ignored by default (run them with
//! `cargo test --release -- --ignored`): these claims depend on the
//! absolute cache sizes of the 195k-request trace.

use pscd::experiments::{Exhibit, ExperimentContext, Fig3, Fig4, Trace, COVERAGES};
use pscd_obs::TraceSink;

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn sub_trails_gdstar_only_at_one_percent_on_news() {
    let ctx = ExperimentContext::scaled(1.0, 0, TraceSink::disabled()).unwrap();
    let fig = Fig4::run(&ctx).unwrap();
    // "The only case in which any of our new approaches are worse than
    // GD* is SUB when the cache capacity is low (1%) on NEWS."
    let gd = fig.hit_ratio(Trace::News, 0.01, "GD*").unwrap();
    let sub = fig.hit_ratio(Trace::News, 0.01, "SUB").unwrap();
    assert!(sub < gd, "SUB {sub} should trail GD* {gd} at 1% on NEWS");
    // ...but not on ALTERNATIVE, and not at higher capacities.
    let gd_alt = fig.hit_ratio(Trace::Alternative, 0.01, "GD*").unwrap();
    let sub_alt = fig.hit_ratio(Trace::Alternative, 0.01, "SUB").unwrap();
    assert!(sub_alt > gd_alt);
    for cap in [0.05, 0.10] {
        let gd = fig.hit_ratio(Trace::News, cap, "GD*").unwrap();
        let sub = fig.hit_ratio(Trace::News, cap, "SUB").unwrap();
        assert!(sub > gd, "cap {cap}");
    }
    for trace in [Trace::News, Trace::Alternative] {
        for cap in [0.01, 0.05, 0.10] {
            let at = |name| fig.hit_ratio(trace, cap, name).unwrap();
            let place = format!("cap {cap} on {}", trace.name());
            // Every other new approach beats GD* everywhere; "SG2 and SR
            // provide the highest hit ratios", SR at or above SG2.
            for name in ["SG1", "SG2", "SR", "DC-LAP"] {
                assert!(at(name) > at("GD*"), "{name} <= GD* at {place}");
            }
            for name in ["SUB", "SG1", "DC-LAP"] {
                assert!(at("SG2").min(at("SR")) > at(name), "{name} at {place}");
            }
            assert!(at("SR") >= at("SG2"), "SR < SG2 at {place}");
        }
    }
    // A flatter popularity law (ALTERNATIVE, α = 1.0) starves GD*.
    for cap in [0.01, 0.05, 0.10] {
        let news = fig.hit_ratio(Trace::News, cap, "GD*").unwrap();
        let alt = fig.hit_ratio(Trace::Alternative, cap, "GD*").unwrap();
        assert!(alt < news, "GD* at {cap}: ALT {alt} >= NEWS {news}");
    }
    // Where else a new approach trails GD*: SG2 at coverage 0.25 on NEWS
    // (it refuses unsubscribed pages), never DC-LAP, whose access cache
    // runs GD*.
    let cov = Exhibit::coverage().run(&ctx).unwrap();
    let gd = cov.hit_ratio(Trace::News, 0.25, "GD*").unwrap();
    let sg2 = cov.hit_ratio(Trace::News, 0.25, "SG2").unwrap();
    assert!(sg2 < gd, "SG2 {sg2} should trail GD* {gd} at coverage 0.25");
    for trace in [Trace::News, Trace::Alternative] {
        for c in COVERAGES {
            let gd = cov.hit_ratio(trace, c, "GD*").unwrap();
            let lap = cov.hit_ratio(trace, c, "DC-LAP").unwrap();
            assert!(
                lap > gd,
                "DC-LAP <= GD* at coverage {c} on {}",
                trace.name()
            );
        }
    }
    // ...nor SG2 under strict consistency: with stale versions invalidated
    // (axis value 1) it still beats GD* keeping them (0).
    let inv = Exhibit::invalidation().run(&ctx).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        let sg2 = inv.hit_ratio(trace, 1.0, "SG2").unwrap();
        let gd = inv.hit_ratio(trace, 0.0, "GD*").unwrap();
        assert!(
            sg2 > gd,
            "invalidating SG2 {sg2} <= GD* {gd} on {}",
            trace.name()
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn dclap_beats_dm_at_every_capacity() {
    let ctx = ExperimentContext::scaled(1.0, 0, TraceSink::disabled()).unwrap();
    let fig = Fig3::run(&ctx).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        for cap in [0.01, 0.05, 0.10] {
            let dm = fig.hit_ratio(trace, cap, "DM").unwrap();
            let lap = fig.hit_ratio(trace, cap, "DC-LAP").unwrap();
            assert!(lap > dm, "DC-LAP <= DM at {cap} on {}", trace.name());
        }
    }
}
