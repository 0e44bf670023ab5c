//! Full paper-scale shape checks, ignored by default (run them with
//! `cargo test --release -- --ignored`): these claims depend on the
//! absolute cache sizes of the 195k-request trace.

use pscd::experiments::{ExperimentContext, Fig3, Fig4, Trace};
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
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn dclap_leads_the_dual_family_at_every_capacity() {
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
