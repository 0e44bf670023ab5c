//! The paper's qualitative results, checked at a reduced (but not tiny)
//! scale: every claim the evaluation section makes about *who wins and
//! where* must hold on the regenerated workload.
//!
//! Scale 0.05 keeps the suite fast in debug builds while preserving the
//! distributional structure; EXPERIMENTS.md holds the full-scale tables.

use pscd::experiments::{ExperimentContext, Fig3, Fig4, Fig5, Fig6, Fig7, Table2, Trace};
use pscd::PushScheme;
use pscd_obs::TraceSink;

fn ctx() -> ExperimentContext {
    ExperimentContext::scaled(0.05, 0, TraceSink::disabled()).unwrap()
}

#[test]
fn fig3_dual_family_beats_gdstar_and_dclap_leads_dm() {
    let fig = Fig3::run(&ctx()).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        for cap in [0.01, 0.05, 0.10] {
            let gd = fig.hit_ratio(trace, cap, "GD*").unwrap();
            // "All the Dual* approaches have better hit ratio than GD*."
            for name in ["DM", "DC-FP", "DC-AP", "DC-LAP"] {
                assert!(
                    fig.hit_ratio(trace, cap, name).unwrap() > gd,
                    "{name} <= GD* at {cap} on {}",
                    trace.name()
                );
            }
        }
        // "DC-LAP outperforms DM" (checked at 5%/10%; the 1% case needs
        // full-scale caches — see full_scale.rs).
        for cap in [0.05, 0.10] {
            let dm = fig.hit_ratio(trace, cap, "DM").unwrap();
            let lap = fig.hit_ratio(trace, cap, "DC-LAP").unwrap();
            assert!(lap > dm, "DC-LAP <= DM at {cap} on {}", trace.name());
        }
    }
}

#[test]
fn fig4_overall_orderings() {
    let fig = Fig4::run(&ctx()).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        for cap in [0.05, 0.10] {
            let gd = fig.hit_ratio(trace, cap, "GD*").unwrap();
            let sub = fig.hit_ratio(trace, cap, "SUB").unwrap();
            let sg1 = fig.hit_ratio(trace, cap, "SG1").unwrap();
            let sg2 = fig.hit_ratio(trace, cap, "SG2").unwrap();
            let sr = fig.hit_ratio(trace, cap, "SR").unwrap();
            let lap = fig.hit_ratio(trace, cap, "DC-LAP").unwrap();
            // "SG2 and SR provide the highest hit ratios."
            assert!(sg2 > sg1 && sr > sg1, "{} cap {cap}", trace.name());
            // "SG1 has a lower hit ratio than SG2 and SR" but beats SUB.
            assert!(sg1 > sub, "{} cap {cap}", trace.name());
            // All subscription schemes beat the baseline at 5%+.
            for h in [sub, sg1, sg2, sr, lap] {
                assert!(h > gd, "{} cap {cap}", trace.name());
            }
        }
        // "All the other new approaches outperform SUB under any setting."
        for cap in [0.01, 0.05, 0.10] {
            let sub = fig.hit_ratio(trace, cap, "SUB").unwrap();
            for name in ["SG1", "SG2", "SR", "DC-LAP"] {
                assert!(
                    fig.hit_ratio(trace, cap, name).unwrap() > sub,
                    "{name} <= SUB at {cap} on {}",
                    trace.name()
                );
            }
        }
    }
    // (The paper's one exception — SUB < GD* at 1% on NEWS — needs the
    // full-scale trace; see full_scale.rs.)
}

#[test]
fn table2_gains_much_larger_for_alternative() {
    let t = Table2::run(&ctx()).unwrap();
    for name in ["SUB", "SG1", "SG2", "SR", "DM", "DC-FP", "DC-LAP"] {
        let news = t.improvement(Trace::News, name).unwrap();
        let alt = t.improvement(Trace::Alternative, name).unwrap();
        assert!(
            alt > 1.2 * news.max(0.0),
            "{name}: ALT gain {alt:.0}% not clearly above NEWS gain {news:.0}%"
        );
    }
    // SG2 ranks above SG1; both positive on both traces.
    for trace in [Trace::News, Trace::Alternative] {
        let sg1 = t.improvement(trace, "SG1").unwrap();
        let sg2 = t.improvement(trace, "SG2").unwrap();
        assert!(sg2 > sg1 && sg1 > 0.0, "{}", trace.name());
    }
}

#[test]
fn fig5_sq_sensitivity() {
    let fig = Fig5::run(&ctx()).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        let sr_1 = fig.hit_ratio(trace, 1.0, "SR").unwrap();
        let sr_25 = fig.hit_ratio(trace, 0.25, "SR").unwrap();
        let sg1_1 = fig.hit_ratio(trace, 1.0, "SG1").unwrap();
        let sg1_25 = fig.hit_ratio(trace, 0.25, "SG1").unwrap();
        // "SR is most affected by SQ and its superiority disappears."
        assert!(sr_1 - sr_25 > 0.10, "{}", trace.name());
        // "Both SG1 and DC-LAP are not sensitive to SQ."
        assert!((sg1_1 - sg1_25).abs() < 0.10, "{}", trace.name());
        let lap_1 = fig.hit_ratio(trace, 1.0, "DC-LAP").unwrap();
        let lap_25 = fig.hit_ratio(trace, 0.25, "DC-LAP").unwrap();
        assert!((lap_1 - lap_25).abs() < 0.10, "{}", trace.name());
        // SG1 and DC-LAP stay well above the baseline at SQ = 0.25.
        let gd = fig.hit_ratio(trace, 0.25, "GD*").unwrap();
        assert!(sg1_25 > gd && lap_25 > gd, "{}", trace.name());
    }
}

#[test]
fn fig6_temporal_behaviour() {
    let fig = Fig6::run(&ctx()).unwrap();
    for trace in [Trace::News, Trace::Alternative] {
        // "The hit ratio of SUB drops with time."
        let sub_early = fig.mean_over(trace, "SUB", 0..48);
        let sub_late = fig.mean_over(trace, "SUB", 120..168);
        assert!(sub_early > sub_late + 5.0, "{}", trace.name());
        // "SG2 keeps a high hit ratio": above GD* and SUB in steady state.
        let sg2_late = fig.mean_over(trace, "SG2", 120..168);
        let gd_late = fig.mean_over(trace, "GD*", 120..168);
        assert!(sg2_late > gd_late, "{}", trace.name());
        assert!(sg2_late > sub_late, "{}", trace.name());
    }
}

#[test]
fn fig7_traffic_overhead() {
    let fig = Fig7::run(&ctx()).unwrap();
    let always = PushScheme::Always;
    let necessary = PushScheme::WhenNecessary;
    // "SUB always introduces the highest traffic overhead."
    for scheme in [always, necessary] {
        let sub = fig.total_pages(scheme, "SUB").unwrap();
        assert!(sub > fig.total_pages(scheme, "SG2").unwrap(), "{scheme:?}");
        assert!(sub > fig.total_pages(scheme, "GD*").unwrap(), "{scheme:?}");
    }
    // "The traffic overhead of GD* does not change with pushing scheme."
    assert_eq!(
        fig.total_pages(always, "GD*"),
        fig.total_pages(necessary, "GD*")
    );
    // "SG2 is not sensitive to pushing scheme" (within 10%).
    let sg2_a = fig.total_pages(always, "SG2").unwrap() as f64;
    let sg2_n = fig.total_pages(necessary, "SG2").unwrap() as f64;
    assert!((sg2_a - sg2_n).abs() / sg2_a < 0.10, "{sg2_a} vs {sg2_n}");
    // "The difference between SUB and GD* is smaller with
    // Pushing-When-Necessary than with Always-Pushing."
    let gap_always = fig.total_pages(always, "SUB").unwrap() as i64
        - fig.total_pages(always, "GD*").unwrap() as i64;
    let gap_necessary = fig.total_pages(necessary, "SUB").unwrap() as i64
        - fig.total_pages(necessary, "GD*").unwrap() as i64;
    assert!(
        gap_necessary < gap_always,
        "{gap_necessary} >= {gap_always}"
    );
    // "SG2's traffic overhead is comparable to GD*" (within 50%).
    let gd = fig.total_pages(always, "GD*").unwrap() as f64;
    assert!(sg2_a < 1.5 * gd, "SG2 {sg2_a} vs GD* {gd}");
}
