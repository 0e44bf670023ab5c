//! The paper's qualitative results at scale 0.05, fast in debug builds with
//! the full scale's distributional structure: each test asserts the claims
//! of `pscd_experiments::CLAIMS` tagged 0.05 that read its figure, all run
//! as one plan, once per test binary. EXPERIMENTS.md holds full scale.

use pscd::experiments::{evaluate_claims, Exhibit, CLAIMS};
use std::sync::OnceLock;

static VERDICTS: OnceLock<Vec<(&str, Vec<String>)>> = OnceLock::new();

/// Asserts the claims tagged 0.05 whose exhibit `of` picks: at least one.
fn claims_hold(of: impl Fn(Exhibit) -> bool) {
    let verdicts = VERDICTS.get_or_init(|| evaluate_claims(0.05).unwrap());
    let asserted = CLAIMS.iter().filter(|c| c.scale <= 0.05);
    let ids = verdicts.iter().map(|v| v.0);
    assert!(ids.eq(asserted.clone().map(|c| c.id)));
    let pairs = verdicts.iter().zip(asserted);
    let picked = pairs.filter(|(_, c)| of((c.exhibit)()));
    let picked: Vec<_> = picked.map(|(v, _)| v).collect();
    let failed: Vec<_> = picked.iter().filter(|v| !v.1.is_empty()).collect();
    assert!(!picked.is_empty() && failed.is_empty(), "{failed:#?}");
}

macro_rules! tests {
    ($($test:ident($of:expr))*) => {$(#[test] fn $test() { claims_hold($of) })*};
}

tests! {
    every_claim_asserted_at_scale_0_05_holds(|_| true)
    fig3_dual_family_beats_gdstar_and_dclap_leads_dm(|e| e == Exhibit::fig3())
    fig4_overall_orderings(|e| e == Exhibit::fig4())
    table2_gains_much_larger_for_alternative(|e| e == Exhibit::table2())
    fig5_sq_sensitivity(|e| e == Exhibit::fig5())
    fig6_temporal_behaviour(|e| e == Exhibit::fig6())
    fig7_traffic_overhead(|e| e == Exhibit::fig7())
}
