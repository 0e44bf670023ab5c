//! Every claim of `pscd_experiments::CLAIMS` at full paper scale, ignored
//! by default (run it with `cargo test --release -- --ignored`): some
//! claims depend on the absolute cache sizes of the 195k-request trace.

use pscd::experiments::{evaluate_claims, CLAIMS};

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn every_claim_holds_at_full_scale() {
    let verdicts = evaluate_claims(1.0).unwrap();
    assert!(verdicts.iter().map(|v| v.0).eq(CLAIMS.iter().map(|c| c.id)));
    let failed: Vec<_> = verdicts.iter().filter(|(_, f)| !f.is_empty()).collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
