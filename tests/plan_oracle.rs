//! The spec loop as the oracle of the whole paper output: every distinct
//! cell of `repro all`'s plan, at the scale of its golden pin, equals
//! `pscd_spec::spec_replay` on that cell's source. The plan answers each
//! cell through the same lookup its tables are projected with, so a cell
//! read from the wrong source fails here too, not only in the golden pin.

use pscd::experiments::{Exhibit, ExperimentContext, Plan};
use pscd_obs::TraceSink;
use pscd_spec::{spec_replay, SpecInput};

#[test]
fn every_cell_of_repro_all_equals_the_spec() {
    let ctx = ExperimentContext::scaled(0.003, 2, TraceSink::disabled()).unwrap();
    let plan = Plan::run(Exhibit::selected("all"), &ctx).unwrap();
    let mut checked = 0;
    for (key, cells) in plan.sources() {
        let (workload, subs) = ctx.generate(key).unwrap();
        let input = SpecInput::from_workload(&workload, &subs, ctx.costs());
        for cell in cells {
            let want = spec_replay(&input, cell).result;
            // The whole result: hits, requests, traffic, per-server
            // counts and the hourly series.
            assert_eq!(plan.get(key, cell), Some(&want), "{key:?}, {cell:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, plan.unique());
    assert_eq!(checked, 300, "{plan}");
}
