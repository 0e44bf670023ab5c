//! The paper's claims as data.
//!
//! Each [`Claim`] is one who-wins statement of the evaluation (§5) or of
//! an extension: an id naming what it checks, the [`Exhibit`] it reads,
//! the smallest workload scale it is asserted at, and a predicate over
//! that exhibit's [`ExhibitTable`] that reports every place it fails.
//! [`evaluate_claims`] runs the exhibits of the claims a scale asserts as
//! one [`Plan`].

use std::fmt::Debug;
use std::ops::Range;

use pscd_broker::PushScheme::{self, Always, WhenNecessary};
use pscd_obs::TraceSink;

use crate::{
    Exhibit, ExhibitTable, ExperimentContext, ExperimentError, Plan, Trace, CAPACITIES, COVERAGES,
};

/// One claim, checked on one exhibit.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// What it checks: the name of its predicate in `claims.rs`.
    pub id: &'static str,
    /// The exhibit it reads.
    pub exhibit: fn() -> Exhibit,
    /// The smallest workload scale it is asserted at: 0.05, or 1 where
    /// it depends on the absolute cache sizes of the full trace.
    pub scale: f64,
    /// Every place the claim fails in the exhibit's table; none if it
    /// holds.
    pub check: fn(&ExhibitTable) -> Vec<String>,
}

/// A table of claims, each written `fn id(t) in exhibit at scale { … }`:
/// the predicate, named for what it checks, over the table `t` of
/// `Exhibit::exhibit`.
macro_rules! claims {
    ($(fn $id:ident($t:ident) in $exhibit:ident at $scale:literal $body:block)*) => {{
        $(fn $id($t: &ExhibitTable) -> Vec<String> $body)*
        &[$(Claim { id: stringify!($id), exhibit: Exhibit::$exhibit, scale: $scale, check: $id },)*]
    }};
}

/// Every asserted claim, in the order EXPERIMENTS.md's head cites them. A
/// check is a place and two readings, `a` and `b`; a reading the table
/// lacks is NaN, which fails every check, so a misspelled strategy fails
/// its claim instead of passing it.
pub const CLAIMS: &[Claim] = claims! {
    fn dual_family_beats_gdstar(t) in fig3 at 0.05 {
        beats(t, &CAPACITIES, &["DM", "DC-FP", "DC-AP", "DC-LAP"], &["GD*"])
    }
    fn dclap_beats_dm_above_one_percent(t) in fig3 at 0.05 {
        beats(t, &ABOVE_ONE_PERCENT, &["DC-LAP"], &["DM"])
    }
    fn dclap_beats_dm_at_one_percent(t) in fig3 at 1.0 {
        beats(t, &[0.01], &["DC-LAP"], &["DM"])
    }
    fn sub_trails_gdstar_only_at_one_percent_on_news(t) in fig4 at 1.0 {
        let news = over(t, "GD*", "SUB", Trace::News, 0.01);
        let mut failures = above([news, over(t, "SUB", "GD*", Trace::Alternative, 0.01)]);
        failures.extend(beats(t, &ABOVE_ONE_PERCENT, &["SUB"], &["GD*"]));
        failures
    }
    fn all_but_sub_beat_gdstar_at_every_capacity(t) in fig4 at 1.0 {
        beats(t, &CAPACITIES, &["SG1", "SG2", "SR", "DC-LAP"], &["GD*"])
    }
    fn subscription_schemes_beat_gdstar_above_one_percent(t) in fig4 at 0.05 {
        beats(t, &ABOVE_ONE_PERCENT, &["SUB", "SG1", "SG2", "SR", "DC-LAP"], &["GD*"])
    }
    fn sg2_and_sr_lead_at_every_capacity(t) in fig4 at 1.0 {
        beats(t, &CAPACITIES, &["SG2", "SR"], &["SUB", "SG1", "DC-LAP"])
    }
    fn sr_at_or_above_sg2(t) in fig4 at 1.0 {
        let at = |(trace, x)| over(t, "SR", "SG2", trace, x);
        compare(cells(&CAPACITIES).map(at), |sr, sg2| sr >= sg2)
    }
    fn sg2_and_sr_beat_sg1_above_one_percent(t) in fig4 at 0.05 {
        beats(t, &ABOVE_ONE_PERCENT, &["SG2", "SR"], &["SG1"])
    }
    fn new_approaches_beat_sub(t) in fig4 at 0.05 {
        beats(t, &CAPACITIES, &["SG1", "SG2", "SR", "DC-LAP"], &["SUB"])
    }
    // GD* on NEWS (α = 1.5) above GD* on ALTERNATIVE (α = 1.0).
    fn flatter_popularity_starves_gdstar(t) in fig4 at 1.0 {
        let gd = |trace, x| hit(t, trace, x, "GD*");
        let at = |x| (("GD* NEWS > ALTERNATIVE", x), gd(Trace::News, x), gd(Trace::Alternative, x));
        above(CAPACITIES.map(at))
    }
    // Each gain on ALTERNATIVE above 1.2× the same gain on NEWS, and above 0.
    fn alternative_gains_dwarf_news_gains(t) in table2 at 0.05 {
        let gains = |s| (s, gain(t, Trace::Alternative, s), gain(t, Trace::News, s));
        let columns = ["SUB", "SG1", "SG2", "SR", "DM", "DC-FP", "DC-LAP"].map(gains);
        let checks = |(s, alt, news)| [((s, "NEWS × 1.2"), alt, 1.2 * news), ((s, "0"), alt, 0.0)];
        above(columns.map(checks).concat())
    }
    fn sg2_gain_above_sg1_gain_above_zero(t) in table2 at 0.05 {
        let gains = |trace| (trace, gain(t, trace, "SG2"), gain(t, trace, "SG1"));
        let checks = |(tr, sg2, sg1)| [((tr, "SG2 > SG1"), sg2, sg1), ((tr, "SG1 > 0"), sg1, 0.0)];
        above(BOTH.map(gains).map(checks).concat())
    }
    fn sr_drops_ten_points_at_low_sq(t) in fig5 at 0.05 {
        above(sq_drops(t, &["SR"]).map(|(place, drop)| (place, drop, 0.10)))
    }
    // SG1's and DC-LAP's hit ratios move less than ten points.
    fn sg1_and_dclap_ignore_sq(t) in fig5 at 0.05 {
        above(sq_drops(t, &["SG1", "DC-LAP"]).map(|(place, drop)| (place, 0.10, drop.abs())))
    }
    fn sg1_and_dclap_beat_gdstar_at_low_sq(t) in fig5 at 0.05 {
        beats(t, &[0.25], &["SG1", "DC-LAP"], &["GD*"])
    }
    // SUB's mean over the first two days five points above the last two.
    fn sub_decays_over_the_week(t) in fig6 at 0.05 {
        let sub = |trace, hours| mean(t, trace, "SUB", hours);
        let at = |tr| ((tr, "SUB early > late + 5"), sub(tr, 0..48), sub(tr, LATE) + 5.0);
        above(BOTH.map(at))
    }
    fn sg2_ends_the_week_above_gdstar_and_sub(t) in fig6 at 0.05 {
        let late = |trace, s| ((trace, s), mean(t, trace, "SG2", LATE), mean(t, trace, s, LATE));
        above(BOTH.map(|trace| [late(trace, "GD*"), late(trace, "SUB")]).concat())
    }
    fn gdstar_traffic_ignores_scheme(t) in fig7 at 0.05 {
        let [always, necessary] = SCHEMES.map(|scheme| pages(t, scheme, "GD*"));
        compare([("GD*", always, necessary)], |always, necessary| always == necessary)
    }
    // SG2's pages under the two schemes within 10 %.
    fn sg2_traffic_ignores_scheme(t) in fig7 at 0.05 {
        let [always, necessary] = SCHEMES.map(|scheme| pages(t, scheme, "SG2"));
        compare([("SG2", always, necessary)], |a, n| (a - n).abs() / a < 0.10)
    }
    // Under Always-Pushing, SG2 below 1.5× GD*'s pages.
    fn sg2_traffic_near_gdstar(t) in fig7 at 0.05 {
        above([("GD* × 1.5 > SG2", 1.5 * pages(t, Always, "GD*"), pages(t, Always, "SG2"))])
    }
    fn sub_has_the_most_traffic(t) in fig7 at 0.05 {
        let sub_over = |scheme, s| ((scheme, s), pages(t, scheme, "SUB"), pages(t, scheme, s));
        above(SCHEMES.map(|scheme| [sub_over(scheme, "SG2"), sub_over(scheme, "GD*")]).concat())
    }
    // SUB's pages minus GD*'s smaller under Pushing-When-Necessary.
    fn when_necessary_narrows_sub_gdstar_gap(t) in fig7 at 0.05 {
        let gap = |scheme| pages(t, scheme, "SUB") - pages(t, scheme, "GD*");
        above([("SUB − GD*, Always > When-Necessary", gap(Always), gap(WhenNecessary))])
    }
    fn sg2_trails_gdstar_at_quarter_coverage_on_news(t) in coverage at 1.0 {
        above([over(t, "GD*", "SG2", Trace::News, 0.25)])
    }
    fn dclap_beats_gdstar_at_every_coverage(t) in coverage at 1.0 {
        beats(t, &COVERAGES, &["DC-LAP"], &["GD*"])
    }
    // SG2 dropping stale versions (axis value 1) above GD* keeping them (0).
    fn invalidating_sg2_beats_gdstar(t) in invalidation at 1.0 {
        let place = |tr| (tr, "invalidating SG2 > stale-keeping GD*");
        above(BOTH.map(|tr| (place(tr), hit(t, tr, 1.0, "SG2"), hit(t, tr, 0.0, "GD*"))))
    }
};

/// Evaluates every claim asserted at or below `scale` on workloads of that
/// scale, their exhibits run as one [`Plan`]: each claim's id, in table
/// order, with the places it fails.
///
/// # Errors
///
/// Propagates generation, compilation and simulation failures.
pub fn evaluate_claims(scale: f64) -> Result<Vec<(&'static str, Vec<String>)>, ExperimentError> {
    let ctx = ExperimentContext::scaled(scale, 0, TraceSink::disabled())?;
    let claims: Vec<&Claim> = CLAIMS.iter().filter(|c| c.scale <= scale).collect();
    let mut exhibits = Vec::new();
    for exhibit in claims.iter().map(|c| (c.exhibit)()) {
        if !exhibits.contains(&exhibit) {
            exhibits.push(exhibit);
        }
    }
    let tables = Plan::run(exhibits.clone(), &ctx)?.tables(&ctx);
    let table = |c: &Claim| exhibits.iter().position(|e| *e == (c.exhibit)());
    let verdict = |c: &&Claim| (c.id, (c.check)(&tables[table(c).expect("planned")]));
    Ok(claims.iter().map(verdict).collect())
}

const BOTH: [Trace; 2] = [Trace::News, Trace::Alternative];
const SCHEMES: [PushScheme; 2] = [Always, WhenNecessary];
const ABOVE_ONE_PERCENT: [f64; 2] = [0.05, 0.10];
const LATE: Range<usize> = 120..168;

/// A hit-ratio check: which strategy is above which, where, and their
/// readings.
type Check<'a> = ((&'a str, &'a str, Trace, f64), f64, f64);

/// The checks where `holds(a, b)` fails, each as its place and readings.
fn compare<P, I>(checks: I, holds: fn(f64, f64) -> bool) -> Vec<String>
where
    P: Debug,
    I: IntoIterator<Item = (P, f64, f64)>,
{
    let failed = checks.into_iter().filter(|&(_, a, b)| !holds(a, b));
    failed
        .map(|(place, a, b)| format!("{place:?}: {a:.4} vs {b:.4}"))
        .collect()
}

/// The checks where `a > b` fails.
fn above<P: Debug>(checks: impl IntoIterator<Item = (P, f64, f64)>) -> Vec<String> {
    compare(checks, |a, b| a > b)
}

/// Both traces at each of `xs`.
fn cells(xs: &[f64]) -> impl Iterator<Item = (Trace, f64)> + '_ {
    BOTH.into_iter()
        .flat_map(move |trace| xs.iter().map(move |&x| (trace, x)))
}

/// The check that `w`'s hit ratio is above `l`'s at one cell.
fn over<'a>(t: &ExhibitTable, w: &'a str, l: &'a str, trace: Trace, x: f64) -> Check<'a> {
    ((w, l, trace, x), hit(t, trace, x, w), hit(t, trace, x, l))
}

fn hit(t: &ExhibitTable, trace: Trace, x: f64, strategy: &str) -> f64 {
    t.hit_ratio(trace, x, strategy).unwrap_or(f64::NAN)
}

fn gain(t: &ExhibitTable, trace: Trace, strategy: &str) -> f64 {
    t.improvement(trace, strategy).unwrap_or(f64::NAN)
}

fn mean(t: &ExhibitTable, trace: Trace, strategy: &str, hours: Range<usize>) -> f64 {
    t.mean_over(trace, strategy, hours).unwrap_or(f64::NAN)
}

fn pages(t: &ExhibitTable, scheme: PushScheme, strategy: &str) -> f64 {
    let pages = t.total_pages(scheme, strategy);
    pages.map_or(f64::NAN, |pages| pages as f64)
}

/// Each hit ratio of `winners` above each of `losers`, on both traces at
/// each of `xs`.
fn beats(t: &ExhibitTable, xs: &[f64], winners: &[&str], losers: &[&str]) -> Vec<String> {
    let mut checks = Vec::new();
    for (trace, x) in cells(xs) {
        for w in winners {
            checks.extend(losers.iter().map(|l| over(t, w, l, trace, x)));
        }
    }
    above(checks)
}

/// Each strategy's hit-ratio drop from SQ = 1 to SQ = 0.25, on both traces.
fn sq_drops<'a>(
    t: &'a ExhibitTable,
    strategies: &'a [&'a str],
) -> impl Iterator<Item = ((&'a str, Trace), f64)> + 'a {
    let drop = move |s, trace| hit(t, trace, 1.0, s) - hit(t, trace, 0.25, s);
    let at = move |&s| BOTH.map(|trace| ((s, trace), drop(s, trace)));
    strategies.iter().flat_map(at)
}
