//! Exhibits as data.
//!
//! Every grid exhibit of the paper's §5, and the ablations and extensions
//! built the same way, is strategies × one axis on the NEWS and
//! ALTERNATIVE traces, projected to one metric. An [`Exhibit`] is that
//! spec as a value: title, traces, [`Axis`], lineup, [`Metric`] and the
//! [`Layout`] quirks its printed bytes need. Its cells are `(source,
//! options)` pairs; a [`Plan`] replays them, and the exhibit projects
//! the plan's results into an [`ExhibitTable`] of
//! `(trace, axis value, results)` rows, which prints itself as text
//! ([`Display`](fmt::Display), GitHub pipe tables under `##`/`###`
//! headings) and as CSV ([`ToCsv`]).

use std::fmt;
use std::ops::Range;

use pscd_broker::PushScheme;
use pscd_core::StrategyKind::{self, DcFp, DcLap, Dm, GdStar, Gds, LfuDa, Lru, Sg1, Sg2, Sr, Sub};
use pscd_sim::{CrashPlan, SimOptions, SimResult};
use pscd_types::SimTime;

use crate::{
    pct, signed_pct, ExperimentContext, ExperimentError, Plan, SourceKey, TextTable, ToCsv, Trace,
    BETAS, CAPACITIES, PAPER_BETA, QUALITIES,
};

/// The hour of the fleet-wide proxy restart the crash exhibit injects
/// (mid-week).
pub const CRASH_HOUR: usize = 84;

/// DC-LAP PC-fraction bound pairs, widest first. `(0.5, 0.5)` pins the
/// partition (DC-FP behaviour); `(0.0, 1.0)` is unbounded (DC-AP).
pub const LAP_BOUNDS: [(f64, f64); 5] =
    [(0.0, 1.0), (0.1, 0.9), (0.25, 0.75), (0.4, 0.6), (0.5, 0.5)];

/// DC-FP push-cache fractions; the paper fixes 50% without justification.
pub const PC_FRACTIONS: [f64; 7] = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9];

/// Notification-coverage levels: the share of the request stream that is
/// notification-driven (the paper's future-work scenario).
pub const COVERAGES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Zipf–Mandelbrot shifts of the calibration sweep (the workload's: 100).
pub const SHIFTS: [f64; 5] = [0.0, 20.0, 50.0, 100.0, 200.0];

/// Workload seeds of the seed study (the workload's is 0).
const SEEDS: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];

/// The capacity every exhibit that does not sweep capacity runs at.
const CAPACITY: f64 = 0.05;

const BOTH: &[Trace] = &[Trace::News, Trace::Alternative];
const SCHEMES: [PushScheme; 2] = [PushScheme::Always, PushScheme::WhenNecessary];
const OFF_ON: [f64; 2] = [0.0, 1.0];
const AT_CAPACITY: [f64; 1] = [CAPACITY];
const AT_CRASH: [f64; 1] = [CRASH_HOUR as f64];

/// Every exhibit by its `repro` name, in print order.
type Registry = [(&'static str, fn() -> Exhibit); 15];
#[rustfmt::skip]
const REGISTRY: Registry = [
    ("beta", Exhibit::beta), ("fig3", Exhibit::fig3), ("fig4", Exhibit::fig4),
    ("table2", Exhibit::table2), ("fig5", Exhibit::fig5), ("fig6", Exhibit::fig6),
    ("fig7", Exhibit::fig7), ("classic", Exhibit::classic), ("lap-bounds", Exhibit::lap_bounds),
    ("partition", Exhibit::partition), ("coverage", Exhibit::coverage), ("crash", Exhibit::crash),
    ("invalidation", Exhibit::invalidation), ("variance", Exhibit::variance),
    ("shift", Exhibit::shift),
];

/// What an exhibit sweeps. Each variant fixes the values a row is keyed
/// by, the source a value replays and the options of its runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// The paper's capacity settings ([`CAPACITIES`]), SQ = 1.
    Capacity,
    /// Subscription quality ([`QUALITIES`]) at 5%: a source per level.
    Quality,
    /// Notification coverage ([`COVERAGES`]) at 5%, SQ = 1, likewise.
    Coverage,
    /// Workload seeds ([`SEEDS`]) at 5%, SQ = 1: a workload per seed.
    Seed,
    /// Zipf–Mandelbrot shifts ([`SHIFTS`]) at 5%, SQ = 1, likewise.
    Shift,
    /// The two pushing schemes at 5%: `0` is Always-Pushing, `1`
    /// Pushing-When-Necessary.
    Scheme,
    /// Stale-version invalidation at 5%: `0` keeps superseded versions,
    /// `1` drops them on publish.
    Invalidation,
    /// A restart of the whole fleet at hour [`CRASH_HOUR`], 5%.
    Crash,
    /// One point: 5% capacity, SQ = 1.
    Point,
}

impl Axis {
    /// The axis values, in row order.
    fn values(self) -> &'static [f64] {
        match self {
            Axis::Capacity => &CAPACITIES,
            Axis::Quality => &QUALITIES,
            Axis::Coverage => &COVERAGES,
            Axis::Seed => &SEEDS,
            Axis::Shift => &SHIFTS,
            Axis::Scheme | Axis::Invalidation => &OFF_ON,
            Axis::Crash => &AT_CRASH,
            Axis::Point => &AT_CAPACITY,
        }
    }

    /// The source the runs at `x` replay: the trace's base source with
    /// the axis's field set to `x`.
    fn source(self, ctx: &ExperimentContext, trace: Trace, x: f64) -> SourceKey {
        let mut key = ctx.base(trace);
        match self {
            Axis::Quality => key.quality = x,
            Axis::Coverage => key.coverage = x,
            Axis::Seed => key.seed = x as u64,
            Axis::Shift => key.shift = x,
            _ => {}
        }
        key
    }

    fn options(self, x: f64, kind: StrategyKind) -> SimOptions {
        let at = SimOptions::at_capacity(kind, CAPACITY);
        match self {
            Axis::Capacity => SimOptions::at_capacity(kind, x),
            Axis::Scheme => SimOptions {
                scheme: SCHEMES[x as usize],
                ..at
            },
            Axis::Invalidation if x == 1.0 => at.with_invalidation(),
            Axis::Crash => at.with_crash(CrashPlan::new(SimTime::from_hours(x as u64), 1.0)),
            _ => at,
        }
    }

    /// How a value reads as a row key or section heading, in the text
    /// or in CSV (where a section's key names its file).
    fn label(self, x: f64, csv: bool) -> String {
        let i = x as usize;
        match (self, csv) {
            (Axis::Capacity, false) => format!("{:.0}%", x * 100.0),
            (Axis::Scheme, false) => ["Always-Pushing", "Pushing-When-Necessary"][i].to_owned(),
            (Axis::Scheme, true) => ["always", "when_necessary"][i].to_owned(),
            (Axis::Invalidation, false) => ["keep stale", "invalidate"][i].to_owned(),
            _ => format!("{x}"),
        }
    }
}

/// The quantity an exhibit projects each run to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    /// Global hit ratio: [`pct`] in the text, percent to four decimals in
    /// CSV. In an hourly table, the hourly hit ratio (%).
    HitRatio,
    /// Relative hit-ratio improvement (%) over the row's first lineup
    /// entry, the baseline, which gets no column: [`signed_pct`] in the
    /// text, two decimals in CSV.
    Improvement,
    /// Publisher→proxy pages (pushed + fetched). In an hourly table, pages
    /// per hour, printed as 6-hour integer means.
    Traffic,
}

impl Metric {
    /// One run as a table cell, `base` being its row's baseline.
    fn value(self, r: &SimResult, base: &SimResult, csv: bool) -> String {
        match (self, csv) {
            (Metric::HitRatio, false) => pct(r.hit_ratio()),
            (Metric::HitRatio, true) => format!("{:.4}", 100.0 * r.hit_ratio()),
            (Metric::Improvement, false) => signed_pct(r.relative_improvement_percent(base)),
            (Metric::Improvement, true) => format!("{:.2}", r.relative_improvement_percent(base)),
            (Metric::Traffic, _) => r.traffic.total_pages().to_string(),
        }
    }

    /// One run as an hourly series: pages, or the hit ratio (%) with
    /// `None` for idle hours.
    fn hourly(self, r: &SimResult) -> Vec<Option<f64>> {
        match self {
            Metric::Traffic => (r.hourly.traffic_pages().into_iter())
                .map(|p| Some(p as f64))
                .collect(),
            _ => r.hourly.hit_ratio_percent(),
        }
    }

    /// A bucket of an hourly series as a text cell.
    fn bucket(self, series: &[Option<f64>], hours: Range<usize>) -> String {
        match self {
            Metric::Traffic => {
                let pages = series[hours.clone()].iter().flatten().sum::<f64>() as u64;
                (pages / hours.len() as u64).to_string()
            }
            _ => format!("{:.1}", mean_busy(series, hours)),
        }
    }
}

/// How the rows split into `###` sections, each its own table (and, for
/// [`Csv::Wide`], its own file).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Sections {
    /// One table, no subheading.
    One,
    /// One per trace: `### NEWS trace`.
    #[default]
    Trace,
    /// One per axis value: `### Always-Pushing`.
    Point,
    /// One per trace and run of same-named lineup entries, holding their
    /// columns: `### NEWS / GD*`.
    TraceAndName,
}

/// What one table row is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Rows {
    /// An axis value, with a column per lineup entry.
    #[default]
    Point,
    /// A trace, keyed by its name, with a column per lineup entry.
    Trace,
    /// A trace, keyed by its α, with a column per lineup entry.
    Alpha,
    /// A trace and lineup entry, with a column per axis value.
    TraceAndStrategy,
    /// A 6-hour bucket of the hours in range (cut at the trace's end), with
    /// a column per lineup entry; CSV has a row per hour of the trace.
    Hours(Range<usize>),
    /// A trace, keyed by its name, with a column per lineup entry: its hit
    /// ratio (%) as mean ± sd over the trace's axis values; then `SG2 gain
    /// over GD* (%)`, the same of the second entry's improvement over the
    /// first, paired by axis value.
    Spread,
}

/// A derived last column of the text tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extra {
    /// `best β`: the parameter of the row's highest hit ratio (the last
    /// one on ties).
    BestBeta,
    /// `tax (points)`: the first column's hit ratio minus the second's, in
    /// percentage points.
    Tax,
    /// `SG2/GD*`: the second column's hit ratio over the first's.
    Ratio,
}

/// Lines the text prints after the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Footer {
    /// Each trace's baseline hit ratio (after the last table).
    Baselines,
    /// Each strategy's total pages and bytes (after every table).
    Totals,
    /// Each strategy's hit ratio over the 12 hours from the crash, minus
    /// the same hours of its run without the crash (after the last table).
    Dent,
}

/// The CSV files an exhibit writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Csv {
    /// None.
    #[default]
    None,
    /// Each section's table as `{stem}_{section}.csv` (`{stem}.csv` for
    /// [`Sections::One`]), with CSV keys and values.
    Wide(&'static str),
    /// One file with a line per table cell: the section's keys, the row
    /// key, the column key, the value.
    Long {
        /// File name.
        file: &'static str,
        /// Header line.
        header: &'static str,
    },
}

/// The per-exhibit quirks of the printed bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Layout {
    /// How the rows split into sections.
    sections: Sections,
    /// Letters the sections `(a)`, `(b)`, … like the paper's sub-figures.
    lettered: bool,
    /// What one table row is.
    rows: Rows,
    /// Heads each lineup column by the strategy's parameter (`β=2`,
    /// `[0.25,0.75]`, `PC=0.5`) instead of its name.
    by_parameter: bool,
    /// A derived last column.
    extra: Option<Extra>,
    /// Lines after the tables.
    footer: Option<Footer>,
    /// The CSV files.
    csv: Csv,
}

impl Layout {
    /// A section per trace, a row per axis value, a column per strategy,
    /// one `{stem}_{trace}.csv` per trace.
    fn grid(stem: &'static str) -> Self {
        Self {
            csv: Csv::Wide(stem),
            ..Self::default()
        }
    }

    /// [`grid`](Self::grid) with the sections lettered `(a)`, `(b)`.
    fn lettered(stem: &'static str) -> Self {
        Self {
            lettered: true,
            ..Self::grid(stem)
        }
    }
}

/// One exhibit as data: which runs to make and how to print them.
#[derive(Debug, Clone, PartialEq)]
pub struct Exhibit {
    /// The `##` heading.
    title: String,
    /// The traces, in print order.
    traces: &'static [Trace],
    /// What the exhibit sweeps.
    axis: Axis,
    /// The strategies run at every axis value, in column order.
    lineup: Vec<StrategyKind>,
    /// What each run is projected to.
    metric: Metric,
    /// How the results print.
    layout: Layout,
}

impl Exhibit {
    /// §5.1 β tuning: GD\*, SG1 and SG2 at every β and capacity; the
    /// `best β` column is the argmax the paper fixes β by.
    pub fn beta() -> Self {
        let layout = Layout {
            sections: Sections::TraceAndName,
            by_parameter: true,
            extra: Some(Extra::BestBeta),
            csv: Csv::Long {
                file: "beta_sweep.csv",
                header: "trace,algorithm,capacity,beta,hit_ratio_pct",
            },
            ..Layout::default()
        };
        let lineup = (0..3)
            .flat_map(|a| BETAS.map(|beta| [GdStar { beta }, Sg1 { beta }, Sg2 { beta }][a]))
            .collect();
        let title = "β sweep (§5.1): hit ratio (%) by β, SQ = 1";
        Self::hit_ratios(title, Axis::Capacity, lineup, layout)
    }

    /// Figure 3: GD\* against the dual family (DM, DC-FP, DC-AP, DC-LAP)
    /// across capacities, SQ = 1.
    pub fn fig3() -> Self {
        let title = "Figure 3: hit ratio (%) of Dual-Methods and Dual-Caches (SQ = 1)";
        let lineup = StrategyKind::figure3_lineup(PAPER_BETA);
        Self::hit_ratios(title, Axis::Capacity, lineup, Layout::grid("fig3"))
    }

    /// Figure 4: GD\*, SUB, SG1, SG2, SR and DC-LAP across capacities,
    /// SQ = 1.
    pub fn fig4() -> Self {
        let title = "Figure 4: hit ratio (%) of all methods (SQ = 1)";
        let lineup = StrategyKind::figure4_lineup(PAPER_BETA);
        Self::hit_ratios(title, Axis::Capacity, lineup, Layout::lettered("fig4"))
    }

    /// Table 2: every subscription-aware strategy's improvement over GD\*
    /// at 5% capacity, SQ = 1, a row per α.
    pub fn table2() -> Self {
        let beta = PAPER_BETA;
        let (fp, lap) = (StrategyKind::dc_fp(beta), StrategyKind::dc_lap(beta));
        let layout = Layout {
            sections: Sections::One,
            rows: Rows::Alpha,
            footer: Some(Footer::Baselines),
            ..Layout::grid("table2")
        };
        Self {
            metric: Metric::Improvement,
            ..Self::hit_ratios(
                "Table 2: relative improvement over GD* (%) (capacity = 5%, SQ = 1)",
                Axis::Point,
                vec![
                    GdStar { beta },
                    Sub,
                    Sg1 { beta },
                    Sg2 { beta },
                    Sr,
                    Dm { beta },
                    fp,
                    lap,
                ],
                layout,
            )
        }
    }

    /// Figure 5: the figure-4 lineup as subscription quality falls, 5%.
    pub fn fig5() -> Self {
        let title = "Figure 5: hit ratio (%) vs subscription quality (capacity = 5%)";
        let lineup = StrategyKind::figure4_lineup(PAPER_BETA);
        Self::hit_ratios(title, Axis::Quality, lineup, Layout::lettered("fig5"))
    }

    /// Figure 6: hourly hit ratio of SG2, SUB and GD\* over the 168 hours,
    /// SQ = 1, 5%.
    pub fn fig6() -> Self {
        let title = "Figure 6: average hourly hit ratio (%) (SQ = 1, capacity = 5%)";
        let layout = Layout {
            rows: Rows::Hours(0..usize::MAX),
            ..Layout::lettered("fig6")
        };
        Self::hit_ratios(title, Axis::Point, Self::sg2_sub_gdstar(), layout)
    }

    /// Figure 7: publisher→proxy pages per hour of SUB, SG2 and GD\* under
    /// the two pushing schemes, NEWS, SQ = 1, 5%, with total pages and
    /// bytes.
    pub fn fig7() -> Self {
        let beta = PAPER_BETA;
        let layout = Layout {
            sections: Sections::Point,
            rows: Rows::Hours(0..usize::MAX),
            footer: Some(Footer::Totals),
            ..Layout::lettered("fig7")
        };
        Self {
            traces: &[Trace::News],
            metric: Metric::Traffic,
            ..Self::hit_ratios(
                "Figure 7: publisher→proxy traffic in pages (SQ = 1, capacity = 5%, NEWS)",
                Axis::Scheme,
                vec![Sub, Sg2 { beta }, GdStar { beta }],
                layout,
            )
        }
    }

    /// Classic access-only policies (LRU, GDS, LFU-DA) against GD\*: the
    /// paper's premise that GD\* is the strongest of them.
    pub fn classic() -> Self {
        let title = "Ablation: classic access-only policies vs GD* (SQ irrelevant)";
        let lineup = vec![Lru, Gds, LfuDa, GdStar { beta: PAPER_BETA }];
        Self::hit_ratios(title, Axis::Capacity, lineup, Layout::grid("classic"))
    }

    /// DC-LAP at each of [`LAP_BOUNDS`], 5%, SQ = 1.
    pub fn lap_bounds() -> Self {
        let title = "Ablation: DC-LAP PC-fraction bounds (capacity = 5%, SQ = 1)";
        let beta = PAPER_BETA;
        let lineup = LAP_BOUNDS.map(|(lo, hi)| DcLap { beta, lo, hi }).to_vec();
        let layout = Self::parameter_sweep("lap_bounds.csv", "trace,lo,hi,hit_ratio_pct");
        Self::hit_ratios(title, Axis::Point, lineup, layout)
    }

    /// DC-FP at each of [`PC_FRACTIONS`], 5%, SQ = 1.
    pub fn partition() -> Self {
        let title = "Ablation: DC-FP push-cache fraction (capacity = 5%, SQ = 1)";
        let beta = PAPER_BETA;
        let lineup = PC_FRACTIONS
            .map(|pc_fraction| DcFp { beta, pc_fraction })
            .to_vec();
        let layout = Self::parameter_sweep("partition.csv", "trace,pc_fraction,hit_ratio_pct");
        Self::hit_ratios(title, Axis::Point, lineup, layout)
    }

    /// GD\*, SG2 and DC-LAP as notification coverage falls, 5%, SQ = 1.
    pub fn coverage() -> Self {
        let title = "Extension: partial notification coverage (capacity = 5%, SQ = 1)";
        let beta = PAPER_BETA;
        let lineup = vec![GdStar { beta }, Sg2 { beta }, StrategyKind::dc_lap(beta)];
        Self::hit_ratios(title, Axis::Coverage, lineup, Layout::grid("coverage"))
    }

    /// Hourly hit ratio of SG2, SUB and GD\* around a restart of the
    /// whole fleet at [`CRASH_HOUR`], NEWS, SQ = 1, 5%: push-time
    /// placement repopulates a cache proactively, access-only caching pays
    /// a miss per page again.
    pub fn crash() -> Self {
        let title = format!(
            "Extension: recovery after a fleet-wide proxy restart at hour {CRASH_HOUR} \
             (NEWS, SQ = 1, capacity = 5%)"
        );
        let layout = Layout {
            sections: Sections::One,
            rows: Rows::Hours(CRASH_HOUR - 24..CRASH_HOUR + 36),
            footer: Some(Footer::Dent),
            ..Layout::grid("crash_recovery")
        };
        Self {
            traces: &[Trace::News],
            ..Self::hit_ratios(&title, Axis::Crash, Self::sg2_sub_gdstar(), layout)
        }
    }

    /// Hit ratios with and without stale-version invalidation, 5%, SQ = 1:
    /// the freshness tax a production news cache pays. Dropping dead weight
    /// frees space for other placements, but neither pinned run (scale
    /// 0.003 or full) shows that outweighing the refetches: the tax reads
    /// zero or positive in every cell.
    pub fn invalidation() -> Self {
        let title = "Extension: stale-version invalidation (capacity = 5%, SQ = 1)";
        let beta = PAPER_BETA;
        let lineup = vec![
            GdStar { beta },
            Sub,
            Sg2 { beta },
            StrategyKind::dc_lap(beta),
        ];
        let layout = Layout {
            sections: Sections::One,
            rows: Rows::TraceAndStrategy,
            extra: Some(Extra::Tax),
            ..Layout::default()
        };
        Self::hit_ratios(title, Axis::Invalidation, lineup, layout)
    }

    /// GD\*, SG2 and DC-LAP on each trace regenerated under seeds 0–4,
    /// 5%, SQ = 1: how much of the result is workload noise.
    pub fn variance() -> Self {
        let title = format!(
            "Seed sensitivity: hit ratio (%) mean ± sd over {} seeds (capacity = 5%, SQ = 1)",
            SEEDS.len()
        );
        let beta = PAPER_BETA;
        let lineup = vec![GdStar { beta }, Sg2 { beta }, StrategyKind::dc_lap(beta)];
        let layout = Layout {
            sections: Sections::One,
            rows: Rows::Spread,
            ..Layout::default()
        };
        Self::hit_ratios(&title, Axis::Seed, lineup, layout)
    }

    /// GD\* and SG2 on NEWS regenerated at each of [`SHIFTS`], 5%, SQ = 1,
    /// with its matched pairs: the workload's calibration (DESIGN.md §3).
    pub fn shift() -> Self {
        let title = "Calibration: Zipf–Mandelbrot shift sensitivity (NEWS, capacity = 5%, SQ = 1)";
        let lineup = vec![GdStar { beta: PAPER_BETA }, Sg2 { beta: PAPER_BETA }];
        let layout = Layout {
            sections: Sections::One,
            extra: Some(Extra::Ratio),
            ..Layout::default()
        };
        let traces = &[Trace::News];
        Self {
            traces,
            ..Self::hit_ratios(title, Axis::Shift, lineup, layout)
        }
    }

    /// The exhibits `repro <name>` prints, in order: every one for `all`,
    /// those from `classic` on for `ablations`, else the one so named;
    /// none for an unknown name.
    pub fn selected(name: &str) -> Vec<Exhibit> {
        (REGISTRY.iter().enumerate())
            .filter(|&(i, &(n, _))| name == "all" || name == n || i >= 7 && name == "ablations")
            .map(|(_, (_, spec))| spec())
            .collect()
    }

    /// A hit-ratio exhibit on both traces.
    fn hit_ratios(title: &str, axis: Axis, lineup: Vec<StrategyKind>, layout: Layout) -> Self {
        Self {
            title: title.to_owned(),
            traces: BOTH,
            axis,
            lineup,
            metric: Metric::HitRatio,
            layout,
        }
    }

    /// One table, a row per trace, a column per parameter value.
    fn parameter_sweep(file: &'static str, header: &'static str) -> Layout {
        Layout {
            sections: Sections::One,
            rows: Rows::Trace,
            by_parameter: true,
            csv: Csv::Long { file, header },
            ..Layout::default()
        }
    }

    /// The lineup of figure 6 and the crash exhibit: the best combined
    /// scheme against the two single-opportunity schemes.
    fn sg2_sub_gdstar() -> Vec<StrategyKind> {
        let beta = PAPER_BETA;
        vec![Sg2 { beta }, Sub, GdStar { beta }]
    }

    /// Each row's trace, axis value and source, with the options of its
    /// lineup and, under [`Footer::Dent`], the same without the crash: the
    /// cells the exhibit reads.
    pub(crate) fn grid(
        &self,
        ctx: &ExperimentContext,
    ) -> Vec<(Trace, f64, SourceKey, Vec<SimOptions>)> {
        let (mut rows, dent) = (Vec::new(), self.layout.footer == Some(Footer::Dent));
        for &trace in self.traces {
            for &x in self.axis.values() {
                let options = (self.lineup.iter())
                    .map(|&kind| self.axis.options(x, kind).with_threads(ctx.threads()));
                let twins =
                    (options.clone().filter(|_| dent)).map(|o| SimOptions { crash: None, ..o });
                let cells = options.chain(twins).collect();
                rows.push((trace, x, self.axis.source(ctx, trace, x), cells));
            }
        }
        rows
    }

    /// The exhibit's rows, read from a plan that holds its cells.
    pub(crate) fn table(&self, plan: &Plan, ctx: &ExperimentContext) -> ExhibitTable {
        let (mut rows, mut pairs, mut uncrashed) = (Vec::new(), Vec::new(), Vec::new());
        for (trace, x, key, options) in self.grid(ctx) {
            let result = |cell| plan.get(&key, cell).expect("the plan holds every cell");
            let mut results: Vec<SimResult> = options.iter().map(result).cloned().collect();
            uncrashed.push(results.split_off(self.lineup.len()));
            rows.push((trace, x, results));
            pairs.push(plan.pairs(&key).expect("the plan holds every source"));
        }
        ExhibitTable {
            exhibit: self.clone(),
            rows,
            pairs,
            uncrashed,
        }
    }

    /// Runs the exhibit alone: a [`Plan`] of its cells, projected.
    ///
    /// # Errors
    ///
    /// Propagates generation, compilation and simulation failures.
    pub fn run(&self, ctx: &ExperimentContext) -> Result<ExhibitTable, ExperimentError> {
        Ok(self.table(&Plan::run(vec![self.clone()], ctx)?, ctx))
    }
}

/// The results of one [`Exhibit`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExhibitTable {
    /// The spec that ran.
    exhibit: Exhibit,
    /// `(trace, axis value, a result per lineup entry)`, trace-major in
    /// axis order.
    pub rows: Vec<(Trace, f64, Vec<SimResult>)>,
    /// The matched (publish, proxy) pairs of each row's source.
    pairs: Vec<u64>,
    /// Each row's results without the crash, under [`Footer::Dent`].
    uncrashed: Vec<Vec<SimResult>>,
}

impl ExhibitTable {
    /// The result of `strategy` in the first row whose trace and axis
    /// value `key` accepts: the one lookup the others project.
    fn find(&self, key: impl Fn(Trace, f64) -> bool, strategy: &str) -> Option<&SimResult> {
        self.rows
            .iter()
            .filter(|(trace, x, _)| key(*trace, *x))
            .find_map(|(_, _, results)| results.iter().find(|r| r.strategy == strategy))
    }

    /// The result of one strategy at one trace and axis value.
    pub fn cell(&self, trace: Trace, x: f64, strategy: &str) -> Option<&SimResult> {
        self.find(|t, v| t == trace && v == x, strategy)
    }

    /// The hit ratio of one strategy at one trace and axis value.
    pub fn hit_ratio(&self, trace: Trace, x: f64, strategy: &str) -> Option<f64> {
        self.cell(trace, x, strategy).map(SimResult::hit_ratio)
    }

    /// The improvement (%) of one strategy over the baseline (the first
    /// lineup entry) in the trace's first row.
    pub fn improvement(&self, trace: Trace, strategy: &str) -> Option<f64> {
        let (_, x, results) = self.rows.iter().find(|(t, _, _)| *t == trace)?;
        let result = self.cell(trace, *x, strategy)?;
        Some(result.relative_improvement_percent(&results[0]))
    }

    /// The mean hourly hit ratio (%) of one strategy in the trace's first
    /// row over an hour range, skipping idle hours (`0` if all are idle);
    /// `None` if the exhibit lacks the strategy.
    pub fn mean_over(&self, trace: Trace, strategy: &str, hours: Range<usize>) -> Option<f64> {
        self.find(|t, _| t == trace, strategy)
            .map(|r| mean_busy(&r.hourly.hit_ratio_percent(), hours))
    }

    /// The total pages one strategy transferred under one pushing scheme
    /// (an exhibit over the two schemes, such as Figure 7).
    pub fn total_pages(&self, scheme: PushScheme, strategy: &str) -> Option<u64> {
        let x = SCHEMES.iter().position(|&s| s == scheme)? as f64;
        self.find(|_, v| v == x, strategy)
            .map(|r| r.traffic.total_pages())
    }

    /// The matched pairs of the source of one trace and axis value.
    fn pairs(&self, trace: Trace, x: f64) -> Option<u64> {
        let row = self.rows.iter().position(|r| r.0 == trace && r.1 == x)?;
        Some(self.pairs[row])
    }

    /// The `###` sections, in print order.
    fn sections(&self) -> Vec<Section<'_>> {
        let e = &self.exhibit;
        let skip = usize::from(e.metric == Metric::Improvement);
        let all: Vec<usize> = (skip..e.lineup.len()).collect();
        let letter = |i: usize| match e.layout.lettered {
            true => format!("({}) ", char::from(b'a' + i as u8)),
            false => String::new(),
        };
        let buckets = match e.layout.rows {
            Rows::Hours(_) => " (6-hour buckets)",
            _ => "",
        };
        let of_trace = |trace: Trace| self.rows.iter().filter(|r| r.0 == trace).collect();
        match e.layout.sections {
            Sections::One => vec![Section {
                heading: None,
                key: None,
                rows: self.rows.iter().collect(),
                columns: all,
            }],
            Sections::Trace => (e.traces.iter().enumerate())
                .map(|(i, &trace)| Section {
                    heading: Some(format!("{}{} trace{buckets}", letter(i), trace.name())),
                    key: Some(trace.name().to_owned()),
                    rows: of_trace(trace),
                    columns: all.clone(),
                })
                .collect(),
            Sections::Point => (e.axis.values().iter().enumerate())
                .map(|(i, &x)| Section {
                    heading: Some(format!("{}{}{buckets}", letter(i), e.axis.label(x, false))),
                    key: Some(e.axis.label(x, true)),
                    rows: self.rows.iter().filter(|r| r.1 == x).collect(),
                    columns: all.clone(),
                })
                .collect(),
            Sections::TraceAndName => {
                let mut names: Vec<&str> = e.lineup.iter().map(StrategyKind::name).collect();
                names.dedup();
                let mut sections = Vec::new();
                for &trace in e.traces {
                    for name in &names {
                        sections.push(Section {
                            heading: Some(format!("{} / {name}", trace.name())),
                            key: Some(format!("{},{name}", trace.name())),
                            rows: of_trace(trace),
                            columns: (all.iter().copied())
                                .filter(|&j| e.lineup[j].name() == *name)
                                .collect(),
                        });
                    }
                }
                sections
            }
        }
    }

    /// One section as a table of strings: text (`csv = false`) or CSV.
    fn pivot(&self, section: &Section<'_>, csv: bool) -> (Vec<String>, Vec<Vec<String>>) {
        let e = &self.exhibit;
        let label = |j: usize| match e.layout.by_parameter {
            true => parameter(&e.lineup[j], csv),
            false => e.lineup[j].name().to_owned(),
        };
        if let Rows::Hours(range) = &e.layout.rows {
            let mut headers = vec!["hour".to_owned()];
            headers.extend(section.columns.iter().map(|&j| label(j)));
            return (headers, self.hourly(section, range, csv));
        }
        if e.layout.rows == Rows::Spread {
            return self.spread(section);
        }
        // Each row: its key cells, the baseline an improvement is measured
        // against, and `(lineup index, result)` per value column.
        type Keyed<'r> = (Vec<String>, &'r SimResult, Vec<(usize, &'r SimResult)>);
        let mut keyed: Vec<Keyed<'_>> = Vec::new();
        let mut headers: Vec<String> = Vec::new();
        if e.layout.rows == Rows::TraceAndStrategy {
            headers.extend(["trace", "strategy"].map(str::to_owned));
            headers.extend(e.axis.values().iter().map(|&x| e.axis.label(x, csv)));
            for &trace in e.traces {
                for &j in &section.columns {
                    let cells: Vec<_> = (section.rows.iter())
                        .filter(|r| r.0 == trace)
                        .map(|r| (j, &r.2[j]))
                        .collect();
                    let key = vec![trace.name().to_owned(), e.lineup[j].name().to_owned()];
                    keyed.push((key, cells[0].1, cells));
                }
            }
        } else {
            let header = match (&e.layout.rows, e.axis, csv) {
                (Rows::Trace, ..) => "trace",
                (Rows::Alpha, _, false) => "α",
                (Rows::Alpha, _, true) => "alpha",
                (_, Axis::Quality, false) => "SQ",
                (_, Axis::Quality, true) => "sq",
                (_, Axis::Coverage, _) => "coverage",
                (_, Axis::Shift, _) => "shift",
                _ => "capacity",
            };
            headers.push(header.to_owned());
            if e.axis == Axis::Shift {
                headers.push("matched pairs".to_owned());
            }
            headers.extend(section.columns.iter().map(|&j| label(j)));
            for (trace, x, results) in &section.rows {
                let mut key = vec![match (&e.layout.rows, csv) {
                    (Rows::Trace, _) => trace.name().to_owned(),
                    (Rows::Alpha, _) => format!("{}", trace.alpha()),
                    _ => e.axis.label(*x, csv),
                }];
                if e.axis == Axis::Shift {
                    key.extend(self.pairs(*trace, *x).map(|pairs| pairs.to_string()));
                }
                let cells = section.columns.iter().map(|&j| (j, &results[j])).collect();
                keyed.push((key, &results[0], cells));
            }
        }
        let extra = e.layout.extra.filter(|_| !csv);
        if let Some(extra) = extra {
            let header = match extra {
                Extra::BestBeta => "best β",
                Extra::Tax => "tax (points)",
                Extra::Ratio => "SG2/GD*",
            };
            headers.push(header.to_owned());
        }
        let rows = keyed
            .into_iter()
            .map(|(mut row, base, cells)| {
                row.extend(cells.iter().map(|&(_, r)| e.metric.value(r, base, csv)));
                match extra {
                    Some(Extra::BestBeta) => row.push(
                        (cells.iter())
                            .max_by(|a, b| {
                                (a.1.hit_ratio().partial_cmp(&b.1.hit_ratio()))
                                    .expect("hit ratios are finite")
                            })
                            .map(|&(j, _)| parameter(&e.lineup[j], true))
                            .unwrap_or_default(),
                    ),
                    Some(Extra::Tax) => row.push(format!(
                        "{:.1}",
                        100.0 * (cells[0].1.hit_ratio() - cells[1].1.hit_ratio())
                    )),
                    Some(Extra::Ratio) => row.push(match cells[0].1.hit_ratio() {
                        0.0 => String::new(),
                        base => format!("{:.2}x", cells[1].1.hit_ratio() / base),
                    }),
                    None => {}
                }
                row
            })
            .collect();
        (headers, rows)
    }

    /// A [`Rows::Spread`] section as a table of strings.
    fn spread(&self, section: &Section<'_>) -> (Vec<String>, Vec<Vec<String>>) {
        let e = &self.exhibit;
        let mut headers = vec!["trace".to_owned()];
        headers.extend(
            section
                .columns
                .iter()
                .map(|&j| e.lineup[j].name().to_owned()),
        );
        headers.push("SG2 gain over GD* (%)".to_owned());
        let mut rows = Vec::new();
        for &trace in e.traces {
            let runs = section.rows.iter().filter(|r| r.0 == trace);
            let percent = |j: usize| runs.clone().map(move |r| r.2[j].hit_ratio_percent());
            let mut row = vec![trace.name().to_owned()];
            row.extend(
                section
                    .columns
                    .iter()
                    .map(|&j| mean_sd(&percent(j).collect::<Vec<_>>())),
            );
            let gains: Vec<f64> = (percent(0).zip(percent(1)))
                .filter(|&(base, _)| base > 0.0)
                .map(|(base, h)| 100.0 * (h - base) / base)
                .collect();
            row.push(mean_sd(&gains));
            rows.push(row);
        }
        (headers, rows)
    }

    /// The rows of a [`Rows::Hours`] section: 6-hour buckets of `range` in
    /// the text, every hour in CSV.
    fn hourly(&self, section: &Section<'_>, range: &Range<usize>, csv: bool) -> Vec<Vec<String>> {
        let (metric, results) = (self.exhibit.metric, &section.rows[0].2);
        let series: Vec<_> = section
            .columns
            .iter()
            .map(|&j| metric.hourly(&results[j]))
            .collect();
        let hours = series.iter().map(Vec::len).max().unwrap_or(0);
        if csv {
            return (0..hours)
                .map(|h| {
                    let mut row = vec![h.to_string()];
                    row.extend(series.iter().map(|s| {
                        (s.get(h).copied().flatten())
                            .map(|v| format!("{v:.4}"))
                            .unwrap_or_default()
                    }));
                    row
                })
                .collect();
        }
        let mut rows = Vec::new();
        let (mut h, to) = (range.start, range.end.min(hours));
        while h < to {
            let end = (h + 6).min(to);
            let mut row = vec![format!("{h}-{}", end - 1)];
            row.extend(series.iter().map(|s| metric.bucket(s, h..end)));
            rows.push(row);
            h = end;
        }
        rows
    }
}

impl fmt::Display for ExhibitTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let footer = self.exhibit.layout.footer;
        writeln!(f, "## {}\n", self.exhibit.title)?;
        for section in self.sections() {
            if let Some(heading) = &section.heading {
                writeln!(f, "### {heading}")?;
            }
            let (headers, rows) = self.pivot(&section, false);
            let mut table = TextTable::new(headers);
            for row in rows {
                table.add_row(row);
            }
            writeln!(f, "{table}")?;
            if footer == Some(Footer::Totals) {
                writeln!(f, "Totals:")?;
                for r in section.rows.iter().flat_map(|row| &row.2) {
                    let (pages, bytes) =
                        (r.traffic.total_pages(), r.traffic.total_bytes().as_u64());
                    writeln!(f, "  {:6} {pages:>9} pages  {bytes:>14} bytes", r.strategy)?;
                }
                writeln!(f)?;
            }
        }
        match footer {
            Some(Footer::Baselines) => {
                for (trace, _, results) in &self.rows {
                    let (name, h) = (&results[0].strategy, 100.0 * results[0].hit_ratio());
                    writeln!(f, "{name} baseline on {}: {h:.1}%", trace.name())?;
                }
            }
            Some(Footer::Dent) => {
                writeln!(f, "Hit-ratio dent (12 h from the crash vs no crash):")?;
                for ((_, x, results), uncrashed) in self.rows.iter().zip(&self.uncrashed) {
                    let hours = *x as usize..*x as usize + 12;
                    let mean =
                        |r: &SimResult| mean_busy(&r.hourly.hit_ratio_percent(), hours.clone());
                    for (r, base) in results.iter().zip(uncrashed) {
                        writeln!(f, "  {:6} {:+.1} points", r.strategy, mean(r) - mean(base))?;
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

impl ToCsv for ExhibitTable {
    fn to_csv(&self) -> Vec<(String, String)> {
        let text = |lines: Vec<String>| lines.join("\n") + "\n";
        let sections = self.sections();
        match self.exhibit.layout.csv {
            Csv::None => Vec::new(),
            Csv::Wide(stem) => (sections.iter())
                .map(|section| {
                    let name = match &section.key {
                        Some(key) => format!("{stem}_{}.csv", key.to_lowercase()),
                        None => format!("{stem}.csv"),
                    };
                    let (headers, rows) = self.pivot(section, true);
                    let lines = std::iter::once(headers).chain(rows);
                    (name, text(lines.map(|cells| cells.join(",")).collect()))
                })
                .collect(),
            Csv::Long { file, header } => {
                let mut lines = vec![header.to_owned()];
                for section in &sections {
                    let (headers, rows) = self.pivot(section, true);
                    for row in &rows {
                        for (column, value) in headers.iter().zip(row).skip(1) {
                            let keys = section.key.iter().chain([&row[0], column, value]);
                            lines.push(keys.map(String::as_str).collect::<Vec<_>>().join(","));
                        }
                    }
                }
                vec![(file.to_owned(), text(lines))]
            }
        }
    }
}

/// One `###` section: its heading, its CSV key (file suffix or key
/// fields), its rows and the lineup columns it shows.
struct Section<'a> {
    heading: Option<String>,
    key: Option<String>,
    rows: Vec<&'a (Trace, f64, Vec<SimResult>)>,
    columns: Vec<usize>,
}

/// A strategy's tuning parameter as a text column heading or as CSV
/// fields; the name for a strategy without one.
fn parameter(kind: &StrategyKind, csv: bool) -> String {
    let (text, fields) = match *kind {
        DcLap { lo, hi, .. } => (format!("[{lo},{hi}]"), format!("{lo},{hi}")),
        DcFp { pc_fraction, .. } => (format!("PC={pc_fraction}"), format!("{pc_fraction}")),
        GdStar { beta } | Sg1 { beta } | Sg2 { beta } => (format!("β={beta}"), format!("{beta}")),
        _ => (kind.name().to_owned(), kind.name().to_owned()),
    };
    if csv {
        fields
    } else {
        text
    }
}

/// A sample's mean and standard deviation (`n − 1` denominator; 0 for one
/// sample) as `mean ± sd`; empty for no samples.
fn mean_sd(samples: &[f64]) -> String {
    if samples.is_empty() {
        return String::new();
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    format!("{mean:.1} ± {:.1}", variance.sqrt())
}

/// The mean of a series' non-idle hours in a range (cut at its end); `0`
/// if none.
fn mean_busy(series: &[Option<f64>], hours: Range<usize>) -> f64 {
    let end = hours.end.min(series.len());
    let busy: Vec<f64> = series[hours.start.min(end)..end]
        .iter()
        .flatten()
        .copied()
        .collect();
    match busy.len() {
        0 => 0.0,
        n => busy.iter().sum::<f64>() / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_obs::TraceSink;

    /// One exhibit's expectations: the scale it runs at, its row count,
    /// text the rendering must contain, its CSV files as `(name, header,
    /// line count)`, and the exhibit's own orderings and absent keys.
    struct Case {
        exhibit: fn() -> Exhibit,
        scale: f64,
        rows: usize,
        rendered: &'static [&'static str],
        csv: &'static [(&'static str, &'static str, usize)],
        check: fn(&ExhibitTable),
    }

    fn h(t: &ExhibitTable, trace: Trace, x: f64, strategy: &str) -> f64 {
        t.hit_ratio(trace, x, strategy).unwrap()
    }

    const CASES: &[Case] = &[
        Case {
            exhibit: Exhibit::beta,
            scale: 0.002,
            rows: 2 * CAPACITIES.len(),
            rendered: &["## β sweep", "### NEWS / SG2", "best β", "β=0.0625"],
            csv: &[(
                "beta_sweep.csv",
                "trace,algorithm,capacity,beta,hit_ratio_pct",
                1 + 2 * 3 * 3 * BETAS.len(),
            )],
            check: |t| {
                // The best β of GD* at 5% is one of the swept values.
                let (_, _, results) = &t.rows[1];
                let best = (t.exhibit.lineup.iter().zip(results))
                    .filter(|(kind, _)| kind.name() == "GD*")
                    .max_by(|a, b| a.1.hit_ratio().partial_cmp(&b.1.hit_ratio()).unwrap())
                    .map(|(kind, _)| parameter(kind, true))
                    .unwrap();
                assert!(BETAS.iter().any(|b| b.to_string() == best), "{best}");
                assert!(t.hit_ratio(Trace::News, 0.05, "nope").is_none());
            },
        },
        Case {
            exhibit: Exhibit::fig3,
            scale: 0.004,
            rows: 6,
            rendered: &["Figure 3", "### NEWS trace", "DC-LAP"],
            csv: &[
                ("fig3_news.csv", "capacity,GD*,DM,DC-FP,DC-AP,DC-LAP", 4),
                (
                    "fig3_alternative.csv",
                    "capacity,GD*,DM,DC-FP,DC-AP,DC-LAP",
                    4,
                ),
            ],
            check: |t| {
                // Every dual strategy beats GD* at 5% on both traces (the
                // paper's headline claim for figure 3).
                for trace in [Trace::News, Trace::Alternative] {
                    let gd = h(t, trace, 0.05, "GD*");
                    for name in ["DM", "DC-FP", "DC-AP", "DC-LAP"] {
                        let hr = h(t, trace, 0.05, name);
                        assert!(hr > gd, "{name} ({hr}) <= GD* ({gd}) on {}", trace.name());
                    }
                }
                assert!(t.hit_ratio(Trace::News, 0.5, "GD*").is_none());
            },
        },
        Case {
            exhibit: Exhibit::fig4,
            scale: 0.004,
            rows: 6,
            rendered: &[
                "Figure 4",
                "### (a) NEWS trace",
                "### (b) ALTERNATIVE trace",
            ],
            csv: &[
                ("fig4_news.csv", "capacity,GD*,SUB,SG1,SG2,SR,DC-LAP", 4),
                (
                    "fig4_alternative.csv",
                    "capacity,GD*,SUB,SG1,SG2,SR,DC-LAP",
                    4,
                ),
            ],
            check: |t| {
                for trace in [Trace::News, Trace::Alternative] {
                    let [gd, sg1, sg2, sr, sub] =
                        ["GD*", "SG1", "SG2", "SR", "SUB"].map(|s| h(t, trace, 0.05, s));
                    // SG2 and SR lead; the combined schemes beat pure
                    // pushing. (Finer orderings like SG1 > SUB need a larger
                    // scale; see the claims in claims.rs.)
                    assert!(sg2 > gd && sr > gd, "{}", trace.name());
                    assert!(sg2 >= sg1 && sr >= sg1, "{}", trace.name());
                    assert!(sg2 > sub, "{}", trace.name());
                }
            },
        },
        Case {
            exhibit: Exhibit::table2,
            scale: 0.004,
            rows: 2,
            rendered: &["Table 2", "| α ", "GD* baseline on NEWS"],
            csv: &[("table2.csv", "alpha,SUB,SG1,SG2,SR,DM,DC-FP,DC-LAP", 3)],
            check: |t| {
                // The paper's key observation: gains are much larger for
                // α = 1.0. At this tiny scale the GD* baseline is only a
                // handful of hits, so the two improvements land within a
                // few percent of each other and their order is sampling
                // noise: assert near-parity here and leave the strict
                // ordering to the claims in claims.rs.
                for name in ["SG1", "SG2", "DC-LAP"] {
                    let news = t.improvement(Trace::News, name).unwrap();
                    let alt = t.improvement(Trace::Alternative, name).unwrap();
                    assert!(alt > 0.9 * news, "{name}: ALT {alt} far below NEWS {news}");
                    assert!(alt > 0.0);
                }
                assert!(t.improvement(Trace::News, "missing").is_none());
            },
        },
        Case {
            exhibit: Exhibit::fig5,
            scale: 0.004,
            rows: 8,
            rendered: &["Figure 5", "| SQ "],
            csv: &[
                ("fig5_news.csv", "sq,GD*,SUB,SG1,SG2,SR,DC-LAP", 5),
                ("fig5_alternative.csv", "sq,GD*,SUB,SG1,SG2,SR,DC-LAP", 5),
            ],
            check: |t| {
                for trace in [Trace::News, Trace::Alternative] {
                    // GD* ignores subscriptions entirely: identical across SQ.
                    assert!((h(t, trace, 1.0, "GD*") - h(t, trace, 0.25, "GD*")).abs() < 1e-12);
                    // SR is the most SQ-sensitive: it loses more than SG1
                    // does when SQ drops from 1 to 0.25 (the paper's
                    // headline for fig. 5).
                    let drop = |s| h(t, trace, 1.0, s) - h(t, trace, 0.25, s);
                    let (sr_drop, sg1_drop) = (drop("SR"), drop("SG1"));
                    assert!(
                        sr_drop > sg1_drop,
                        "{}: SR drop {sr_drop} <= SG1 drop {sg1_drop}",
                        trace.name()
                    );
                    // SG1 and DC-LAP stay useful at the lowest quality.
                    let gd = h(t, trace, 0.25, "GD*");
                    assert!(h(t, trace, 0.25, "SG1") > gd);
                    assert!(h(t, trace, 0.25, "DC-LAP") > gd);
                }
            },
        },
        Case {
            exhibit: Exhibit::fig6,
            scale: 0.004,
            rows: 2,
            rendered: &["Figure 6", "### (a) NEWS trace (6-hour buckets)", "| hour "],
            csv: &[
                ("fig6_news.csv", "hour,SG2,SUB,GD*", 169),
                ("fig6_alternative.csv", "hour,SG2,SUB,GD*", 169),
            ],
            check: |t| {
                for trace in [Trace::News, Trace::Alternative] {
                    // SUB's advantage decays: early hours beat late hours.
                    let sub_early = t.mean_over(trace, "SUB", 0..48).unwrap();
                    let sub_late = t.mean_over(trace, "SUB", 120..168).unwrap();
                    assert!(
                        sub_early > sub_late,
                        "{}: SUB early {sub_early} <= late {sub_late}",
                        trace.name()
                    );
                    // SG2 stays above GD* in the steady state.
                    let sg2_late = t.mean_over(trace, "SG2", 120..168).unwrap();
                    assert!(sg2_late > t.mean_over(trace, "GD*", 120..168).unwrap());
                }
                assert!(t.mean_over(Trace::News, "missing", 0..10).is_none());
            },
        },
        Case {
            exhibit: Exhibit::fig7,
            scale: 0.004,
            rows: 2,
            rendered: &["Figure 7", "### (b) Pushing-When-Necessary", "Totals:"],
            csv: &[
                ("fig7_always.csv", "hour,SUB,SG2,GD*", 169),
                ("fig7_when_necessary.csv", "hour,SUB,SG2,GD*", 169),
            ],
            check: |t| {
                use PushScheme::{Always, WhenNecessary};
                let pages = |scheme, s| t.total_pages(scheme, s).unwrap();
                // Under Always-Pushing SUB introduces the most traffic.
                let [sub, sg2, gd] = ["SUB", "SG2", "GD*"].map(|s| pages(Always, s));
                assert!(sub > gd, "SUB {sub} <= GD* {gd}");
                assert!(sub > sg2);
                // SG2's overhead is comparable to GD* (within 2x here; the
                // paper's claim is "comparable").
                assert!((sg2 as f64) < 2.0 * gd as f64, "{sg2} vs {gd}");
                let sub_cell = t.cell(Trace::News, 0.0, "SUB").unwrap();
                assert!(sub_cell.traffic.total_bytes().as_u64() > 0);
                // GD*'s traffic is scheme-independent.
                assert_eq!(pages(Always, "GD*"), pages(WhenNecessary, "GD*"));
                // Pushing-When-Necessary shrinks SUB's overhead.
                assert!(pages(WhenNecessary, "SUB") <= pages(Always, "SUB"));
            },
        },
        Case {
            exhibit: Exhibit::classic,
            scale: 0.004,
            rows: 6,
            rendered: &["classic access-only", "LFU-DA"],
            csv: &[
                ("classic_news.csv", "capacity,LRU,GDS,LFU-DA,GD*", 4),
                ("classic_alternative.csv", "capacity,LRU,GDS,LFU-DA,GD*", 4),
            ],
            check: |t| {
                // GD* is at least as good as LRU at 5% on both traces.
                for trace in [Trace::News, Trace::Alternative] {
                    let (gd, lru) = (h(t, trace, 0.05, "GD*"), h(t, trace, 0.05, "LRU"));
                    assert!(gd >= lru, "{}: GD* {gd} < LRU {lru}", trace.name());
                }
            },
        },
        Case {
            exhibit: Exhibit::lap_bounds,
            scale: 0.004,
            rows: 2,
            rendered: &["DC-LAP PC-fraction bounds", "[0.25,0.75]"],
            csv: &[(
                "lap_bounds.csv",
                "trace,lo,hi,hit_ratio_pct",
                1 + 2 * LAP_BOUNDS.len(),
            )],
            check: |t| {
                for (_, _, results) in &t.rows {
                    assert_eq!(results.len(), LAP_BOUNDS.len());
                    assert!(results.iter().all(|r| (0.0..=1.0).contains(&r.hit_ratio())));
                }
            },
        },
        Case {
            exhibit: Exhibit::partition,
            scale: 0.004,
            rows: 2,
            rendered: &["DC-FP push-cache fraction", "PC=0.5"],
            csv: &[(
                "partition.csv",
                "trace,pc_fraction,hit_ratio_pct",
                1 + 2 * PC_FRACTIONS.len(),
            )],
            check: |t| {
                assert!(t.hit_ratio(Trace::News, 0.05, "DC-FP").is_some());
                // No cell at an unswept key.
                assert!(t.hit_ratio(Trace::News, 0.33, "DC-FP").is_none());
                assert!(!t.to_string().contains("PC=0.33"));
            },
        },
        Case {
            exhibit: Exhibit::coverage,
            scale: 0.004,
            rows: 8,
            rendered: &["partial notification coverage", "| coverage "],
            csv: &[
                ("coverage_news.csv", "coverage,GD*,SG2,DC-LAP", 5),
                ("coverage_alternative.csv", "coverage,GD*,SG2,DC-LAP", 5),
            ],
            check: |t| {
                for trace in [Trace::News, Trace::Alternative] {
                    let gd = h(t, trace, 1.0, "GD*");
                    let full = h(t, trace, 1.0, "SG2");
                    let quarter = h(t, trace, 0.25, "SG2");
                    // Less coverage, fewer push wins, but never below
                    // useless.
                    assert!(full >= quarter, "{}", trace.name());
                    assert!(quarter >= 0.0 && full > gd, "{}", trace.name());
                }
            },
        },
        Case {
            exhibit: Exhibit::crash,
            scale: 0.02,
            rows: 1,
            rendered: &["restart at hour 84", "| 60-65 ", "| 114-119 ", "dent"],
            csv: &[("crash_recovery.csv", "hour,SG2,SUB,GD*", 169)],
            check: |t| {
                let mean = |s, hours| t.mean_over(Trace::News, s, hours).unwrap();
                let dent =
                    |s| mean(s, CRASH_HOUR - 12..CRASH_HOUR) - mean(s, CRASH_HOUR..CRASH_HOUR + 12);
                // Everyone dips at the crash...
                for name in ["SG2", "GD*"] {
                    assert!(dent(name) > 0.0, "{name}: no dent ({})", dent(name));
                }
                // ...but the push-based strategy recovers to a higher
                // level in the first half-day than the access-only
                // baseline.
                let sg2_after = mean("SG2", CRASH_HOUR..CRASH_HOUR + 12);
                let gd_after = mean("GD*", CRASH_HOUR..CRASH_HOUR + 12);
                assert!(
                    sg2_after > gd_after,
                    "SG2 {sg2_after} <= GD* {gd_after} after the crash"
                );
                assert!(t.mean_over(Trace::News, "missing", 0..10).is_none());
                // The footer's dent is each run against itself without the
                // crash: the two agree hour for hour before the crash, and
                // the crash costs SG2 and GD* hits in the 12 hours after.
                // (SUB's may gain: the restart drops its stale pushes.)
                let text = t.to_string();
                let (_, footer) = text
                    .split_once("(12 h from the crash vs no crash):\n")
                    .unwrap();
                let after = |r: &SimResult| {
                    mean_busy(&r.hourly.hit_ratio_percent(), CRASH_HOUR..CRASH_HOUR + 12)
                };
                for (r, base) in t.rows[0].2.iter().zip(&t.uncrashed[0]) {
                    let name = &r.strategy;
                    assert_eq!(r.hourly.hits[..CRASH_HOUR], base.hourly.hits[..CRASH_HOUR]);
                    let dent = after(r) - after(base);
                    if name != "SUB" {
                        assert!(dent < 0.0, "{name}: the crash cost nothing ({dent})");
                    }
                    let line = format!("  {name:6} {dent:+.1} points\n");
                    assert!(footer.contains(&line), "no {line:?} in {footer}");
                }
            },
        },
        Case {
            exhibit: Exhibit::invalidation,
            scale: 0.01,
            rows: 4,
            rendered: &["| keep stale | invalidate | tax (points) |"],
            csv: &[],
            check: |t| {
                for trace in [Trace::News, Trace::Alternative] {
                    for name in ["GD*", "SUB", "SG2", "DC-LAP"] {
                        let without = h(t, trace, 0.0, name);
                        let with = h(t, trace, 1.0, name);
                        // Both runs are valid hit ratios. The tax is
                        // *usually* positive (stale copies would still
                        // serve requests), but can be negative: dropping
                        // dead weight frees space for better placements,
                        // so no sign assertion here.
                        assert!((0.0..=1.0).contains(&without), "{name}");
                        assert!((0.0..=1.0).contains(&with), "{name}");
                        assert!((100.0 * (without - with)).is_finite());
                    }
                }
                assert!(t.hit_ratio(Trace::News, 0.0, "missing").is_none());
            },
        },
        Case {
            exhibit: Exhibit::variance,
            scale: 0.01,
            rows: 2 * SEEDS.len(),
            rendered: &["Seed sensitivity", "| SG2 gain over GD* (%) |", " ± "],
            csv: &[],
            check: |t| {
                // SG2 beats GD* on every seed of both traces.
                for trace in [Trace::News, Trace::Alternative] {
                    for seed in SEEDS {
                        let (gd, sg2) = (h(t, trace, seed, "GD*"), h(t, trace, seed, "SG2"));
                        assert!(sg2 > gd, "seed {seed} on {}", trace.name());
                    }
                }
                // The seeds regenerate the workload: its hit ratios differ.
                assert_ne!(h(t, Trace::News, 0.0, "GD*"), h(t, Trace::News, 1.0, "GD*"));
            },
        },
        Case {
            exhibit: Exhibit::shift,
            scale: 0.004,
            rows: SHIFTS.len(),
            rendered: &["| shift | matched pairs | GD* ", "| 200 "],
            csv: &[],
            check: |t| {
                // Pair density grows with the shift (flatter head -> wider
                // spread). At this tiny scale the trend is only reliable
                // between the endpoints: adjacent settings can swap by
                // sampling noise in the generator's RNG stream.
                let pairs = |x| t.pairs(Trace::News, x).unwrap();
                assert!(
                    pairs(200.0) > pairs(0.0),
                    "{} <= {}",
                    pairs(200.0),
                    pairs(0.0)
                );
                assert!(t.pairs(Trace::Alternative, 0.0).is_none());
            },
        },
    ];

    #[test]
    fn mean_sd_uses_the_sample_deviation() {
        assert_eq!(mean_sd(&[2.0, 4.0, 6.0]), "4.0 ± 2.0");
        assert_eq!(mean_sd(&[3.0]), "3.0 ± 0.0");
        assert_eq!(mean_sd(&[]), "");
    }

    #[test]
    fn selected_names_every_exhibit_once() {
        let all = Exhibit::selected("all");
        assert_eq!(all.len(), 15);
        assert_eq!(all[0], Exhibit::beta());
        assert_eq!(Exhibit::selected("fig4"), vec![Exhibit::fig4()]);
        let ablations = Exhibit::selected("ablations");
        assert_eq!(ablations.len(), 8);
        assert_eq!(ablations.last(), Some(&Exhibit::shift()));
        assert!(Exhibit::selected("nope").is_empty());
    }

    #[test]
    fn every_exhibit_runs_renders_and_exports() {
        let mut contexts: Vec<(f64, ExperimentContext)> = Vec::new();
        for case in CASES {
            let exhibit = (case.exhibit)();
            if !contexts.iter().any(|(s, _)| *s == case.scale) {
                let ctx = ExperimentContext::scaled(case.scale, 0, TraceSink::disabled()).unwrap();
                contexts.push((case.scale, ctx));
            }
            let ctx = &contexts.iter().find(|(s, _)| *s == case.scale).unwrap().1;
            let table = exhibit.run(ctx).unwrap();
            let title = &exhibit.title;
            assert_eq!(table.rows.len(), case.rows, "{title}");
            for (_, _, results) in &table.rows {
                assert_eq!(results.len(), exhibit.lineup.len(), "{title}");
            }

            let rendered = table.to_string();
            assert!(
                rendered.starts_with(&format!("## {title}\n\n")),
                "{rendered}"
            );
            for needle in case.rendered {
                assert!(
                    rendered.contains(needle),
                    "{title}: no {needle:?} in\n{rendered}"
                );
            }

            let files = table.to_csv();
            let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = case.csv.iter().map(|&(n, _, _)| n).collect();
            assert_eq!(names, expected, "{title}");
            for ((name, content), &(_, header, lines)) in files.iter().zip(case.csv) {
                assert_eq!(content.lines().next(), Some(header), "{name}");
                assert_eq!(content.lines().count(), lines, "{name}");
                let columns = header.split(',').count();
                for line in content.lines() {
                    assert_eq!(
                        line.split(',').count(),
                        columns,
                        "{name}: ragged row {line}"
                    );
                }
            }

            (case.check)(&table);
        }
    }
}
