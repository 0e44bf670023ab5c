//! CSV export of experiment results, for plotting.

use crate::{
    BetaSweep, ClassicBaselines, CoverageSweep, CrashRecovery, Fig3, Fig4, Fig5, Fig6, Fig7,
    LapBoundsSweep, PartitionSweep, Table2, Trace, TraceRow,
};

/// An experiment result that can be exported as one or more CSV files.
///
/// Each file is returned as `(basename, contents)`; the `repro` binary
/// writes them under the directory given with `--csv DIR`.
pub trait ToCsv {
    /// Renders the result as named CSV files.
    fn to_csv(&self) -> Vec<(String, String)>;
}

fn fmt_ratio(h: f64) -> String {
    format!("{:.4}", 100.0 * h)
}

/// Helper: a (trace, x, per-strategy) grid as one CSV per trace.
fn grid_csv(
    stem: &str,
    x_name: &str,
    rows: &[TraceRow],
    fmt_x: impl Fn(f64) -> String,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for trace in [Trace::News, Trace::Alternative] {
        let mut lines = Vec::new();
        let names: Vec<String> = match rows.iter().find(|(t, _, _)| *t == trace) {
            Some((_, _, cells)) => cells.iter().map(|(n, _)| n.clone()).collect(),
            None => continue,
        };
        lines.push(format!("{x_name},{}", names.join(",")));
        for (t, x, cells) in rows {
            if t != &trace {
                continue;
            }
            let vals: Vec<String> = cells.iter().map(|&(_, h)| fmt_ratio(h)).collect();
            lines.push(format!("{},{}", fmt_x(*x), vals.join(",")));
        }
        out.push((
            format!("{stem}_{}.csv", trace.name().to_lowercase()),
            lines.join("\n") + "\n",
        ));
    }
    out
}

/// Helper: hourly series with one column per strategy.
fn hourly_csv(stem: &str, series: &[(String, Vec<Option<f64>>)]) -> (String, String) {
    let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    let hours = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut lines = vec![format!("hour,{}", names.join(","))];
    for h in 0..hours {
        let vals: Vec<String> = series
            .iter()
            .map(|(_, s)| {
                s.get(h)
                    .copied()
                    .flatten()
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_default()
            })
            .collect();
        lines.push(format!("{h},{}", vals.join(",")));
    }
    (format!("{stem}.csv"), lines.join("\n") + "\n")
}

impl ToCsv for Fig3 {
    fn to_csv(&self) -> Vec<(String, String)> {
        grid_csv("fig3", "capacity", &self.rows, |c| format!("{c}"))
    }
}

impl ToCsv for Fig4 {
    fn to_csv(&self) -> Vec<(String, String)> {
        grid_csv("fig4", "capacity", &self.rows, |c| format!("{c}"))
    }
}

impl ToCsv for Fig5 {
    fn to_csv(&self) -> Vec<(String, String)> {
        grid_csv("fig5", "sq", &self.rows, |q| format!("{q}"))
    }
}

impl ToCsv for Fig6 {
    fn to_csv(&self) -> Vec<(String, String)> {
        [Trace::News, Trace::Alternative]
            .into_iter()
            .map(|trace| {
                let series: Vec<(String, Vec<Option<f64>>)> = self
                    .series
                    .iter()
                    .filter(|(t, _, _)| *t == trace)
                    .map(|(_, n, s)| (n.clone(), s.clone()))
                    .collect();
                hourly_csv(&format!("fig6_{}", trace.name().to_lowercase()), &series)
            })
            .collect()
    }
}

impl ToCsv for Fig7 {
    fn to_csv(&self) -> Vec<(String, String)> {
        use pscd_broker::PushScheme;
        [
            (PushScheme::Always, "always"),
            (PushScheme::WhenNecessary, "when_necessary"),
        ]
        .into_iter()
        .map(|(scheme, label)| {
            let series: Vec<(String, Vec<Option<f64>>)> = self
                .series
                .iter()
                .filter(|(s, _, _)| *s == scheme)
                .map(|(_, n, pages)| (n.clone(), pages.iter().map(|&p| Some(p as f64)).collect()))
                .collect();
            hourly_csv(&format!("fig7_{label}"), &series)
        })
        .collect()
    }
}

impl ToCsv for Table2 {
    fn to_csv(&self) -> Vec<(String, String)> {
        let names: Vec<String> = self
            .rows
            .first()
            .map(|(_, cells)| cells.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        let mut lines = vec![format!("alpha,{}", names.join(","))];
        for (trace, cells) in &self.rows {
            let vals: Vec<String> = cells.iter().map(|&(_, v)| format!("{v:.2}")).collect();
            lines.push(format!("{},{}", trace.alpha(), vals.join(",")));
        }
        vec![("table2.csv".to_owned(), lines.join("\n") + "\n")]
    }
}

impl ToCsv for BetaSweep {
    fn to_csv(&self) -> Vec<(String, String)> {
        let mut lines = vec!["trace,algorithm,capacity,beta,hit_ratio_pct".to_owned()];
        for c in &self.cells {
            lines.push(format!(
                "{},{},{},{},{}",
                c.trace.name(),
                c.algorithm,
                c.capacity,
                c.beta,
                fmt_ratio(c.hit_ratio)
            ));
        }
        vec![("beta_sweep.csv".to_owned(), lines.join("\n") + "\n")]
    }
}

impl ToCsv for ClassicBaselines {
    fn to_csv(&self) -> Vec<(String, String)> {
        grid_csv("classic", "capacity", &self.rows, |c| format!("{c}"))
    }
}

impl ToCsv for CoverageSweep {
    fn to_csv(&self) -> Vec<(String, String)> {
        grid_csv("coverage", "coverage", &self.rows, |c| format!("{c}"))
    }
}

impl ToCsv for LapBoundsSweep {
    fn to_csv(&self) -> Vec<(String, String)> {
        let mut lines = vec!["trace,lo,hi,hit_ratio_pct".to_owned()];
        for (trace, (lo, hi), h) in &self.cells {
            lines.push(format!("{},{lo},{hi},{}", trace.name(), fmt_ratio(*h)));
        }
        vec![("lap_bounds.csv".to_owned(), lines.join("\n") + "\n")]
    }
}

impl ToCsv for PartitionSweep {
    fn to_csv(&self) -> Vec<(String, String)> {
        let mut lines = vec!["trace,pc_fraction,hit_ratio_pct".to_owned()];
        for (trace, p, h) in &self.cells {
            lines.push(format!("{},{p},{}", trace.name(), fmt_ratio(*h)));
        }
        vec![("partition.csv".to_owned(), lines.join("\n") + "\n")]
    }
}

impl ToCsv for CrashRecovery {
    fn to_csv(&self) -> Vec<(String, String)> {
        vec![hourly_csv("crash_recovery", &self.series)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentContext;
    use pscd_obs::TraceSink;

    #[test]
    fn grid_and_hourly_exports_are_well_formed() {
        let ctx = ExperimentContext::scaled(0.003, 0, TraceSink::disabled()).unwrap();
        let fig4 = Fig4::run(&ctx).unwrap();
        let files = fig4.to_csv();
        assert_eq!(files.len(), 2);
        assert!(files.iter().any(|(n, _)| n == "fig4_news.csv"));
        for (_, content) in &files {
            let mut lines = content.lines();
            let header = lines.next().unwrap();
            assert!(header.starts_with("capacity,"));
            let cols = header.split(',').count();
            for line in lines {
                assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
            }
        }

        let fig6 = Fig6::run(&ctx).unwrap();
        let files = fig6.to_csv();
        assert_eq!(files.len(), 2);
        let (_, content) = &files[0];
        assert!(content.starts_with("hour,"));
        // 168 hours + header.
        assert_eq!(content.lines().count(), 169);

        let t2 = Table2::run(&ctx).unwrap();
        let files = t2.to_csv();
        assert_eq!(files[0].0, "table2.csv");
        assert_eq!(files[0].1.lines().count(), 3);
    }

    #[test]
    fn sweep_exports_have_one_row_per_cell() {
        let ctx = ExperimentContext::scaled(0.003, 0, TraceSink::disabled()).unwrap();
        let lap = LapBoundsSweep::run(&ctx).unwrap();
        let (_, content) = &lap.to_csv()[0];
        assert_eq!(content.lines().count(), 1 + lap.cells.len());
        let part = PartitionSweep::run(&ctx).unwrap();
        let (_, content) = &part.to_csv()[0];
        assert_eq!(content.lines().count(), 1 + part.cells.len());
    }
}
