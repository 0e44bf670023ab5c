//! One plan for a set of exhibits. Exhibits overlap (Table 2 reads cells
//! the β sweep and Figures 3 and 4 read too; the seed and shift studies
//! include the base workloads), so a [`Plan`] keeps each distinct
//! `(source, options)` cell once and replays one [`Replay`] lineup per
//! source; each exhibit then reads its rows from the results.

use std::fmt;

use pscd_sim::{Replay, SimOptions, SimResult};

use crate::{Exhibit, ExhibitTable, ExperimentContext, ExperimentError, SourceKey};

/// The deduplicated cells of a set of exhibits, grouped by source, and
/// their results.
#[derive(Debug)]
pub struct Plan {
    /// The exhibits, in print order.
    exhibits: Vec<Exhibit>,
    /// The cells the exhibits read, repeats included.
    requested: usize,
    /// Each source and its distinct cells, in the order first read.
    sources: Vec<(SourceKey, Vec<SimOptions>)>,
    /// Per source: its compiled trace's matched (publish, proxy) pairs
    /// and a result per cell.
    results: Vec<(u64, Vec<SimResult>)>,
}

impl Plan {
    /// Replays the cells of `exhibits`, each distinct `(source, options)`
    /// pair once: a lineup per source, which
    /// [`ExperimentContext::resolve`] builds and which is dropped after it
    /// unless the context caches it.
    ///
    /// # Errors
    ///
    /// Propagates generation, compilation and simulation failures.
    pub fn run(exhibits: Vec<Exhibit>, ctx: &ExperimentContext) -> Result<Self, ExperimentError> {
        let (mut requested, mut sources) = (0, Vec::<(SourceKey, Vec<SimOptions>)>::new());
        for (_, _, key, options) in exhibits.iter().flat_map(|e| e.grid(ctx)) {
            for cell in options {
                requested += 1;
                match sources.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, cells)) if cells.contains(&cell) => {}
                    Some((_, cells)) => cells.push(cell),
                    None => sources.push((key, vec![cell])),
                }
            }
        }
        let results = (sources.iter())
            .map(|(key, cells)| {
                let compiled = ctx.resolve(key)?;
                let results = Replay::compiled(&compiled, ctx.costs()).run(cells)?;
                Ok((compiled.total_matched_pairs(), results))
            })
            .collect::<Result<_, ExperimentError>>()?;
        Ok(Self {
            exhibits,
            requested,
            sources,
            results,
        })
    }

    /// The index of a source.
    fn source(&self, key: &SourceKey) -> Option<usize> {
        self.sources.iter().position(|(k, _)| k == key)
    }

    /// The result of one cell; `None` if the plan lacks it.
    pub fn get(&self, key: &SourceKey, cell: &SimOptions) -> Option<&SimResult> {
        let s = self.source(key)?;
        let c = self.sources[s].1.iter().position(|c| c == cell)?;
        Some(&self.results[s].1[c])
    }

    /// The matched pairs of one source's compiled trace; `None` if the
    /// plan lacks it.
    pub(crate) fn pairs(&self, key: &SourceKey) -> Option<u64> {
        Some(self.results[self.source(key)?].0)
    }

    /// Each exhibit's table, in print order, read from the results.
    pub fn tables(&self, ctx: &ExperimentContext) -> Vec<ExhibitTable> {
        self.exhibits.iter().map(|e| e.table(self, ctx)).collect()
    }

    /// The cells the exhibits read, repeats included.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The distinct cells, each replayed once.
    pub fn unique(&self) -> usize {
        self.sources.iter().map(|(_, cells)| cells.len()).sum()
    }

    /// Each distinct source, built once, with its distinct cells.
    pub fn sources(&self) -> impl Iterator<Item = (&SourceKey, &[SimOptions])> {
        self.sources.iter().map(|(key, cells)| (key, &cells[..]))
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (requested, unique, sources) = (self.requested, self.unique(), self.sources.len());
        write!(
            f,
            "{requested} cells requested, {unique} unique, over {sources} sources"
        )
    }
}
