//! The reference every replay path is checked against: `Vec`-scan models
//! of the twelve strategies and a plain replay loop over them, both
//! written from the paper rather than from the code they check.
//!
//! - [`Model`], [`DmModel`] and [`DcModel`] implement
//!   [`Strategy`](pscd_core::Strategy) with residents in a flat list and
//!   every decision a linear scan; [`spec_strategy`] picks the model of a
//!   [`StrategyKind`].
//! - [`spec_replay`] replays a [`SpecInput`] — pages, publishes,
//!   requests and `(page, proxy, count)` subscription rows as plain
//!   vectors — through one model per proxy; its [`SpecRun`] holds the
//!   [`SimResult`](pscd_sim::SimResult) `simulate_compiled` must return.
//!
//! It also holds what several suites share: [`LINEUP`] and
//! [`within_a_minute`]. The crate is test support (`publish = false`):
//! the models are quadratic, and nothing outside the test suites calls
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use pscd_core::{Strategy, StrategyKind};
use pscd_types::Bytes;
use pscd_workload::{FlashCrowd, ScenarioConfig};

mod dual;
mod simulate;
mod single;

pub use dual::{DcModel, DmModel};
pub use simulate::{spec_replay, SpecInput, SpecRun};
pub use single::Model;

/// The twelve strategies at the paper's parameters (β = 2, DC-FP at
/// 50/50, DC-LAP bounded to [25 %, 75 %]): Table 1's eight one-cache
/// strategies, then DM and the three dual caches.
pub const LINEUP: [StrategyKind; 12] = [
    StrategyKind::Lru,
    StrategyKind::Gds,
    StrategyKind::LfuDa,
    StrategyKind::GdStar { beta: 2.0 },
    StrategyKind::Sub,
    StrategyKind::Sg1 { beta: 2.0 },
    StrategyKind::Sg2 { beta: 2.0 },
    StrategyKind::Sr,
    StrategyKind::Dm { beta: 2.0 },
    StrategyKind::DcFp {
        beta: 2.0,
        pc_fraction: 0.5,
    },
    StrategyKind::DcAp { beta: 2.0 },
    StrategyKind::DcLap {
        beta: 2.0,
        lo: 0.25,
        hi: 0.75,
    },
];

/// The news baseline with one sharp flash crowd on day 2 (hours 30–33,
/// boost 400): at 24 h windows the crowd's day draws more events than a
/// streaming slice's budget, so a streamed pass cuts that day into
/// several slices.
pub fn sliced_flash_crowd() -> ScenarioConfig {
    ScenarioConfig {
        name: "sliced-crowd".to_owned(),
        seed: 7,
        scale: 0.05,
        flash_crowds: vec![FlashCrowd {
            start_hour: 30.0,
            duration_hours: 3.0,
            boost: 400.0,
        }],
        ..ScenarioConfig::flash_crowds()
    }
}

/// The model of `kind`: an empty cache of `capacity` bytes. DC-FP is the
/// dual cache whose bounds meet at its split; DC-AP and DC-LAP start at
/// 50/50.
pub fn spec_strategy(kind: StrategyKind, capacity: Bytes) -> Box<dyn Strategy> {
    match kind {
        StrategyKind::Dm { beta } => Box::new(DmModel::new(capacity, beta)),
        StrategyKind::DcFp { beta, pc_fraction } => {
            Box::new(DcModel::new(capacity, beta, [pc_fraction; 3]))
        }
        StrategyKind::DcAp { beta } => Box::new(DcModel::new(capacity, beta, [0.5, 0.0, 1.0])),
        StrategyKind::DcLap { beta, lo, hi } => {
            Box::new(DcModel::new(capacity, beta, [0.5, lo, hi]))
        }
        one_cache => Box::new(Model::new(one_cache, capacity)),
    }
}

thread_local! {
    /// Evictions on this thread whose victim shared its value with another
    /// candidate, so that age chose it.
    static TIES: Cell<u64> = const { Cell::new(0) };
}

/// Counts the eviction of `victim` from `candidates` (the victim among
/// them) if another candidate has its value.
fn note_eviction(victim: f64, candidates: impl Iterator<Item = f64>) {
    if candidates.filter(|&value| value == victim).count() > 1 {
        TIES.with(|ties| ties.set(ties.get() + 1));
    }
}

/// Evictions on this thread so far that a value tie decided.
fn ties() -> u64 {
    TIES.with(Cell::get)
}

/// Runs `f` on its own thread and fails the test, instead of hanging
/// it, when `f` has not returned within a minute.
///
/// # Panics
///
/// Panics if `f` hangs, and re-raises the panic if `f` panics.
pub fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60)).expect("hung");
    worker.join().expect("worker catches its own panics");
    outcome.unwrap_or_else(|panic| resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lineup_is_every_kind_at_the_papers_parameters() {
        let mut names = LINEUP.map(|kind| kind.name());
        names.sort_unstable();
        assert!(names.windows(2).all(|pair| pair[0] != pair[1]), "{names:?}");
        assert_eq!(
            LINEUP[9..],
            [
                StrategyKind::dc_fp(2.0),
                StrategyKind::DcAp { beta: 2.0 },
                StrategyKind::dc_lap(2.0)
            ]
        );
    }
}
