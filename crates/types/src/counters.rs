//! Exact work counters, compiled in only with the `counters` feature.
//!
//! A counter is a named tally of one unit of work — an index probe, a
//! heap hole move, a generator `pow` — that the library bumps with
//! [`count!`](crate::count) where the work is done. Without the
//! `counters` cargo feature the macro expands to nothing: its arguments
//! are not even evaluated, and a build of the library is the build it
//! would be without the call sites. With the feature on, each thread adds
//! to its own cache-line-aligned block, registered once in a process-wide
//! list, so shards and pool workers never share a line; a thread's block
//! is folded into the retired total when the thread exits.
//! [`snapshot`] sums the retired total and every live block, so after the
//! threads of a run are joined it reads the run's exact counts wherever
//! the work ran.
//!
//! Counters are process-wide: measure one run at a time, between a
//! [`reset`] and a [`snapshot`].
//!
//! # Examples
//!
//! ```
//! use pscd_types::counters::{self, Counter};
//!
//! counters::reset();
//! pscd_types::count!(Counter::PagesDrawn, 3);
//! let counts = counters::snapshot();
//! // Exact with the `counters` feature on; all zero without it.
//! let expected = if counters::ENABLED { 3 } else { 0 };
//! assert_eq!(counts.get(Counter::PagesDrawn), expected);
//! ```

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident => $label:literal,)*) => {
        /// One kind of counted work. The discriminant indexes [`Counts`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $name,)*
        }

        /// Number of [`Counter`]s.
        pub const COUNTERS: usize = [$($label,)*].len();

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; COUNTERS] = [$(Counter::$name,)*];

            /// The counter's `snake_case` name, as `repro counters`
            /// prints it.
            pub fn label(self) -> &'static str {
                match self {
                    $(Counter::$name => $label,)*
                }
            }
        }
    };
}

counters! {
    /// Probes of a cache store's page → handle table
    /// (`PositionIndex::probe`, request-count indexes included).
    IndexProbes => "index_probes",
    /// Slots moved into a heap hole while sifting: a store heap's
    /// entries and an eviction-order walk's frontier.
    SiftMoves => "sift_moves",
    /// Values rewritten for a resident page (a hit or a value update).
    Revalues => "revalues",
    /// Heap nodes yielded by an eviction-order walk (DC-AP/DC-LAP's walk
    /// for relabel victims).
    HeapNodesWalked => "heap_nodes_walked",
    /// Heap slots visited by the push-time candidate sweep
    /// (`CacheStore::candidates_cover`).
    SlotsSwept => "slots_swept",
    /// Adaptive relabel plans refused (DC-AP/DC-LAP).
    RelabelRefused => "relabel_refused",
    /// Push-time placement decisions (`on_push` and `would_store` calls).
    PlacementEvaluations => "placement_evaluations",
    /// Matched pages offered to a proxy with a push-time module.
    PushOffers => "push_offers",
    /// Pages a proxy stored: stored offers and admitted misses.
    Admissions => "admissions",
    /// Pages a proxy evicted to make room.
    Evictions => "evictions",
    /// Residency-index words written: filled at wake, changed by a mark,
    /// cleared by an invalidation.
    ResidencyWords => "residency_words",
    /// DM's access-order heap operations (hit, insert, pop, remove).
    DmAccessHeapOps => "dm_access_heap_ops",
    /// DM's subscription-order heap operations (insert, pop, remove).
    DmSubHeapOps => "dm_sub_heap_ops",
    /// Content matches run against a frozen kernel.
    Matches => "matches",
    /// Conjunction candidates whose residuals a match verified.
    CandidatesVerified => "candidates_verified",
    /// Slices a streaming pass compiled (a window splits into several
    /// where its pages draw more than the slice budget).
    WindowsCompiled => "windows_compiled",
    /// Pages whose request events the generator drew.
    PagesDrawn => "pages_drawn",
    /// Request events the generator drew.
    RequestsDrawn => "requests_drawn",
    /// `powf` evaluations in the request generator.
    GeneratorPow => "generator_pow",
    /// Day-over-day server-pool rolls in the request generator.
    PoolRolls => "pool_rolls",
}

/// `true` when the crate was built with the `counters` feature, so
/// [`count!`](crate::count) records and [`snapshot`] reads real counts.
pub const ENABLED: bool = cfg!(feature = "counters");

/// One reading of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Counts([u64; COUNTERS]);

impl Default for Counts {
    fn default() -> Self {
        Self([0; COUNTERS])
    }
}

impl Counts {
    /// The count of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// Every `(counter, count)` pair, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// Adds `n` to `counter` on this thread (the target of
/// [`count!`](crate::count) with the feature on).
#[cfg(feature = "counters")]
#[inline]
pub fn add(counter: Counter, n: u64) {
    use std::sync::atomic::Ordering::Relaxed;
    // A thread past its block's destructor counts nothing.
    let _ = LOCAL.try_with(|local| {
        // Only this thread writes its block, so a plain read-modify-write
        // is exact; readers synchronize with it by joining the thread.
        let cell = &local.0 .0[counter as usize];
        cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
    });
}

/// The counts recorded since the last [`reset`], over every thread (zero
/// without the `counters` feature). Exact once the threads that did the
/// work are joined.
pub fn snapshot() -> Counts {
    #[cfg(feature = "counters")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let registry = registry::lock();
        let mut counts = registry.retired;
        for block in &registry.live {
            for (total, cell) in counts.0.iter_mut().zip(&block.0) {
                *total += cell.load(Relaxed);
            }
        }
        counts
    }
    #[cfg(not(feature = "counters"))]
    Counts::default()
}

/// Zeroes every counter on every thread. Call it while no other thread
/// is counting.
pub fn reset() {
    #[cfg(feature = "counters")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let mut registry = registry::lock();
        registry.retired = Counts::default();
        for block in &registry.live {
            block.0.iter().for_each(|cell| cell.store(0, Relaxed));
        }
    }
}

#[cfg(feature = "counters")]
use registry::LOCAL;

#[cfg(feature = "counters")]
mod registry {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    use super::{Counts, COUNTERS};

    /// One thread's counters, alone on its cache lines.
    #[repr(align(64))]
    #[derive(Debug)]
    pub(super) struct Block(pub(super) [AtomicU64; COUNTERS]);

    #[derive(Debug, Default)]
    pub(super) struct Registry {
        /// Counts of threads that have exited.
        pub(super) retired: Counts,
        /// The block of every thread that has counted and not exited.
        pub(super) live: Vec<Arc<Block>>,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        retired: Counts([0; COUNTERS]),
        live: Vec::new(),
    });

    pub(super) fn lock() -> MutexGuard<'static, Registry> {
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This thread's handle on its block; registers the block on first
    /// use and folds it into the retired total when the thread exits.
    pub(super) struct Local(pub(super) Arc<Block>);

    impl Local {
        fn register() -> Self {
            let block = Arc::new(Block(std::array::from_fn(|_| AtomicU64::new(0))));
            lock().live.push(Arc::clone(&block));
            Self(block)
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            let mut registry = lock();
            let Registry { retired, live } = &mut *registry;
            for (total, cell) in retired.0.iter_mut().zip(&self.0 .0) {
                *total += cell.load(Relaxed);
            }
            live.retain(|block| !Arc::ptr_eq(block, &self.0));
        }
    }

    thread_local! {
        pub(super) static LOCAL: Local = Local::register();
    }
}

/// Counts `n` units of a [`Counter`](crate::counters::Counter) on this
/// thread: `count!(Counter::IndexProbes, 1)`. Without the `counters`
/// feature it expands to nothing and evaluates nothing.
#[cfg(feature = "counters")]
#[macro_export]
macro_rules! count {
    (Counter::$counter:ident, $n:expr) => {
        $crate::counters::add($crate::counters::Counter::$counter, ($n) as u64)
    };
}

/// Counts `n` units of a [`Counter`](crate::counters::Counter) on this
/// thread: `count!(Counter::IndexProbes, 1)`. Without the `counters`
/// feature it expands to nothing and evaluates nothing.
#[cfg(not(feature = "counters"))]
#[macro_export]
macro_rules! count {
    (Counter::$counter:ident, $n:expr) => {
        ()
    };
}

#[cfg(all(test, feature = "counters"))]
mod tests {
    use super::*;

    #[test]
    fn counts_from_every_thread_sum_and_survive_the_threads_exit() {
        // The only test that counts, so no other test races its reset.
        reset();
        count!(Counter::PoolRolls, 2);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| count!(Counter::PoolRolls, 5));
            }
        });
        // A scoped thread's block is either still live or already
        // retired; the sum is the same.
        assert_eq!(snapshot().get(Counter::PoolRolls), 17);
        reset();
        assert_eq!(snapshot(), Counts::default());
        assert_eq!(Counter::ALL.len(), COUNTERS);
        assert_eq!(
            Counter::ALL[Counter::PoolRolls as usize],
            Counter::PoolRolls
        );
    }
}
