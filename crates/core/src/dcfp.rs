//! DC-FP: dual caches with fixed partition (§3.3).

use pscd_cache::{AccessOutcome, GreedyDualEngine, PageRef};
use pscd_obs::{NullObserver, ObsHandle, Observer, RelabelDirection};
use pscd_types::{Bytes, PageId};

use crate::{value, PushOutcome, Strategy, StrategyClass};

/// The paper's *Dual-Caches with Fixed Partition*: the proxy's storage is
/// split into a **Push-Cache (PC)** managed by SUB and an **Access-Cache
/// (AC)** managed by GD\*, each running only on its own portion.
///
/// * Pushes place pages into PC under SUB's value (eq. 2).
/// * A request first checks PC: a PC hit **moves** the page into AC (it is
///   henceforth evaluated by its access pattern), which may trigger a GD\*
///   replacement in AC.
/// * AC hits and misses run classic GD\*.
///
/// The paper's configuration splits 50%/50% ([`DcFp::new`]); an arbitrary
/// split is available through [`DcFp::with_fraction`].
#[derive(Debug)]
pub struct DcFp<O: Observer = NullObserver> {
    pc: GreedyDualEngine<O>,
    ac: GreedyDualEngine<O>,
    beta: f64,
    obs: ObsHandle<O>,
}

impl DcFp {
    /// Creates a DC-FP cache with the paper's 50/50 partition.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite.
    pub fn new(capacity: Bytes, beta: f64) -> Self {
        Self::with_fraction(capacity, beta, 0.5)
    }

    /// Creates a DC-FP cache devoting `pc_fraction` of the capacity to the
    /// push cache.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite and
    /// `0 < pc_fraction < 1`.
    pub fn with_fraction(capacity: Bytes, beta: f64, pc_fraction: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        assert!(
            pc_fraction > 0.0 && pc_fraction < 1.0,
            "pc_fraction must be in (0, 1)"
        );
        let pc_capacity = capacity.scaled(pc_fraction);
        Self {
            pc: GreedyDualEngine::new(pc_capacity),
            ac: GreedyDualEngine::new(capacity - pc_capacity),
            beta,
            obs: ObsHandle::disabled(),
        }
    }
}

impl<O: Observer> DcFp<O> {
    /// An empty cache with this one's partition and β over the page
    /// ordinals `0..page_count`, reporting cache decisions to `obs`.
    /// Every table is preallocated for the universe, so steady-state
    /// operation never allocates (`0` preallocates nothing and grows on
    /// demand).
    pub fn observed<P: Observer>(self, page_count: usize, obs: ObsHandle<P>) -> DcFp<P> {
        DcFp {
            pc: GreedyDualEngine::with_observer(self.pc_capacity(), page_count, obs.clone()),
            ac: GreedyDualEngine::with_observer(self.ac_capacity(), page_count, obs.clone()),
            beta: self.beta,
            obs,
        }
    }

    /// The push-cache portion's capacity.
    pub fn pc_capacity(&self) -> Bytes {
        self.pc.store().capacity()
    }

    /// The access-cache portion's capacity.
    pub fn ac_capacity(&self) -> Bytes {
        self.ac.store().capacity()
    }

    /// Serializes the mutable state: the PC engine followed by the AC
    /// engine (each partition is an independent [`GreedyDualEngine`]).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.pc.encode_state(out);
        self.ac.encode_state(out);
    }

    /// The cached pages, in arbitrary order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pc
            .store()
            .iter()
            .chain(self.ac.store().iter())
            .map(|p| p.page)
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        &mut self,
        r: &mut pscd_cache::SnapshotReader<'_>,
    ) -> Result<(), pscd_cache::SnapshotError> {
        self.pc.decode_state(r)?;
        self.ac.decode_state(r)
    }

    /// The AC module's value function for `page`.
    fn gd_value(beta: f64, page: &PageRef) -> impl Fn(u32, f64) -> f64 + '_ {
        move |f, l| value::gd_star(l, f, page, beta)
    }
}

impl<O: Observer> Strategy for DcFp<O> {
    fn name(&self) -> &'static str {
        "DC-FP"
    }

    fn class(&self) -> StrategyClass {
        StrategyClass::Combined
    }

    fn on_push(&mut self, page: &PageRef, subs: u32, evicted: &mut Vec<PageId>) -> PushOutcome {
        if self.ac.store().contains(page.page) {
            // Already promoted to AC; nothing to place.
            evicted.clear();
            return PushOutcome::Stored;
        }
        if self.pc.push_valued(page, value::sub(subs, page), evicted) {
            PushOutcome::Stored
        } else {
            PushOutcome::Declined
        }
    }

    fn would_store(&self, page: &PageRef, subs: u32) -> bool {
        self.contains(page.page) || self.pc.would_admit(page, value::sub(subs, page))
    }

    fn on_access(
        &mut self,
        page: &PageRef,
        _subs: u32,
        evicted: &mut Vec<PageId>,
    ) -> AccessOutcome {
        if self.pc.store().contains(page.page) {
            // PC hit: move the page to AC, where it is henceforth judged by
            // its access pattern; the move may trigger a replacement in AC.
            self.pc.take(page.page);
            if O::ENABLED {
                self.obs
                    .relabel(page.page, page.size, RelabelDirection::PcToAc);
            }
            let _ = self
                .ac
                .access(page, Self::gd_value(self.beta, page), evicted);
            // The user-visible outcome is a hit: pages displaced inside AC
            // by the move are not reported (as before the scratch API).
            evicted.clear();
            return AccessOutcome::Hit;
        }
        self.ac
            .access(page, Self::gd_value(self.beta, page), evicted)
    }

    fn contains(&self, page: PageId) -> bool {
        self.pc.store().contains(page) || self.ac.store().contains(page)
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        self.pc.evict(page) || self.ac.evict(page)
    }

    fn capacity(&self) -> Bytes {
        self.pc.store().capacity() + self.ac.store().capacity()
    }

    fn used(&self) -> Bytes {
        self.pc.store().used() + self.ac.store().used()
    }

    fn len(&self) -> usize {
        self.pc.store().len() + self.ac.store().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u32, size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(i), Bytes::new(size), cost)
    }

    #[test]
    fn partition_sizes() {
        let d = DcFp::new(Bytes::new(100), 2.0);
        assert_eq!(d.pc_capacity(), Bytes::new(50));
        assert_eq!(d.ac_capacity(), Bytes::new(50));
        assert_eq!(d.capacity(), Bytes::new(100));
        let d = DcFp::with_fraction(Bytes::new(100), 2.0, 0.25);
        assert_eq!(d.pc_capacity(), Bytes::new(25));
        assert_eq!(d.ac_capacity(), Bytes::new(75));
    }

    #[test]
    fn pushes_confined_to_pc() {
        let mut ev = Vec::new();
        let mut d = DcFp::new(Bytes::new(40), 2.0);
        assert!(d.on_push(&page(1, 20, 1.0), 5, &mut ev).is_stored());
        // PC (20 bytes) is full; equal-value page declined even though AC
        // is empty: pushes never use AC space.
        assert_eq!(
            d.on_push(&page(2, 20, 1.0), 5, &mut ev),
            PushOutcome::Declined
        );
        // More valuable page displaces the first within PC.
        assert!(d.on_push(&page(3, 20, 1.0), 50, &mut ev).is_stored());
        assert!(!d.contains(PageId::new(1)));
    }

    #[test]
    fn pc_hit_moves_page_to_ac() {
        let mut ev = Vec::new();
        let mut d = DcFp::new(Bytes::new(40), 2.0);
        let p = page(1, 10, 1.0);
        d.on_push(&p, 5, &mut ev);
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
        // Page now lives in AC: PC has room again for an equal-value push.
        assert!(d.on_push(&page(2, 20, 1.0), 5, &mut ev).is_stored());
        assert!(d.contains(p.page));
        assert_eq!(d.len(), 2);
        // Second access is an AC hit.
        assert_eq!(d.on_access(&p, 5, &mut ev), AccessOutcome::Hit);
    }

    #[test]
    fn re_push_after_promotion_is_noop() {
        let mut ev = Vec::new();
        let mut d = DcFp::new(Bytes::new(40), 2.0);
        let p = page(1, 10, 1.0);
        d.on_push(&p, 5, &mut ev);
        d.on_access(&p, 5, &mut ev); // promoted to AC
        assert_eq!(d.on_push(&p, 5, &mut ev), PushOutcome::Stored);
        assert!(ev.is_empty());
        assert!(d.would_store(&p, 0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn misses_use_gdstar_on_ac() {
        let mut ev = Vec::new();
        let mut d = DcFp::new(Bytes::new(40), 2.0);
        // Fill AC (20 bytes) through misses.
        assert_eq!(
            d.on_access(&page(1, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissAdmitted
        );
        assert_eq!(
            d.on_access(&page(2, 10, 1.0), 0, &mut ev),
            AccessOutcome::MissAdmitted
        );
        // Third miss evicts within AC only.
        let out = d.on_access(&page(3, 10, 1.0), 0, &mut ev);
        assert_eq!(out, AccessOutcome::MissAdmitted);
        assert_eq!(ev.len(), 1);
        assert_eq!(d.used(), Bytes::new(20));
    }

    #[test]
    fn move_can_trigger_ac_replacement() {
        let mut ev = Vec::new();
        let mut d = DcFp::new(Bytes::new(40), 2.0);
        // Fill AC with two cold pages.
        d.on_access(&page(1, 10, 1.0), 0, &mut ev);
        d.on_access(&page(2, 10, 1.0), 0, &mut ev);
        // Push then access page 3: the PC->AC move must evict from AC.
        d.on_push(&page(3, 20, 1.0), 9, &mut ev);
        assert_eq!(
            d.on_access(&page(3, 20, 1.0), 9, &mut ev),
            AccessOutcome::Hit
        );
        assert!(d.contains(PageId::new(3)));
        assert_eq!(d.ac_capacity(), Bytes::new(20));
        assert!(!d.contains(PageId::new(1)) && !d.contains(PageId::new(2)));
    }

    #[test]
    fn names_and_bounds() {
        let d = DcFp::new(Bytes::new(10), 2.0);
        assert_eq!(d.name(), "DC-FP");
        assert_eq!(d.class(), StrategyClass::Combined);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "pc_fraction")]
    fn rejects_bad_fraction() {
        let _ = DcFp::with_fraction(Bytes::new(10), 2.0, 1.0);
    }
}
