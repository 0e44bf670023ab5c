//! The paper's five page-value equations, each written once.
//!
//! **The order of multiplying is part of each equation.** Rust reads
//! `f * c / s` as `(f·c)/s`, and eq. 1 and 2 are written that way; eq. 3–5
//! (like GDS) take `c/s` first and multiply `f` in afterwards. The two
//! round differently in the last place — `3·1/10` is `0.3`,
//! `3·(1/10)` is `0.30000000000000004` — and which of two equally
//! valuable pages is evicted, or whether a push finds a *strictly* weaker
//! resident, is decided by exactly that place. Every CSV, decision log
//! and benchmark digest pins the order each equation has here: writing
//! them all one way is a change of behaviour, not a tidy-up.

use pscd_cache::PageRef;

/// Eq. 1, GD\*: `V(p) = L + (f(p)·c(p)/s(p))^(1/β)` after `f` references.
pub(crate) fn gd_star(l: f64, f: u32, page: &PageRef, beta: f64) -> f64 {
    l + (f as f64 * page.cost / page.size.as_f64())
        .max(0.0)
        .powf(1.0 / beta)
}

/// Eq. 2, SUB: `V(p) = f_S(p)·c(p)/s(p)` for `subs` matching subscriptions.
pub(crate) fn sub(subs: u32, page: &PageRef) -> f64 {
    subs as f64 * page.cost / page.size.as_f64()
}

/// Eq. 3, SG1: eq. 1 with `f(p) = s + a`, `a` the requests seen so far.
pub(crate) fn sg1(l: f64, subs: u32, a: u32, page: &PageRef, beta: f64) -> f64 {
    let cs = page.cost / page.size.as_f64();
    l + ((subs as f64 + a as f64) * cs).max(0.0).powf(1.0 / beta)
}

/// Eq. 4, SG2: eq. 1 with `f(p) = s − a`, the requests still to come if
/// every subscriber reads the page once (0 once they all have).
pub(crate) fn sg2(l: f64, subs: u32, a: u32, page: &PageRef, beta: f64) -> f64 {
    let cs = page.cost / page.size.as_f64();
    l + ((subs as f64 - a as f64).max(0.0) * cs).powf(1.0 / beta)
}

/// Eq. 5, SR: `V(p) = (s − a)·c(p)/s(p)` — eq. 4's prediction with no
/// inflation and no β.
pub(crate) fn sr(subs: u32, a: u32, page: &PageRef) -> f64 {
    let cs = page.cost / page.size.as_f64();
    (subs as f64 - a as f64).max(0.0) * cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{Bytes, PageId};

    fn page(size: u64, cost: f64) -> PageRef {
        PageRef::new(PageId::new(1), Bytes::new(size), cost)
    }

    #[test]
    fn gd_star_formula() {
        // (f·c/s)^(1/β): f = 2, c = 8, s = 4 → 4^(1/2) = 2, above L = 1.
        assert_eq!(gd_star(1.0, 2, &page(4, 8.0), 2.0), 3.0);
        // β = 1 degenerates to GDS-with-frequency.
        assert_eq!(gd_star(0.0, 3, &page(6, 2.0), 1.0), 1.0);
        // No reference yet (a pushed page): the bare inflation.
        assert_eq!(gd_star(5.0, 0, &page(6, 2.0), 2.0), 5.0);
    }

    #[test]
    fn subscription_equations() {
        let p = page(10, 5.0);
        assert_eq!(sub(4, &p), 2.0);
        // s + a = 8, s − a = 2, each times c/s = 0.5, rooted, above L = 1.
        assert_eq!(sg1(1.0, 5, 3, &p, 2.0), 3.0);
        assert_eq!(sg2(1.0, 5, 3, &p, 1.0), 2.0);
        assert_eq!(sr(5, 3, &p), 1.0);
        // More requests than subscriptions: nothing left to come.
        assert_eq!(sg2(1.0, 3, 5, &p, 2.0), 1.0);
        assert_eq!(sr(3, 5, &p), 0.0);
    }

    #[test]
    fn the_two_orders_of_multiplying_differ_in_the_last_place() {
        // Three subscriptions at cost 1 and one at cost 3 tie under eq. 2
        // and would not if it multiplied as eq. 5 does.
        let (cheap, dear) = (page(10, 1.0), page(10, 3.0));
        assert_eq!(sub(3, &cheap), sub(1, &dear));
        assert_ne!(sr(3, 0, &cheap), sr(1, 0, &dear));
    }
}
