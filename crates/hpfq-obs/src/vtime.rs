//! Canonical virtual-time comparison helpers.
//!
//! Every scheduler in the paper hinges on `f64` virtual-time arithmetic:
//! WF²Q+'s `V(t)` update (eqs. 27–29), SEFF eligibility (`S ≤ V`), and the
//! tag ordering `S ≤ F` are only correct if comparisons on accumulated
//! floating-point tags are tolerance-aware where sums drift and *exact*
//! where determinism (tie-breaks, stamp identity) is the point. This module
//! is the single home for both kinds: `hpfq_core::VTime`, the type of every
//! tag `hpfq-core` stores, has no comparison operators and orders only
//! through these helpers, and the root `tests/golden.rs` refuses tolerance
//! literals outside the one canonical [`EPS`] defined here (and a few named
//! crate-local ones).
//!
//! ## Choosing a helper
//!
//! * [`approx_le`] / [`approx_ge`] / [`approx_eq`] — comparing two
//!   *independently accumulated* quantities (a virtual time against a tag,
//!   a deficit against a packet length, a share sum against 1). The
//!   tolerance scales with magnitude via [`tol`].
//! * [`strictly_before`] / [`strictly_after`] — the negations: `a` is
//!   beyond `b` by more than the tolerance.
//! * [`exactly_le`] / [`exactly_lt`] / [`same_stamp`] — order-critical
//!   bookkeeping where both operands derive from the *same* arithmetic
//!   (eligible-set threshold tests, stored-stamp identity). These must stay
//!   exact: blurring them changes dispatch order and breaks the paper's
//!   deterministic tie-breaks (Fig. 2 timelines).
//! * [`exceeds_by`] — observer-grade checks with a caller-chosen, looser
//!   epsilon (e.g. `InvariantObserver` tolerates more drift than the
//!   schedulers themselves introduce).
//!
//! Virtual time, reference time, and real simulation time are all `f64`
//! seconds of comparable magnitude, so the same [`EPS`] serves all three —
//! in particular it replaces the previously inconsistent `1e-9`/`1e-12`
//! constants scattered through `hpfq-sim`.

/// The canonical comparison tolerance, in (virtual-) seconds at magnitude 1.
///
/// All scaled tolerances derive from this constant via [`tol`]; the
/// scheduler-side code has no other tolerance literal.
pub const EPS: f64 = 1e-9;

/// Magnitude-scaled tolerance for comparing `a` and `b`:
/// `EPS · (1 + max(|a|, |b|))`.
///
/// The `1 +` keeps an absolute floor of [`EPS`] near zero; the scaling
/// absorbs relative drift in long-accumulated tag sums.
#[inline]
pub fn tol(a: f64, b: f64) -> f64 {
    EPS * (1.0 + a.abs().max(b.abs()))
}

/// `a ≤ b` up to the scaled tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + tol(a, b)
}

/// `a ≥ b` up to the scaled tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    b <= a + tol(a, b)
}

/// `a = b` up to the scaled tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= tol(a, b)
}

/// `a < b` by more than the scaled tolerance (the negation of
/// [`approx_ge`]).
#[inline]
pub fn strictly_before(a: f64, b: f64) -> bool {
    a < b - tol(a, b)
}

/// `a > b` by more than the scaled tolerance (the negation of
/// [`approx_le`]).
#[inline]
pub fn strictly_after(a: f64, b: f64) -> bool {
    strictly_before(b, a)
}

/// `a > b` by more than a tolerance scaled from a caller-chosen `eps`
/// (same shape as [`tol`], with `eps` in place of [`EPS`]).
///
/// Observer-grade checks use this with a looser epsilon than the
/// schedulers' own: a checker must not cry wolf on drift the arithmetic it
/// watches legitimately accumulates.
#[inline]
pub fn exceeds_by(a: f64, b: f64, eps: f64) -> bool {
    a > b + eps * (1.0 + a.abs().max(b.abs()))
}

/// Exact `a ≤ b` for order-critical paths (eligible-set thresholds, tag
/// validity) where both operands come from the same arithmetic and blurring
/// the comparison would change dispatch order.
#[inline]
pub fn exactly_le(a: f64, b: f64) -> bool {
    a <= b
}

/// Exact `a < b`; see [`exactly_le`].
#[inline]
pub fn exactly_lt(a: f64, b: f64) -> bool {
    a < b
}

/// Exact (bitwise-value) equality for recognising a *stored* stamp — an
/// identity test on a previously recorded tag, not an ordering comparison.
/// `NaN` never matches anything, including itself.
#[inline]
pub fn same_stamp(a: f64, b: f64) -> bool {
    a == b
}

/// `v` bumped up by one scaled tolerance — used where a threshold must
/// admit values the arithmetic has mathematically reached but left one ulp
/// short (e.g. WF²Q's SEFF selection after piecewise slope integration).
#[inline]
pub fn nudge_up(v: f64) -> f64 {
    v + tol(v, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_scales_with_magnitude() {
        assert!(approx_eq(1.0, 1.0 + 1e-10));
        assert!(!approx_eq(1.0, 1.0 + 1e-7));
        // At magnitude 1e6 the tolerance is ~1e-3.
        assert!(approx_eq(1e6, 1e6 + 1e-4));
        assert!(!approx_eq(1e6, 1e6 + 1.0));
    }

    #[test]
    fn le_ge_are_tolerant_near_equality() {
        assert!(approx_le(1.0 + 1e-10, 1.0));
        assert!(approx_ge(1.0 - 1e-10, 1.0));
        assert!(!approx_le(1.0 + 1e-6, 1.0));
    }

    #[test]
    fn strict_comparisons_are_the_negations() {
        let cases = [(0.0, 0.0), (1.0, 1.0 + 1e-10), (2.0, 3.0), (5.0, 4.0)];
        for (a, b) in cases {
            assert_eq!(strictly_before(a, b), !approx_ge(a, b), "{a} {b}");
            assert_eq!(strictly_after(a, b), !approx_le(a, b), "{a} {b}");
        }
    }

    #[test]
    fn exact_helpers_are_exact() {
        assert!(exactly_le(1.0, 1.0));
        assert!(!exactly_lt(1.0, 1.0));
        assert!(exactly_lt(1.0, 1.0 + f64::EPSILON));
        assert!(same_stamp(0.3, 0.3));
        assert!(!same_stamp(0.3, 0.3 + f64::EPSILON));
        assert!(!same_stamp(f64::NAN, f64::NAN));
    }

    #[test]
    fn exceeds_by_uses_caller_epsilon() {
        // Within a loose 1e-6 tolerance but beyond the canonical one.
        assert!(!exceeds_by(1.0 + 1e-7, 1.0, 1e-6));
        assert!(exceeds_by(1.0 + 1e-7, 1.0, EPS));
    }

    #[test]
    fn nudge_up_crosses_one_tolerance() {
        let v = 123.456;
        assert!(nudge_up(v) > v);
        assert!(approx_eq(nudge_up(v), v));
        assert!(exactly_le(v + tol(v, v) * 0.99, nudge_up(v)));
    }
}
