//! NaN-safe, deterministic floating-point comparison helpers.
//!
//! The detection and recovery math (CUSUM statistics, DTW costs, variance
//! weights) must order floats without panicking and without depending on
//! `PartialOrd`'s partiality. `partial_cmp().unwrap()` panics on NaN and
//! `f64::max`/`f64::min` silently *drop* NaN operands, so every comparison
//! that can influence a result goes through the [`f64::total_cmp`]-based
//! helpers in this module instead. The workspace analyzer
//! (`pidpiper-analyzer`, rule family `FS*`) enforces this convention.
//!
//! Under total ordering, NaN sorts above `+inf` (and `-NaN` below `-inf`),
//! so a NaN produced upstream propagates to the "worst" end of a max-scan
//! instead of vanishing — corrupted data loses loudly, not silently.

use std::cmp::Ordering;

/// Maximum of two floats under [`f64::total_cmp`].
///
/// Agrees with `f64::max` on non-NaN inputs (for `-0.0` vs `0.0` it
/// deterministically returns `0.0`); unlike `f64::max`, a NaN operand is
/// treated as the largest value and therefore wins, surfacing upstream
/// corruption instead of masking it.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::fmax;
/// assert_eq!(fmax(1.0, 2.0), 2.0);
/// assert!(fmax(1.0, f64::NAN).is_nan());
/// ```
#[inline]
pub fn fmax(a: f64, b: f64) -> f64 {
    match a.total_cmp(&b) {
        Ordering::Less => b,
        _ => a,
    }
}

/// Minimum of two floats under [`f64::total_cmp`].
///
/// Agrees with `f64::min` on non-NaN inputs (for `-0.0` vs `0.0` it
/// deterministically returns `-0.0`). NaN is the largest value under the
/// total order, so `fmin` never selects it over a real number.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::fmin;
/// assert_eq!(fmin(1.0, 2.0), 1.0);
/// assert_eq!(fmin(1.0, f64::NAN), 1.0);
/// ```
#[inline]
pub fn fmin(a: f64, b: f64) -> f64 {
    match a.total_cmp(&b) {
        Ordering::Greater => b,
        _ => a,
    }
}

/// Whether `x` is exactly zero (either sign), without a float `==`.
///
/// Used for sparsity skips and divide-by-zero guards; false for NaN.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::is_zero;
/// assert!(is_zero(0.0) && is_zero(-0.0));
/// assert!(!is_zero(1e-300) && !is_zero(f64::NAN));
/// ```
#[inline]
pub fn is_zero(x: f64) -> bool {
    x.abs() <= 0.0
}

/// `x`, with every NaN replaced by the one quiet NaN [`f64::NAN`].
///
/// An operation on two NaNs returns one of them, and an invalid
/// operation such as `inf · 0` returns the hardware's default NaN; which
/// one a compiled loop yields depends on operand order. The GEMM and
/// activation kernels store through this function, so their NaN bits are
/// the same on every code path; so does any caller that adds a stored
/// GEMM result in a later pass and must keep the kernel's bits.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::canonical_nan;
/// assert_eq!(canonical_nan(-f64::NAN).to_bits(), f64::NAN.to_bits());
/// assert_eq!(canonical_nan(-0.0).to_bits(), (-0.0f64).to_bits());
/// ```
#[inline(always)]
pub fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Whether `a` and `b` agree to within an absolute tolerance `eps`.
///
/// The NaN-safe replacement for float `==` in assertions and convergence
/// checks: false whenever either operand is NaN.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::approx_eq;
/// assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-9));
/// assert!(!approx_eq(1.0, f64::NAN, 1e-9));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// Sorts a float slice ascending under the total order (NaN last).
///
/// The panic-free replacement for
/// `sort_by(|a, b| a.partial_cmp(b).unwrap())`: total and deterministic
/// for every input, including NaN and mixed-sign zeros.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::sort_floats;
/// let mut xs = [2.0, f64::NAN, 1.0];
/// sort_floats(&mut xs);
/// assert_eq!(xs[0], 1.0);
/// assert!(xs[2].is_nan());
/// ```
#[inline]
pub fn sort_floats(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Index of the largest element under the total order (`None` when empty).
///
/// Ties resolve to the earliest index, so results are independent of
/// iteration accidents. NaN, being largest under the total order, wins —
/// callers scanning for a "worst offender" see corrupted entries first.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::argmax;
/// assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
/// assert_eq!(argmax(&[]), None);
/// ```
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, x) in xs.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(j) if x.total_cmp(&xs[j]) == Ordering::Greater => best = Some(i),
            _ => {}
        }
    }
    best
}

/// Largest value produced by an iterator under the total order.
///
/// Returns `None` for an empty iterator — the panic-free replacement for
/// `iter.max_by(|a, b| a.partial_cmp(b).unwrap())`.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::max_of;
/// assert_eq!(max_of([3.0, 9.0, 4.0]), Some(9.0));
/// assert_eq!(max_of(std::iter::empty()), None);
/// ```
pub fn max_of(iter: impl IntoIterator<Item = f64>) -> Option<f64> {
    iter.into_iter().reduce(fmax)
}

/// Smallest value produced by an iterator under the total order.
///
/// Returns `None` for an empty iterator.
///
/// # Examples
///
/// ```
/// use pidpiper_math::float::min_of;
/// assert_eq!(min_of([3.0, 9.0, 4.0]), Some(3.0));
/// ```
pub fn min_of(iter: impl IntoIterator<Item = f64>) -> Option<f64> {
    iter.into_iter().reduce(fmin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmax_fmin_agree_with_std_on_finite() {
        let xs = [-3.5, -0.0, 0.0, 1.0, 7.25, f64::INFINITY, f64::NEG_INFINITY];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(fmax(a, b), a.max(b), "fmax({a}, {b})");
                assert_eq!(fmin(a, b), a.min(b), "fmin({a}, {b})");
            }
        }
    }

    #[test]
    fn nan_propagates_through_fmax_only() {
        assert!(fmax(f64::NAN, 1e300).is_nan());
        assert!(fmax(1e300, f64::NAN).is_nan());
        assert_eq!(fmin(f64::NAN, 1e300), 1e300);
        assert_eq!(fmin(1e300, f64::NAN), 1e300);
    }

    #[test]
    fn signed_zero_is_deterministic() {
        assert_eq!(fmax(0.0, -0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(fmax(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(fmin(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(fmin(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn zero_and_approx_checks() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(!is_zero(f64::MIN_POSITIVE));
        assert!(!is_zero(f64::NAN));
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
    }

    #[test]
    fn sorting_handles_nan_and_zeros() {
        let mut xs = [0.0, f64::NAN, -1.0, -0.0, f64::INFINITY];
        sort_floats(&mut xs);
        assert_eq!(xs[0], -1.0);
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(xs[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(xs[3], f64::INFINITY);
        assert!(xs[4].is_nan());
    }

    #[test]
    fn argmax_prefers_first_of_equals() {
        assert_eq!(argmax(&[2.0, 7.0, 7.0, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 7.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn iterator_extrema() {
        assert_eq!(max_of([1.0, 4.0, 2.0]), Some(4.0));
        assert_eq!(min_of([1.0, 4.0, 2.0]), Some(1.0));
        assert_eq!(max_of(std::iter::empty()), None);
        assert_eq!(min_of(std::iter::empty()), None);
    }
}
