//! Small numeric toolbox: bisection root/threshold search, golden-section
//! maximization and grid scans.
//!
//! These routines are deliberately dependency-free and deterministic; every
//! solver in this crate (MClr bisection, water-filling, best-response
//! maximization) is built on them.

use crate::error::MarketError;

/// Relative tolerance used by default across the crate's solvers.
pub const DEFAULT_REL_TOL: f64 = 1e-10;

/// Maximum bisection iterations; 200 halvings shrink any practical bracket
/// below `f64` resolution.
const MAX_BISECT_ITERS: usize = 200;

/// Finds the smallest `x` in `[lo, hi]` such that `f(x) >= threshold`,
/// assuming `f` is non-decreasing.
///
/// This is the primitive behind MClr's clearing-price search: the aggregate
/// power reduction is monotone in the price, so the cheapest feasible price
/// is the threshold point. The threshold is a bare `f64` by design: this
/// toolbox is unit-agnostic (callers bisect over watts, prices, or plain
/// ratios alike). It is [`bisect_by`] with `reaches(x)` comparing `f(x)`
/// against `threshold`.
///
/// # Errors
///
/// Returns [`MarketError::Numeric`] if the bracket is invalid (an end is
/// not finite, or `lo > hi`); the values of `f` are never checked. A NaN
/// value counts as not reaching the threshold at `lo` and at midpoints,
/// and as not falling short of it at `hi`. [`MarketError::Infeasible`] is
/// *not* raised here — callers must check `f(hi) >= threshold` beforehand;
/// if it is not, `hi` is returned.
pub fn bisect_threshold<F>(
    lo: f64,
    hi: f64,
    threshold: f64,
    rel_tol: f64,
    f: F,
) -> Result<f64, MarketError>
where
    F: Fn(f64) -> f64,
{
    bisect_by(lo, hi, rel_tol, |x| reaches(f(x), threshold))
}

/// Whether `value` reaches `threshold`: `Some(true)` when `value >=
/// threshold`, `Some(false)` when `value < threshold`, `None` when the two
/// are unordered (a NaN).
pub(crate) fn reaches(value: f64, threshold: f64) -> Option<bool> {
    if value >= threshold {
        Some(true)
    } else if value < threshold {
        Some(false)
    } else {
        None
    }
}

/// The predicate form of [`bisect_threshold`]: finds the smallest `x` in
/// `[lo, hi]` at which `reaches(x)` holds, assuming it holds on an upper
/// interval of the bracket.
///
/// `reaches(x)` answers `Some(true)` when `x` is at or past the threshold,
/// `Some(false)` when it falls short, and `None` when the two are
/// unordered (a NaN). `lo` is returned when it reaches; `hi` is returned
/// when it falls short, or when no midpoint reaches; an unordered point
/// counts as falling short inside the bracket and at `lo`, and keeps the
/// search going at `hi`. A caller that can answer some queries without
/// evaluating its function (MClr's replayed search) passes its own
/// predicate here.
///
/// # Errors
///
/// Returns [`MarketError::Numeric`] if the bracket is invalid.
pub fn bisect_by<R>(
    mut lo: f64,
    mut hi: f64,
    rel_tol: f64,
    mut reaches: R,
) -> Result<f64, MarketError>
where
    R: FnMut(f64) -> Option<bool>,
{
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(MarketError::Numeric("invalid bisection bracket"));
    }
    if reaches(lo) == Some(true) {
        return Ok(lo);
    }
    if reaches(hi) == Some(false) {
        return Ok(hi);
    }
    for _ in 0..MAX_BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if reaches(mid) == Some(true) {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) <= rel_tol * hi.abs().max(1.0) {
            break;
        }
    }
    Ok(hi)
}

/// Maximizes `f` over `[lo, hi]` with a coarse grid scan followed by
/// golden-section refinement around the best grid cell.
///
/// The grid is evaluated in one batched call: `f_grid(xs, values)` must
/// set every `values[i]` to `f(xs[i])`, bit for bit, so a caller can
/// price the whole grid through one walk of its model (see
/// [`CostModel::cost_many`](crate::CostModel::cost_many)). The golden-section
/// polish calls `f` point by point.
///
/// Returns `(x_best, f(x_best))`. The grid scan makes the routine robust to
/// multi-modal objectives (e.g. net gain under non-convex cost models); the
/// golden-section pass then polishes to ~1e-10 relative accuracy.
///
/// # Errors
///
/// Returns [`MarketError::Numeric`] when the bracket is invalid.
pub fn maximize<F, G>(
    lo: f64,
    hi: f64,
    grid: usize,
    f: F,
    f_grid: G,
) -> Result<(f64, f64), MarketError>
where
    F: Fn(f64) -> f64,
    G: FnOnce(&[f64], &mut [f64]),
{
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(MarketError::Numeric("invalid maximization bracket"));
    }
    if hi - lo <= f64::EPSILON * lo.abs().max(1.0) {
        return Ok((lo, f(lo)));
    }
    let n = grid.max(3);
    let step = (hi - lo) / n as f64;
    let mut buf = vec![0.0; 2 * (n + 1)];
    let (xs, values) = buf.split_at_mut(n + 1);
    // A 32-bit index converts to `f64` exactly and in packed form, so the
    // grid fills in vector lanes; 2^31 points would need a 32 GiB buffer.
    for (x, i) in xs.iter_mut().zip(0i32..) {
        *x = lo + step * f64::from(i);
    }
    f_grid(xs, values);
    // Ties break toward larger x so bang-bang objectives prefer the
    // full-supply corner, matching the paper's cooperative spirit: the
    // best point is the last one reaching the maximum. NaN never wins; an
    // all-NaN grid keeps point 0 at −∞.
    let top = max_of(values);
    let (best_i, best_v) = values
        .iter()
        .copied()
        .enumerate()
        .rev()
        .find(|&(_, v)| v >= top)
        .unwrap_or((0, f64::NEG_INFINITY));
    let a = lo + step * best_i.saturating_sub(1) as f64;
    let b = (lo + step * (best_i + 1) as f64).min(hi);
    let (x, v) = golden_section_max(a, b, &f);
    if v >= best_v {
        Ok((x, v))
    } else {
        Ok((lo + step * best_i as f64, best_v))
    }
}

/// The largest non-NaN value, −∞ when there is none. Four running maxima
/// keep the scan off a single dependency chain; the maximum of a set does
/// not depend on the order it is taken in.
fn max_of(values: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    let [a, b, c, d] = lanes;
    rest.iter().fold(a.max(b).max(c.max(d)), |m, &v| m.max(v))
}

/// Golden-section search for the maximum of a unimodal `f` on `[a, b]`.
fn golden_section_max<F>(mut a: f64, mut b: f64, f: &F) -> (f64, f64)
where
    F: Fn(f64) -> f64,
{
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..120 {
        if (b - a).abs() <= DEFAULT_REL_TOL * b.abs().max(1.0) {
            break;
        }
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

/// Numerically estimates the derivative of `f` at `x` with central
/// differences, falling back to one-sided differences at domain edges.
pub fn derivative<F>(f: &F, x: f64, lo: f64, hi: f64) -> f64
where
    F: Fn(f64) -> f64,
{
    let h = 1e-6 * (hi - lo).abs().max(1e-6);
    let a = (x - h).max(lo);
    let b = (x + h).min(hi);
    if b - a <= 0.0 {
        return 0.0;
    }
    (f(b) - f(a)) / (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_finds_minimal_feasible_point() {
        // f(x) = x^2 is non-decreasing on [0, 10]; smallest x with x^2 >= 9 is 3.
        let x = bisect_threshold(0.0, 10.0, 9.0, 1e-12, |x| x * x).unwrap();
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn threshold_returns_lo_when_already_satisfied() {
        let x = bisect_threshold(2.0, 10.0, 1.0, 1e-12, |x| x).unwrap();
        assert_eq!(x, 2.0);
    }

    #[test]
    fn threshold_returns_hi_when_unreachable() {
        let x = bisect_threshold(0.0, 1.0, 100.0, 1e-12, |x| x).unwrap();
        assert_eq!(x, 1.0);
    }

    #[test]
    fn threshold_rejects_bad_bracket() {
        assert!(bisect_threshold(1.0, 0.0, 0.0, 1e-12, |x| x).is_err());
        assert!(bisect_threshold(f64::NAN, 1.0, 0.0, 1e-12, |x| x).is_err());
    }

    #[test]
    fn threshold_keeps_its_nan_comparisons() {
        // NaN at `hi` does not fall short, so the search goes on and finds
        // the midpoint threshold; NaN at `lo` does not reach.
        let f = |x: f64| if x == 1.0 { f64::NAN } else { x };
        let x = bisect_threshold(0.0, 1.0, 0.5, 1e-12, f).unwrap();
        assert!((x - 0.5).abs() < 1e-9, "x = {x}");
        let g = |x: f64| if x == 0.0 { f64::NAN } else { x };
        let x = bisect_threshold(0.0, 1.0, 0.5, 1e-12, g).unwrap();
        assert!((x - 0.5).abs() < 1e-9, "x = {x}");
        // NaN everywhere never reaches: the search ends at `hi`.
        let x = bisect_threshold(0.0, 1.0, 0.5, 1e-12, |_| f64::NAN).unwrap();
        assert_eq!(x, 1.0);
    }

    #[test]
    fn bisect_by_asks_the_predicate_only() {
        let mut asked = 0;
        let x = bisect_by(0.0, 8.0, 1e-12, |x| {
            asked += 1;
            Some(x >= 3.0)
        })
        .unwrap();
        assert!((x - 3.0).abs() < 1e-9, "x = {x}");
        assert!(asked < 60, "asked {asked} times");
        assert_eq!(bisect_by(0.0, 8.0, 1e-12, |_| Some(false)).unwrap(), 8.0);
        assert_eq!(bisect_by(2.0, 8.0, 1e-12, |_| Some(true)).unwrap(), 2.0);
        assert!(bisect_by(8.0, 0.0, 1e-12, |_| Some(true)).is_err());
    }

    /// Maximizes `f` with its grid evaluated point by point.
    fn maximize_scalar(
        lo: f64,
        hi: f64,
        grid: usize,
        f: impl Fn(f64) -> f64,
    ) -> Result<(f64, f64), MarketError> {
        maximize(lo, hi, grid, &f, |xs, values| {
            for (v, &x) in values.iter_mut().zip(xs) {
                *v = f(x);
            }
        })
    }

    #[test]
    fn maximize_quadratic() {
        // max of -(x-2)^2 + 5 at x = 2.
        let (x, v) = maximize_scalar(0.0, 10.0, 64, |x| -(x - 2.0).powi(2) + 5.0).unwrap();
        assert!((x - 2.0).abs() < 1e-6);
        assert!((v - 5.0).abs() < 1e-9);
    }

    #[test]
    fn maximize_prefers_larger_x_on_ties() {
        // Constant function: tie-break should land in the upper region.
        let (x, _) = maximize_scalar(0.0, 1.0, 16, |_| 1.0).unwrap();
        assert!(x > 0.8, "x = {x}");
    }

    #[test]
    fn maximize_handles_bang_bang_objective() {
        // Convex objective: maximum at a boundary.
        let (x, _) = maximize_scalar(0.0, 1.0, 64, |x| (x - 0.5).powi(2)).unwrap();
        assert!(!(0.01..=0.99).contains(&x));
    }

    #[test]
    fn maximize_degenerate_interval() {
        let (x, v) = maximize_scalar(3.0, 3.0, 8, |x| x).unwrap();
        assert_eq!(x, 3.0);
        assert_eq!(v, 3.0);
    }

    #[test]
    fn derivative_of_square() {
        let f = |x: f64| x * x;
        let d = derivative(&f, 2.0, 0.0, 10.0);
        assert!((d - 4.0).abs() < 1e-4);
    }

    #[test]
    fn derivative_at_edges_uses_one_sided() {
        let f = |x: f64| 3.0 * x;
        assert!((derivative(&f, 0.0, 0.0, 1.0) - 3.0).abs() < 1e-4);
        assert!((derivative(&f, 1.0, 0.0, 1.0) - 3.0).abs() < 1e-4);
    }
}
