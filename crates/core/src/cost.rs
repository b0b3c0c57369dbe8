//! User-perceived cost of performance loss, `C(δ)` (Section III-C).
//!
//! The paper measures cost as the *extra execution* (additional core-hours)
//! needed to finish a job after its resources were reduced, optionally scaled
//! by a user coefficient `α ≥ 1` (Eqn. 6). This module defines the
//! [`CostModel`] abstraction plus the analytic families used in the paper's
//! evaluation: linear, quadratic, power-law and the logarithmic fit
//! `cost = a·log(b·x) − a` of Section IV-B. Table-driven costs derived from
//! measured application profiles live in the `mpr-apps` crate.

use std::sync::Arc;

use crate::numeric;

/// The cost of performance loss incurred by a job when `delta` units of
/// resource are reduced for one unit of time.
///
/// Units follow the paper: both `delta` and the returned cost are measured
/// in cores (equivalently, core-hours per hour of capping), so the *unit
/// cost* `C(δ)/δ` — the bidding reference of Fig. 4 — is dimensionless.
///
/// Implementations must be non-decreasing on `[0, delta_max]` with
/// `cost(0) == 0`; the market's incentive-compatibility arguments
/// (Section III-D) additionally assume monotone cost.
pub trait CostModel: Send + Sync {
    /// Cost of reducing `delta` resources. `delta` is clamped by callers to
    /// `[0, delta_max]`; implementations should extrapolate gracefully
    /// beyond it (EQL may push jobs past their profiled range).
    fn cost(&self, delta: f64) -> f64;

    /// Replaces every reduction in `deltas` with its cost, bit for bit
    /// what [`cost`](Self::cost) returns for it. Bidding prices its whole
    /// search grid through this one call; table-driven models override it
    /// to walk their segments once per grid instead of once per point.
    fn cost_many(&self, deltas: &mut [f64]) {
        for d in deltas {
            *d = self.cost(*d);
        }
    }

    /// The largest resource reduction this job can meaningfully supply
    /// (the `Δ` of its supply function).
    fn delta_max(&self) -> f64;

    /// Cost per unit of resource reduction, `C(δ)/δ` — the reference curve
    /// a user bids against (Fig. 4). Defined as the limit slope at `δ → 0`.
    /// [`cooperative_bid`](crate::bidding::cooperative_bid) evaluates this
    /// definition through [`cost_many`](Self::cost_many), so an override
    /// must compute the same quotient.
    fn unit_cost(&self, delta: f64) -> f64 {
        if delta > 1e-12 {
            self.cost(delta) / delta
        } else {
            let eps = 1e-9 * self.delta_max().max(1e-9);
            self.cost(eps) / eps
        }
    }

    /// Marginal cost `C'(δ)`, estimated numerically by default.
    fn marginal(&self, delta: f64) -> f64 {
        let hi = self.delta_max().max(delta);
        numeric::derivative(&|x| self.cost(x), delta, 0.0, hi)
    }
}

impl<T: CostModel + ?Sized> CostModel for &T {
    fn cost(&self, delta: f64) -> f64 {
        (**self).cost(delta)
    }
    fn cost_many(&self, deltas: &mut [f64]) {
        (**self).cost_many(deltas);
    }
    fn delta_max(&self) -> f64 {
        (**self).delta_max()
    }
    fn unit_cost(&self, delta: f64) -> f64 {
        (**self).unit_cost(delta)
    }
    fn marginal(&self, delta: f64) -> f64 {
        (**self).marginal(delta)
    }
}

impl<T: CostModel + ?Sized> CostModel for Arc<T> {
    fn cost(&self, delta: f64) -> f64 {
        (**self).cost(delta)
    }
    fn cost_many(&self, deltas: &mut [f64]) {
        (**self).cost_many(deltas);
    }
    fn delta_max(&self) -> f64 {
        (**self).delta_max()
    }
    fn unit_cost(&self, delta: f64) -> f64 {
        (**self).unit_cost(delta)
    }
    fn marginal(&self, delta: f64) -> f64 {
        (**self).marginal(delta)
    }
}

impl<T: CostModel + ?Sized> CostModel for Box<T> {
    fn cost(&self, delta: f64) -> f64 {
        (**self).cost(delta)
    }
    fn cost_many(&self, deltas: &mut [f64]) {
        (**self).cost_many(deltas);
    }
    fn delta_max(&self) -> f64 {
        (**self).delta_max()
    }
    fn unit_cost(&self, delta: f64) -> f64 {
        (**self).unit_cost(delta)
    }
    fn marginal(&self, delta: f64) -> f64 {
        (**self).marginal(delta)
    }
}

/// Linear cost `C(δ) = slope · δ`: constant unit cost.
///
/// ```
/// use mpr_core::{CostModel, LinearCost};
/// let c = LinearCost::new(2.0, 0.7);
/// assert_eq!(c.cost(0.5), 1.0);
/// assert_eq!(c.unit_cost(0.5), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinearCost {
    slope: f64,
    delta_max: f64,
}

impl LinearCost {
    /// Creates a linear cost with the given slope and maximum reduction.
    #[must_use]
    pub fn new(slope: f64, delta_max: f64) -> Self {
        Self { slope, delta_max }
    }
}

impl CostModel for LinearCost {
    fn cost(&self, delta: f64) -> f64 {
        self.slope * delta.max(0.0)
    }
    fn delta_max(&self) -> f64 {
        self.delta_max
    }
    fn marginal(&self, _delta: f64) -> f64 {
        self.slope
    }
}

/// Quadratic cost `C(δ) = alpha · δ²` — the "quadratic cost" alternative of
/// Section III-C, where the perceived cost grows with the square of the
/// performance loss.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QuadraticCost {
    alpha: f64,
    delta_max: f64,
}

impl QuadraticCost {
    /// Creates a quadratic cost with coefficient `alpha`.
    #[must_use]
    pub fn new(alpha: f64, delta_max: f64) -> Self {
        Self { alpha, delta_max }
    }
}

impl CostModel for QuadraticCost {
    fn cost(&self, delta: f64) -> f64 {
        let d = delta.max(0.0);
        self.alpha * d * d
    }
    fn delta_max(&self) -> f64 {
        self.delta_max
    }
    fn marginal(&self, delta: f64) -> f64 {
        2.0 * self.alpha * delta.max(0.0)
    }
}

/// Power-law cost `C(δ) = coeff · δ^exponent` with `exponent >= 1`.
///
/// This is the convex family we fit application profiles with by default;
/// it captures the super-linear growth of extra execution seen in Fig. 7(b)
/// while keeping closed-form marginals.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PowerLawCost {
    coeff: f64,
    exponent: f64,
    delta_max: f64,
}

impl PowerLawCost {
    /// Creates a power-law cost `coeff · δ^exponent`.
    #[must_use]
    pub fn new(coeff: f64, exponent: f64, delta_max: f64) -> Self {
        Self {
            coeff,
            exponent,
            delta_max,
        }
    }

    /// The exponent `p`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl CostModel for PowerLawCost {
    fn cost(&self, delta: f64) -> f64 {
        self.coeff * delta.max(0.0).powf(self.exponent)
    }
    fn delta_max(&self) -> f64 {
        self.delta_max
    }
    fn marginal(&self, delta: f64) -> f64 {
        let d = delta.max(0.0);
        if d <= 0.0 && self.exponent < 1.0 {
            return f64::INFINITY;
        }
        self.coeff * self.exponent * d.powf(self.exponent - 1.0)
    }
}

/// The paper's logarithmic fit `cost = a · ln(b·x) − a` (Section IV-B),
/// clamped to be non-negative.
///
/// Note that the literal log form is *concave* in the reduction; the paper
/// uses it as a smoothing fit of the measured costs. We expose it faithfully
/// for the cost-model ablation; the market solvers handle it through their
/// generic numeric paths.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogFitCost {
    a: f64,
    b: f64,
    delta_max: f64,
}

impl LogFitCost {
    /// Creates the log-fit cost with parameters `a` and `b`.
    #[must_use]
    pub fn new(a: f64, b: f64, delta_max: f64) -> Self {
        Self { a, b, delta_max }
    }

    /// Model parameters `(a, b)`.
    #[must_use]
    pub fn params(&self) -> (f64, f64) {
        (self.a, self.b)
    }
}

impl CostModel for LogFitCost {
    fn cost(&self, delta: f64) -> f64 {
        let d = delta.max(0.0);
        if d <= 0.0 || self.b * d <= 0.0 {
            return 0.0;
        }
        (self.a * (self.b * d).ln() - self.a).max(0.0)
    }
    fn delta_max(&self) -> f64 {
        self.delta_max
    }
}

/// Scales a *per-core* cost model up to a job running on `cores` cores
/// (Section IV-B, "we also scale up our per-core model with the core
/// allocations of the respective HPC job").
///
/// If the per-core model tolerates reduction `Δ` with cost `c(δ)`, the job
/// tolerates `cores·Δ` with cost `cores · c(δ/cores)`: every core is slowed
/// by the same fraction and contributes the same per-core extra execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledCost<C> {
    inner: C,
    cores: f64,
}

impl<C: CostModel> ScaledCost<C> {
    /// Wraps `inner` (a per-core model) for a job with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a positive finite number.
    #[must_use]
    pub fn new(inner: C, cores: f64) -> Self {
        assert!(
            cores.is_finite() && cores > 0.0,
            "cores must be positive and finite, got {cores}"
        );
        Self { inner, cores }
    }

    /// The wrapped per-core model.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of cores the job occupies.
    #[must_use]
    pub fn cores(&self) -> f64 {
        self.cores
    }
}

impl<C: CostModel> CostModel for ScaledCost<C> {
    fn cost(&self, delta: f64) -> f64 {
        self.cores * self.inner.cost(delta / self.cores)
    }
    fn cost_many(&self, deltas: &mut [f64]) {
        for d in deltas.iter_mut() {
            *d /= self.cores;
        }
        self.inner.cost_many(deltas);
        for c in deltas {
            *c *= self.cores;
        }
    }
    fn delta_max(&self) -> f64 {
        self.cores * self.inner.delta_max()
    }
    fn marginal(&self, delta: f64) -> f64 {
        self.inner.marginal(delta / self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_cost_basics() {
        let c = LinearCost::new(3.0, 0.5);
        assert_eq!(c.cost(0.0), 0.0);
        assert!((c.cost(0.2) - 0.6).abs() < 1e-12);
        assert_eq!(c.delta_max(), 0.5);
        assert_eq!(c.marginal(0.3), 3.0);
        assert!((c.unit_cost(0.4) - 3.0).abs() < 1e-9);
        // Negative inputs are treated as zero reduction.
        assert_eq!(c.cost(-1.0), 0.0);
    }

    #[test]
    fn quadratic_cost_grows_superlinearly() {
        let c = QuadraticCost::new(2.0, 1.0);
        assert_eq!(c.cost(0.5), 0.5);
        assert!(c.unit_cost(0.8) > c.unit_cost(0.2));
        assert!((c.marginal(0.5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_law_matches_closed_form() {
        let c = PowerLawCost::new(1.5, 2.5, 0.7);
        let d = 0.4;
        assert!((c.cost(d) - 1.5 * d.powf(2.5)).abs() < 1e-12);
        assert!((c.marginal(d) - 1.5 * 2.5 * d.powf(1.5)).abs() < 1e-9);
        assert_eq!(c.exponent(), 2.5);
    }

    #[test]
    fn log_fit_is_clamped_nonnegative() {
        let c = LogFitCost::new(0.5, 10.0, 0.7);
        // Below x = e/b the raw formula is negative; we clamp to 0.
        assert_eq!(c.cost(0.01), 0.0);
        let x = 0.5;
        assert!((c.cost(x) - (0.5 * (10.0 * x).ln() - 0.5)).abs() < 1e-12);
        assert_eq!(c.cost(0.0), 0.0);
        assert_eq!(c.params(), (0.5, 10.0));
    }

    #[test]
    fn scaled_cost_scales_both_axes() {
        let per_core = QuadraticCost::new(1.0, 0.7);
        let job = ScaledCost::new(per_core, 10.0);
        assert!((job.delta_max() - 7.0).abs() < 1e-12);
        // Reducing 2 cores of a 10-core job = 0.2 per core on each of 10 cores.
        assert!((job.cost(2.0) - 10.0 * per_core.cost(0.2)).abs() < 1e-12);
        assert_eq!(job.cores(), 10.0);
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn scaled_cost_rejects_zero_cores() {
        let _ = ScaledCost::new(LinearCost::new(1.0, 0.5), 0.0);
    }

    #[test]
    fn trait_objects_and_smart_pointers_forward() {
        let c: Box<dyn CostModel> = Box::new(LinearCost::new(2.0, 0.3));
        assert_eq!(c.cost(0.1), 0.2);
        let arc: std::sync::Arc<dyn CostModel> = std::sync::Arc::new(QuadraticCost::new(1.0, 0.5));
        assert_eq!(arc.delta_max(), 0.5);
        let r: &dyn CostModel = &LinearCost::new(1.0, 1.0);
        assert_eq!(r.unit_cost(0.5), 1.0);
    }

    #[test]
    fn default_unit_cost_near_zero_uses_limit_slope() {
        let c = LinearCost::new(4.0, 1.0);
        assert!((c.unit_cost(0.0) - 4.0).abs() < 1e-6);
    }

    proptest! {
        /// All analytic cost families are non-negative and non-decreasing.
        #[test]
        fn costs_are_monotone(
            d1 in 0.0f64..1.0,
            d2 in 0.0f64..1.0,
            coeff in 0.01f64..10.0,
        ) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let models: Vec<Box<dyn CostModel>> = vec![
                Box::new(LinearCost::new(coeff, 1.0)),
                Box::new(QuadraticCost::new(coeff, 1.0)),
                Box::new(PowerLawCost::new(coeff, 2.2, 1.0)),
                Box::new(LogFitCost::new(coeff, 8.0, 1.0)),
            ];
            for m in &models {
                prop_assert!(m.cost(lo) >= 0.0);
                prop_assert!(m.cost(hi) + 1e-12 >= m.cost(lo));
            }
        }

        /// Scaling is exact: a job of k cores costs k times its per-core cost.
        #[test]
        fn scaling_identity(cores in 1.0f64..128.0, frac in 0.0f64..0.7) {
            let per_core = PowerLawCost::new(2.0, 2.0, 0.7);
            let job = ScaledCost::new(per_core, cores);
            let delta = frac * cores;
            prop_assert!((job.cost(delta) - cores * per_core.cost(frac)).abs() < 1e-9);
        }
    }
}
