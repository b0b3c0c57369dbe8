//! Cost-model error injection (Section V-D, Fig. 13).
//!
//! HPC users bid from *estimates* of their performance impact, and the
//! paper studies two error regimes: zero-mean random estimation errors of up
//! to ±30 % (which wash out), and systematic *underestimation* (pessimistic
//! for the user, who then supplies reductions below true break-even).
//! [`NoisyCost`] wraps a ground-truth model with a multiplicative factor
//! sampled once at construction — the user's fixed (mis)belief about its
//! own cost.

use mpr_core::CostModel;
use rand::Rng;

/// A cost model as *perceived* by a user: the true cost scaled by a fixed
/// factor. `factor < 1` underestimates (risking negative net gain),
/// `factor > 1` overestimates (extra conservatism).
#[derive(Debug, Clone)]
pub struct NoisyCost<C> {
    inner: C,
    factor: f64,
}

impl<C: CostModel> NoisyCost<C> {
    /// Wraps `inner` with a fixed perception factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn new(inner: C, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "perception factor must be finite and non-negative, got {factor}"
        );
        Self { inner, factor }
    }

    /// Samples a zero-mean random error: factor uniform in
    /// `[1 − magnitude, 1 + magnitude]` (the paper's "random estimation
    /// errors of up to 30 %" uses `magnitude = 0.3`).
    pub fn random_error<R: Rng + ?Sized>(inner: C, magnitude: f64, rng: &mut R) -> Self {
        let m = magnitude.clamp(0.0, 1.0);
        let factor = rng.gen_range((1.0 - m)..=(1.0 + m));
        Self::new(inner, factor)
    }

    /// Systematic underestimation by `fraction` (e.g. `0.3` → the user
    /// believes costs are 30 % lower than they are).
    #[must_use]
    pub fn underestimate(inner: C, fraction: f64) -> Self {
        Self::new(inner, (1.0 - fraction).max(0.0))
    }

    /// The perception factor applied to the true cost.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The wrapped ground-truth model.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: CostModel> CostModel for NoisyCost<C> {
    fn cost(&self, delta: f64) -> f64 {
        self.factor * self.inner.cost(delta)
    }
    fn cost_many(&self, deltas: &mut [f64]) {
        self.inner.cost_many(deltas);
        for c in deltas {
            *c *= self.factor;
        }
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn marginal(&self, delta: f64) -> f64 {
        self.factor * self.inner.marginal(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_core::QuadraticCost;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn scales_cost_by_factor() {
        let truth = QuadraticCost::new(2.0, 1.0);
        let noisy = NoisyCost::new(truth, 0.7);
        assert!((noisy.cost(0.5) - 0.7 * truth.cost(0.5)).abs() < 1e-12);
        assert!((noisy.marginal(0.5) - 0.7 * truth.marginal(0.5)).abs() < 1e-9);
        assert_eq!(noisy.delta_max(), 1.0);
        assert_eq!(noisy.factor(), 0.7);
        assert_eq!(noisy.inner().delta_max(), 1.0);
    }

    #[test]
    fn random_error_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let n = NoisyCost::random_error(QuadraticCost::new(1.0, 1.0), 0.3, &mut rng);
            assert!(n.factor() >= 0.7 && n.factor() <= 1.3, "{}", n.factor());
        }
    }

    #[test]
    fn random_error_is_seeded_deterministic() {
        let a = NoisyCost::random_error(
            QuadraticCost::new(1.0, 1.0),
            0.3,
            &mut ChaCha8Rng::seed_from_u64(42),
        );
        let b = NoisyCost::random_error(
            QuadraticCost::new(1.0, 1.0),
            0.3,
            &mut ChaCha8Rng::seed_from_u64(42),
        );
        assert_eq!(a.factor(), b.factor());
    }

    #[test]
    fn underestimate_clamps_at_zero() {
        let n = NoisyCost::underestimate(QuadraticCost::new(1.0, 1.0), 1.5);
        assert_eq!(n.factor(), 0.0);
        let n = NoisyCost::underestimate(QuadraticCost::new(1.0, 1.0), 0.3);
        assert!((n.factor() - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "perception factor")]
    fn negative_factor_panics() {
        let _ = NoisyCost::new(QuadraticCost::new(1.0, 1.0), -0.5);
    }
}
