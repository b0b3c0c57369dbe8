//! OPT (the social-optimum baseline, Eqns. 1–2) on the unified
//! [`Mechanism`] interface.
//!
//! OPT minimizes the total cost of performance loss `Σ C_m(δ_m)` subject to
//! the power-reduction constraint `Σ P(δ_m) ≥ P(t) − C` and per-job bounds
//! `0 ≤ δ_m ≤ Δ_m`. It is the performance upper limit MPR is compared
//! against, and also what MPR-INT provably attains at equilibrium.
//!
//! The problem is a *separable* non-linear program, which we exploit:
//!
//! * [`OptMethod::WaterFilling`] — exact for convex per-job costs:
//!   λ-bisection on the common marginal cost (KKT conditions), per-job
//!   inverse marginals found by inner bisection.
//! * [`OptMethod::ConcaveGreedy`] — for concave per-job costs the optimum
//!   lies at an extreme point with at most one fractionally reduced job;
//!   greedily fill the cheapest average-cost jobs.
//! * [`OptMethod::Auto`] — probes the marginals and dispatches.
//!
//! The solver here is the crate's one OPT routine: [`OptMechanism`], the
//! VCG pivot re-solves and [`analysis::evaluate`](crate::analysis::evaluate)
//! all call it.

use crate::cost::CostModel;
use crate::error::MarketError;
use crate::mechanism::{Clearing, Diagnostics, InstanceView, Mechanism, MechanismError};
use crate::numeric;
use crate::units::{Price, Watts};

/// Solution strategy for OPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptMethod {
    /// Probe cost-model curvature and pick water-filling (convex) or the
    /// concave greedy automatically.
    #[default]
    Auto,
    /// KKT water-filling; exact when every cost model is convex.
    WaterFilling,
    /// Extreme-point greedy; exact when every cost model is concave.
    ConcaveGreedy,
}

/// One row OPT optimizes over: the job's true cost model (which the manager
/// would need to know — precisely the burden MPR removes) and its power
/// reduction per unit of resource reduction, in watts.
pub(crate) type OptRow<'a> = (&'a dyn CostModel, f64);

/// The cost-bearing rows of a view: their positions in the view and their
/// OPT rows, borrowing the `Arc`'d cost models straight from the columns.
pub(crate) fn cost_rows<'a>(view: &'a InstanceView<'_>) -> (Vec<usize>, Vec<OptRow<'a>>) {
    view.costs()
        .iter()
        .zip(view.watts_per_unit_slice())
        .enumerate()
        .filter_map(|(row, (cost, wpu))| Some((row, (cost.as_ref()?.as_ref(), *wpu))))
        .unzip()
}

/// Solves OPT for the rows and a power-reduction target, returning
/// each row's reduction `δ_m` in input order.
///
/// A non-positive target returns the all-zero solution.
///
/// # Errors
///
/// * [`MarketError::NoParticipants`] for no rows with a positive target.
/// * [`MarketError::InvalidParameter`] for a non-finite `Δ_m`, a negative
///   or non-finite watts-per-unit, or a cost model producing a non-finite
///   marginal (water-filling trim) or average cost (concave greedy).
/// * [`MarketError::Infeasible`] when `Σ Δ_m · watts_per_unit` is below the
///   target.
pub(crate) fn solve(
    rows: &[OptRow<'_>],
    target: Watts,
    method: OptMethod,
) -> Result<Vec<f64>, MarketError> {
    let target_watts = target.get();
    if target_watts <= 0.0 {
        return Ok(vec![0.0; rows.len()]);
    }
    if rows.is_empty() {
        return Err(MarketError::NoParticipants);
    }
    for &(cost, wpu) in rows {
        if !cost.delta_max().is_finite() {
            return Err(MarketError::InvalidParameter {
                name: "delta_max",
                value: cost.delta_max(),
                constraint: "cost model delta_max must be finite",
            });
        }
        if !wpu.is_finite() || wpu < 0.0 {
            return Err(MarketError::InvalidParameter {
                name: "watts_per_unit",
                value: wpu,
                constraint: "must be finite and non-negative",
            });
        }
    }
    let attainable: f64 = rows.iter().map(|(c, w)| c.delta_max() * w).sum();
    if attainable < target_watts * (1.0 - 1e-9) {
        return Err(MarketError::Infeasible {
            target_watts,
            attainable_watts: attainable,
        });
    }

    match method {
        OptMethod::WaterFilling => water_filling(rows, target_watts),
        OptMethod::ConcaveGreedy => concave_greedy(rows, target_watts),
        OptMethod::Auto => {
            if rows.iter().all(|(c, _)| is_convex(*c)) {
                water_filling(rows, target_watts)
            } else {
                concave_greedy(rows, target_watts)
            }
        }
    }
}

/// Total performance-loss cost `Σ C_m(δ_m)`, summed in row order.
pub(crate) fn total_cost(rows: &[OptRow<'_>], reductions: &[f64]) -> f64 {
    reductions
        .iter()
        .zip(rows)
        .map(|(d, (c, _))| c.cost(*d))
        .sum()
}

/// Samples the marginal cost at a few points to classify curvature.
fn is_convex(cost: &dyn CostModel) -> bool {
    let delta_max = cost.delta_max();
    if delta_max <= 0.0 {
        return true;
    }
    let mut prev = f64::NEG_INFINITY;
    for i in 1..=8 {
        let d = delta_max * (i as f64) / 9.0;
        let m = cost.marginal(d);
        if m < prev - 1e-9 * prev.abs().max(1.0) {
            return false;
        }
        prev = m;
    }
    true
}

/// Per-row reduction at Lagrange multiplier `lambda`: the largest `δ` whose
/// marginal cost per watt stays below `lambda`.
fn delta_at_lambda(&(cost, wpu): &OptRow<'_>, lambda: f64) -> f64 {
    let delta_max = cost.delta_max();
    if delta_max <= 0.0 {
        return 0.0;
    }
    let threshold = lambda * wpu;
    if cost.marginal(0.0) >= threshold {
        return 0.0;
    }
    if cost.marginal(delta_max) <= threshold {
        return delta_max;
    }
    // Smallest δ with C'(δ) >= threshold; C' non-decreasing for convex costs.
    numeric::bisect_threshold(0.0, delta_max, threshold, 1e-12, |d| cost.marginal(d))
        .unwrap_or(delta_max)
}

fn water_filling(rows: &[OptRow<'_>], target_watts: f64) -> Result<Vec<f64>, MarketError> {
    let power_at =
        |lambda: f64| -> f64 { rows.iter().map(|r| delta_at_lambda(r, lambda) * r.1).sum() };
    // Bracket lambda by doubling.
    let mut hi = 1e-6;
    let mut doubles = 0;
    while power_at(hi) < target_watts {
        hi *= 2.0;
        doubles += 1;
        if doubles > 200 {
            break;
        }
    }
    let lambda = numeric::bisect_threshold(0.0, hi, target_watts, 1e-12, power_at)?;
    let mut reductions: Vec<f64> = rows.iter().map(|r| delta_at_lambda(r, lambda)).collect();

    // Trim overshoot: the bisection lands a hair above the target; shave the
    // most expensive marginal reductions back to hit it exactly.
    let total: f64 = reductions.iter().zip(rows).map(|(d, r)| d * r.1).sum();
    let mut excess = total - target_watts;
    if excess > 0.0 {
        // Shrink rows with the highest marginal cost first (they benefit
        // most); sort `(marginal, index)` pairs so no post-sort indexing
        // into a parallel array is needed.
        let mut order: Vec<(f64, usize)> = reductions
            .iter()
            .zip(rows)
            .enumerate()
            .map(|(i, (d, (c, _)))| (c.marginal(*d), i))
            .collect();
        if let Some(&(bad, _)) = order.iter().find(|(m, _)| !m.is_finite()) {
            return Err(MarketError::InvalidParameter {
                name: "marginal",
                value: bad,
                constraint: "cost model produced a non-finite marginal cost",
            });
        }
        order.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (_, idx) in order {
            if excess <= 0.0 {
                break;
            }
            let Some((&(_, wpu), r)) = rows.get(idx).zip(reductions.get_mut(idx)) else {
                continue;
            };
            let give_back = (excess / wpu).min(*r);
            *r -= give_back;
            excess -= give_back * wpu;
        }
    }
    Ok(reductions)
}

fn concave_greedy(rows: &[OptRow<'_>], target_watts: f64) -> Result<Vec<f64>, MarketError> {
    // For concave costs, average cost per watt at full reduction is the
    // right greedy key: the optimum reduces the cheapest rows fully, with at
    // most one fractional row. Rows with Δ = 0 cannot contribute and are
    // skipped outright.
    let mut entries: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
    for (i, (c, wpu)) in rows.iter().enumerate() {
        let dm = c.delta_max();
        if dm <= 0.0 {
            continue;
        }
        let key = c.cost(dm) / (dm * wpu);
        if !key.is_finite() {
            return Err(MarketError::InvalidParameter {
                name: "cost",
                value: key,
                constraint: "cost model produced a non-finite average cost per watt",
            });
        }
        entries.push((key, i));
    }
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut reductions = vec![0.0; rows.len()];
    let mut remaining = target_watts;
    for (_, i) in entries {
        if remaining <= 0.0 {
            break;
        }
        let Some((&(c, wpu), r)) = rows.get(i).zip(reductions.get_mut(i)) else {
            continue;
        };
        let delta = (remaining / wpu).min(c.delta_max());
        *r = delta;
        remaining -= delta * wpu;
    }
    Ok(reductions)
}

/// The clairvoyant baseline (Section III-C): minimizes `Σ C_m(δ_m)` subject
/// to meeting the target, assuming the manager can read every private cost
/// curve.
///
/// Rows without a cost model cannot be optimized over and sit out.
///
/// OPT is an allocator, not a market: no prices are paid, so every
/// participant price in the resulting [`Clearing`] is zero.
///
/// ```
/// use std::sync::Arc;
/// use mpr_core::{MarketInstance, Mechanism, OptMechanism, OptMethod, ParticipantSpec};
/// use mpr_core::{QuadraticCost, Watts};
///
/// # fn main() -> Result<(), mpr_core::MechanismError> {
/// let instance: MarketInstance = [1.0, 4.0]
///     .iter()
///     .zip(0..)
///     .map(|(&alpha, id)| {
///         ParticipantSpec::new(id, 1.0, Watts::new(125.0))
///             .with_cost(Arc::new(QuadraticCost::new(alpha, 1.0)))
///     })
///     .collect();
/// let clearing = OptMechanism::strict(OptMethod::Auto).clear(&instance, Watts::new(100.0))?;
/// // Water-filling equalizes marginals: the cheap job sheds 4x more.
/// assert!(clearing.reductions()[0] > 3.5 * clearing.reductions()[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptMechanism {
    method: OptMethod,
    strict: bool,
}

impl OptMechanism {
    /// Strict variant: infeasible targets are errors.
    #[must_use]
    pub fn strict(method: OptMethod) -> Self {
        Self {
            method,
            strict: true,
        }
    }

    /// Best-effort variant: on an infeasible target every cost-bearing row
    /// is capped at its `Δ_m` (the simulator's forced-capping response).
    #[must_use]
    pub fn best_effort(method: OptMethod) -> Self {
        Self {
            method,
            strict: false,
        }
    }
}

impl Mechanism for OptMechanism {
    fn name(&self) -> &'static str {
        "OPT"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let (positions, rows) = cost_rows(view);
        if rows.is_empty() {
            return Err(MechanismError::Market(MarketError::NoParticipants));
        }
        let (reductions, diagnostics) = match solve(&rows, target, self.method) {
            Ok(solved) => {
                let mut reductions = vec![0.0; view.len()];
                for (row, delta) in positions.iter().zip(solved) {
                    if let Some(slot) = reductions.get_mut(*row) {
                        *slot = delta;
                    }
                }
                (reductions, Diagnostics::default())
            }
            Err(e) if self.strict => return Err(MechanismError::Market(e)),
            // Forced capping: every cost-bearing row gives its maximum.
            Err(_) => (
                view.costs()
                    .iter()
                    .map(|cost| cost.as_ref().map_or(0.0, |c| c.delta_max()))
                    .collect(),
                Diagnostics {
                    accepted: false,
                    capped_at_delta_max: true,
                    ..Diagnostics::default()
                },
            ),
        };
        Ok(Clearing::build(
            view,
            target,
            Price::ZERO,
            reductions,
            None,
            None,
            diagnostics,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LinearCost, LogFitCost, QuadraticCost};
    use crate::mechanism::{MarketInstance, ParticipantSpec};
    use proptest::prelude::*;
    use std::sync::Arc;

    const W125: Watts = Watts::new(125.0);

    fn instance_of(costs: Vec<Arc<dyn CostModel>>) -> MarketInstance {
        costs
            .into_iter()
            .zip(0..)
            .map(|(c, id)| ParticipantSpec::new(id, c.delta_max(), W125).with_cost(c))
            .collect()
    }

    fn instance(alphas: &[f64]) -> MarketInstance {
        instance_of(
            alphas
                .iter()
                .map(|&a| Arc::new(QuadraticCost::new(a, 1.0)) as Arc<dyn CostModel>)
                .collect(),
        )
    }

    fn clear(
        inst: &MarketInstance,
        target: f64,
        method: OptMethod,
    ) -> Result<Clearing, MechanismError> {
        OptMechanism::strict(method).clear(inst, Watts::new(target))
    }

    /// `Σ C_m(δ_m)` of a clearing under the instance's own cost models.
    fn cost_of(inst: &MarketInstance, c: &Clearing) -> f64 {
        c.reductions()
            .iter()
            .zip(inst.costs())
            .map(|(d, cost)| cost.as_ref().map_or(0.0, |m| m.cost(*d)))
            .sum()
    }

    #[test]
    fn zero_target_is_free() {
        let c = clear(&instance(&[1.0]), 0.0, OptMethod::Auto).unwrap();
        assert_eq!(c.reductions(), &[0.0]);
        assert_eq!(c.total_payment_rate().get(), 0.0);
    }

    #[test]
    fn empty_and_infeasible_errors() {
        assert_eq!(
            solve(&[], Watts::new(10.0), OptMethod::Auto),
            Err(MarketError::NoParticipants)
        );
        let bid_only: MarketInstance =
            std::iter::once(ParticipantSpec::new(0, 1.0, W125)).collect();
        assert!(matches!(
            clear(&bid_only, 10.0, OptMethod::Auto),
            Err(MechanismError::Market(MarketError::NoParticipants))
        ));
        assert!(matches!(
            clear(&instance(&[1.0]), 1000.0, OptMethod::Auto),
            Err(MechanismError::Market(MarketError::Infeasible { .. }))
        ));
    }

    #[test]
    fn water_filling_equalizes_marginals() {
        // Two quadratic jobs: marginal 2αδ; equal marginals → δ1/δ2 = α2/α1.
        let inst = instance_of(vec![
            Arc::new(QuadraticCost::new(1.0, 10.0)),
            Arc::new(QuadraticCost::new(3.0, 10.0)),
        ]);
        let c = clear(&inst, 500.0, OptMethod::WaterFilling).unwrap();
        let (d1, d2) = (c.reductions()[0], c.reductions()[1]);
        assert!((d1 / d2 - 3.0).abs() < 1e-3, "d1={d1} d2={d2}");
        assert!((c.total_power_reduction().get() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn water_filling_beats_uniform_for_heterogeneous_costs() {
        let c1 = QuadraticCost::new(1.0, 2.0);
        let c2 = QuadraticCost::new(9.0, 2.0);
        let inst = instance_of(vec![Arc::new(c1), Arc::new(c2)]);
        // Needs total δ = 2.0.
        let opt_cost = cost_of(&inst, &clear(&inst, 250.0, OptMethod::Auto).unwrap());
        let uniform_cost = c1.cost(1.0) + c2.cost(1.0);
        assert!(
            opt_cost < uniform_cost,
            "OPT {opt_cost} should beat uniform {uniform_cost}"
        );
    }

    #[test]
    fn concave_greedy_prefers_cheapest_average_cost() {
        let inst = instance_of(vec![
            Arc::new(LogFitCost::new(0.1, 20.0, 1.0)),
            Arc::new(LogFitCost::new(2.0, 20.0, 1.0)),
        ]);
        let c = clear(&inst, 125.0, OptMethod::Auto).unwrap();
        // The cheap job should be reduced fully; the expensive one untouched.
        assert!((c.reductions()[0] - 1.0).abs() < 1e-9);
        assert!(c.reductions()[1].abs() < 1e-9);
    }

    #[test]
    fn auto_detects_concavity() {
        assert!(!is_convex(&LogFitCost::new(1.0, 10.0, 1.0)));
        assert!(is_convex(&QuadraticCost::new(1.0, 1.0)));
        assert!(is_convex(&LinearCost::new(2.0, 1.0)));
    }

    #[test]
    fn linear_costs_fill_cheapest_first() {
        let inst = instance_of(vec![
            Arc::new(LinearCost::new(1.0, 1.0)),
            Arc::new(LinearCost::new(5.0, 1.0)),
        ]);
        let c = clear(&inst, 150.0, OptMethod::WaterFilling).unwrap();
        assert!((c.reductions()[0] - 1.0).abs() < 1e-6);
        assert!((c.reductions()[1] - 0.2).abs() < 1e-3);
    }

    /// A pathological cost model whose cost (and hence marginal) is NaN:
    /// before input validation this silently mis-sorted the greedy/trim
    /// orders instead of failing.
    #[derive(Debug)]
    struct NanCost {
        delta_max: f64,
    }

    impl CostModel for NanCost {
        fn cost(&self, _delta: f64) -> f64 {
            f64::NAN
        }
        fn delta_max(&self) -> f64 {
            self.delta_max
        }
        fn marginal(&self, _delta: f64) -> f64 {
            f64::NAN
        }
    }

    #[test]
    fn nan_costs_are_rejected_not_missorted() {
        let inst = instance_of(vec![
            Arc::new(NanCost { delta_max: 4.0 }),
            Arc::new(QuadraticCost::new(1.0, 4.0)),
        ]);
        // Concave greedy path: NaN average cost per watt must be a typed error.
        let err = clear(&inst, 100.0, OptMethod::ConcaveGreedy).unwrap_err();
        assert!(
            matches!(
                err,
                MechanismError::Market(MarketError::InvalidParameter { name: "cost", .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn non_finite_job_parameters_are_rejected() {
        let inf = instance_of(vec![Arc::new(NanCost {
            delta_max: f64::INFINITY,
        })]);
        assert!(matches!(
            clear(&inf, 10.0, OptMethod::Auto).unwrap_err(),
            MechanismError::Market(MarketError::InvalidParameter {
                name: "delta_max",
                ..
            })
        ));

        let nan_watts: MarketInstance = std::iter::once(
            ParticipantSpec::new(0, 4.0, Watts::new(f64::NAN))
                .with_cost(Arc::new(QuadraticCost::new(1.0, 4.0))),
        )
        .collect();
        assert!(matches!(
            clear(&nan_watts, 10.0, OptMethod::Auto).unwrap_err(),
            MechanismError::Market(MarketError::InvalidParameter {
                name: "watts_per_unit",
                ..
            })
        ));
    }

    #[test]
    fn strict_errors_best_effort_caps() {
        let inst = instance(&[1.0]);
        let target = Watts::new(1e6);
        assert!(matches!(
            OptMechanism::strict(OptMethod::Auto).clear(&inst, target),
            Err(MechanismError::Market(MarketError::Infeasible { .. }))
        ));
        let c = OptMechanism::best_effort(OptMethod::Auto)
            .clear(&inst, target)
            .unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert!(!c.met_target());
        assert!((c.reductions()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_instances_error() {
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            OptMechanism::default().clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    proptest! {
        /// OPT meets the target (within tolerance) and respects bounds, and
        /// never costs more than the uniform-split allocation.
        #[test]
        fn opt_feasible_and_no_worse_than_uniform(
            alphas in proptest::collection::vec(0.2f64..8.0, 2..12),
            frac in 0.1f64..0.9,
        ) {
            let inst = instance(&alphas);
            let attainable = 125.0 * alphas.len() as f64;
            let target = frac * attainable;
            let c = clear(&inst, target, OptMethod::Auto).unwrap();
            prop_assert!(c.total_power_reduction().get() >= target * (1.0 - 1e-6));
            for d in c.reductions() {
                prop_assert!(*d >= -1e-12 && *d <= 1.0 + 1e-9);
            }
            // Uniform allocation with the same total power.
            let uniform = target / attainable;
            let uniform_cost: f64 = alphas
                .iter()
                .map(|&a| QuadraticCost::new(a, 1.0).cost(uniform))
                .sum();
            let opt_cost = cost_of(&inst, &c);
            prop_assert!(opt_cost <= uniform_cost * (1.0 + 1e-6) + 1e-9,
                "OPT {} worse than uniform {}", opt_cost, uniform_cost);
        }
    }
}
