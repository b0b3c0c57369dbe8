//! VCG (Vickrey–Clarke–Groves, the truthful pivot auction) on the unified
//! [`Mechanism`] interface — the mechanism-design alternative the paper
//! contrasts MPR against (Section VI, "Mechanism design applications").
//!
//! In the VCG auction users *reveal their private cost functions* to the
//! manager, who computes the cost-optimal allocation (OPT) and pays each
//! contributing user its **pivot payment**: the externality it imposes on
//! the rest of the system,
//!
//! ```text
//! p_m = C*₋ₘ − (C* − c_m(δ*_m))
//! ```
//!
//! where `C*` is the optimal total cost with everyone, and `C*₋ₘ` the
//! optimal cost with user `m` removed. The auction is truthful (reporting
//! the true cost function is a dominant strategy) and individually rational
//! (payments cover costs) — but it requires users to disclose their cost
//! functions, and it needs `M+1` OPT solves instead of MClr's single
//! bisection. Supply-function bidding trades a little optimality (MPR-STAT)
//! or a few interaction rounds (MPR-INT) for privacy and scalability; the
//! `ablation_vcg` experiment quantifies that trade.

use crate::error::MarketError;
use crate::mechanism::optimal::{self, OptMethod, OptRow};
use crate::mechanism::{Clearing, Diagnostics, InstanceView, Mechanism, MechanismError};
use crate::units::{Price, Watts};

/// The incentive-compatible baseline (Section III-D): allocates like OPT
/// and pays each contributing job its pivot payment, making truthful cost
/// reporting a dominant strategy.
///
/// Payments are per-participant, not a uniform price: the headline
/// [`Clearing::price`](crate::mechanism::Clearing::price) is zero and each
/// row's effective unit price is `payment / reduction`. Exact VCG runs one
/// OPT solve per contributing job (O(M²) work overall) — budget
/// accordingly at large M.
///
/// * **strict** — propagates [`MarketError::Infeasible`] (including the
///   monopolist case where removing a contributor makes the target
///   unreachable).
/// * **best-effort** — on any solve failure caps every cost-bearing row at
///   its `Δ_m`, paid at its own unit cost.
///
/// ```
/// use std::sync::Arc;
/// use mpr_core::{CostModel, MarketInstance, Mechanism, OptMethod, ParticipantSpec};
/// use mpr_core::{QuadraticCost, VcgMechanism, Watts};
///
/// # fn main() -> Result<(), mpr_core::MechanismError> {
/// let costs: Vec<QuadraticCost> =
///     [1.0, 2.0, 4.0].iter().map(|&a| QuadraticCost::new(a, 1.0)).collect();
/// let instance: MarketInstance = costs
///     .iter()
///     .zip(0..)
///     .map(|(c, id)| ParticipantSpec::new(id, 1.0, Watts::new(125.0)).with_cost(Arc::new(*c)))
///     .collect();
/// let clearing = VcgMechanism::strict(OptMethod::Auto).clear(&instance, Watts::new(200.0))?;
/// // Individually rational: every pivot payment covers the user's cost.
/// for (i, cost) in costs.iter().enumerate() {
///     assert!(clearing.payment(i).get() >= cost.cost(clearing.reductions()[i]) - 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VcgMechanism {
    method: OptMethod,
    strict: bool,
}

impl VcgMechanism {
    /// Strict variant: infeasible targets (and monopolist pivots) are
    /// errors.
    #[must_use]
    pub fn strict(method: OptMethod) -> Self {
        Self {
            method,
            strict: true,
        }
    }

    /// Best-effort variant: solve failures cap at `Δ_m`.
    #[must_use]
    pub fn best_effort(method: OptMethod) -> Self {
        Self {
            method,
            strict: false,
        }
    }
}

/// Each row's `(reduction, pivot payment)` in input order. A row reducing
/// at most `1e-12` gets `(0, 0)`.
///
/// # Errors
///
/// Propagates the OPT solve's errors, for everyone or with a contributing
/// row removed (a monopolist supplier has unbounded pivot payment).
fn awards(
    rows: &[OptRow<'_>],
    target: Watts,
    method: OptMethod,
) -> Result<Vec<(f64, f64)>, MarketError> {
    let full = optimal::solve(rows, target, method)?;
    let full_cost = optimal::total_cost(rows, &full);
    let mut others: Vec<OptRow<'_>> = Vec::with_capacity(rows.len());
    full.iter()
        .zip(rows)
        .enumerate()
        .map(|(i, (&reduction, (cost, _)))| {
            if reduction <= 1e-12 {
                return Ok((0.0, 0.0));
            }
            let own_cost = cost.cost(reduction);
            // Others' optimal cost when m does not exist.
            others.clear();
            others.extend(
                rows.iter()
                    .enumerate()
                    .filter(|(k, _)| *k != i)
                    .map(|(_, r)| *r),
            );
            // A sole supplier's rivals attain nothing: the monopolist case.
            if others.is_empty() {
                return Err(MarketError::Infeasible {
                    target_watts: target.get(),
                    attainable_watts: 0.0,
                });
            }
            let without = optimal::solve(&others, target, method)?;
            let without_cost = optimal::total_cost(&others, &without);
            // Others' cost within the full optimum.
            let others_cost_in_full = full_cost - own_cost;
            Ok((
                reduction,
                (without_cost - others_cost_in_full).max(own_cost),
            ))
        })
        .collect()
}

impl Mechanism for VcgMechanism {
    fn name(&self) -> &'static str {
        "VCG"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let (positions, rows) = optimal::cost_rows(view);
        if rows.is_empty() {
            return Err(MechanismError::Market(MarketError::NoParticipants));
        }
        let mut reductions = vec![0.0; view.len()];
        let mut prices = vec![0.0; view.len()];
        match awards(&rows, target, self.method) {
            Ok(awards) => {
                let mut payments = vec![0.0; view.len()];
                for (&row, (reduction, payment)) in positions.iter().zip(awards) {
                    if let Some(slot) = reductions.get_mut(row) {
                        *slot = reduction;
                    }
                    if let Some(slot) = payments.get_mut(row) {
                        *slot = payment;
                    }
                    if let Some(slot) = prices.get_mut(row) {
                        *slot = if reduction > 1e-12 {
                            payment / reduction
                        } else {
                            0.0
                        };
                    }
                }
                Ok(Clearing::build(
                    view,
                    target,
                    Price::ZERO,
                    reductions,
                    Some(prices),
                    Some(payments),
                    Diagnostics::default(),
                ))
            }
            Err(e) if self.strict => Err(MechanismError::Market(e)),
            Err(_) => {
                for (row, cost) in view.costs().iter().enumerate() {
                    if let Some(c) = cost {
                        let delta = c.delta_max();
                        if let Some(slot) = reductions.get_mut(row) {
                            *slot = delta;
                        }
                        if let Some(slot) = prices.get_mut(row) {
                            *slot = c.unit_cost(delta);
                        }
                    }
                }
                let diagnostics = Diagnostics {
                    accepted: false,
                    capped_at_delta_max: true,
                    ..Diagnostics::default()
                };
                Ok(Clearing::build(
                    view,
                    target,
                    Price::ZERO,
                    reductions,
                    Some(prices),
                    None,
                    diagnostics,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, QuadraticCost};
    use crate::mechanism::{MarketInstance, ParticipantSpec};
    use std::sync::Arc;

    const W125: Watts = Watts::new(125.0);

    fn instance_of(costs: &[QuadraticCost]) -> MarketInstance {
        costs
            .iter()
            .zip(0..)
            .map(|(c, id)| ParticipantSpec::new(id, c.delta_max(), W125).with_cost(Arc::new(*c)))
            .collect()
    }

    fn instance(alphas: &[f64]) -> MarketInstance {
        let costs: Vec<QuadraticCost> =
            alphas.iter().map(|&a| QuadraticCost::new(a, 1.0)).collect();
        instance_of(&costs)
    }

    fn auction(costs: &[QuadraticCost], target: f64) -> Result<Clearing, MechanismError> {
        VcgMechanism::strict(OptMethod::Auto).clear(&instance_of(costs), Watts::new(target))
    }

    fn quadratics(alphas: &[f64]) -> Vec<QuadraticCost> {
        alphas.iter().map(|&a| QuadraticCost::new(a, 1.0)).collect()
    }

    /// `Σ C_m(δ_m)` of a clearing's rows under `costs`.
    fn cost_of(costs: &[QuadraticCost], c: &Clearing) -> f64 {
        c.reductions()
            .iter()
            .zip(costs)
            .map(|(d, cost)| cost.cost(*d))
            .sum()
    }

    #[test]
    fn matches_direct_auction_and_pays_at_least_cost() {
        let alphas = [1.0, 2.0, 4.0];
        let costs = quadratics(&alphas);
        let target = Watts::new(150.0);
        let c = auction(&costs, target.get()).unwrap();
        assert!(c.met_target());

        // The pivot rule, from OPT clears of the full and reduced cohorts.
        let mut opt = crate::mechanism::OptMechanism::strict(OptMethod::Auto);
        let full = opt.clear(&instance(&alphas), target).unwrap();
        let full_cost = cost_of(&costs, &full);
        for (m, cost) in costs.iter().enumerate() {
            let others: Vec<QuadraticCost> = (0..costs.len())
                .filter(|&k| k != m)
                .map(|k| costs[k])
                .collect();
            let without = opt.clear(&instance_of(&others), target).unwrap();
            let own = cost.cost(full.reductions()[m]);
            let pivot = (cost_of(&others, &without) - (full_cost - own)).max(own);
            assert!((c.reductions()[m] - full.reductions()[m]).abs() < 1e-9);
            assert!((c.payment(m).get() - pivot).abs() < 1e-9);
            // Individual rationality: payment covers incurred cost.
            assert!(c.payment(m).get() >= own - 1e-9);
        }
    }

    #[test]
    fn payments_cover_costs() {
        let costs = quadratics(&[1.0, 2.0, 4.0]);
        let c = auction(&costs, 200.0).unwrap();
        for (i, cost) in costs.iter().enumerate() {
            let own = cost.cost(c.reductions()[i]);
            assert!(
                c.payment(i).get() >= own - 1e-9,
                "individual rationality violated: pay {} < cost {own}",
                c.payment(i).get()
            );
        }
        assert!(c.total_payment_rate().get() >= cost_of(&costs, &c));
    }

    #[test]
    fn zero_reduction_gets_zero_payment() {
        // One cheap job can cover the whole (small) target; the expensive
        // one is idle and unpaid.
        let costs = [
            QuadraticCost::new(0.01, 1.0),
            QuadraticCost::new(100.0, 1.0),
        ];
        let c = auction(&costs, 20.0).unwrap();
        assert!(c.reductions()[1] < 0.05);
        if c.reductions()[1] <= 1e-12 {
            assert_eq!(c.payment(1).get(), 0.0);
        }
    }

    #[test]
    fn truthfulness_spot_check() {
        // Under-reporting the cost cannot increase a user's utility
        // (payment − true cost).
        let truthful = QuadraticCost::new(2.0, 1.0);
        let liar = QuadraticCost::new(1.0, 1.0); // claims to be cheaper
        let other = QuadraticCost::new(2.0, 1.0);
        let honest = auction(&[truthful, other, other], 150.0).unwrap();
        let lying = auction(&[liar, other, other], 150.0).unwrap();
        // True utility uses the TRUE cost at the assigned reduction.
        let utility = |c: &Clearing| c.payment(0).get() - truthful.cost(c.reductions()[0]);
        assert!(
            utility(&honest) >= utility(&lying) - 1e-6,
            "misreporting must not pay: honest {} vs lying {}",
            utility(&honest),
            utility(&lying)
        );
    }

    #[test]
    fn monopolist_supplier_is_infeasible() {
        // Removing the only big supplier makes the target unreachable:
        // the target needs more than `small` alone can give.
        let big = QuadraticCost::new(1.0, 10.0);
        let small = QuadraticCost::new(1.0, 0.1);
        assert!(matches!(
            auction(&[big, small], 500.0),
            Err(MechanismError::Market(MarketError::Infeasible { .. }))
        ));
    }

    #[test]
    fn sole_supplier_is_infeasible_and_best_effort_caps() {
        // The pivot re-solve has no rivals left: the target is out of
        // their reach, not a market without participants.
        let inst = instance(&[2.0]);
        let target = Watts::new(50.0);
        assert_eq!(
            VcgMechanism::strict(OptMethod::Auto)
                .clear(&inst, target)
                .unwrap_err(),
            MechanismError::Market(MarketError::Infeasible {
                target_watts: 50.0,
                attainable_watts: 0.0,
            })
        );
        let c = VcgMechanism::best_effort(OptMethod::Auto)
            .clear(&inst, target)
            .unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert_eq!(c.reductions(), &[1.0]);
    }

    #[test]
    fn empty_and_trivial_targets() {
        assert!(matches!(
            awards(&[], Watts::new(10.0), OptMethod::Auto),
            Err(MarketError::NoParticipants)
        ));
        let c = auction(&quadratics(&[1.0]), 0.0).unwrap();
        assert_eq!(c.total_payment_rate().get(), 0.0);
        assert_eq!(c.reductions(), &[0.0]);
    }

    #[test]
    fn symmetric_jobs_pay_symmetrically() {
        let c = auction(&quadratics(&[2.0; 4]), 300.0).unwrap();
        let p0 = c.payment(0).get();
        for p in c.payment_rates() {
            assert!((p - p0).abs() < 1e-6, "payments {:?}", c.payment_rates());
        }
    }

    #[test]
    fn strict_errors_best_effort_caps() {
        let inst = instance(&[1.0]);
        let target = Watts::new(1e6);
        assert!(matches!(
            VcgMechanism::strict(OptMethod::Auto).clear(&inst, target),
            Err(MechanismError::Market(MarketError::Infeasible { .. }))
        ));
        let c = VcgMechanism::best_effort(OptMethod::Auto)
            .clear(&inst, target)
            .unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert!(!c.met_target());
    }

    #[test]
    fn degenerate_instances_error() {
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            VcgMechanism::default().clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }
}
