//! Welfare analysis of market outcomes.
//!
//! The theory behind MPR's supply function (Johari & Tsitsiklis 2011;
//! Section III-B, "Rationale") guarantees bounded efficiency loss at the
//! Nash equilibrium. This module measures exactly that on concrete
//! outcomes: the **efficiency ratio** (optimal cost over realized cost, 1.0
//! = socially optimal) and the surplus split between users and the
//! manager's payoff.

use crate::cost::CostModel;
use crate::error::MarketError;
use crate::mechanism::optimal::{self, OptMethod, OptRow};
use crate::mechanism::Clearing;

/// Welfare decomposition of one clearing against the true cost models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welfare {
    /// Total true cost incurred by the clearing's allocation.
    pub realized_cost: f64,
    /// The socially optimal (OPT) cost for the same delivered power.
    pub optimal_cost: f64,
    /// Manager's total payoff `Σ q'·δ_m` per unit time.
    pub payment: f64,
    /// Users' aggregate net gain (payment − realized cost).
    pub user_surplus: f64,
}

impl Welfare {
    /// Efficiency of the allocation: `optimal_cost / realized_cost`, in
    /// `(0, 1]` (1 means the market found the social optimum). `None` when
    /// no cost was incurred.
    #[must_use]
    pub fn efficiency(&self) -> Option<f64> {
        (self.realized_cost > 1e-12).then(|| (self.optimal_cost / self.realized_cost).min(1.0))
    }

    /// The manager's overpayment relative to the realized cost — what
    /// user-in-the-loop convenience costs her.
    #[must_use]
    pub fn overpayment(&self) -> f64 {
        self.payment - self.realized_cost
    }
}

/// Evaluates a clearing's welfare against the participants' *true* cost
/// models, given in the clearing's row order.
///
/// # Errors
///
/// Returns [`MarketError::InvalidParameter`] when the cost-model count
/// disagrees with the clearing's row count, and propagates OPT solver
/// errors.
pub fn evaluate<C: CostModel>(
    clearing: &Clearing,
    true_costs: &[C],
    watts_per_unit: &[f64],
) -> Result<Welfare, MarketError> {
    if true_costs.len() != clearing.len() || watts_per_unit.len() != true_costs.len() {
        return Err(MarketError::InvalidParameter {
            name: "true_costs",
            value: true_costs.len() as f64,
            constraint: "must match the clearing's row count",
        });
    }
    let realized_cost: f64 = clearing
        .reductions()
        .iter()
        .zip(true_costs)
        .map(|(r, c)| c.cost(*r))
        .sum();
    let payment = clearing.total_payment_rate().get();
    let delivered = clearing.total_power_reduction();
    let optimal_cost = if delivered.get() > 1e-12 {
        let rows: Vec<OptRow<'_>> = true_costs
            .iter()
            .zip(watts_per_unit)
            .map(|(c, &w)| (c as &dyn CostModel, w))
            .collect();
        optimal::total_cost(&rows, &optimal::solve(&rows, delivered, OptMethod::Auto)?)
    } else {
        0.0
    };
    Ok(Welfare {
        realized_cost,
        optimal_cost,
        payment,
        user_surplus: payment - realized_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidding::StaticStrategy;
    use crate::cost::QuadraticCost;
    use crate::market::interactive::InteractiveConfig;
    use crate::mechanism::{
        InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism, ParticipantSpec,
    };
    use crate::units::Watts;
    use std::sync::Arc;

    fn costs() -> Vec<QuadraticCost> {
        [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&a| QuadraticCost::new(a, 1.0))
            .collect()
    }

    /// Cooperative standing bids (MPR-STAT) and cost curves (MPR-INT).
    fn instance(cs: &[QuadraticCost]) -> MarketInstance {
        cs.iter()
            .enumerate()
            .map(|(i, c)| {
                let bid = StaticStrategy::Cooperative.supply_for(c).unwrap().bid();
                ParticipantSpec::new(i as u64, c.delta_max(), Watts::new(125.0))
                    .with_bid(bid)
                    .with_cost(Arc::new(*c))
            })
            .collect()
    }

    #[test]
    fn interactive_market_is_near_optimal() {
        let cs = costs();
        let clearing = InteractiveMechanism::strict(InteractiveConfig::default())
            .clear(&instance(&cs), Watts::new(250.0))
            .unwrap();
        let w = vec![125.0; cs.len()];
        let welfare = evaluate(&clearing, &cs, &w).unwrap();
        let eff = welfare.efficiency().unwrap();
        assert!(eff > 0.9, "MPR-INT efficiency {eff} should be near 1");
        assert!(welfare.user_surplus >= -1e-9, "users never lose");
    }

    #[test]
    fn static_market_efficiency_is_lower_but_positive() {
        let cs = costs();
        let clearing = MclrMechanism::strict()
            .clear(&instance(&cs), Watts::new(250.0))
            .unwrap();
        let w = vec![125.0; cs.len()];
        let welfare = evaluate(&clearing, &cs, &w).unwrap();
        let eff = welfare.efficiency().unwrap();
        assert!(eff > 0.3 && eff <= 1.0, "efficiency {eff}");
        assert!(welfare.payment >= welfare.realized_cost - 1e-9);
        assert!(welfare.overpayment() >= -1e-9);
    }

    #[test]
    fn mismatched_lengths_error() {
        let cs = costs();
        let clearing = MclrMechanism::strict()
            .clear(&instance(&cs), Watts::new(100.0))
            .unwrap();
        let err = evaluate(&clearing, &cs[..2], &[125.0, 125.0]).unwrap_err();
        assert!(matches!(err, MarketError::InvalidParameter { .. }));
    }

    #[test]
    fn empty_clearing_has_no_efficiency() {
        let cs = costs();
        let clearing = MclrMechanism::strict()
            .clear(&instance(&cs), Watts::ZERO)
            .unwrap();
        let w = vec![125.0; cs.len()];
        let welfare = evaluate(&clearing, &cs, &w).unwrap();
        assert_eq!(welfare.efficiency(), None);
        assert_eq!(welfare.user_surplus, 0.0);
    }
}
