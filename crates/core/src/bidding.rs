//! User-side bidding strategies (Section III-C, Fig. 4).
//!
//! * For **MPR-STAT**, bids are fixed at job submission without knowledge of
//!   the clearing price. The paper proposes a *cooperative* strategy — the
//!   largest supply whose curve stays at-or-below the user's reference-cost
//!   curve, guaranteeing a non-negative net gain over the whole price range —
//!   plus a *conservative* variant (higher bid, less supply) and a
//!   *deficient* one (lower bid, possible negative gain).
//! * For **MPR-INT**, the user observes each announced price `q` and picks
//!   the bid maximizing its net gain `G = q·δ(q) − C(δ(q))` (Eqn. 7).

use crate::cost::CostModel;
use crate::error::MarketError;
use crate::numeric;
use crate::supply::SupplyFunction;
use crate::units::Price;

/// Grid density for the bid/response searches. 512 samples over `[0, Δ]`
/// keeps strategy computation O(microseconds) — the "lightweight
/// computation" the paper expects of bidding agents.
const GRID: usize = 512;

/// Static bidding strategies for MPR-STAT markets (Fig. 4(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StaticStrategy {
    /// Bid exactly on the reference cost curve with maximal supply: the
    /// largest participation that still guarantees a non-negative net gain
    /// at every possible clearing price.
    Cooperative,
    /// Bid `factor > 1` times the cooperative bid: less supply at any given
    /// price, a safety margin against cost-model error.
    Conservative {
        /// Multiplier applied to the cooperative bid (must be `>= 1`).
        factor: f64,
    },
    /// Bid `factor < 1` times the cooperative bid: more supply, but a
    /// negative net gain over part of the price range.
    Deficient {
        /// Multiplier applied to the cooperative bid (must be in `(0, 1]`).
        factor: f64,
    },
}

impl StaticStrategy {
    /// Computes the supply function this strategy submits for a job with
    /// the given cost model.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidParameter`] if the strategy factor is
    /// out of range or the cost model's `delta_max` is not positive.
    pub fn supply_for<C: CostModel + ?Sized>(
        &self,
        cost: &C,
    ) -> Result<SupplyFunction, MarketError> {
        let base = cooperative_bid(cost)?;
        let bid = match *self {
            StaticStrategy::Cooperative => base,
            StaticStrategy::Conservative { factor } => {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(MarketError::InvalidParameter {
                        name: "factor",
                        value: factor,
                        constraint: "conservative factor must be >= 1",
                    });
                }
                base * factor
            }
            StaticStrategy::Deficient { factor } => {
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                    return Err(MarketError::InvalidParameter {
                        name: "factor",
                        value: factor,
                        constraint: "deficient factor must be in (0, 1]",
                    });
                }
                base * factor
            }
        };
        SupplyFunction::new(cost.delta_max(), bid)
    }
}

/// The cooperative bid: the smallest `b` such that the supply curve
/// `δ(q) = Δ − b/q` never rises above the user's reference cost curve
/// `δ_ref(q)` (the inverse of `q_ref(δ) = C(δ)/δ`).
///
/// Equivalently `b = max_{0 < δ ≤ Δ} (Δ − δ) · C(δ)/δ`: at every reduction
/// level the price the user receives, `b/(Δ−δ)`, is at least its actual unit
/// cost, so the net gain is non-negative at *any* clearing price — the
/// defining property of cooperative bidding.
///
/// ```
/// use mpr_core::bidding::cooperative_bid;
/// use mpr_core::QuadraticCost;
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// // C(δ) = 4δ² on [0, 1]: unit cost 4δ, so b = max (1−δ)·4δ = 1 at δ = ½.
/// let b = cooperative_bid(&QuadraticCost::new(4.0, 1.0))?;
/// assert!((b - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`MarketError::InvalidParameter`] when the cost model's
/// `delta_max` is not a positive finite number.
pub fn cooperative_bid<C: CostModel + ?Sized>(cost: &C) -> Result<f64, MarketError> {
    let delta_max = cost.delta_max();
    if !delta_max.is_finite() || delta_max <= 0.0 {
        return Err(MarketError::InvalidParameter {
            name: "delta_max",
            value: delta_max,
            constraint: "cost model must allow a positive reduction",
        });
    }
    let f = |delta: f64| {
        if delta <= 0.0 {
            return 0.0;
        }
        (delta_max - delta) * cost.unit_cost(delta)
    };
    // The grid takes `unit_cost`'s default definition, `C(x)/x` at x = δ
    // or, near zero, at the limit point `eps`, through one `cost_many`.
    let eps = 1e-9 * delta_max.max(1e-9);
    let at = |delta: f64| if delta > 1e-12 { delta } else { eps };
    let f_grid = |deltas: &[f64], values: &mut [f64]| {
        for (v, &d) in values.iter_mut().zip(deltas) {
            *v = at(d);
        }
        cost.cost_many(values);
        for (v, &d) in values.iter_mut().zip(deltas) {
            *v = if d <= 0.0 {
                0.0
            } else {
                (delta_max - d) * (*v / at(d))
            };
        }
    };
    let (_, bid) = numeric::maximize(delta_max * 1e-6, delta_max, GRID, f, f_grid)?;
    Ok(bid.max(0.0))
}

/// Outcome of a net-gain-maximizing best response at a given price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The reduction `δ*` the user wants to supply at this price.
    pub delta: f64,
    /// The bid `b = q · (Δ − δ*)` that makes the supply function pass
    /// through `(q, δ*)`.
    pub bid: f64,
    /// The net gain `q·δ* − C(δ*)` achieved.
    pub net_gain: f64,
}

/// Computes the MPR-INT best response (Fig. 4(b)): the reduction `δ*` in
/// `[0, Δ]` maximizing `G(δ) = q·δ − C(δ)` and the bid that realizes it.
///
/// Users solve this unconstrained one-dimensional problem each market
/// iteration (Section III-D, "Scalability").
///
/// ```
/// use mpr_core::bidding::best_response;
/// use mpr_core::{Price, QuadraticCost};
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// // G = qδ − 2δ² peaks at δ* = q/4.
/// let r = best_response(&QuadraticCost::new(2.0, 1.0), Price::new(1.0))?;
/// assert!((r.delta - 0.25).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`MarketError::InvalidParameter`] on a non-finite or negative
/// price, or when the cost model's `delta_max` is not positive.
pub fn best_response<C: CostModel + ?Sized>(
    cost: &C,
    price: Price,
) -> Result<BestResponse, MarketError> {
    let q = price.get();
    if !q.is_finite() || q < 0.0 {
        return Err(MarketError::InvalidParameter {
            name: "price",
            value: q,
            constraint: "must be finite and >= 0",
        });
    }
    let delta_max = cost.delta_max();
    if !delta_max.is_finite() || delta_max <= 0.0 {
        return Err(MarketError::InvalidParameter {
            name: "delta_max",
            value: delta_max,
            constraint: "cost model must allow a positive reduction",
        });
    }
    let (delta, net_gain) = numeric::maximize(
        0.0,
        delta_max,
        GRID,
        |d| q * d - cost.cost(d),
        |deltas, values| {
            values.copy_from_slice(deltas);
            cost.cost_many(values);
            for (v, &d) in values.iter_mut().zip(deltas) {
                *v = q * d - *v;
            }
        },
    )?;
    // Never supply at a loss: δ = 0 always achieves G = 0.
    let (delta, net_gain) = if net_gain < 0.0 {
        (0.0, 0.0)
    } else {
        (delta, net_gain)
    };
    let bid = (q * (delta_max - delta)).max(0.0);
    Ok(BestResponse {
        delta,
        bid,
        net_gain,
    })
}

/// Net market gain (Eqn. 7) of a user holding `supply` when the market
/// clears at `price`: payoff `q'·δ(q')` minus the cost `C(δ(q'))`.
#[must_use]
pub fn net_gain<C: CostModel + ?Sized>(cost: &C, supply: &SupplyFunction, price: Price) -> f64 {
    let delta = supply.supply(price);
    price.get() * delta - cost.cost(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LinearCost, PowerLawCost, QuadraticCost};
    use proptest::prelude::*;

    #[test]
    fn cooperative_bid_linear_cost_closed_form() {
        // C(δ) = s·δ → unit cost s. b = max (Δ−δ)·s = Δ·s at δ → 0.
        let cost = LinearCost::new(2.0, 0.5);
        let b = cooperative_bid(&cost).unwrap();
        assert!((b - 1.0).abs() < 1e-3, "b = {b}");
    }

    #[test]
    fn cooperative_bid_quadratic_closed_form() {
        // unit cost αδ → (Δ−δ)·αδ maximized at δ = Δ/2 → b = αΔ²/4.
        let cost = QuadraticCost::new(4.0, 1.0);
        let b = cooperative_bid(&cost).unwrap();
        assert!((b - 1.0).abs() < 1e-6, "b = {b}");
    }

    #[test]
    fn cooperative_gain_is_nonnegative_across_prices() {
        let cost = PowerLawCost::new(3.0, 2.3, 0.7);
        let supply = StaticStrategy::Cooperative.supply_for(&cost).unwrap();
        for i in 1..200 {
            let q = 0.05 * f64::from(i);
            let g = net_gain(&cost, &supply, Price::new(q));
            assert!(g >= -1e-9, "negative gain {g} at price {q}");
        }
    }

    #[test]
    fn deficient_bid_can_lose_money() {
        let cost = QuadraticCost::new(4.0, 1.0);
        let supply = StaticStrategy::Deficient { factor: 0.2 }
            .supply_for(&cost)
            .unwrap();
        let lost =
            (1..200).any(|i| net_gain(&cost, &supply, Price::new(0.02 * f64::from(i))) < -1e-9);
        assert!(lost, "a strongly deficient bid should lose at some price");
    }

    #[test]
    fn conservative_supplies_less_than_cooperative() {
        let cost = QuadraticCost::new(4.0, 1.0);
        let coop = StaticStrategy::Cooperative.supply_for(&cost).unwrap();
        let cons = StaticStrategy::Conservative { factor: 2.0 }
            .supply_for(&cost)
            .unwrap();
        for i in 1..50 {
            let q = Price::new(0.1 * f64::from(i));
            assert!(cons.supply(q) <= coop.supply(q) + 1e-12);
        }
    }

    #[test]
    fn strategy_factor_validation() {
        let cost = LinearCost::new(1.0, 0.5);
        assert!(StaticStrategy::Conservative { factor: 0.5 }
            .supply_for(&cost)
            .is_err());
        assert!(StaticStrategy::Deficient { factor: 1.5 }
            .supply_for(&cost)
            .is_err());
        assert!(StaticStrategy::Deficient { factor: 0.0 }
            .supply_for(&cost)
            .is_err());
    }

    #[test]
    fn best_response_quadratic_closed_form() {
        // G = qδ − αδ²; δ* = q/(2α) when interior.
        let cost = QuadraticCost::new(2.0, 1.0);
        let r = best_response(&cost, Price::new(1.0)).unwrap();
        assert!((r.delta - 0.25).abs() < 1e-6, "delta = {}", r.delta);
        assert!((r.net_gain - (1.0 * 0.25 - 2.0 * 0.0625)).abs() < 1e-9);
        assert!((r.bid - 1.0 * (1.0 - 0.25)).abs() < 1e-6);
    }

    #[test]
    fn best_response_saturates_at_delta_max() {
        let cost = QuadraticCost::new(0.1, 0.5);
        let r = best_response(&cost, Price::new(10.0)).unwrap();
        assert!((r.delta - 0.5).abs() < 1e-9);
        assert!(r.bid.abs() < 1e-6);
    }

    #[test]
    fn best_response_zero_price_supplies_nothing() {
        let cost = QuadraticCost::new(1.0, 1.0);
        let r = best_response(&cost, Price::ZERO).unwrap();
        assert_eq!(r.delta, 0.0);
        assert_eq!(r.net_gain, 0.0);
    }

    #[test]
    fn best_response_rejects_bad_price() {
        let cost = QuadraticCost::new(1.0, 1.0);
        assert!(best_response(&cost, Price::new(f64::NAN)).is_err());
        assert!(best_response(&cost, Price::new(-1.0)).is_err());
    }

    #[test]
    fn cooperative_bid_rejects_zero_delta_max() {
        let cost = LinearCost::new(1.0, 0.0);
        assert!(cooperative_bid(&cost).is_err());
    }

    proptest! {
        /// The best response never yields a negative net gain, and its bid
        /// reproduces δ* through the supply function.
        #[test]
        fn best_response_consistency(
            alpha in 0.1f64..10.0,
            exponent in 1.1f64..3.0,
            delta_max in 0.1f64..2.0,
            price in 0.0f64..20.0,
        ) {
            let cost = PowerLawCost::new(alpha, exponent, delta_max);
            let r = best_response(&cost, Price::new(price)).unwrap();
            prop_assert!(r.net_gain >= -1e-9);
            prop_assert!(r.delta >= 0.0 && r.delta <= delta_max + 1e-9);
            if price > 0.0 {
                let s = SupplyFunction::new(delta_max, r.bid).unwrap();
                let at = s.supply(Price::new(price));
                prop_assert!((at - r.delta).abs() < 1e-6,
                    "supply({price}) = {at} but delta = {}", r.delta);
            }
        }

        /// Cooperative bidding guarantees non-negative gain at every price —
        /// the paper's "users always receive more rewards than the cost".
        #[test]
        fn cooperative_never_loses(
            alpha in 0.1f64..10.0,
            exponent in 1.0f64..3.0,
            delta_max in 0.1f64..2.0,
            price in 0.001f64..50.0,
        ) {
            let cost = PowerLawCost::new(alpha, exponent, delta_max);
            let supply = StaticStrategy::Cooperative.supply_for(&cost).unwrap();
            prop_assert!(net_gain(&cost, &supply, Price::new(price)) >= -1e-6);
        }
    }
}
