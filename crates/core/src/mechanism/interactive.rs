//! MPR-INT on the unified [`Mechanism`] interface (Section III-B).
//!
//! The HPC manager declares an initial clearing price; users respond with
//! bids maximizing their net gain at that price; the manager re-solves MClr
//! and announces the updated price. The exchange repeats until the price
//! converges — a Nash equilibrium whose allocation matches the social
//! optimum OPT (Johari & Tsitsiklis 2011; Section III-D).

use std::sync::Arc;

use crate::cost::CostModel;
use crate::error::MarketError;
use crate::market::interactive::{is_oscillating, BiddingAgent, InteractiveConfig, NetGainAgent};
use crate::mclr::{self, BidColumns};
use crate::mechanism::{Clearing, Diagnostics, InstanceView, Mechanism, MechanismError};
use crate::supply::SupplyFunction;
use crate::units::{Price, Watts};

/// The announced price of an MPR-INT exchange and its trajectory: the
/// damped update every interactive exchange shares.
pub(crate) struct DampedPrice {
    price: f64,
    /// Every announced price, the initial one first.
    pub(crate) trace: Vec<f64>,
}

impl DampedPrice {
    /// Starts at the configured initial price, floored at 1e-9.
    pub(crate) fn new(cfg: &InteractiveConfig) -> Self {
        let price = cfg.initial_price.max(1e-9);
        Self {
            price,
            trace: vec![price],
        }
    }

    /// The price announced for the next round.
    pub(crate) fn announced(&self) -> Price {
        Price::new(self.price)
    }

    /// Moves the announcement toward `cleared`, the price that clears
    /// this round's bids: `q ← (1−γ)·q + γ·q*`. Returns the relative
    /// change, or `None` once it is within the tolerance (converged).
    pub(crate) fn step(&mut self, cleared: Price, cfg: &InteractiveConfig) -> Option<f64> {
        let next = (1.0 - cfg.damping) * self.price + cfg.damping * cleared.get();
        let rel_change = (next - self.price).abs() / self.price.abs().max(1e-9);
        self.price = next;
        self.trace.push(next);
        if rel_change <= cfg.tolerance {
            None
        } else {
            Some(rel_change)
        }
    }
}

/// The interactive market: rational [`NetGainAgent`]s are spun up from the
/// instance's cost models and the iterative price/bid exchange runs to
/// convergence.
///
/// Rows without a cost model cannot bid and sit the clearing out.
///
/// * **strict** — propagates [`MarketError::Infeasible`] (the CLI's
///   behaviour).
/// * **best-effort** — an infeasible target caps every cost-bearing row at
///   its `Δ_m`, priced at the row's own unit cost (break-even compensation;
///   the simulator's behaviour).
#[derive(Debug, Clone)]
pub struct InteractiveMechanism {
    config: InteractiveConfig,
    strict: bool,
}

impl InteractiveMechanism {
    /// Strict variant: infeasible targets are errors.
    #[must_use]
    pub fn strict(config: InteractiveConfig) -> Self {
        Self {
            config,
            strict: true,
        }
    }

    /// Best-effort variant: infeasible targets cap at `Δ_m`.
    #[must_use]
    pub fn best_effort(config: InteractiveConfig) -> Self {
        Self {
            config,
            strict: false,
        }
    }

    /// The interactive-market configuration in use.
    #[must_use]
    pub fn config(&self) -> InteractiveConfig {
        self.config
    }

    /// One rational agent per cost-bearing row, keyed by its view row.
    fn agents(view: &InstanceView<'_>) -> Vec<(usize, NetGainAgent<Arc<dyn CostModel>>)> {
        view.ids()
            .iter()
            .zip(view.costs())
            .zip(view.watts_per_unit_slice())
            .enumerate()
            .filter_map(|(row, ((id, cost), wpu))| {
                Some((row, NetGainAgent::new(*id, cost.clone()?, Watts::new(*wpu))))
            })
            .collect()
    }

    /// The capped fallback: every cost-bearing row reduces by its full
    /// `Δ_m` and is paid its own marginal unit cost at that point.
    fn capped(view: &InstanceView<'_>, target: Watts) -> Clearing {
        let mut reductions = Vec::with_capacity(view.len());
        let mut prices = Vec::with_capacity(view.len());
        for cost in view.costs() {
            match cost {
                Some(c) => {
                    let delta = c.delta_max();
                    reductions.push(delta);
                    prices.push(c.unit_cost(delta));
                }
                None => {
                    reductions.push(0.0);
                    prices.push(0.0);
                }
            }
        }
        let diagnostics = Diagnostics {
            iterations: 0,
            converged: false,
            accepted: false,
            capped_at_delta_max: true,
            ..Diagnostics::default()
        };
        Clearing::build(
            view,
            target,
            Price::ZERO,
            reductions,
            Some(prices),
            None,
            diagnostics,
        )
    }
}

impl Mechanism for InteractiveMechanism {
    fn name(&self) -> &'static str {
        "MPR-INT"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let mut agents = Self::agents(view);
        if agents.is_empty() {
            return Err(MechanismError::Market(MarketError::NoParticipants));
        }
        let target_watts = target.get();
        if target_watts <= 0.0 {
            let diagnostics = Diagnostics {
                iterations: 0,
                price_trace: vec![0.0],
                ..Diagnostics::default()
            };
            return Ok(Clearing::build(
                view,
                target,
                Price::ZERO,
                Vec::new(),
                None,
                None,
                diagnostics,
            ));
        }
        // Feasibility does not depend on the bids.
        let attainable: f64 = agents
            .iter()
            .map(|(_, a)| a.delta_max() * a.watts_per_unit())
            .sum();
        if attainable < target_watts * (1.0 - 1e-9) {
            let infeasible = MarketError::Infeasible {
                target_watts,
                attainable_watts: attainable,
            };
            return if self.strict {
                Err(MechanismError::Market(infeasible))
            } else {
                Ok(Self::capped(view, target))
            };
        }

        let cfg = self.config;
        let mut price = DampedPrice::new(&cfg);
        let mut converged = false;
        let deltas: Vec<f64> = agents.iter().map(|(_, a)| a.delta_max()).collect();
        let watts: Vec<f64> = agents.iter().map(|(_, a)| a.watts_per_unit()).collect();
        // NaN until an agent has bid: a row without a bid sits out.
        let mut bids = vec![f64::NAN; agents.len()];
        let mut iterations = 0;
        for _ in 0..cfg.max_iterations {
            iterations += 1;
            for (((_, agent), bid), &delta) in agents.iter_mut().zip(&mut bids).zip(&deltas) {
                // A rational agent's best response is finite by
                // construction.
                let response = agent.respond(price.announced().get())?;
                *bid = SupplyFunction::new(delta, response.max(0.0))?.bid();
            }
            let market = BidColumns::new(&deltas, &bids, &watts);
            if price
                .step(mclr::clear_best_effort(market, target), &cfg)
                .is_none()
            {
                converged = true;
                break;
            }
        }

        // Final clearing with the last bids: one more MClr solve replaces
        // the damped/announced price by one that actually meets the target
        // with these supplies.
        let market = BidColumns::new(&deltas, &bids, &watts);
        let clearing_price = mclr::clear_best_effort(market, target);
        // The round-cap safeguard takes the last price — sound when the
        // trajectory stalled short of tolerance, but a bogus clearing when
        // it is *cycling*. Surface the cycle as a typed error so a
        // FallbackChain degrades to a static mechanism instead of shipping
        // an arbitrary cycle point.
        if !converged && is_oscillating(&price.trace, cfg.tolerance, cfg.oscillation_window) {
            return Err(MechanismError::NonConvergent {
                rounds: iterations,
                last_price: clearing_price.get(),
            });
        }
        let mut reductions = vec![0.0; view.len()];
        for ((row, _), r) in agents.iter().zip(market.reductions(clearing_price)) {
            if let Some(slot) = reductions.get_mut(*row) {
                *slot = r;
            }
        }
        let diagnostics = Diagnostics {
            iterations,
            converged,
            accepted: converged,
            price_trace: price.trace,
            ..Diagnostics::default()
        };
        Ok(Clearing::build(
            view,
            target,
            clearing_price,
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
    use crate::cost::QuadraticCost;
    use crate::mechanism::{MarketInstance, ParticipantSpec};
    use std::sync::Arc;

    fn instance(alphas: &[f64]) -> MarketInstance {
        alphas
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                ParticipantSpec::new(i as u64, 1.0, Watts::new(125.0))
                    .with_cost(Arc::new(QuadraticCost::new(a, 1.0)))
            })
            .collect()
    }

    #[test]
    fn converges_and_orders_by_sensitivity() {
        let inst = instance(&[1.0, 2.0, 4.0]);
        let mut mech = InteractiveMechanism::strict(InteractiveConfig::default());
        let c = mech.clear(&inst, Watts::new(150.0)).unwrap();
        assert!(c.diagnostics().converged);
        assert!(c.met_target());
        assert!(c.iterations() > 0);
        assert!(!c.diagnostics().price_trace.is_empty());
        let r = c.reductions();
        assert!(r[0] > r[1] && r[1] > r[2]);
    }

    #[test]
    fn strict_propagates_infeasible_best_effort_caps() {
        let inst = instance(&[1.0]);
        let target = Watts::new(1000.0); // attainable is 125 W
        let mut strict = InteractiveMechanism::strict(InteractiveConfig::default());
        assert!(matches!(
            strict.clear(&inst, target),
            Err(MechanismError::Market(MarketError::Infeasible { .. }))
        ));

        let mut soft = InteractiveMechanism::best_effort(InteractiveConfig::default());
        let c = soft.clear(&inst, target).unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert!(!c.diagnostics().accepted);
        assert!(!c.met_target());
        assert!(c.residual().get() > 0.0);
        assert!((c.reductions()[0] - 1.0).abs() < 1e-12);
        // Paid at own unit cost, not at a market price.
        assert!(c.participant_prices()[0] > 0.0);
        assert_eq!(c.price(), Price::ZERO);
    }

    /// Piecewise-linear cost with a kink at `δ = 0.75`: the best response
    /// is bang-bang (supply nothing below unit cost 1.6, supply 0.75 above
    /// it), which drives the undamped exchange into a perfect
    /// `1.0 ↔ 2.0` price 2-cycle for a 62.5 W target.
    struct KinkedCost;

    impl crate::cost::CostModel for KinkedCost {
        fn cost(&self, delta: f64) -> f64 {
            let d = delta.max(0.0);
            if d <= 0.75 {
                1.6 * d
            } else {
                1.2 + 10.0 * (d - 0.75)
            }
        }
        fn delta_max(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn oscillating_exchange_is_a_typed_error_not_a_bogus_clearing() {
        let inst: MarketInstance = std::iter::once(
            ParticipantSpec::new(0, 1.0, Watts::new(125.0)).with_cost(Arc::new(KinkedCost)),
        )
        .collect();
        let mut mech = InteractiveMechanism::best_effort(InteractiveConfig {
            max_iterations: 12,
            ..InteractiveConfig::default()
        });
        match mech.clear(&inst, Watts::new(62.5)) {
            Err(MechanismError::NonConvergent { rounds, last_price }) => {
                assert_eq!(rounds, 12);
                assert!(last_price > 0.0);
            }
            other => panic!("expected NonConvergent, got {other:?}"),
        }
        // The same cap on a merely *slow* (monotone) trajectory still
        // returns the last price: quadratic costs starved of rounds.
        let slow = instance(&[1.0, 2.0, 4.0]);
        let mut capped = InteractiveMechanism::best_effort(InteractiveConfig {
            max_iterations: 2,
            tolerance: 0.0,
            ..InteractiveConfig::default()
        });
        let c = capped.clear(&slow, Watts::new(150.0)).unwrap();
        assert!(!c.diagnostics().converged);
        assert!(c.price() > Price::ZERO);
    }

    #[test]
    fn degenerate_instances_error() {
        let mut mech = InteractiveMechanism::best_effort(InteractiveConfig::default());
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            mech.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        // Cost-less instance: no agents can be built.
        let costless: MarketInstance = (0..2)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)))
            .collect();
        assert!(matches!(
            mech.clear(&costless, Watts::new(10.0)),
            Err(MechanismError::Market(MarketError::NoParticipants))
        ));
    }
}
