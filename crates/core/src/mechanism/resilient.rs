//! The fault-tolerant interactive exchange as a chain-composable
//! [`Mechanism`].
//!
//! This is level 0 of the degradation chain built by
//! [`FallbackChain::degradation`](crate::mechanism::FallbackChain::degradation):
//! the damped MPR-INT price/bid
//! exchange hardened with a per-round retry budget, quarantine, and the
//! convergence watchdog (PR-1 semantics, ported verbatim). It never turns
//! agent faults into errors — a failed exchange is returned as an
//! **unaccepted** [`Clearing`] carrying the observed last-known/cooperative
//! bids, which a [`FallbackChain`](crate::mechanism::FallbackChain) patches
//! into the instance for its next stage.

use crate::error::MarketError;
use crate::market::faults::{ConvergenceWatchdog, Quarantine, ResilientConfig};
use crate::market::interactive::BiddingAgent;
use crate::mclr;
use crate::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, Mechanism, MechanismError, ParticipantSpec,
};
use crate::participant::Participant;
use crate::supply::SupplyFunction;
use crate::units::{Price, Watts};

/// Per-agent book-keeping shared by the resilient (synchronous) and the
/// transported (message-passing) interactive mechanisms.
pub(crate) struct AgentSlot {
    pub(crate) agent: Box<dyn BiddingAgent>,
    /// Registered submission-time (cooperative) bid, used at fallback
    /// levels when no live bid was ever observed.
    pub(crate) fallback_bid: Option<f64>,
    /// Most recent valid bid observed from the live exchange.
    pub(crate) last_bid: Option<f64>,
    pub(crate) quarantined: bool,
}

impl AgentSlot {
    /// Creates a fresh slot; non-finite or negative fallback bids are
    /// discarded.
    pub(crate) fn new(agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) -> Self {
        Self {
            agent,
            fallback_bid: fallback_bid.filter(|b| b.is_finite() && *b >= 0.0),
            last_bid: None,
            quarantined: false,
        }
    }
}

/// The [`MarketInstance`] matching `slots`, in registration order (bids are
/// the registered fallback bids).
pub(crate) fn slots_instance(slots: &[AgentSlot]) -> MarketInstance {
    slots
        .iter()
        .map(|s| {
            let spec = ParticipantSpec::new(
                s.agent.job_id(),
                s.agent.delta_max(),
                Watts::new(s.agent.watts_per_unit()),
            );
            match s.fallback_bid {
                Some(b) => spec.with_bid(b),
                None => spec,
            }
        })
        .collect()
}

/// Participants for the surviving (non-quarantined) slots with a live bid.
pub(crate) fn slots_survivor_participants(slots: &[AgentSlot]) -> Vec<Participant> {
    slots
        .iter()
        .filter(|s| !s.quarantined)
        .filter_map(|s| {
            let bid = s.last_bid?;
            let supply = SupplyFunction::new(s.agent.delta_max(), bid).ok()?;
            Some(Participant::new(
                s.agent.job_id(),
                supply,
                Watts::new(s.agent.watts_per_unit()),
            ))
        })
        .collect()
}

/// Every slot's effective bid — last live, else registered cooperative,
/// else 0 (manager-side forced capping still supplies) — in slot order.
pub(crate) fn slots_observed_bids(slots: &[AgentSlot]) -> Vec<f64> {
    slots
        .iter()
        .map(|s| s.last_bid.or(s.fallback_bid).unwrap_or(0.0))
        .collect()
}

/// Per-slot reductions at `price` from each survivor's live bid
/// (quarantined and never-bid slots supply nothing).
pub(crate) fn slots_survivor_reductions(slots: &[AgentSlot], price: Price) -> Vec<f64> {
    slots
        .iter()
        .map(|s| {
            if s.quarantined {
                return 0.0;
            }
            s.last_bid
                .and_then(|b| SupplyFunction::new(s.agent.delta_max(), b).ok())
                .map_or(0.0, |supply| supply.supply(price))
        })
        .collect()
}

/// Fault-tolerant MPR-INT over registered bidding agents.
///
/// The mechanism owns its agents, so quarantine state persists across
/// clearings. The [`MarketInstance`] passed to `clear` must list the
/// registered jobs in registration order (use
/// [`ResilientInteractiveMechanism::instance`]); the mechanism reads agent
/// state authoritatively from its slots and uses the instance only for the
/// clearing's row layout.
pub struct ResilientInteractiveMechanism {
    slots: Vec<AgentSlot>,
    config: ResilientConfig,
}

impl std::fmt::Debug for ResilientInteractiveMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientInteractiveMechanism")
            .field("agents", &self.slots.len())
            .field("config", &self.config)
            .finish()
    }
}

impl ResilientInteractiveMechanism {
    /// Creates an empty mechanism.
    #[must_use]
    pub fn new(config: ResilientConfig) -> Self {
        Self {
            slots: Vec::new(),
            config,
        }
    }

    /// Registers an agent together with its submission-time cooperative
    /// bid (ignored unless finite and non-negative).
    pub fn register(&mut self, agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) {
        self.slots.push(AgentSlot::new(agent, fallback_bid));
    }

    /// Number of registered agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no agents are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The resilient configuration in use.
    #[must_use]
    pub fn config(&self) -> ResilientConfig {
        self.config
    }

    /// Builds the [`MarketInstance`] matching the registered agents, in
    /// registration order (bids are the registered fallback bids).
    #[must_use]
    pub fn instance(&self) -> MarketInstance {
        slots_instance(&self.slots)
    }

    /// Participants for the surviving (non-quarantined) agents with a live
    /// bid.
    fn survivor_participants(&self) -> Vec<Participant> {
        slots_survivor_participants(&self.slots)
    }

    /// Every slot's effective bid — last live, else registered cooperative,
    /// else 0 (manager-side forced capping still supplies) — in slot order.
    fn observed_bids(&self) -> Vec<f64> {
        slots_observed_bids(&self.slots)
    }

    /// Per-slot reductions at `price` from each survivor's live bid
    /// (quarantined and never-bid slots supply nothing).
    fn survivor_reductions(&self, price: Price) -> Vec<f64> {
        slots_survivor_reductions(&self.slots, price)
    }
}

impl Mechanism for ResilientInteractiveMechanism {
    fn name(&self) -> &'static str {
        "MPR-INT-RESILIENT"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        if self.slots.is_empty() {
            return Err(MechanismError::DegenerateInstance {
                reason: "no agents are registered with the resilient exchange",
            });
        }
        // Row layout must match the registered agents; fall back to our own
        // view when a caller hands us a foreign window.
        let own;
        let own_view;
        let layout: &InstanceView<'_> = if view.len() == self.slots.len() {
            view
        } else {
            own = self.instance();
            own_view = own.view();
            &own_view
        };
        let target_watts = target.get();
        if target_watts <= 0.0 {
            let diagnostics = Diagnostics {
                iterations: 0,
                price_trace: vec![0.0],
                observed_bids: Some(self.observed_bids()),
                ..Diagnostics::default()
            };
            return Ok(Clearing::build(
                layout,
                Watts::new(target_watts.max(0.0)),
                Price::ZERO,
                vec![0.0; layout.len()],
                None,
                None,
                diagnostics,
            ));
        }

        let cfg = self.config;
        let icfg = cfg.interactive;
        let mut price = icfg.initial_price.max(1e-9);
        let mut trace = vec![price];
        let mut watchdog = ConvergenceWatchdog::new(cfg.watchdog_window, cfg.divergence_min_change);
        let mut quarantined: Vec<Quarantine> = Vec::new();
        let mut retries = 0usize;
        let mut converged = false;
        let mut diverged = false;
        let mut rounds = 0usize;

        // The interactive exchange over responsive agents (PR-1 semantics:
        // bounded retries per round, terminal crashes skip the budget, the
        // watchdog aborts oscillation).
        'rounds: for round in 1..=icfg.max_iterations {
            rounds = round;
            for slot in self.slots.iter_mut().filter(|s| !s.quarantined) {
                let mut attempts = 0usize;
                loop {
                    match slot.agent.respond(price) {
                        Ok(bid) if bid.is_finite() => {
                            slot.last_bid = Some(bid.max(0.0));
                            break;
                        }
                        Ok(garbage) => {
                            attempts += 1;
                            if attempts > cfg.max_retries {
                                slot.quarantined = true;
                                quarantined.push(Quarantine {
                                    id: slot.agent.job_id(),
                                    round,
                                    error: MarketError::InvalidParameter {
                                        name: "bid",
                                        value: garbage,
                                        constraint: "agent returned a non-finite bid",
                                    },
                                });
                                break;
                            }
                            retries += 1;
                        }
                        Err(err @ MarketError::AgentCrashed { .. }) => {
                            slot.quarantined = true;
                            quarantined.push(Quarantine {
                                id: slot.agent.job_id(),
                                round,
                                error: err,
                            });
                            break;
                        }
                        Err(err) => {
                            attempts += 1;
                            if attempts > cfg.max_retries {
                                slot.quarantined = true;
                                quarantined.push(Quarantine {
                                    id: slot.agent.job_id(),
                                    round,
                                    error: err,
                                });
                                break;
                            }
                            retries += 1;
                        }
                    }
                }
            }

            let participants = self.survivor_participants();
            if participants.is_empty() {
                break 'rounds;
            }
            let sol = mclr::clear_best_effort(&participants, target);
            let next = (1.0 - icfg.damping) * price + icfg.damping * sol.price.get();
            let rel_change = (next - price).abs() / price.abs().max(1e-9);
            price = next;
            trace.push(price);
            if rel_change <= icfg.tolerance {
                converged = true;
                break 'rounds;
            }
            if watchdog.observe(rel_change) {
                diverged = true;
                break 'rounds;
            }
        }

        // Final solve: replace the damped announcement with the price that
        // actually clears the surviving supplies.
        let survivors = self.survivor_participants();
        let healthy = converged && !diverged && !survivors.is_empty();
        let (clearing_price, reductions) = if healthy {
            let sol = mclr::clear_best_effort(&survivors, target);
            (sol.price, self.survivor_reductions(sol.price))
        } else {
            // Nothing usable from the exchange; the chain's next stage
            // re-clears from the observed bids.
            (Price::ZERO, vec![0.0; self.slots.len()])
        };

        let diagnostics = Diagnostics {
            iterations: rounds,
            converged,
            diverged,
            retries,
            quarantined,
            price_trace: trace,
            accepted: healthy,
            observed_bids: Some(self.observed_bids()),
            ..Diagnostics::default()
        };
        Ok(Clearing::build(
            layout,
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
    use crate::market::faults::CrashAgent;
    use crate::market::interactive::NetGainAgent;

    fn rational(id: u64, alpha: f64) -> NetGainAgent<QuadraticCost> {
        NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(125.0))
    }

    #[test]
    fn clean_exchange_is_accepted_and_meets_target() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
            mech.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        let inst = mech.instance();
        let c = mech.clear(&inst, Watts::new(150.0)).unwrap();
        assert!(c.diagnostics().accepted);
        assert!(c.diagnostics().converged);
        assert!(c.met_target());
        assert!(c.diagnostics().quarantined.is_empty());
        assert_eq!(c.diagnostics().observed_bids.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn crashing_agent_is_quarantined_but_exchange_recovers() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        mech.register(Box::new(rational(0, 1.0)), None);
        mech.register(Box::new(rational(1, 2.0)), None);
        mech.register(Box::new(CrashAgent::new(rational(2, 1.0), 1)), Some(0.3));
        let inst = mech.instance();
        let c = mech.clear(&inst, Watts::new(100.0)).unwrap();
        assert_eq!(c.diagnostics().quarantined.len(), 1);
        assert_eq!(c.diagnostics().quarantined[0].id, 2);
        // Quarantined row supplies nothing at the interactive level.
        assert_eq!(c.reductions()[2], 0.0);
        assert!(c.diagnostics().accepted);
        assert!(c.met_target());
    }

    #[test]
    fn empty_mechanism_is_degenerate() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        let inst = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            mech.clear(&inst, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }
}
