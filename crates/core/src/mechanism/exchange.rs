//! The fault-tolerant MPR-INT exchange as a chain-composable
//! [`Mechanism`] (DESIGN.md §8).
//!
//! This is level 0 of the degradation chain built by
//! [`FallbackChain::degradation`](crate::mechanism::FallbackChain::degradation):
//! the damped MPR-INT price/bid exchange hardened with quarantine, the
//! convergence watchdog and a final re-solve over the surviving bids. It
//! never turns agent or channel faults into errors — a failed exchange is
//! returned as an **unaccepted** [`Clearing`] carrying the observed
//! last-known/cooperative bids, which a
//! [`FallbackChain`](crate::mechanism::FallbackChain) patches into the
//! instance for its next stage.
//!
//! The round loop is written once, in [`FaultTolerantExchange`]. How a
//! round gathers its bids is the one part that varies, and it comes in two
//! kinds: [`InProcessRounds`](crate::mechanism::InProcessRounds) calls each
//! agent directly ([`ResilientInteractiveMechanism`](crate::mechanism::ResilientInteractiveMechanism)),
//! and [`TransportRounds`](crate::mechanism::TransportRounds) exchanges
//! messages over a deadline-bounded
//! [`Transport`](crate::market::transport::Transport)
//! ([`TransportedInteractiveMechanism`](crate::mechanism::TransportedInteractiveMechanism)).

use crate::market::faults::{ConvergenceWatchdog, Quarantine, ResilientConfig};
use crate::market::interactive::BiddingAgent;
use crate::market::transport::TransportDiagnostics;
use crate::mclr::{self, BidColumns};
use crate::mechanism::interactive::DampedPrice;
use crate::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, Mechanism, MechanismError, ParticipantSpec,
};
use crate::units::{Price, Watts};

/// One registered agent's book-keeping.
pub(crate) struct AgentSlot {
    pub(crate) agent: Box<dyn BiddingAgent>,
    /// Registered submission-time (cooperative) bid, used at fallback
    /// levels when no live bid was ever observed.
    fallback_bid: Option<f64>,
    /// Most recent valid bid observed from the live exchange.
    pub(crate) last_bid: Option<f64>,
    pub(crate) quarantined: bool,
}

impl AgentSlot {
    /// The slot's live bid; NaN, so that the slot sits out of a re-solve,
    /// when it is quarantined, never bid or bid below 0.
    fn live_bid(&self) -> f64 {
        match self.last_bid {
            Some(b) if !self.quarantined && b >= 0.0 => b,
            _ => f64::NAN,
        }
    }
}

/// How one exchange round gathers its bids: the part of the exchange that
/// varies between the in-process and the transported collectors.
pub(crate) trait RoundCollector: Send {
    /// The exchange's mechanism name.
    const NAME: &'static str;
    /// Why a clearing with no registered agent is degenerate.
    const EMPTY: &'static str;

    /// Resets the per-clearing state before round 1, for `agents`
    /// registered agents (more than at the last clearing when agents were
    /// registered since).
    fn begin(&mut self, agents: usize);

    /// Gathers round `round`'s bids at the announced `price` into the
    /// slots' `last_bid`, quarantining defaulters (each recorded in
    /// `quarantined`). Returns `false` when no agent could be asked.
    fn collect(
        &mut self,
        slots: &mut [AgentSlot],
        config: &ResilientConfig,
        round: usize,
        price: Price,
        quarantined: &mut Vec<Quarantine>,
    ) -> bool;

    /// Ends the clearing after `rounds` rounds: the retries spent and,
    /// over a transport, its counters.
    fn finish(&mut self, rounds: usize) -> (usize, Option<TransportDiagnostics>);
}

/// Fault-tolerant MPR-INT over registered bidding agents, gathering each
/// round's bids through the collector `C`.
///
/// The exchange owns its agents, so quarantine state persists across
/// clearings. The [`MarketInstance`] passed to `clear` must list the
/// registered jobs in registration order (use
/// [`FaultTolerantExchange::instance`]); the exchange reads agent state
/// authoritatively from its slots and uses the instance only for the
/// clearing's row layout, falling back to its own when the lengths differ.
pub struct FaultTolerantExchange<C> {
    slots: Vec<AgentSlot>,
    config: ResilientConfig,
    pub(crate) collector: C,
}

impl<C: std::fmt::Debug> std::fmt::Debug for FaultTolerantExchange<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTolerantExchange")
            .field("agents", &self.slots.len())
            .field("config", &self.config)
            .field("collector", &self.collector)
            .finish()
    }
}

impl<C> FaultTolerantExchange<C> {
    /// An exchange with no agents registered.
    pub(crate) fn with_collector(config: ResilientConfig, collector: C) -> Self {
        Self {
            slots: Vec::new(),
            config,
            collector,
        }
    }

    /// Registers an agent together with its submission-time cooperative
    /// bid (ignored unless finite and non-negative).
    pub fn register(&mut self, agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) {
        self.slots.push(AgentSlot {
            agent,
            fallback_bid: fallback_bid.filter(|b| b.is_finite() && *b >= 0.0),
            last_bid: None,
            quarantined: false,
        });
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

    /// The resilient (exchange) configuration in use.
    #[must_use]
    pub fn config(&self) -> ResilientConfig {
        self.config
    }

    /// Builds the [`MarketInstance`] matching the registered agents, in
    /// registration order (bids are the registered fallback bids).
    #[must_use]
    pub fn instance(&self) -> MarketInstance {
        self.slots
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

    /// Every slot's live bid, in slot order.
    fn live_bids(&self) -> Vec<f64> {
        self.slots.iter().map(AgentSlot::live_bid).collect()
    }

    /// Every slot's effective bid — last live, else registered cooperative,
    /// else 0 (manager-side forced capping still supplies) — in slot order.
    fn observed_bids(&self) -> Vec<f64> {
        self.slots
            .iter()
            .map(|s| s.last_bid.or(s.fallback_bid).unwrap_or(0.0))
            .collect()
    }
}

impl<C: RoundCollector> Mechanism for FaultTolerantExchange<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        if self.slots.is_empty() {
            return Err(MechanismError::DegenerateInstance { reason: C::EMPTY });
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

        let deltas: Vec<f64> = self.slots.iter().map(|s| s.agent.delta_max()).collect();
        let watts: Vec<f64> = self
            .slots
            .iter()
            .map(|s| s.agent.watts_per_unit())
            .collect();
        let cfg = self.config;
        let mut price = DampedPrice::new(&cfg.interactive);
        let mut watchdog = ConvergenceWatchdog::new(cfg.watchdog_window, cfg.divergence_min_change);
        let mut quarantined: Vec<Quarantine> = Vec::new();
        let mut converged = false;
        let mut diverged = false;
        let mut rounds = 0usize;
        self.collector.begin(self.slots.len());
        for round in 1..=cfg.interactive.max_iterations {
            rounds = round;
            let announced = price.announced();
            if !self
                .collector
                .collect(&mut self.slots, &cfg, round, announced, &mut quarantined)
            {
                break;
            }
            let bids = self.live_bids();
            let survivors = BidColumns::new(&deltas, &bids, &watts);
            if survivors.is_empty() {
                break;
            }
            match price.step(mclr::clear_best_effort(survivors, target), &cfg.interactive) {
                None => {
                    converged = true;
                    break;
                }
                Some(rel_change) if watchdog.observe(rel_change) => {
                    diverged = true;
                    break;
                }
                Some(_) => {}
            }
        }

        // Final solve: replace the damped announcement with the price that
        // actually clears the surviving supplies.
        let bids = self.live_bids();
        let survivors = BidColumns::new(&deltas, &bids, &watts);
        let healthy = converged && !diverged && !survivors.is_empty();
        let (clearing_price, reductions) = if healthy {
            let price = mclr::clear_best_effort(survivors, target);
            (price, survivors.reductions(price))
        } else {
            // Nothing usable from the exchange; the chain's next stage
            // re-clears from the observed bids.
            (Price::ZERO, vec![0.0; self.slots.len()])
        };

        let (retries, transport) = self.collector.finish(rounds);
        let diagnostics = Diagnostics {
            iterations: rounds,
            converged,
            diverged,
            retries,
            quarantined,
            price_trace: price.trace,
            accepted: healthy,
            observed_bids: Some(self.observed_bids()),
            transport,
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
