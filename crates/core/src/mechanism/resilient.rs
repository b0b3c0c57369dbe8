//! In-process round collection for the fault-tolerant exchange
//! (DESIGN.md §8): [`ResilientInteractiveMechanism`].
//!
//! Each round calls every non-quarantined agent directly, under a
//! per-round retry budget: a non-finite bid or a recoverable error is
//! retried up to [`ResilientConfig::max_retries`] times before the agent is
//! quarantined, and a crash ([`MarketError::AgentCrashed`]) quarantines it
//! at once.

use crate::error::MarketError;
use crate::market::faults::{Quarantine, ResilientConfig};
use crate::market::transport::TransportDiagnostics;
use crate::mechanism::exchange::{AgentSlot, FaultTolerantExchange, RoundCollector};
use crate::units::Price;

/// The in-process round collector: per-round retries, immediate quarantine
/// on a crash.
#[derive(Debug, Default)]
pub struct InProcessRounds {
    /// Retries spent in the current clearing.
    retries: usize,
}

/// Fault-tolerant MPR-INT over registered bidding agents called in
/// process.
pub type ResilientInteractiveMechanism = FaultTolerantExchange<InProcessRounds>;

impl FaultTolerantExchange<InProcessRounds> {
    /// Creates an empty mechanism.
    #[must_use]
    pub fn new(config: ResilientConfig) -> Self {
        Self::with_collector(config, InProcessRounds::default())
    }
}

impl RoundCollector for InProcessRounds {
    const NAME: &'static str = "MPR-INT-RESILIENT";
    const EMPTY: &'static str = "no agents are registered with the resilient exchange";

    fn begin(&mut self, _agents: usize) {
        self.retries = 0;
    }

    fn collect(
        &mut self,
        slots: &mut [AgentSlot],
        config: &ResilientConfig,
        round: usize,
        price: Price,
        quarantined: &mut Vec<Quarantine>,
    ) -> bool {
        for slot in slots.iter_mut().filter(|s| !s.quarantined) {
            let mut attempts = 0usize;
            loop {
                let (error, terminal) = match slot.agent.respond(price.get()) {
                    Ok(bid) if bid.is_finite() => {
                        slot.last_bid = Some(bid.max(0.0));
                        break;
                    }
                    Ok(garbage) => (
                        MarketError::InvalidParameter {
                            name: "bid",
                            value: garbage,
                            constraint: "agent returned a non-finite bid",
                        },
                        false,
                    ),
                    Err(err) => {
                        let crashed = matches!(err, MarketError::AgentCrashed { .. });
                        (err, crashed)
                    }
                };
                attempts += 1;
                if terminal || attempts > config.max_retries {
                    slot.quarantined = true;
                    quarantined.push(Quarantine {
                        id: slot.agent.job_id(),
                        round,
                        error,
                    });
                    break;
                }
                self.retries += 1;
            }
        }
        true
    }

    fn finish(&mut self, _rounds: usize) -> (usize, Option<TransportDiagnostics>) {
        (self.retries, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::market::faults::CrashAgent;
    use crate::market::interactive::NetGainAgent;
    use crate::mechanism::{MarketInstance, Mechanism, MechanismError};
    use crate::units::Watts;

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
