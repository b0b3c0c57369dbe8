//! Graceful degradation as mechanism composition.
//!
//! A [`FallbackChain`] strings any number of [`Mechanism`]s together: each
//! stage is tried in order, and the first whose [`Clearing`] is both
//! *accepted* (the mechanism vouches for it) and *meets the target* wins.
//! The last stage's clearing is returned unconditionally — a chain ending
//! in [`EqlCappingMechanism`](crate::mechanism::EqlCappingMechanism) can
//! therefore only fall short on physically unattainable targets.
//!
//! Bids observed by an earlier stage (e.g. the live bids a
//! [`ResilientInteractiveMechanism`](crate::mechanism::ResilientInteractiveMechanism)
//! collected before diverging) are patched into the [`MarketInstance`]
//! handed to later stages, so a static re-clear sees the freshest
//! information available.

use crate::market::faults::ChainLevel;
use crate::mechanism::{
    Clearing, Diagnostics, EqlCappingMechanism, InstanceView, MarketInstance, MclrMechanism,
    Mechanism, MechanismError,
};
use crate::units::Watts;

/// An ordered ladder of mechanisms with progressively weaker guarantees.
pub struct FallbackChain<'a> {
    stages: Vec<(ChainLevel, Box<dyn Mechanism + 'a>)>,
}

impl std::fmt::Debug for FallbackChain<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallbackChain")
            .field("stages", &self.stage_names())
            .finish()
    }
}

impl<'a> FallbackChain<'a> {
    /// Creates an empty chain; add stages with [`FallbackChain::stage`].
    #[must_use]
    pub fn new() -> Self {
        Self { stages: Vec::new() }
    }

    /// The MPR-INT → MPR-STAT → EQL-capping ladder of Section III-E over a
    /// level-0 interactive exchange: `level0` at
    /// [`ChainLevel::Interactive`], then one best-effort static MClr solve
    /// over the freshest observed bids, then uniform forced capping, which
    /// meets any physically attainable target.
    #[must_use]
    pub fn degradation(level0: impl Mechanism + 'a) -> Self {
        Self::new()
            .stage(ChainLevel::Interactive, level0)
            .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
            .stage(ChainLevel::EqlCapping, EqlCappingMechanism)
    }

    /// Appends a stage at the given degradation level.
    #[must_use]
    pub fn stage(mut self, level: ChainLevel, mechanism: impl Mechanism + 'a) -> Self {
        self.stages.push((level, Box::new(mechanism)));
        self
    }

    /// The stages' mechanism names, in trial order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|(_, m)| m.name()).collect()
    }

    /// Number of stages in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the chain has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl Default for FallbackChain<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl Mechanism for FallbackChain<'_> {
    fn name(&self) -> &'static str {
        "CHAIN"
    }

    fn prepare(&mut self, view: &InstanceView<'_>) -> Result<(), MechanismError> {
        view.ensure_clearable()?;
        for (_, stage) in &mut self.stages {
            stage.prepare(view)?;
        }
        Ok(())
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        if self.stages.is_empty() {
            return Err(MechanismError::DegenerateInstance {
                reason: "the fallback chain has no stages",
            });
        }
        // The working window, re-patched (as a standalone instance of the
        // view's rows) whenever a stage reports fresher bids than the
        // caller supplied.
        let mut patched: Option<MarketInstance> = None;
        // Diagnostics of the first stage that produced *any* clearing — the
        // primary mechanism's story (iterations, quarantines, price trace)
        // is what callers want to see even after a fallback.
        let mut primary: Option<Diagnostics> = None;
        let mut last_err: Option<MechanismError> = None;
        let total = self.stages.len();
        for (idx, (level, stage)) in self.stages.iter_mut().enumerate() {
            let is_last = idx + 1 == total;
            let result = match &patched {
                Some(p) => stage.clear_view(&p.view(), target),
                None => stage.clear_view(view, target),
            };
            match result {
                Ok(mut clearing) => {
                    let accepted = clearing.diagnostics().accepted && clearing.met_target();
                    if primary.is_none() {
                        primary = Some(clearing.diagnostics().clone());
                    }
                    if accepted || is_last {
                        let d = clearing.diagnostics_mut();
                        if let Some(p) = primary {
                            d.iterations = p.iterations;
                            d.converged = p.converged;
                            d.diverged = p.diverged;
                            d.retries = p.retries;
                            d.quarantined = p.quarantined;
                            if d.price_trace.is_empty() {
                                d.price_trace = p.price_trace;
                            }
                            if d.transport.is_none() {
                                d.transport = p.transport;
                            }
                        }
                        d.chain_level = Some(*level);
                        d.levels_tried = idx + 1;
                        return Ok(clearing);
                    }
                    // Not good enough: carry the freshest bids forward.
                    if let Some(bids) = &clearing.diagnostics().observed_bids {
                        let next = match &patched {
                            Some(p) => p.with_bids(bids),
                            None => view.with_bids(bids),
                        };
                        patched = Some(next);
                    }
                }
                Err(e) => {
                    if is_last {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        // Unreachable in practice (the last stage always returns above);
        // surface the most recent error rather than panicking.
        Err(last_err.unwrap_or(MechanismError::DegenerateInstance {
            reason: "the fallback chain produced no clearing",
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::market::faults::ResilientConfig;
    use crate::market::interactive::NetGainAgent;
    use crate::mechanism::{ParticipantSpec, ResilientInteractiveMechanism};
    use crate::units::Price;

    fn cooperative_instance() -> MarketInstance {
        (0..4)
            .map(|id| ParticipantSpec::new(id, 2.0, Watts::new(125.0)).with_bid(0.5))
            .collect()
    }

    #[test]
    fn first_stage_wins_when_it_meets_the_target() {
        let mut chain = FallbackChain::new()
            .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
            .stage(ChainLevel::EqlCapping, EqlCappingMechanism);
        let c = chain
            .clear(&cooperative_instance(), Watts::new(400.0))
            .unwrap();
        assert!(c.met_target());
        assert_eq!(
            c.diagnostics().chain_level,
            Some(ChainLevel::StaticFallback)
        );
        assert_eq!(c.diagnostics().levels_tried, 1);
        assert!(c.price() > Price::ZERO);
    }

    #[test]
    fn falls_through_to_capping_on_hostile_bids() {
        // Bids so high the static market's price ceiling cannot clear the
        // target; the terminal capping stage must take over.
        let hostile: MarketInstance = (0..4)
            .map(|id| ParticipantSpec::new(id, 2.0, Watts::new(125.0)).with_bid(1e9))
            .collect();
        let mut chain = FallbackChain::new()
            .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
            .stage(ChainLevel::EqlCapping, EqlCappingMechanism);
        let c = chain.clear(&hostile, Watts::new(999.5)).unwrap();
        assert!(c.met_target());
        assert_eq!(c.diagnostics().chain_level, Some(ChainLevel::EqlCapping));
        assert_eq!(c.diagnostics().levels_tried, 2);
    }

    #[test]
    fn resilient_chain_recovers_with_observed_bids() {
        let mut level0 = ResilientInteractiveMechanism::new(ResilientConfig::default());
        for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
            level0.register(
                Box::new(NetGainAgent::new(
                    i as u64,
                    QuadraticCost::new(*a, 2.0),
                    Watts::new(125.0),
                )),
                Some(0.4),
            );
        }
        let inst = level0.instance();
        let mut chain = FallbackChain::degradation(level0);
        assert_eq!(chain.len(), 3);
        let c = chain.clear(&inst, Watts::new(300.0)).unwrap();
        assert!(c.met_target());
        assert_eq!(c.diagnostics().chain_level, Some(ChainLevel::Interactive));
    }

    #[test]
    fn empty_chain_and_degenerate_instance_error() {
        let mut chain = FallbackChain::new();
        let inst = cooperative_instance();
        assert!(matches!(
            chain.clear(&inst, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        let mut chain = FallbackChain::new().stage(ChainLevel::EqlCapping, EqlCappingMechanism);
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            chain.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }
}
