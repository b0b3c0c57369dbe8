//! Mechanism selection: maps the configured [`Algorithm`] onto the unified
//! [`Mechanism`] interface from `mpr_core::mechanism`.
//!
//! The engine never talks to a solver directly — every clearing goes
//! through `Mechanism::clear` over a shared
//! [`MarketInstance`](mpr_core::MarketInstance), and the choice of solver
//! is made here, in one place. The simulator always uses the best-effort
//! variants: an infeasible reduction target must degrade (cap at `Δ_m`),
//! never abort the run.

use mpr_core::{
    EqlMechanism, FallbackChain, InteractiveConfig, InteractiveMechanism, MclrMechanism, Mechanism,
    OptMechanism, OptMethod, ResilientConfig, ResilientInteractiveMechanism, SimNet,
    TransportedInteractiveMechanism, VcgMechanism,
};

use crate::config::{Algorithm, FaultPlan, NetPlan, SimConfig};

/// Stream separator for the virtual network's fault RNG, so channel faults
/// never share draws with agent-fault assignment within an overload event.
const NET_SEED_XOR: u64 = 0x6e65_745f_5eed_0bad;

/// The engine's interactive-market tuning for a configuration.
pub(crate) fn interactive_config(cfg: &SimConfig) -> InteractiveConfig {
    InteractiveConfig {
        max_iterations: cfg.int_max_iterations,
        ..InteractiveConfig::default()
    }
}

/// The best-effort mechanism implementing the configured algorithm.
///
/// MPR-INT under an active fault or net plan is not built here: its
/// fault-tolerant exchange needs live agents, which only the engine can
/// provide per overload event, and clears through the
/// [`FallbackChain::degradation`] ladder.
#[must_use]
pub fn for_algorithm(cfg: &SimConfig) -> Box<dyn Mechanism> {
    match cfg.algorithm {
        Algorithm::Opt => Box::new(OptMechanism::best_effort(OptMethod::Auto)),
        Algorithm::Eql => Box::new(EqlMechanism),
        Algorithm::MprStat => Box::new(MclrMechanism::best_effort()),
        Algorithm::MprInt => Box::new(InteractiveMechanism::best_effort(interactive_config(cfg))),
        Algorithm::Vcg => Box::new(VcgMechanism::best_effort(OptMethod::Auto)),
    }
}

/// The fault-tolerant level-0 exchange for one overload event: the one
/// MPR-INT exchange, with the round collector its plans call for. It owns
/// its bidding agents and is the first stage of the degradation chain.
pub(crate) enum Level0 {
    /// Agent faults only: rounds collected in process.
    InProcess(ResilientInteractiveMechanism),
    /// A lossy network, composing any agent faults: rounds collected over
    /// a seeded [`SimNet`].
    Net(Box<TransportedInteractiveMechanism<SimNet>>),
}

/// The fault-tolerant level-0 exchange for one overload event, seeded from
/// `event_seed`, or `None` when the configuration clears through
/// [`for_algorithm`] (not MPR-INT, or no active fault or net plan).
///
/// A lossy network takes precedence: the transported exchange over a
/// seeded [`SimNet`] composes an active agent-fault plan (faulty agents
/// behind a faulty channel). Otherwise an active agent-fault plan runs the
/// synchronous resilient exchange.
pub(crate) fn fault_tolerant_exchange(cfg: &SimConfig, event_seed: u64) -> Option<Level0> {
    if cfg.algorithm != Algorithm::MprInt {
        return None;
    }
    let fault_plan = cfg.fault_plan.filter(FaultPlan::is_active);
    let resilient = ResilientConfig {
        interactive: interactive_config(cfg),
        ..fault_plan.map_or_else(ResilientConfig::default, |fp| ResilientConfig {
            max_retries: fp.max_retries,
            watchdog_window: fp.watchdog_window,
            divergence_min_change: fp.divergence_min_change,
            ..ResilientConfig::default()
        })
    };
    if let Some(plan) = cfg.net_plan.filter(NetPlan::is_active) {
        let net = SimNet::new(plan.fault_config(), event_seed ^ NET_SEED_XOR);
        return Some(Level0::Net(Box::new(TransportedInteractiveMechanism::new(
            resilient,
            plan.transport_config(event_seed),
            net,
        ))));
    }
    fault_plan.map(|_| Level0::InProcess(ResilientInteractiveMechanism::new(resilient)))
}

/// Human-readable descriptor of the clearing mechanism a configuration
/// runs. Folded into the checkpoint fingerprint, so a checkpointed run can
/// never be resumed under a different mechanism or chain shape.
#[must_use]
pub fn descriptor(cfg: &SimConfig) -> String {
    let stages = match fault_tolerant_exchange(cfg, 0) {
        Some(Level0::InProcess(level0)) => FallbackChain::degradation(level0).stage_names(),
        Some(Level0::Net(level0)) => FallbackChain::degradation(*level0).stage_names(),
        None => return for_algorithm(cfg).name().to_owned(),
    };
    format!("chain({})", stages.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_maps_to_a_mechanism() {
        for (alg, name) in [
            (Algorithm::Opt, "OPT"),
            (Algorithm::Eql, "EQL"),
            (Algorithm::MprStat, "MPR-STAT"),
            (Algorithm::MprInt, "MPR-INT"),
            (Algorithm::Vcg, "VCG"),
        ] {
            let cfg = SimConfig::new(alg, 15.0);
            assert_eq!(for_algorithm(&cfg).name(), name);
            assert_eq!(descriptor(&cfg), name);
        }
    }

    #[test]
    fn active_fault_plan_switches_the_descriptor_to_the_chain() {
        let plan = FaultPlan::unresponsive_and_crash(0.3, 0.1);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(plan);
        assert_eq!(
            descriptor(&cfg),
            "chain(MPR-INT-RESILIENT,MPR-STAT,EQL-CAP)"
        );
        // An all-zero plan is equivalent to no plan.
        let idle = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(FaultPlan::default());
        assert_eq!(descriptor(&idle), "MPR-INT");
        // Fault plans only apply to MPR-INT.
        let stat = SimConfig::new(Algorithm::MprStat, 15.0).with_faults(plan);
        assert_eq!(descriptor(&stat), "MPR-STAT");
    }

    #[test]
    fn active_net_plan_switches_the_descriptor_to_the_transported_chain() {
        let net = crate::config::NetPlan::lossy(0.3);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_net(net);
        assert_eq!(descriptor(&cfg), "chain(MPR-INT-NET,MPR-STAT,EQL-CAP)");
        // The network takes precedence over (and composes) an agent-fault
        // plan, so the descriptor is still the transported chain's.
        let both = SimConfig::new(Algorithm::MprInt, 15.0)
            .with_net(net)
            .with_faults(FaultPlan::unresponsive_and_crash(0.3, 0.1));
        assert_eq!(descriptor(&both), "chain(MPR-INT-NET,MPR-STAT,EQL-CAP)");
        // An idle plan is equivalent to no plan; other algorithms never
        // consult it.
        let idle =
            SimConfig::new(Algorithm::MprInt, 15.0).with_net(crate::config::NetPlan::default());
        assert_eq!(descriptor(&idle), "MPR-INT");
        let stat = SimConfig::new(Algorithm::MprStat, 15.0).with_net(net);
        assert_eq!(descriptor(&stat), "MPR-STAT");
    }
}
