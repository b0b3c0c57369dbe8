//! Fault-injection integration tests: the graceful-degradation chain
//! (MPR-INT → MPR-STAT → EQL) under unresponsive, crashing and byzantine
//! participants, both at the market level and through the full simulator.

use mpr_core::bidding::cooperative_bid;
use mpr_core::{
    BiddingAgent, ByzantineAgent, ChainLevel, Clearing, CrashAgent, FallbackChain,
    InteractiveConfig, Mechanism, NetGainAgent, QuadraticCost, ResilientConfig,
    ResilientInteractiveMechanism, UnresponsiveAgent, Watts,
};
use mpr_sim::{Algorithm, FaultPlan, SimConfig, Simulation};
use mpr_tests::test_trace;

const WPU: f64 = 125.0;

fn quadratic(id: u64, alpha: f64) -> NetGainAgent<QuadraticCost> {
    NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(WPU))
}

/// Builds the canonical faulty cohort: 20 agents, 30 % unresponsive from
/// the first round, 10 % crashing after their first answer.
fn faulty_cohort() -> ResilientInteractiveMechanism {
    let mut exchange = ResilientInteractiveMechanism::new(ResilientConfig::default());
    for id in 0..20u64 {
        let alpha = 0.5 + 0.1 * id as f64;
        let cost = QuadraticCost::new(alpha, 1.0);
        let fallback = cooperative_bid(&cost).ok();
        let inner = quadratic(id, alpha);
        let agent: Box<dyn BiddingAgent> = match id {
            0..=5 => Box::new(UnresponsiveAgent::new(inner, 0)),
            6..=7 => Box::new(CrashAgent::new(inner, 1)),
            _ => Box::new(inner),
        };
        exchange.register(agent, fallback);
    }
    exchange
}

/// Clears the exchange's agents through the MPR-INT → MPR-STAT → EQL chain.
fn clear(level0: ResilientInteractiveMechanism, target: f64) -> Clearing {
    let instance = level0.instance();
    FallbackChain::degradation(level0)
        .clear(&instance, Watts::new(target))
        .expect("chain clears")
}

fn chain_level(c: &Clearing) -> ChainLevel {
    c.diagnostics().chain_level.expect("chains report a level")
}

fn quarantined_ids(c: &Clearing) -> Vec<u64> {
    c.diagnostics().quarantined.iter().map(|q| q.id).collect()
}

/// The acceptance scenario: 30 % unresponsive + 10 % crashing agents in an
/// MPR-INT overload. The chain still meets the reduction target and the
/// clearing reports who was quarantined and which level cleared.
#[test]
fn chain_meets_target_with_30pct_unresponsive_10pct_crashing() {
    // 900 W is comfortably attainable over the 12 healthy survivors
    // (12 × Δ × WPU = 1500 W).
    let clearing = clear(faulty_cohort(), 900.0);
    assert!(
        clearing.met_target(),
        "chain must meet the target: delivered {:.1} of 900 W at level {}",
        clearing.total_power_reduction(),
        chain_level(&clearing)
    );
    // All six unresponsive and both crashing agents end up quarantined.
    let quarantined = quarantined_ids(&clearing);
    assert_eq!(quarantined.len(), 8, "quarantined: {quarantined:?}");
    for id in 0..=7u64 {
        assert!(
            quarantined.contains(&id),
            "agent {id} should be quarantined"
        );
    }
    // The clearing names the level that produced it.
    assert!(chain_level(&clearing) >= ChainLevel::Interactive);
    assert_eq!(clearing.residual(), Watts::ZERO);
}

/// Deterministic replay: two identical faulty clearings agree exactly.
#[test]
fn faulty_clearing_is_deterministic() {
    let a = clear(faulty_cohort(), 900.0);
    let b = clear(faulty_cohort(), 900.0);
    assert_eq!(a.price(), b.price());
    assert_eq!(chain_level(&a), chain_level(&b));
    assert_eq!(quarantined_ids(&a), quarantined_ids(&b));
    assert_eq!(a.diagnostics().retries, b.diagnostics().retries);
}

/// An oscillating byzantine cohort trips the convergence watchdog and the
/// market falls back within the round budget instead of spinning to
/// `max_rounds`.
#[test]
fn byzantine_oscillation_falls_back_within_round_budget() {
    let config = ResilientConfig {
        interactive: InteractiveConfig {
            max_iterations: 200,
            ..InteractiveConfig::default()
        },
        ..ResilientConfig::default()
    };
    let mut exchange = ResilientInteractiveMechanism::new(config);
    for id in 0..10u64 {
        let cost = QuadraticCost::new(1.0, 1.0);
        let fallback = cooperative_bid(&cost).ok();
        let inner = quadratic(id, 1.0);
        let agent: Box<dyn BiddingAgent> = if id < 5 {
            Box::new(ByzantineAgent::new(inner, 50.0, true, id))
        } else {
            Box::new(inner)
        };
        exchange.register(agent, fallback);
    }
    let clearing = clear(exchange, 600.0);
    assert!(
        clearing.diagnostics().diverged,
        "watchdog should flag divergence"
    );
    assert!(
        clearing.iterations() < 200,
        "fallback must trigger before the round budget ({} rounds used)",
        clearing.iterations()
    );
    assert!(chain_level(&clearing) > ChainLevel::Interactive);
    assert!(clearing.met_target());
}

/// Beyond what any participant set can deliver, the terminal EQL level
/// caps uniformly and reports the residual instead of erroring.
#[test]
fn infeasible_target_reaches_eql_with_residual() {
    // Total attainable even with every agent cooperating is 2500 W.
    let clearing = clear(faulty_cohort(), 5000.0);
    assert_eq!(chain_level(&clearing), ChainLevel::EqlCapping);
    assert!(clearing.residual() > Watts::ZERO);
    assert!(clearing.total_power_reduction() > Watts::ZERO);
}

/// Full-simulator run of the acceptance scenario: faults injected at every
/// overload event, the system still clears every emergency, and the report
/// exposes quarantine counts and the deepest chain level reached.
#[test]
fn simulated_overloads_degrade_gracefully_and_report_it() {
    let trace = test_trace(10.0, 42);
    let config = SimConfig::new(Algorithm::MprInt, 15.0)
        .with_faults(FaultPlan::unresponsive_and_crash(0.3, 0.1))
        .with_seed(42);
    let r = Simulation::new(&trace, config.clone()).run();
    assert!(r.overload_events > 0, "scenario must actually overload");
    let d = &r.degradation;
    assert!(
        d.participants_quarantined > 0,
        "faulty agents must be quarantined"
    );
    assert!(d.deepest_chain_level.is_some(), "chain level is reported");
    assert_eq!(
        d.residual_overload_watts, 0.0,
        "the chain meets every reduction target at 15 % oversubscription"
    );
    assert!(r.jobs_total > 0 && r.jobs_completed == r.jobs_total);

    // Identical configuration replays identically, faults and all.
    let again = Simulation::new(&trace, config).run();
    assert_eq!(r, again);
}

/// Without a fault plan the degradation report stays silent.
#[test]
fn clean_simulation_reports_no_degradation() {
    let trace = test_trace(5.0, 7);
    let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0)).run();
    assert!(!r.degradation.any_degradation());
    assert_eq!(r.degradation.deepest_chain_level, None);
}
