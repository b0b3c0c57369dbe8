//! Integration tests for the extension subsystems: grid policies,
//! partitioned infrastructure, the scheduler pipeline, VCG and phases.

use std::sync::Arc;

use mpr_core::{CoreHours, Watts};
use mpr_sim::{Algorithm, PartitionPolicy, PartitionedSimulation, SimConfig, Simulation};
use mpr_tests::{simulate, test_trace};

/// Demand-response events route through the same market as overloads and
/// increase reductions/rewards during the event windows.
#[test]
fn demand_response_end_to_end() {
    use mpr_grid::{DrCapacity, DrSchedule};
    let trace = test_trace(7.0, 21);
    let probe = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 10.0));
    let base_cap = probe.reference_peak_watts() * (100.0 / 110.0);
    let schedule = DrSchedule::weekday_evenings(7.0, 2.0, base_cap * 0.12);
    let baseline = simulate(&trace, Algorithm::MprStat, 10.0);
    let dr = Simulation::new(
        &trace,
        SimConfig::new(Algorithm::MprStat, 10.0)
            .with_capacity_policy(Arc::new(DrCapacity::new(base_cap, schedule))),
    )
    .run();
    assert!(dr.reduction_core_hours > baseline.reduction_core_hours);
    assert!(dr.reward_core_hours > baseline.reward_core_hours);
    assert!(dr.overload_events >= baseline.overload_events);
}

/// The carbon cap derates capacity only during dirty hours, and the
/// timeline lets an accountant price the avoided emissions.
#[test]
fn carbon_cap_end_to_end() {
    use mpr_grid::{CarbonAccountant, CarbonCap, CarbonIntensitySignal};
    let trace = test_trace(5.0, 21);
    let probe = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 10.0));
    let base_cap = probe.reference_peak_watts() * (100.0 / 110.0);
    let signal = CarbonIntensitySignal::typical();
    let policy = Arc::new(CarbonCap::new(
        base_cap,
        signal,
        signal.dirty_threshold(),
        0.15,
    ));
    let r = Simulation::new(
        &trace,
        SimConfig::new(Algorithm::MprStat, 10.0)
            .with_capacity_policy(policy)
            .with_timeline(),
    )
    .run();
    let tl = r.timeline.as_ref().expect("timeline enabled");
    // Capacity varies (derated during evening ramps).
    let min_cap = tl.capacity_w.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_cap = tl.capacity_w.iter().cloned().fold(0.0, f64::max);
    assert!(min_cap < max_cap);
    assert!((min_cap - max_cap * 0.85).abs() < max_cap * 0.01);
    // Emissions accounting over the recorded power is positive and the
    // reductions avoided something.
    let acc = CarbonAccountant::new(signal);
    assert!(acc.emissions_kg(0.0, tl.slot_secs, &tl.power_w) > 0.0);
    assert!(acc.avoided_kg(0.0, tl.slot_secs, &tl.reduction_w) > 0.0);
}

/// Splitting one facility into parallel UPS domains keeps every job
/// accounted for while increasing overload churn.
#[test]
fn partitioned_simulation_conserves_jobs() {
    let trace = test_trace(5.0, 21);
    let part = PartitionedSimulation::new(
        &trace,
        SimConfig::new(Algorithm::MprStat, 15.0),
        4,
        PartitionPolicy::WidthBalanced,
    )
    .run();
    let total_jobs: usize = part.partitions.iter().map(|r| r.jobs_total).sum();
    assert_eq!(total_jobs, trace.len());
    for r in &part.partitions {
        assert_eq!(r.jobs_total, r.jobs_completed, "every partition drains");
    }
    assert!(part.cost_core_hours() >= CoreHours::ZERO);
}

/// The scheduler pipeline composes: submissions → EASY backfill → MPR
/// simulation, with capacity respected throughout.
#[test]
fn scheduler_to_simulation_pipeline() {
    use mpr_sched::{schedule, Policy, SubmittedJob};
    let generated = test_trace(3.0, 21);
    let submissions: Vec<SubmittedJob> = generated
        .jobs()
        .iter()
        .map(|j| {
            SubmittedJob::new(
                j.id,
                j.start_secs,
                j.runtime_secs,
                1.3 * j.runtime_secs,
                j.cores,
            )
        })
        .collect();
    let machine = generated.total_cores() * 3 / 4;
    let out = schedule(&submissions, machine, Policy::EasyBackfill);
    assert_eq!(out.trace.len(), generated.len());
    let report = Simulation::new(&out.trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
    assert_eq!(report.jobs_total, generated.len());
    assert_eq!(report.jobs_total, report.jobs_completed);
}

/// VCG and MPR-INT agree on the allocation (both socially optimal) while
/// VCG pays at least the users' costs.
#[test]
fn vcg_agrees_with_interactive_market() {
    use mpr_core::{
        opt, vcg, CostModel, InteractiveConfig, InteractiveMechanism, MarketInstance, Mechanism,
        ParticipantSpec, QuadraticCost,
    };
    let costs: Vec<QuadraticCost> = [1.0, 2.0, 3.0, 5.0]
        .iter()
        .map(|&a| QuadraticCost::new(a, 2.0))
        .collect();
    let target = Watts::new(400.0);
    let opt_jobs: Vec<opt::OptJob<'_>> = costs
        .iter()
        .enumerate()
        .map(|(i, c)| opt::OptJob::new(i as u64, c, Watts::new(125.0)))
        .collect();
    let auction = vcg::auction(&opt_jobs, target, opt::OptMethod::Auto).unwrap();

    let instance: MarketInstance = costs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ParticipantSpec::new(i as u64, c.delta_max(), Watts::new(125.0))
                .with_cost(std::sync::Arc::new(*c))
        })
        .collect();
    let clearing = InteractiveMechanism::strict(InteractiveConfig::default())
        .clear(&instance, target)
        .unwrap();

    for (award, reduction) in auction.awards.iter().zip(clearing.reductions()) {
        assert!(
            (award.reduction - reduction).abs() < 0.05,
            "VCG {} vs market {} for job {}",
            award.reduction,
            reduction,
            award.id
        );
        assert!(award.payment >= costs[award.id as usize].cost(award.reduction) - 1e-9);
    }
}

/// Phases and α heterogeneity are deterministic and keep the user-profit
/// guarantee.
#[test]
fn phases_and_alpha_keep_guarantees() {
    let trace = test_trace(5.0, 21);
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_phases(0.2)
        .with_alpha_spread(2.0);
    let a = Simulation::new(&trace, cfg.clone()).run();
    let b = Simulation::new(&trace, cfg).run();
    assert_eq!(a, b, "deterministic under phases + heterogeneity");
    if let Some(pct) = a.reward_pct_of_cost() {
        assert!(pct > 100.0, "cooperative users still profit: {pct:.0}%");
    }
}
