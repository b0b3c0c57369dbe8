//! Integration tests for the paper's headline claims, exercised across the
//! whole stack (workload → power → market → simulator).

use mpr_sim::Algorithm;
use mpr_tests::{simulate, test_trace};

/// Section V-B / Fig. 9(a): EQL pays the highest cost; MPR-INT tracks OPT;
/// MPR-STAT sits in between.
#[test]
fn cost_ordering_matches_paper() {
    let trace = test_trace(7.0, 11);
    let cost = |alg| simulate(&trace, alg, 15.0).cost_core_hours;
    let opt = cost(Algorithm::Opt);
    let eql = cost(Algorithm::Eql);
    let stat = cost(Algorithm::MprStat);
    let int = cost(Algorithm::MprInt);
    assert!(opt > 0.0, "the scenario must produce overloads");
    assert!(
        eql > 1.3 * opt,
        "EQL ({eql:.0}) must be far above OPT ({opt:.0})"
    );
    assert!(
        int <= 1.15 * opt,
        "MPR-INT ({int:.0}) must track OPT ({opt:.0})"
    );
    assert!(
        stat >= 0.99 * opt,
        "nothing beats OPT; MPR-STAT = {stat:.0}"
    );
    assert!(stat < eql, "MPR-STAT must beat oblivious EQL");
}

/// Section V-C / Fig. 11(a): users always receive more reward than their
/// performance-loss cost — under both market variants and several seeds.
#[test]
fn users_always_profit() {
    for seed in [1u64, 2, 3] {
        let trace = test_trace(5.0, seed);
        for alg in [Algorithm::MprStat, Algorithm::MprInt] {
            let r = simulate(&trace, alg, 15.0);
            if let Some(pct) = r.reward_pct_of_cost() {
                assert!(
                    pct > 100.0,
                    "{alg:?} seed {seed}: reward {pct:.1}% of cost must exceed 100%"
                );
            }
        }
    }
}

/// Section V-C / Fig. 11(b): the manager's capacity gain is orders of
/// magnitude above the reward payoff at moderate oversubscription.
#[test]
fn manager_gain_dwarfs_payoff() {
    let trace = test_trace(7.0, 11);
    let r = simulate(&trace, Algorithm::MprStat, 10.0);
    let ratio = r.gain_over_reward().expect("rewards were paid");
    assert!(
        ratio > 10.0,
        "gain/reward = {ratio:.1} should be orders of magnitude"
    );
}

/// Fig. 8(a): the overload fraction grows super-linearly with the
/// oversubscription level.
#[test]
fn overload_grows_superlinearly() {
    let trace = test_trace(7.0, 11);
    let ov: Vec<f64> = [5.0, 10.0, 20.0]
        .iter()
        .map(|&p| simulate(&trace, Algorithm::Opt, p).overload_time_pct())
        .collect();
    assert!(ov[0] < ov[1] && ov[1] < ov[2]);
    // Doubling 5→10 and 10→20 more than doubles the overload share.
    assert!(ov[1] > 1.5 * ov[0], "{ov:?}");
    assert!(ov[2] > 1.5 * ov[1], "{ov:?}");
}

/// Fig. 9(b): the runtime impact on affected jobs stays small even though
/// many jobs are affected.
#[test]
fn runtime_impact_is_marginal() {
    let trace = test_trace(7.0, 11);
    for alg in Algorithm::all() {
        let r = simulate(&trace, alg, 10.0);
        assert!(
            r.avg_runtime_increase_pct < 4.0,
            "{}: runtime increase {:.2}% too large",
            r.algorithm,
            r.avg_runtime_increase_pct
        );
    }
}

/// Fig. 15: with GPU profiles, performance-oblivious EQL pushes fragile
/// apps (Jacobi/TeaLeaf) outside their feasible range at 20 %
/// oversubscription, while the market algorithms stay feasible.
#[test]
fn eql_breaks_on_fragile_gpu_apps() {
    use mpr_sim::{SimConfig, Simulation};
    let trace = test_trace(7.0, 11);
    let gpu = mpr_apps::gpu_profiles();
    let run =
        |alg| Simulation::new(&trace, SimConfig::new(alg, 20.0).with_profiles(gpu.clone())).run();
    let eql = run(Algorithm::Eql);
    assert!(
        eql.unmet_emergencies > 0,
        "EQL must violate fragile apps' operating ranges"
    );
    let stat = run(Algorithm::MprStat);
    assert!(
        stat.cost_core_hours < eql.cost_core_hours,
        "market must beat EQL on GPUs: {} vs {}",
        stat.cost_core_hours,
        eql.cost_core_hours
    );
}

/// Fig. 10(a): MPR-STAT clears a 30,000-job market in well under a second.
#[test]
fn static_market_clears_30k_jobs_subsecond() {
    use mpr_core::bidding::StaticStrategy;
    use mpr_core::{MarketInstance, MclrMechanism, Mechanism, ParticipantSpec, ScaledCost};
    let profiles = mpr_apps::cpu_profiles();
    let instance: MarketInstance = (0..30_000u64)
        .map(|i| {
            let p = &profiles[(i as usize) % profiles.len()];
            let cost = ScaledCost::new(p.cost_model(1.0), 8.0);
            let supply = StaticStrategy::Cooperative.supply_for(&cost).unwrap();
            ParticipantSpec::new(
                i,
                supply.delta_max(),
                mpr_core::Watts::new(p.unit_dynamic_power_w()),
            )
            .with_bid(supply.bid())
        })
        .collect();
    let target = instance.attainable_watts() * 0.4;
    let t0 = std::time::Instant::now();
    let clearing = MclrMechanism::strict().clear(&instance, target).unwrap();
    let elapsed = t0.elapsed();
    assert!(clearing.met_target());
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "clearing took {elapsed:?}, expected < 1 s"
    );
}

/// Fig. 10(b): MPR-INT's iteration count stays flat as jobs scale 10× twice.
#[test]
fn interactive_iterations_flat_in_scale() {
    use mpr_core::{
        CostModel, InteractiveConfig, InteractiveMechanism, MarketInstance, Mechanism,
        ParticipantSpec, ScaledCost,
    };
    let profiles = mpr_apps::cpu_profiles();
    let mut iters = Vec::new();
    for n in [10usize, 100, 1000] {
        let instance: MarketInstance = (0..n)
            .map(|i| {
                let p = &profiles[i % profiles.len()];
                let cost = ScaledCost::new(p.cost_model(1.0), 8.0);
                ParticipantSpec::new(
                    i as u64,
                    cost.delta_max(),
                    mpr_core::Watts::new(p.unit_dynamic_power_w()),
                )
                .with_cost(std::sync::Arc::new(cost))
            })
            .collect();
        let target = instance.attainable_watts() * 0.3;
        let c = InteractiveMechanism::strict(InteractiveConfig::default())
            .clear(&instance, target)
            .unwrap();
        assert!(c.diagnostics().converged);
        iters.push(c.iterations());
    }
    let spread = *iters.iter().max().unwrap() as f64 / *iters.iter().min().unwrap() as f64;
    assert!(spread < 2.5, "iterations not flat: {iters:?}");
}
