//! Ablation: market efficiency across random instances.
//!
//! The supply-function equilibrium carries a theoretical efficiency
//! guarantee (Johari & Tsitsiklis 2011). We measure the realized efficiency
//! ratio — OPT cost over market cost — for MPR-STAT and MPR-INT over many
//! random job mixes and target depths, along with the manager's
//! overpayment. Both markets clear the same shared [`MarketInstance`]
//! through the [`Mechanism`] trait. Instances on which strict MPR-INT
//! does not converge are counted in their own column and left out of the
//! MPR-INT means.

use std::sync::Arc;

use mpr_apps::cpu_profiles;
use mpr_core::analysis;
use mpr_core::bidding::StaticStrategy;
use mpr_core::{
    CostModel, InteractiveConfig, InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism,
    MechanismError, ParticipantSpec, ScaledCost, Watts,
};
use mpr_experiments::{fmt, print_table};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let profiles = cpu_profiles();
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let instances = 40usize;
    let mut rows = Vec::new();

    for depth in [0.2, 0.5, 0.8] {
        let mut stat_eff = Vec::new();
        let mut int_eff = Vec::new();
        let mut stat_over = Vec::new();
        let mut int_over = Vec::new();
        let mut int_nonconv = 0usize;
        for _ in 0..instances {
            let n = rng.gen_range(8..40);
            let costs: Vec<ScaledCost<_>> = (0..n)
                .map(|_| {
                    let p = &profiles[rng.gen_range(0..profiles.len())];
                    ScaledCost::new(p.cost_model(1.0), f64::from(2u32.pow(rng.gen_range(0..6))))
                })
                .collect();
            let w: Vec<f64> = vec![125.0; costs.len()];
            let attainable: f64 = costs.iter().map(|c| c.delta_max() * 125.0).sum();
            let target = Watts::new(depth * attainable);
            let instance: MarketInstance = costs
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    ParticipantSpec::new(i as u64, c.delta_max(), Watts::new(125.0))
                        .with_bid(
                            StaticStrategy::Cooperative
                                .supply_for(c)
                                .expect("valid cooperative bid")
                                .bid(),
                        )
                        .with_cost(Arc::new(c.clone()))
                })
                .collect();

            let clearing = MclrMechanism::strict()
                .clear(&instance, target)
                .expect("feasible");
            let wf = analysis::evaluate(&clearing, &costs, &w).expect("consistent");
            if let Some(e) = wf.efficiency() {
                stat_eff.push(e);
                stat_over.push(wf.overpayment() / wf.realized_cost.max(1e-9));
            }

            let clearing = match InteractiveMechanism::strict(InteractiveConfig::default())
                .clear(&instance, target)
            {
                Ok(clearing) => clearing,
                Err(MechanismError::NonConvergent { .. }) => {
                    int_nonconv += 1;
                    continue;
                }
                Err(e) => panic!("infeasible instance: {e}"),
            };
            let wf = analysis::evaluate(&clearing, &costs, &w).expect("consistent");
            if let Some(e) = wf.efficiency() {
                int_eff.push(e);
                int_over.push(wf.overpayment() / wf.realized_cost.max(1e-9));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        rows.push(vec![
            fmt(100.0 * depth, 0),
            fmt(mean(&stat_eff), 3),
            fmt(min(&stat_eff), 3),
            fmt(mean(&int_eff), 3),
            fmt(min(&int_eff), 3),
            fmt(mean(&stat_over), 2),
            fmt(mean(&int_over), 2),
            int_nonconv.to_string(),
        ]);
    }
    print_table(
        &format!("Market efficiency over {instances} random instances (OPT cost / market cost)"),
        &[
            "target depth %",
            "STAT mean eff",
            "STAT worst",
            "INT mean eff",
            "INT worst",
            "STAT overpay",
            "INT overpay",
            "INT non-conv",
        ],
        &rows,
    );
    println!(
        "\nWhere strict MPR-INT converges it stays within a few percent of the\n\
         social optimum; MPR-STAT trades efficiency for one-shot agility, worst\n\
         at mid depths where static cooperative bids are least informative."
    );
}
