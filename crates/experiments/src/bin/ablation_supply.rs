//! Ablation: the paper's hyperbolic supply function `δ = [Δ − b/q]⁺`
//! against a linear supply `δ = min(q/β, Δ)` (Li et al., "Demand response
//! using linear supply function bidding").
//!
//! Both markets clear the same heterogeneous job set at the same targets;
//! we compare the clearing price, the manager's payoff and how well the
//! allocation tracks the cost-optimal (OPT) spread. The hyperbolic form
//! encodes diminishing returns — its allocation is closer to OPT at the
//! shallow targets typical of real overloads.
//!
//! The hyperbolic market and OPT clear a shared [`MarketInstance`] through
//! the [`Mechanism`] trait; the linear-supply comparison deliberately stays
//! on the raw `mclr::solve_supplies` API — linear bidding is the *ablated*
//! alternative, not a production mechanism.

use std::sync::Arc;

use mpr_apps::cpu_profiles;
use mpr_core::bidding::StaticStrategy;
use mpr_core::{
    mclr, CostModel, LinearSupply, MarketInstance, MclrMechanism, Mechanism, OptMechanism,
    OptMethod, ParticipantSpec, ScaledCost, Supply, Watts,
};
use mpr_experiments::{fmt, print_table};

fn main() {
    let profiles = cpu_profiles();
    // One 16-core job per CPU profile.
    let jobs: Vec<ScaledCost<_>> = profiles
        .iter()
        .map(|p| ScaledCost::new(p.cost_model(1.0), 16.0))
        .collect();
    let w = 125.0;
    let attainable: f64 = jobs.iter().map(|j| j.delta_max() * w).sum();

    // Hyperbolic market with cooperative bids; OPT reads the same rows.
    let instance: MarketInstance = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            ParticipantSpec::new(i as u64, j.delta_max(), Watts::new(w))
                .with_bid(
                    StaticStrategy::Cooperative
                        .supply_for(j)
                        .expect("valid cooperative bid")
                        .bid(),
                )
                .with_cost(Arc::new(j.clone()))
        })
        .collect();

    // Linear supplies with break-even slope at Δ: β = unit_cost(Δ)/Δ, so
    // supplying the full Δ at price unit_cost(Δ) is exactly fair.
    let linear: Vec<(LinearSupply, f64)> = jobs
        .iter()
        .map(|j| {
            let beta = j.unit_cost(j.delta_max()) / j.delta_max();
            (
                LinearSupply::new(j.delta_max(), beta).expect("valid linear supply"),
                w,
            )
        })
        .collect();

    let mut rows = Vec::new();
    for frac in [0.1, 0.3, 0.5, 0.7] {
        let target = Watts::new(frac * attainable);
        let hyp = MclrMechanism::best_effort()
            .clear(&instance, target)
            .expect("best-effort always clears");
        let hyp_cost: f64 = hyp
            .reductions()
            .iter()
            .zip(&jobs)
            .map(|(&r, j)| j.cost(r))
            .sum();
        let lin_price = mclr::solve_supplies(&linear, target).expect("feasible");
        let lin_cost: f64 = linear
            .iter()
            .zip(&jobs)
            .map(|((s, _), j)| j.cost(s.supply(lin_price.get())))
            .sum();
        let best = OptMechanism::strict(OptMethod::Auto)
            .clear(&instance, target)
            .expect("feasible");
        let best_cost: f64 = best
            .reductions()
            .iter()
            .zip(&jobs)
            .map(|(&r, j)| j.cost(r))
            .sum();
        rows.push(vec![
            fmt(100.0 * frac, 0),
            fmt(hyp.price().get(), 3),
            fmt(lin_price.get(), 3),
            fmt(hyp_cost, 1),
            fmt(lin_cost, 1),
            fmt(best_cost, 1),
        ]);
    }
    print_table(
        "Ablation: hyperbolic vs linear supply function (8 jobs, cooperative bids)",
        &[
            "target (% max)",
            "price (hyp)",
            "price (lin)",
            "cost (hyp)",
            "cost (lin)",
            "cost (OPT)",
        ],
        &rows,
    );
}
