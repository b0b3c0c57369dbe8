//! MPR-INT walkthrough: watch the iterative price/bid exchange converge to
//! its Nash equilibrium and compare the allocation against OPT.
//!
//! ```text
//! cargo run -p mpr-examples --bin interactive_market
//! ```

use std::sync::Arc;

use mpr_core::{
    opt, CostModel, InteractiveConfig, InteractiveMechanism, MarketInstance, Mechanism,
    ParticipantSpec, QuadraticCost, Watts,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five users with quadratic costs of increasing steepness: user 0
    // barely minds slowdowns, user 4 hates them.
    let alphas = [0.5, 1.0, 2.0, 4.0, 8.0];
    let costs: Vec<QuadraticCost> = alphas.iter().map(|&a| QuadraticCost::new(a, 4.0)).collect();
    // Each user's rational agent best-responds from its private cost curve.
    let instance: MarketInstance = costs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            ParticipantSpec::new(i as u64, c.delta_max(), Watts::new(125.0)).with_cost(Arc::new(*c))
        })
        .collect();

    let target = Watts::new(1200.0); // watts to shed
    let clearing =
        InteractiveMechanism::strict(InteractiveConfig::default()).clear(&instance, target)?;
    let d = clearing.diagnostics();

    println!("price trajectory (manager → users → manager …):");
    for (round, q) in d.price_trace.iter().enumerate() {
        println!("  round {round:>2}: q = {q:.4}");
    }
    println!(
        "converged = {}, final price {:.4}, {} iterations\n",
        d.converged,
        clearing.price().get(),
        clearing.iterations()
    );

    let opt_jobs: Vec<opt::OptJob<'_>> = costs
        .iter()
        .enumerate()
        .map(|(i, c)| opt::OptJob::new(i as u64, c, Watts::new(125.0)))
        .collect();
    let optimal = opt::solve(&opt_jobs, target, opt::OptMethod::Auto)?;

    println!("allocation (cores shed): market equilibrium vs centralized OPT");
    let mut market_cost = 0.0;
    for (i, (reduction, cost)) in clearing.reductions().iter().zip(&costs).enumerate() {
        let opt_delta = optimal.reductions[i].1;
        market_cost += cost.cost(*reduction);
        println!(
            "  user {} (α = {:>3.1}): market {:>5.3}, OPT {:>5.3}",
            clearing.ids()[i],
            alphas[i],
            reduction,
            opt_delta
        );
    }
    println!(
        "\ntotal cost: market {:.4} vs OPT {:.4} — the equilibrium is socially optimal",
        market_cost, optimal.total_cost
    );
    Ok(())
}
