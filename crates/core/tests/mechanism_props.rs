//! Cross-mechanism property tests over a shared [`MarketInstance`]
//! (DESIGN.md §11).
//!
//! Every mechanism clears the *same* structure-of-arrays instance, so the
//! paper's qualitative ordering becomes a checkable invariant:
//!
//! * total performance-loss cost is ordered `OPT ≤ MPR-STAT ≤ EQL`
//!   whenever all three meet the target (Fig. 10 / Table 1), and
//! * every [`Clearing`](mpr_core::mechanism::Clearing) either meets its
//!   target or carries a strictly positive residual — never both, never
//!   neither.

use std::sync::Arc;

use mpr_core::bidding::StaticStrategy;
use mpr_core::mechanism::Clearing;
use mpr_core::{
    CostModel, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveConfig,
    InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism, OptMechanism, OptMethod,
    ParticipantSpec, QuadraticCost, VcgMechanism, Watts,
};
use proptest::prelude::*;

const WATTS_PER_UNIT: f64 = 125.0;

/// One synthetic job: a quadratic cost drawn from `(alpha, delta_max)`.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    alpha: f64,
    delta: f64,
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    (0.5f64..4.0, 0.5f64..4.0).prop_map(|(alpha, delta)| JobSpec { alpha, delta })
}

/// Builds the shared instance: every row carries its cooperative standing
/// bid (for MPR-STAT), its cost model (for MPR-INT/OPT/VCG) and its core
/// count (for EQL, `cores = Δ` so the uniform slowdown always fits).
fn instance(jobs: &[JobSpec]) -> MarketInstance {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| {
            let cost = QuadraticCost::new(j.alpha, j.delta);
            let supply = StaticStrategy::Cooperative
                .supply_for(&cost)
                .expect("generated costs are valid");
            ParticipantSpec::new(i as u64, j.delta, Watts::new(WATTS_PER_UNIT))
                .with_bid(supply.bid())
                .with_cores(j.delta)
                .with_cost(Arc::new(cost))
        })
        .collect()
}

/// Ground-truth total cost of a clearing, evaluated with the jobs' own
/// cost models (never the mechanism's internal view).
fn total_cost(jobs: &[JobSpec], clearing: &Clearing) -> f64 {
    jobs.iter()
        .zip(clearing.reductions())
        .map(|(j, &r)| QuadraticCost::new(j.alpha, j.delta).cost(r))
        .sum()
}

fn attainable(jobs: &[JobSpec]) -> f64 {
    jobs.iter().map(|j| j.delta * WATTS_PER_UNIT).sum()
}

/// Every best-effort mechanism, for the met-XOR-residual sweep.
fn all_mechanisms() -> Vec<Box<dyn Mechanism>> {
    let int_cfg = InteractiveConfig {
        max_iterations: 60,
        ..InteractiveConfig::default()
    };
    vec![
        Box::new(MclrMechanism::best_effort()),
        Box::new(InteractiveMechanism::best_effort(int_cfg)),
        Box::new(OptMechanism::best_effort(OptMethod::Auto)),
        Box::new(EqlMechanism),
        Box::new(EqlCappingMechanism),
        Box::new(VcgMechanism::best_effort(OptMethod::Auto)),
        Box::new(FallbackChain::degradation(
            InteractiveMechanism::best_effort(int_cfg),
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fig. 10's cost ordering, instance-by-instance: the centralized
    /// optimum never costs more than the static market, which never costs
    /// more than the performance-oblivious uniform slowdown.
    ///
    /// The `STAT ≤ EQL` leg holds in the oversubscription regime the paper
    /// operates in (reclaim demand ≥ half the attainable reduction, so every
    /// supply curve is active). Under light load the market deliberately
    /// concentrates reduction on the cheapest bidders — break-even supply
    /// bids are average-cost, not marginal-cost — and a quadratic cost can
    /// then favour EQL's proportional spread; see
    /// `opt_lower_bounds_every_mechanism_at_any_load` for the part that is
    /// load-independent.
    #[test]
    fn opt_stat_eql_cost_ordering(
        jobs in proptest::collection::vec(job_strategy(), 2..16),
        frac in 0.50f64..0.90,
    ) {
        let inst = instance(&jobs);
        let target = Watts::new(attainable(&jobs) * frac);

        let opt = OptMechanism::strict(OptMethod::Auto).clear(&inst, target).unwrap();
        let stat = MclrMechanism::strict().clear(&inst, target).unwrap();
        let eql = EqlMechanism.clear(&inst, target).unwrap();

        // The ordering is only claimed between clearings that met the
        // target; interior fractions make all three feasible.
        prop_assert!(opt.met_target());
        prop_assert!(stat.met_target());
        prop_assert!(eql.met_target());

        let c_opt = total_cost(&jobs, &opt);
        let c_stat = total_cost(&jobs, &stat);
        let c_eql = total_cost(&jobs, &eql);
        // Tolerance covers bisection/rootfinding slack on (near-)degenerate
        // instances where two mechanisms coincide.
        let tol = 1e-6;
        prop_assert!(
            c_opt <= c_stat * (1.0 + tol) + tol,
            "OPT {c_opt} must not exceed MPR-STAT {c_stat}"
        );
        prop_assert!(
            c_stat <= c_eql * (1.0 + tol) + tol,
            "MPR-STAT {c_stat} must not exceed EQL {c_eql}"
        );
    }

    /// The load-independent half of the ordering: OPT is the constrained
    /// cost minimizer, so *no* target-meeting mechanism can beat it at any
    /// utilization level.
    #[test]
    fn opt_lower_bounds_every_mechanism_at_any_load(
        jobs in proptest::collection::vec(job_strategy(), 2..16),
        frac in 0.05f64..0.95,
    ) {
        let inst = instance(&jobs);
        let target = Watts::new(attainable(&jobs) * frac);
        let opt = OptMechanism::strict(OptMethod::Auto).clear(&inst, target).unwrap();
        prop_assert!(opt.met_target());
        let c_opt = total_cost(&jobs, &opt);
        for (name, clearing) in [
            ("MPR-STAT", MclrMechanism::strict().clear(&inst, target).unwrap()),
            ("EQL", EqlMechanism.clear(&inst, target).unwrap()),
        ] {
            prop_assert!(clearing.met_target());
            let c = total_cost(&jobs, &clearing);
            prop_assert!(
                c_opt <= c * (1.0 + 1e-6) + 1e-6,
                "OPT {c_opt} must not exceed {name} {c}"
            );
        }
    }

    /// Every clearing from every mechanism — feasible targets, infeasible
    /// targets, capped fallbacks — meets its target XOR reports a strictly
    /// positive residual.
    #[test]
    fn every_clearing_meets_target_xor_positive_residual(
        jobs in proptest::collection::vec(job_strategy(), 1..10),
        frac in 0.10f64..1.50,
    ) {
        let inst = instance(&jobs);
        let target = Watts::new(attainable(&jobs) * frac);
        for mut mech in all_mechanisms() {
            let clearing = match mech.clear(&inst, target) {
                Ok(c) => c,
                // A bare MPR-INT may refuse an oscillating exchange rather
                // than ship an arbitrary cycle point; the FallbackChain
                // entry in this sweep covers the degradation path.
                Err(mpr_core::MechanismError::NonConvergent { .. }) => continue,
                Err(e) => panic!("{} must clear best-effort: {e}", mech.name()),
            };
            let met = clearing.met_target();
            let residual = clearing.residual().get();
            prop_assert!(
                met ^ (residual > 0.0),
                "{}: met={met} residual={residual} must be exclusive",
                mech.name()
            );
            // The residual is exactly the unmet remainder.
            let delivered = clearing.total_power_reduction().get();
            if !met {
                prop_assert!(
                    (delivered + residual - target.get()).abs() <= 1e-6 * target.get().max(1.0),
                    "{}: delivered {delivered} + residual {residual} != target {}",
                    mech.name(),
                    target.get()
                );
            }
        }
    }

    /// The interactive game is cost-ordered too when it converges:
    /// `OPT ≤ MPR-INT`, and MPR-INT tracks the optimum closely (its Nash
    /// equilibrium is socially near-optimal, Section III-C).
    #[test]
    fn interactive_tracks_the_optimum(
        jobs in proptest::collection::vec(job_strategy(), 2..10),
        frac in 0.15f64..0.70,
    ) {
        let inst = instance(&jobs);
        let target = Watts::new(attainable(&jobs) * frac);
        let opt = OptMechanism::strict(OptMethod::Auto).clear(&inst, target).unwrap();
        let int = InteractiveMechanism::strict(InteractiveConfig::default())
            .clear(&inst, target)
            .unwrap();
        prop_assume!(int.diagnostics().converged);
        prop_assert!(int.met_target());
        let c_opt = total_cost(&jobs, &opt);
        let c_int = total_cost(&jobs, &int);
        prop_assert!(
            c_opt <= c_int * (1.0 + 1e-6) + 1e-6,
            "OPT {c_opt} must not exceed MPR-INT {c_int}"
        );
        prop_assert!(
            c_int <= c_opt * 2.0 + 1e-6,
            "MPR-INT {c_int} should track OPT {c_opt}"
        );
    }
}
