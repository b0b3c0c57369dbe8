//! Integration tests for the hierarchical federated market: flat
//! equivalence across every clearing scheme, topology round-trips, and
//! end-to-end determinism of federated simulation runs.

use std::sync::Arc;

use mpr_core::bidding::StaticStrategy;
use mpr_core::{
    CostModel, EqlMechanism, FallbackChain, InteractiveConfig, InteractiveMechanism,
    MarketInstance, MclrMechanism, Mechanism, OptMechanism, OptMethod, ParticipantSpec, ScaledCost,
    VcgMechanism, Watts,
};
use mpr_power::{HierarchicalMarket, LevelKind, PowerHierarchy, TopologySpec};
use mpr_sim::{Algorithm, SimConfig, Simulation};
use mpr_tests::test_trace;
use proptest::prelude::*;

/// A market instance every scheme can clear: cooperative standing bids
/// (MPR-STAT), cost curves (MPR-INT, OPT, VCG) and core counts (EQL).
fn full_instance(jobs: usize) -> MarketInstance {
    let profiles = mpr_apps::cpu_profiles();
    (0..jobs)
        .map(|i| {
            let cost = Arc::new(ScaledCost::new(
                profiles[i % profiles.len()].cost_model(1.0),
                8.0,
            ));
            let supply = StaticStrategy::Cooperative
                .supply_for(cost.as_ref())
                .expect("catalog costs are valid");
            ParticipantSpec::new(i as u64, cost.delta_max(), Watts::new(125.0))
                .with_bid(supply.bid())
                .with_cores(8.0)
                .with_cost(cost)
        })
        .collect()
}

/// A tree whose only binding constraint is the root: two racks with huge
/// local capacity under one ATS capped `target` below the load.
fn root_constrained_tree(load: f64, target: f64) -> (PowerHierarchy, usize, usize) {
    let mut h = PowerHierarchy::new();
    let ats = h.add_root("ats", LevelKind::Ats, Watts::new(load - target));
    let ups = h
        .add_child("ups", LevelKind::Ups, Watts::new(1e12), ats)
        .unwrap();
    let pdu = h
        .add_child("pdu", LevelKind::Pdu, Watts::new(1e12), ups)
        .unwrap();
    let rack_a = h
        .add_child("rack-a", LevelKind::Rack, Watts::new(1e12), pdu)
        .unwrap();
    let rack_b = h
        .add_child("rack-b", LevelKind::Rack, Watts::new(1e12), pdu)
        .unwrap();
    h.set_load(rack_a, Watts::new(load * 0.5)).unwrap();
    h.set_load(rack_b, Watts::new(load * 0.5)).unwrap();
    (h, rack_a, rack_b)
}

/// Every paper scheme as a fresh boxed mechanism, by name.
fn scheme(name: &str) -> Box<dyn Mechanism> {
    match name {
        "mpr-stat" => Box::new(MclrMechanism::strict()),
        "mpr-int" => Box::new(InteractiveMechanism::strict(InteractiveConfig::default())),
        "opt" => Box::new(OptMechanism::strict(OptMethod::Auto)),
        "eql" => Box::new(EqlMechanism),
        "vcg" => Box::new(VcgMechanism::strict(OptMethod::Auto)),
        "chain" => Box::new(FallbackChain::degradation(
            InteractiveMechanism::best_effort(InteractiveConfig::default()),
        )),
        other => panic!("unknown scheme {other}"),
    }
}

const SCHEMES: [&str; 6] = ["mpr-stat", "mpr-int", "opt", "eql", "vcg", "chain"];

/// On a root-only-constrained tree the federated sweep runs exactly one
/// market over the identity view, and `Clearing::merge` returns it
/// verbatim — bit-identical to the flat clear, for every scheme.
fn assert_flat_equivalent(jobs: usize, target_frac: f64) {
    let inst = full_instance(jobs);
    let load = 1e6;
    let asked = inst.attainable_watts().get() * target_frac;
    let (h, rack_a, rack_b) = root_constrained_tree(load, asked);
    // The sweep derives its target as `load − capacity`, which can differ
    // from `asked` by an ULP; the flat comparator must see the exact same
    // number or bit-equality is meaningless.
    let target = load - (load - asked);
    let assignment: Vec<usize> = (0..jobs)
        .map(|i| if i % 2 == 0 { rack_a } else { rack_b })
        .collect();
    let market = HierarchicalMarket::new(&h, assignment).unwrap();
    for name in SCHEMES {
        let outcome = market
            .clear(&inst, || scheme(name))
            .unwrap_or_else(|e| panic!("{name}: federated clear failed: {e}"));
        assert_eq!(outcome.markets, 1, "{name}: one pristine root market");
        let mut flat = scheme(name);
        let expect = flat
            .clear(&inst, Watts::new(target))
            .unwrap_or_else(|e| panic!("{name}: flat clear failed: {e}"));
        assert_eq!(
            outcome.clearing.reductions(),
            expect.reductions(),
            "{name}: reductions diverge"
        );
        assert_eq!(outcome.clearing.price(), expect.price(), "{name}: price");
        assert_eq!(
            outcome.clearing.participant_prices(),
            expect.participant_prices(),
            "{name}: participant prices"
        );
        assert_eq!(
            outcome.clearing.payment_rates(),
            expect.payment_rates(),
            "{name}: payment rates"
        );
        assert_eq!(
            outcome.clearing.diagnostics(),
            expect.diagnostics(),
            "{name}: diagnostics"
        );
    }
}

#[test]
fn every_scheme_is_flat_equivalent_on_a_root_constrained_tree() {
    assert_flat_equivalent(24, 0.3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flat-equivalence regression across instance sizes and targets
    /// (feasible ones: strict mechanisms refuse infeasible asks).
    #[test]
    fn flat_equivalence_holds_across_sizes_and_targets(
        jobs in 4usize..28,
        target_frac in 0.05f64..0.5,
    ) {
        assert_flat_equivalent(jobs, target_frac);
    }
}

/// The topology spec round-trips through its JSON codec with a stable
/// fingerprint, and any capacity change moves the fingerprint.
#[test]
fn topology_round_trips_and_fingerprints_capacity_changes() {
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let reparsed = TopologySpec::parse(&spec.to_json()).unwrap();
    assert_eq!(spec, reparsed);
    assert_eq!(spec.fingerprint(), reparsed.fingerprint());

    let mut tweaked = spec.clone();
    tweaked.nodes[1].capacity = Watts::new(spec.nodes[1].capacity.get() * 0.5);
    assert_ne!(spec.fingerprint(), tweaked.fingerprint());

    // The spec materializes into a hierarchy whose racks carry the jobs.
    let h = spec.to_hierarchy().unwrap();
    assert_eq!(h.len(), spec.nodes.len());
    assert!(!spec.rack_ids().is_empty());
    assert!(spec.root_capacity().get() > 0.0);
}

/// Two identical federated runs are bit-identical: the parallel depth
/// waves commit in deterministic (depth, id) order regardless of worker
/// interleaving, so the whole simulation reproduces. (CI additionally
/// diffs `RAYON_NUM_THREADS=1` against the default pool via the CLI.)
#[test]
fn federated_simulation_is_deterministic_end_to_end() {
    let trace = test_trace(2.0, 11);
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
    let a = Simulation::new(&trace, cfg.clone()).run();
    let b = Simulation::new(&trace, cfg).run();
    let fa = a.federated.as_ref().expect("federated stats");
    let fb = b.federated.as_ref().expect("federated stats");
    assert_eq!(
        fa, fb,
        "federated accounting must reproduce bit-identically"
    );
    assert!(fa.events > 0, "the run must clear overloads federated");
    assert!(fa.markets >= fa.events);
    assert!(!fa.levels.is_empty());
    assert_eq!(
        a.reduction_core_hours.to_bits(),
        b.reduction_core_hours.to_bits()
    );
    assert_eq!(a.reward_core_hours.to_bits(), b.reward_core_hours.to_bits());
    assert_eq!(a.cost_core_hours.to_bits(), b.cost_core_hours.to_bits());
}

/// The federated path reports residuals per level and they are consistent:
/// a level's residual never exceeds its cumulative target, and the merged
/// totals absorb every level.
#[test]
fn federated_per_level_accounting_is_consistent() {
    let trace = test_trace(2.0, 11);
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
    let r = Simulation::new(&trace, cfg).run();
    let fed = r.federated.as_ref().expect("federated stats");
    assert!(fed.residual_watts >= 0.0);
    for (name, lv) in &fed.levels {
        assert!(lv.markets > 0, "{name}: reported levels ran markets");
        assert!(
            lv.cleared_watts <= lv.target_watts + 1e-6,
            "{name}: cleared {} exceeds cumulative target {}",
            lv.cleared_watts,
            lv.target_watts
        );
        assert!(lv.residual_watts >= 0.0, "{name}");
    }
    let total_markets: usize = fed.levels.values().map(|l| l.markets).sum();
    assert_eq!(total_markets, fed.markets);
}
