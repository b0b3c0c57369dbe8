//! Pins the simulator's clearing dispatch: for every algorithm × plan
//! configuration, for the job-level bid inputs (α spread, cost noise,
//! participation) under both market algorithms, and for a recorded
//! timeline under phased power, the FNV-1a-64 hash of the report's `Debug`
//! rendering on a small seeded trace must stay exactly as recorded. A refactor of the
//! clearing path that changes any figure, counter or diagnostic of any
//! configuration changes its hash. The same holds for runs on a slot length
//! that is not a whole number of seconds, and for the checkpoint bytes
//! written at quiet (Normal-phase) slots.

use mpr_power::{GridFaultPlan, TopologySpec};
use mpr_sim::{
    Algorithm, CheckpointPlan, CostNoise, EmergencyEventKind, FaultPlan, NetPlan, RunOutcome,
    SimConfig, Simulation,
};
use mpr_tests::{quiet_slot_between_completions, test_trace};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every agent-fault class at once, so each adapter is exercised.
fn agent_faults() -> FaultPlan {
    FaultPlan {
        unresponsive_frac: 0.15,
        crash_frac: 0.1,
        stale_frac: 0.1,
        byzantine_frac: 0.1,
        ..FaultPlan::default()
    }
}

fn lossy_net() -> NetPlan {
    NetPlan {
        duplicate_prob: 0.05,
        partition_prob: 0.02,
        ..NetPlan::lossy(0.2)
    }
}

/// ATS transfers, PDU trips and gradual derating ramps, with no UPS
/// outage, inside the one-day trace.
fn mixed_grid_faults() -> GridFaultPlan {
    GridFaultPlan {
        ats_derate_prob: 1.0,
        ats_derate_frac: 0.6,
        pdu_trip_prob: 0.5,
        derate_prob: 0.6,
        derate_floor: 0.6,
        window_secs: 43_200.0,
        repair_secs: 14_400.0,
        ..GridFaultPlan::default()
    }
}

fn tree() -> TopologySpec {
    TopologySpec::parse(include_str!("../../examples/tree.json")).expect("example tree parses")
}

/// The pinned configurations of one family, by name.
fn configs(family: &str) -> Vec<(String, SimConfig)> {
    let flat = |alg| {
        let base = SimConfig::new(alg, 15.0);
        vec![
            (format!("{family}/none"), base.clone()),
            (
                format!("{family}/faults"),
                base.clone().with_faults(agent_faults()),
            ),
            (format!("{family}/net"), base.clone().with_net(lossy_net())),
            (
                format!("{family}/net+faults"),
                base.with_net(lossy_net()).with_faults(agent_faults()),
            ),
        ]
    };
    let federated = |label: &str, alg| {
        let base = SimConfig::new(alg, 15.0).with_topology(tree());
        vec![
            (format!("{label}/federated"), base.clone()),
            (
                format!("{label}/federated+grid"),
                base.with_grid_faults(GridFaultPlan::ups_outage(0.5)),
            ),
        ]
    };
    // The job-level bid inputs: heterogeneous α, noisy or biased cost
    // perception, and partial participation.
    let bidders = |label: &str, alg| {
        let base = SimConfig::new(alg, 15.0);
        vec![
            (
                format!("{label}/alpha-spread"),
                base.clone().with_alpha_spread(0.5),
            ),
            (
                format!("{label}/noise-random"),
                base.clone()
                    .with_cost_noise(CostNoise::Random { magnitude: 0.3 }),
            ),
            (
                format!("{label}/noise-under"),
                base.clone()
                    .with_cost_noise(CostNoise::Underestimate { fraction: 0.3 }),
            ),
            (
                format!("{label}/participation"),
                base.with_participation(0.5),
            ),
        ]
    };
    match family {
        "opt" => flat(Algorithm::Opt),
        "eql" => flat(Algorithm::Eql),
        "mpr-stat" => [
            flat(Algorithm::MprStat),
            federated("mpr-stat", Algorithm::MprStat),
        ]
        .concat(),
        "mpr-int" => flat(Algorithm::MprInt),
        "mpr-int-federated" => federated("mpr-int", Algorithm::MprInt),
        // Price-free federated clears under UPS outages, and an MPR-STAT
        // federated run whose plan mixes ATS derates, PDU trips and
        // gradual derating ramps.
        "federated-grid" => {
            let grid = |alg| {
                SimConfig::new(alg, 15.0)
                    .with_topology(tree())
                    .with_grid_faults(GridFaultPlan::ups_outage(0.5))
            };
            vec![
                ("eql/federated+grid".to_owned(), grid(Algorithm::Eql)),
                ("opt/federated+grid".to_owned(), grid(Algorithm::Opt)),
                (
                    "mpr-stat/federated+grid-mix".to_owned(),
                    SimConfig::new(Algorithm::MprStat, 15.0)
                        .with_topology(tree())
                        .with_grid_faults(mixed_grid_faults()),
                ),
            ]
        }
        "mpr-stat-bidders" => bidders("mpr-stat", Algorithm::MprStat),
        "mpr-int-bidders" => bidders("mpr-int", Algorithm::MprInt),
        "vcg" => flat(Algorithm::Vcg),
        "timeline-phases" => [
            ("opt", Algorithm::Opt),
            ("eql", Algorithm::Eql),
            ("mpr-stat", Algorithm::MprStat),
            ("mpr-int", Algorithm::MprInt),
        ]
        .into_iter()
        .map(|(label, alg)| {
            (
                format!("{label}/timeline+phases"),
                SimConfig::new(alg, 15.0).with_timeline().with_phases(0.3),
            )
        })
        .collect(),
        "fractional-slot" => [("mpr-stat", Algorithm::MprStat), ("eql", Algorithm::Eql)]
            .into_iter()
            .map(|(label, alg)| {
                let mut cfg = SimConfig::new(alg, 15.0);
                cfg.slot_secs = 45.5;
                (format!("{label}/slot-45.5"), cfg)
            })
            .collect(),
        other => panic!("unknown family {other}"),
    }
}

/// Report hashes recorded before the clearing-path refactor (the
/// algorithm × plan rows), before the admission bid memo (the α-spread,
/// cost-noise and participation rows), before the per-job rate cache
/// (the recorded-timeline, phased-power rows) and before the slot draw
/// cache and lazy full-speed progress (the 45.5 s slot rows) and before
/// the compiled grid-fault plan and positional row mapping (the EQL and
/// OPT federated+grid rows and the mixed-plan MPR-STAT row).
const PINNED: &[(&str, u64)] = &[
    ("opt/none", 0x12b4e8b9065ac7b6),
    ("opt/faults", 0x12b4e8b9065ac7b6),
    ("opt/net", 0x3d9481c66bf8f3fb),
    ("opt/net+faults", 0x3d9481c66bf8f3fb),
    ("eql/none", 0xc363bbdee275c045),
    ("eql/faults", 0xc363bbdee275c045),
    ("eql/net", 0xb937296c4b859762),
    ("eql/net+faults", 0xb937296c4b859762),
    ("mpr-stat/none", 0x49c5ed4032dd078d),
    ("mpr-stat/faults", 0x49c5ed4032dd078d),
    ("mpr-stat/net", 0x9fabdca3fc0d6b6a),
    ("mpr-stat/net+faults", 0x9fabdca3fc0d6b6a),
    ("mpr-int/none", 0xcedea9e2d401852b),
    ("mpr-int/faults", 0xab592b611d691584),
    ("mpr-int/net", 0xb8836a6da2419ba3),
    ("mpr-int/net+faults", 0x0ceeb0898c9dc2fa),
    ("vcg/none", 0x28b3bd86f53a3b8a),
    ("vcg/faults", 0x28b3bd86f53a3b8a),
    ("vcg/net", 0x08c5da5c3a0e32ef),
    ("vcg/net+faults", 0x08c5da5c3a0e32ef),
    ("mpr-stat/federated", 0xe7c85fde7f6c94fa),
    ("mpr-stat/federated+grid", 0x251df45d03bcd4c8),
    ("mpr-int/federated", 0x37514b03fb3f2b51),
    ("mpr-int/federated+grid", 0xa2e2f9e57f2c06af),
    ("eql/federated+grid", 0xafb80940dcc6becf),
    ("opt/federated+grid", 0x00b11841a0ca269f),
    ("mpr-stat/federated+grid-mix", 0x1e4c58e7a5641e01),
    ("mpr-stat/alpha-spread", 0x01dcfcd09aac0d63),
    ("mpr-stat/noise-random", 0x9bf74d59f53d5b82),
    ("mpr-stat/noise-under", 0x5bae8b7b3d3ae783),
    ("mpr-stat/participation", 0x7c997903f95266d9),
    ("mpr-int/alpha-spread", 0x9af69629e678d966),
    ("mpr-int/noise-random", 0x88644796fbe43d76),
    ("mpr-int/noise-under", 0x282167fa68616c00),
    ("mpr-int/participation", 0x432847b30c535f46),
    ("opt/timeline+phases", 0xe0e0ce3419fd96d7),
    ("eql/timeline+phases", 0x2ab211585287be1d),
    ("mpr-stat/timeline+phases", 0x481b675107b5a09d),
    ("mpr-int/timeline+phases", 0xbd229b0bc874dbb1),
    ("mpr-stat/slot-45.5", 0xe2246a8bfb39ef9d),
    ("eql/slot-45.5", 0x4bb847da3a6863bf),
];

/// Checkpoint-file hashes, recorded before the slot draw cache and lazy
/// full-speed progress, for a kill one slot before the first declare and
/// one between two completions after a lift: both Normal-phase slots with
/// unreduced jobs mid-flight.
const PINNED_CHECKPOINTS: &[(&str, u64)] = &[
    ("mpr-stat/before-declare", 0x0a57a74d630c9273),
    ("mpr-stat/after-lift", 0xb37f9df06db2d79b),
    ("eql/before-declare", 0x53884fa0d36dffa9),
    ("eql/after-lift", 0x4371157702c686e4),
];

fn check(family: &str) {
    let trace = test_trace(1.0, 17);
    let mut mismatches = Vec::new();
    for (name, cfg) in configs(family) {
        let report = Simulation::new(&trace, cfg).run();
        let hash = fnv1a64(format!("{report:?}").as_bytes());
        let pinned = PINNED.iter().find(|(n, _)| *n == name).map(|(_, h)| *h);
        if pinned != Some(hash) {
            mismatches.push(format!("    (\"{name}\", {hash:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report hashes differ from the pinned matrix:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn opt_reports_match_the_pinned_hashes() {
    check("opt");
}

#[test]
fn eql_reports_match_the_pinned_hashes() {
    check("eql");
}

#[test]
fn mpr_stat_reports_match_the_pinned_hashes() {
    check("mpr-stat");
}

#[test]
fn mpr_int_reports_match_the_pinned_hashes() {
    check("mpr-int");
}

#[test]
fn federated_mpr_int_reports_match_the_pinned_hashes() {
    check("mpr-int-federated");
}

#[test]
fn federated_grid_reports_match_the_pinned_hashes() {
    check("federated-grid");
}

#[test]
fn mpr_stat_bidder_reports_match_the_pinned_hashes() {
    check("mpr-stat-bidders");
}

#[test]
fn mpr_int_bidder_reports_match_the_pinned_hashes() {
    check("mpr-int-bidders");
}

#[test]
fn vcg_reports_match_the_pinned_hashes() {
    check("vcg");
}

#[test]
fn timeline_and_phase_reports_match_the_pinned_hashes() {
    check("timeline-phases");
}

#[test]
fn fractional_slot_reports_match_the_pinned_hashes() {
    check("fractional-slot");
}

/// The checkpoint file a run writes when killed at `kill_at`, after a
/// checkpoint at that very slot.
fn checkpoint_bytes(
    trace: &mpr_workload::Trace,
    cfg: &SimConfig,
    tag: &str,
    kill_at: usize,
) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("mpr_dispatch_{}_{tag}.ckpt", std::process::id()));
    let plan = CheckpointPlan::every(&path, kill_at).with_kill_at(kill_at);
    let outcome = Simulation::new(trace, cfg.clone())
        .run_with_checkpoints(&plan)
        .expect("checkpointed run");
    assert!(
        matches!(outcome, RunOutcome::Killed { .. }),
        "{tag}: kill must fire"
    );
    let bytes = std::fs::read(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn quiet_slot_checkpoint_bytes_match_the_pinned_hashes() {
    let trace = test_trace(1.0, 17);
    let mut mismatches = Vec::new();
    for (label, alg) in [("mpr-stat", Algorithm::MprStat), ("eql", Algorithm::Eql)] {
        let cfg = SimConfig::new(alg, 15.0);
        let first_declare = Simulation::new(&trace, cfg.clone())
            .run()
            .events
            .iter()
            .find(|e| e.kind == EmergencyEventKind::Declare)
            .map(|e| (e.t_secs / cfg.slot_secs) as usize)
            .expect("probe run must declare");
        assert!(first_declare > 1);
        let after_lift = quiet_slot_between_completions(&trace, &cfg);
        for (kind, kill_at) in [
            ("before-declare", first_declare - 1),
            ("after-lift", after_lift),
        ] {
            let name = format!("{label}/{kind}");
            let hash = fnv1a64(&checkpoint_bytes(
                &trace,
                &cfg,
                &name.replace('/', "_"),
                kill_at,
            ));
            let pinned = PINNED_CHECKPOINTS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| *h);
            if pinned != Some(hash) {
                mismatches.push(format!("    (\"{name}\", {hash:#018x}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "checkpoint hashes differ from the pinned bytes:\n{}",
        mismatches.join("\n")
    );
}
