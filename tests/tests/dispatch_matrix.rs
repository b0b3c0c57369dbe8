//! Pins the simulator's clearing dispatch: for every algorithm × plan
//! configuration the FNV-1a-64 hash of the report's `Debug` rendering on a
//! small seeded trace must stay exactly as recorded. A refactor of the
//! clearing path that changes any figure, counter or diagnostic of any
//! configuration changes its hash.

use mpr_power::{GridFaultPlan, TopologySpec};
use mpr_sim::{Algorithm, FaultPlan, NetPlan, SimConfig, Simulation};
use mpr_tests::test_trace;

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
        "vcg" => flat(Algorithm::Vcg),
        other => panic!("unknown family {other}"),
    }
}

/// Report hashes recorded before the clearing-path refactor.
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
fn vcg_reports_match_the_pinned_hashes() {
    check("vcg");
}
