//! Pins the bytes of every on-disk and wire format the workspace writes:
//! the ledger's record payloads, the power-tree fingerprint and JSON
//! rendering, the checkpoint file of a federated run, and the chaos
//! scenario JSON. A codec refactor that moves or merges these encoders
//! must leave every value below unchanged.
//!
//! The FNV-1a below is a test-local reference, independent of the
//! library's own hash, so a change to the library hash cannot hide behind
//! a matching change in its checker.

use mpr_chaos::Scenario;
use mpr_power::{GridFaultPlan, TopologySpec};
use mpr_sim::{Algorithm, CheckpointPlan, LedgerEvent, RunOutcome, SimConfig, Simulation};
use mpr_tests::test_trace;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tree() -> TopologySpec {
    TopologySpec::parse(include_str!("../../examples/tree.json")).expect("example tree parses")
}

/// One event of each of the seven ledger kinds, with the record kind tag
/// and payload bytes it encodes to.
const PINNED_PAYLOADS: &[(u8, &str)] = &[
    (1, "0000000000207c40000000008088b34000000000000002c0"),
    (2, "2a000000000000000000000000000c40333333333333d33f"),
    (3, "01000000000000b340000000000045b24001"),
    (
        4,
        "07000000000000009a9999999999b93f0000000000000840d3d2d2d2d2d2d23f",
    ),
    (5, "020000000000407f4000000000000000000000000000000000"),
    (6, "0300000000000000"),
    (7, "ffffffffffffffff"),
];

fn sample_events() -> Vec<LedgerEvent> {
    vec![
        LedgerEvent::PriceAnnounce {
            t_secs: 450.0,
            target_watts: 5000.5,
            price: -2.25,
        },
        LedgerEvent::BidArrival {
            participant: 42,
            reduction: 3.5,
            price: 0.3,
        },
        LedgerEvent::Clearing {
            kind: 1,
            target_watts: 4864.0,
            delivered_watts: 4677.0,
            degraded: true,
        },
        LedgerEvent::Payment {
            participant: 7,
            price: 0.1,
            reduction: 3.0,
            amount_core_hours: 0.3 / 1.02,
        },
        LedgerEvent::Emergency {
            kind: 2,
            t_secs: 500.0,
            target_watts: 0.0,
            price: 0.0,
        },
        LedgerEvent::Quarantine { participants: 3 },
        LedgerEvent::SlotCommit { slot: u64::MAX },
    ]
}

#[test]
fn ledger_payloads_match_the_pinned_bytes() {
    let events = sample_events();
    assert_eq!(events.len(), PINNED_PAYLOADS.len());
    let mut mismatches = Vec::new();
    for (event, &(kind, payload)) in events.iter().zip(PINNED_PAYLOADS) {
        let (got_kind, got) = event.encode();
        if (got_kind, hex(&got).as_str()) != (kind, payload) {
            mismatches.push(format!("    ({got_kind}, \"{}\"),", hex(&got)));
        }
        assert_eq!(LedgerEvent::decode(got_kind, &got).as_ref(), Some(event));
    }
    assert!(
        mismatches.is_empty(),
        "ledger payloads differ from the pinned bytes:\n{}",
        mismatches.join("\n")
    );
}

/// `TopologySpec::fingerprint` of `examples/tree.json`, and the FNV-1a of
/// its `to_json` rendering.
const PINNED_TREE_FINGERPRINT: u64 = 0x3a99_c68d_3655_07f0;
const PINNED_TREE_JSON: u64 = 0x96d6_05fd_4cad_0fd7;

#[test]
fn tree_fingerprint_and_json_match_the_pinned_values() {
    let spec = tree();
    assert_eq!(
        (spec.fingerprint(), fnv1a64(spec.to_json().as_bytes())),
        (PINNED_TREE_FINGERPRINT, PINNED_TREE_JSON),
        "tree fingerprint / to_json hash"
    );
}

/// Checkpoint-file hashes of federated runs over `examples/tree.json`,
/// killed after a checkpoint at a mid-run slot.
const PINNED_FEDERATED_CHECKPOINTS: &[(&str, u64)] = &[
    ("mpr-stat/federated", 0x9d7903e7aab99a79),
    ("mpr-stat/federated+grid", 0x6bef442eddcab939),
];

#[test]
fn federated_checkpoint_bytes_match_the_pinned_hashes() {
    let trace = test_trace(1.0, 17);
    let base = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(tree());
    let kill_at = 720;
    let mut mismatches = Vec::new();
    for (name, cfg) in [
        ("mpr-stat/federated", base.clone()),
        (
            "mpr-stat/federated+grid",
            base.with_grid_faults(GridFaultPlan::ups_outage(0.5)),
        ),
    ] {
        let path = std::env::temp_dir().join(format!(
            "mpr_formats_{}_{}.ckpt",
            std::process::id(),
            name.replace('/', "_")
        ));
        let plan = CheckpointPlan::every(&path, kill_at).with_kill_at(kill_at);
        let outcome = Simulation::new(&trace, cfg)
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        assert!(
            matches!(outcome, RunOutcome::Killed { .. }),
            "{name}: kill must fire"
        );
        let hash = fnv1a64(&std::fs::read(&path).expect("checkpoint written"));
        let _ = std::fs::remove_file(&path);
        let pinned = PINNED_FEDERATED_CHECKPOINTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| *h);
        if pinned != Some(hash) {
            mismatches.push(format!("    (\"{name}\", {hash:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "checkpoint hashes differ from the pinned bytes:\n{}",
        mismatches.join("\n")
    );
}

/// FNV-1a of `Scenario::generate(seed, k).to_json(0)`, with its length.
const PINNED_SCENARIOS: &[(u64, u64, usize, u64)] = &[
    (42, 0, 581, 0x190f9153ab2d3ad6),
    (7, 13, 1175, 0x8ca01266600e2eb8),
];

#[test]
fn scenario_json_matches_the_pinned_bytes() {
    let mut mismatches = Vec::new();
    for &(seed, k, len, hash) in PINNED_SCENARIOS {
        let text = Scenario::generate(seed, k).to_json(0);
        let got = (text.len(), fnv1a64(text.as_bytes()));
        if got != (len, hash) {
            mismatches.push(format!("    ({seed}, {k}, {}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "scenario JSON differs from the pinned bytes:\n{}",
        mismatches.join("\n")
    );
}
