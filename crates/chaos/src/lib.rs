//! # mpr-chaos — the fuzzing-campaign harness
//!
//! The paper's central safety claim is that market-based oversubscription
//! never leaves the power cap unenforced, even under adversarial demand.
//! Hand-written fault scenarios exercise single points of that claim; this
//! crate exercises the *composition space*: every campaign run draws a
//! random [`Scenario`] — an algorithm, an oversubscription level, a
//! [`FaultPlan`](mpr_sim::FaultPlan) × [`NetPlan`](mpr_sim::NetPlan) ×
//! sensor-fault × [`DiskPlan`](mpr_sim::DiskPlan)-under-the-ledger mix,
//! an optional mid-run kill/recover point, an optional power-tree shape
//! ([`TopologyDraw`]) that routes overloads through the hierarchical
//! federated market with nested inner-level overloads, an optional
//! infrastructure fault plan
//! ([`GridFaultPlan`](mpr_power::GridFaultPlan), space v4) that fails
//! UPSes, trips PDU breakers and derates feeds over the drawn tree, and
//! config perturbations —
//! from a seeded ChaCha8 generator space, simulates it, and checks a
//! registry of safety-invariant [`oracles`](oracle) on the resulting
//! [`SimReport`](mpr_sim::SimReport).
//!
//! The pipeline (see `DESIGN.md` §13):
//!
//! 1. **Generate** — [`Scenario::generate`] maps `(campaign seed, run
//!    index)` to a scenario via an independent ChaCha8 stream per index,
//!    so any run can be regenerated without replaying the campaign.
//! 2. **Fan out** — [`campaign::run`] simulates runs in parallel with
//!    rayon: sequential *within* a run, parallel *across* runs, and
//!    bit-identical for a given seed regardless of the worker count.
//! 3. **Check** — every report passes through [`oracle::registry`]:
//!    power-cap enforcement, degradation-ladder monotonicity, accounting
//!    conservation, finite non-negative prices,
//!    quarantine-implies-stragglers, federated residual conservation
//!    over drawn power trees, the grid trio (no power through dead
//!    nodes, derated capacities respected, post-repair clearing
//!    bit-identical to the healthy baseline), the durability trio
//!    (acknowledged-slot retention, exactly-once ledger payments,
//!    replay convergence — see `DESIGN.md` §14), and no-panic (each run
//!    is wrapped in `catch_unwind` as a backstop — `mpr-lint`'s L3
//!    panic-freedom rule covers `mpr-sim` so the backstop should never
//!    fire).
//! 4. **Shrink** — a violating scenario is delta-debugged
//!    ([`shrink::shrink`]) to a minimal plan that still reproduces the
//!    same oracle's violation, and emitted as a self-contained JSON repro
//!    artifact plus the exact `mpr chaos --replay` command line.
//!
//! The generator space is versioned ([`SPACE_VERSION`]); the version is
//! folded into every scenario's checkpoint fingerprint via
//! [`SimConfig::with_scenario_space`](mpr_sim::SimConfig), so checkpoints
//! written by one campaign generation can never be resumed under another.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use campaign::{run, CampaignConfig, CampaignReport, Failure, RunRecord};
pub use oracle::{registry, Oracle, Violation};
pub use scenario::{Scenario, TopologyDraw};

/// Version of the scenario generator space. Bump whenever
/// [`Scenario::generate`]'s draw sequence or ranges change: the version is
/// folded into scenario checkpoint fingerprints, so a resumed campaign
/// rejects checkpoints from a mismatched generator instead of silently
/// regenerating different scenarios under the same seed.
pub const SPACE_VERSION: u32 = 4;

/// Stream separator folded into the campaign seed before scenario draws,
/// so scenario RNG streams can never collide with the simulator's own
/// seed-derived streams ("chao" ++ bad-seed).
pub(crate) const SCENARIO_SEED_XOR: u64 = 0x6368_616f_0bad_5eed;
