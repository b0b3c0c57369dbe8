//! The scenario generator space.
//!
//! A [`Scenario`] is one point in the campaign's composition space: an
//! algorithm, an oversubscription level, a per-run simulation seed, config
//! perturbations (participation, α-spread, cost noise, power phases) and
//! up to four fault layers — agent faults ([`FaultPlan`]), message-layer
//! faults ([`NetPlan`]), sensor faults ([`SensorFaultConfig`]) and
//! storage faults under the durable market ledger ([`DiskPlan`]). A drawn
//! disk layer usually also schedules a mid-run manager kill
//! ([`Scenario::kill_at_frac`]), exercising the checkpoint + ledger-replay
//! recovery path end-to-end. A drawn power-tree shape
//! ([`Scenario::topology`]) routes every overload event through the
//! hierarchical federated market, with inner-level headroom squeezed so
//! UPS/PDU/rack subtrees overload in nested patterns.
//!
//! [`Scenario::generate`] maps `(campaign seed, run index)` to a scenario
//! through an independent ChaCha8 stream per index, so run *k* of campaign
//! seed *s* is always the same scenario — regeneratable without replaying
//! runs 0..k, and safe to draw from any rayon worker in any order.
//!
//! Scenarios serialize to the flat JSON object embedded in repro
//! artifacts; [`Scenario::from_json_value`] inverts the encoding exactly
//! (floats round-trip by shortest representation, seeds as strings).

use std::collections::BTreeMap;

use mpr_core::json::{self, ObjWriter, Value};
use mpr_core::Watts;
use mpr_power::telemetry::SensorFaultConfig;
use mpr_power::{GridFaultPlan, LevelKind, NodeSpec, TopologySpec};
use mpr_sim::{
    Algorithm, CostNoise, DiskPlan, DurabilityPlan, FaultPlan, FsyncPolicy, NetPlan, SimConfig,
    TelemetryConfig,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{SCENARIO_SEED_XOR, SPACE_VERSION};

/// The shrinker's oversubscription resting point: the paper's baseline
/// level, to which [`shrink`](crate::shrink) tries to normalize
/// [`Scenario::oversub_pct`].
pub const DEFAULT_OVERSUB_PCT: f64 = 15.0;

/// A drawn power-tree shape for federated clearing.
///
/// The scenario realizes it as a [`TopologySpec`] whose inner nodes carry
/// `inner_headroom ×` their fair share of the root budget. The simulator
/// rescales the whole tree so the root capacity matches the run's
/// oversubscribed capacity, so headroom near 1.0 squeezes UPS/PDU/rack
/// levels into *nested* overloads (every level clears its own subtree
/// market), while generous headroom leaves the root as the only binding
/// constraint — the flat-equivalent degenerate case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyDraw {
    /// UPS nodes under the root ATS.
    pub ups_count: usize,
    /// PDU nodes under each UPS.
    pub pdus_per_ups: usize,
    /// Rack nodes under each PDU.
    pub racks_per_pdu: usize,
    /// Inner-node capacity as a multiple of its fair share of the root.
    pub inner_headroom: f64,
}

impl TopologyDraw {
    /// Total rack (leaf) count of the drawn tree.
    #[must_use]
    pub fn total_racks(&self) -> usize {
        self.ups_count * self.pdus_per_ups * self.racks_per_pdu
    }

    /// Materializes the draw as a topology spec with nominal root
    /// capacity 1.0 (the simulator rescales it to the run's capacity).
    #[must_use]
    pub fn to_spec(&self) -> TopologySpec {
        let mut nodes = vec![NodeSpec {
            name: "ats".to_owned(),
            kind: LevelKind::Ats,
            capacity: Watts::new(1.0),
            parent: None,
        }];
        let ups_fair = 1.0 / self.ups_count as f64;
        let pdu_fair = ups_fair / self.pdus_per_ups as f64;
        let rack_fair = pdu_fair / self.racks_per_pdu as f64;
        for u in 0..self.ups_count {
            let ups_id = nodes.len();
            nodes.push(NodeSpec {
                name: format!("ups-{u}"),
                kind: LevelKind::Ups,
                capacity: Watts::new(ups_fair * self.inner_headroom),
                parent: Some(0),
            });
            for p in 0..self.pdus_per_ups {
                let pdu_id = nodes.len();
                nodes.push(NodeSpec {
                    name: format!("pdu-{u}-{p}"),
                    kind: LevelKind::Pdu,
                    capacity: Watts::new(pdu_fair * self.inner_headroom),
                    parent: Some(ups_id),
                });
                for r in 0..self.racks_per_pdu {
                    nodes.push(NodeSpec {
                        name: format!("rack-{u}-{p}-{r}"),
                        kind: LevelKind::Rack,
                        capacity: Watts::new(rack_fair * self.inner_headroom),
                        parent: Some(pdu_id),
                    });
                }
            }
        }
        TopologySpec {
            name: format!(
                "chaos-{}x{}x{}",
                self.ups_count, self.pdus_per_ups, self.racks_per_pdu
            ),
            nodes,
        }
    }
}

/// One generated point of the campaign's composition space.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Overload-handling algorithm under test.
    pub algorithm: Algorithm,
    /// Oversubscription level, percent.
    pub oversub_pct: f64,
    /// Per-run simulation seed (profile assignment, fault draws, sensors).
    pub sim_seed: u64,
    /// Market participation fraction.
    pub participation: f64,
    /// α heterogeneity spread.
    pub alpha_spread: f64,
    /// Cost-estimate noise injected into bids.
    pub cost_noise: CostNoise,
    /// Per-job power-phase amplitude (0 disables phases).
    pub phase_amplitude: f64,
    /// Agent-fault mix, when drawn.
    pub fault_plan: Option<FaultPlan>,
    /// Message-layer fault mix, when drawn.
    pub net_plan: Option<NetPlan>,
    /// Sensor-fault mix, when drawn.
    pub sensor: Option<SensorFaultConfig>,
    /// Storage-fault mix injected under the durable market ledger, when
    /// drawn. Presence routes the run through the crash/recover harness
    /// ([`run_durable`](mpr_sim::run_durable)) even without a kill.
    pub disk_plan: Option<DiskPlan>,
    /// Mid-run manager kill point as a fraction of the trace span
    /// (`0.0` = run uninterrupted). The campaign resolves it to a slot
    /// against the trace it generates; usually drawn alongside a disk
    /// plan so recovery replays over a faulty ledger.
    pub kill_at_frac: f64,
    /// Power-tree shape for federated clearing, when drawn. Presence
    /// routes every overload event through the hierarchical market over
    /// the realized [`TopologySpec`] instead of one flat market.
    pub topology: Option<TopologyDraw>,
    /// Infrastructure fault plan over the drawn power tree (UPS failures,
    /// ATS transfers, PDU breaker trips, gradual deratings), when drawn.
    /// Only ever present alongside [`topology`](Self::topology): grid
    /// faults are meaningless without a tree to break.
    pub grid_fault: Option<GridFaultPlan>,
    /// **Test-only.** Journal with the intentionally unsound
    /// [`FsyncPolicy::Never`], which acknowledges slots before they are
    /// durable. Never drawn by [`generate`](Self::generate); planted by
    /// the campaign's seeded-violation mode to prove the
    /// `durability-commit` oracle catches real acknowledgement-loss bugs.
    pub wal_fsync_never: bool,
    /// **Test-only.** Realize the scenario with the emergency FSM disabled
    /// (see [`SimConfig::emergency_disabled`]). Never drawn by
    /// [`generate`](Self::generate); planted by the campaign's
    /// seeded-violation mode to prove the oracles catch a real safety
    /// failure.
    pub emergency_disabled: bool,
    /// **Test-only.** Realize the scenario with dead-subtree fencing
    /// disabled (see [`SimConfig::grid_fencing_disabled`]): grid faults
    /// still derate capacity but jobs stay on their dead racks. Never
    /// drawn by [`generate`](Self::generate); planted by the campaign's
    /// seeded-violation mode to prove the `grid-fencing` oracle catches
    /// power routed through a dead node.
    pub grid_unfenced: bool,
}

impl Scenario {
    /// Generates the scenario for `(campaign_seed, index)`. Deterministic
    /// and order-independent: each index draws from its own ChaCha8 stream.
    #[must_use]
    pub fn generate(campaign_seed: u64, index: u64) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(campaign_seed ^ SCENARIO_SEED_XOR);
        rng.set_stream(index);

        // MPR-INT is over-weighted: it is the only algorithm with per-event
        // agent interaction, so the fault layers only bite there.
        let algorithm = match rng.gen_range(0..6u32) {
            0 => Algorithm::Opt,
            1 => Algorithm::Eql,
            2 => Algorithm::MprStat,
            _ => Algorithm::MprInt,
        };
        let oversub_pct = rng.gen_range(5.0..=30.0f64);
        let sim_seed: u64 = rng.gen();
        let participation = if rng.gen_bool(0.3) {
            rng.gen_range(0.2..1.0f64)
        } else {
            1.0
        };
        let alpha_spread = if rng.gen_bool(0.25) {
            rng.gen_range(0.1..1.0f64)
        } else {
            0.0
        };
        let cost_noise = match rng.gen_range(0..4u32) {
            0 => CostNoise::Random {
                magnitude: rng.gen_range(0.05..0.3f64),
            },
            1 => CostNoise::Underestimate {
                fraction: rng.gen_range(0.05..0.5f64),
            },
            _ => CostNoise::None,
        };
        let phase_amplitude = if rng.gen_bool(0.25) {
            rng.gen_range(0.05..0.3f64)
        } else {
            0.0
        };

        fn frac(rng: &mut ChaCha8Rng, p: f64, hi: f64) -> f64 {
            if rng.gen_bool(p) {
                rng.gen_range(0.05..hi)
            } else {
                0.0
            }
        }
        let fault_plan = rng.gen_bool(0.5).then(|| FaultPlan {
            unresponsive_frac: frac(&mut rng, 0.5, 0.4),
            crash_frac: frac(&mut rng, 0.4, 0.4),
            stale_frac: frac(&mut rng, 0.3, 0.4),
            byzantine_frac: frac(&mut rng, 0.3, 0.4),
            byzantine_factor: rng.gen_range(1.5..6.0f64),
            max_retries: rng.gen_range(1..=3usize),
            watchdog_window: rng.gen_range(4..=12usize),
            divergence_min_change: 0.05,
        });
        let net_plan = rng.gen_bool(0.5).then(|| {
            let min_delay = rng.gen_range(1..=2u64);
            NetPlan {
                drop_prob: if rng.gen_bool(0.6) {
                    rng.gen_range(0.05..0.4f64)
                } else {
                    0.0
                },
                duplicate_prob: if rng.gen_bool(0.3) {
                    rng.gen_range(0.05..0.3f64)
                } else {
                    0.0
                },
                min_delay_ticks: min_delay,
                max_delay_ticks: rng.gen_range(min_delay..=6),
                partition_prob: if rng.gen_bool(0.3) {
                    rng.gen_range(0.02..0.2f64)
                } else {
                    0.0
                },
                partition_ticks: rng.gen_range(4..=32u64),
                deadline_ticks: rng.gen_range(4..=16u64),
                max_attempts: rng.gen_range(1..=4usize),
                quarantine_after_misses: rng.gen_range(1..=5usize),
            }
        });
        let sensor = rng.gen_bool(0.4).then(|| SensorFaultConfig {
            noise_sigma_frac: if rng.gen_bool(0.6) {
                rng.gen_range(0.005..0.08f64)
            } else {
                0.0
            },
            dropout_prob: if rng.gen_bool(0.5) {
                rng.gen_range(0.05..0.5f64)
            } else {
                0.0
            },
            stuck_prob: if rng.gen_bool(0.3) {
                rng.gen_range(0.002..0.02f64)
            } else {
                0.0
            },
            stuck_polls: rng.gen_range(2..=8u32),
            delay_polls: rng.gen_range(0..=2usize),
            spike_prob: if rng.gen_bool(0.3) {
                rng.gen_range(0.005..0.05f64)
            } else {
                0.0
            },
            spike_magnitude_frac: rng.gen_range(0.2..1.0f64),
        });
        // Storage faults live under the market ledger; bit flips are rarer
        // than torn writes (they model silent media corruption rather than
        // a crashed write path) and legitimately truncate acknowledged
        // slots, so the commit oracle waives them.
        let disk_plan = rng.gen_bool(0.4).then(|| DiskPlan {
            torn_write_prob: if rng.gen_bool(0.6) {
                rng.gen_range(0.05..0.4f64)
            } else {
                0.0
            },
            bit_flip_prob: if rng.gen_bool(0.25) {
                rng.gen_range(0.001..0.01f64)
            } else {
                0.0
            },
            fsync_fail_prob: if rng.gen_bool(0.4) {
                rng.gen_range(0.02..0.2f64)
            } else {
                0.0
            },
            capacity_bytes: None,
        });
        // Most disk scenarios also kill the manager mid-run so recovery
        // actually replays the faulty ledger; the rest journal through the
        // faults uninterrupted.
        let kill_at_frac = if disk_plan.is_some() && rng.gen_bool(0.75) {
            rng.gen_range(0.1..0.9f64)
        } else {
            0.0
        };
        // A drawn tree routes overloads through the federated market.
        // Headroom is biased toward the squeezed end so inner levels
        // overload too — the nested-overload scenarios the flat model
        // never exercises — but reaches high enough that the degenerate
        // root-only case stays in the space.
        let topology = rng.gen_bool(0.3).then(|| TopologyDraw {
            ups_count: rng.gen_range(1..=3usize),
            pdus_per_ups: rng.gen_range(1..=2usize),
            racks_per_pdu: rng.gen_range(1..=3usize),
            inner_headroom: rng.gen_range(1.0..2.5f64),
        });
        // Infrastructure faults over the drawn tree (space v4): UPS
        // failures, ATS transfers onto derated feeds, PDU breaker trips
        // and gradual deratings, each repaired on its own schedule. Only
        // drawn when a tree exists, and discarded when every fault class
        // rolled zero (an inactive plan adds nothing to the space).
        let grid_fault = topology
            .is_some()
            .then(|| {
                rng.gen_bool(0.35).then(|| GridFaultPlan {
                    seed: rng.gen(),
                    ups_failure_prob: frac(&mut rng, 0.4, 0.8),
                    ats_derate_prob: frac(&mut rng, 0.4, 0.8),
                    ats_derate_frac: rng.gen_range(0.3..0.9f64),
                    pdu_trip_prob: frac(&mut rng, 0.4, 0.8),
                    derate_prob: frac(&mut rng, 0.4, 0.8),
                    derate_floor: rng.gen_range(0.5..0.95f64),
                    onset_secs: 0.0,
                    window_secs: rng.gen_range(1800.0..14400.0f64),
                    repair_secs: rng.gen_range(900.0..7200.0f64),
                })
            })
            .flatten()
            .filter(GridFaultPlan::is_active);

        Scenario {
            algorithm,
            oversub_pct,
            sim_seed,
            participation,
            alpha_spread,
            cost_noise,
            phase_amplitude,
            fault_plan,
            net_plan,
            sensor,
            disk_plan,
            kill_at_frac,
            topology,
            grid_fault,
            wal_fsync_never: false,
            emergency_disabled: false,
            grid_unfenced: false,
        }
    }

    /// `true` when the scenario must run through the durable-ledger
    /// crash/recover harness rather than the plain simulation loop.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.disk_plan.is_some() || self.kill_at_frac > 0.0 || self.wal_fsync_never
    }

    /// Realizes the scenario as a simulator configuration. The timeline is
    /// always recorded (the cap oracle scans it) and the configuration is
    /// tagged with [`SPACE_VERSION`] so checkpoints written during a
    /// campaign can only be resumed under the same generator space.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.algorithm, self.oversub_pct)
            .with_seed(self.sim_seed)
            .with_participation(self.participation)
            .with_alpha_spread(self.alpha_spread)
            .with_cost_noise(self.cost_noise)
            .with_timeline()
            .with_scenario_space(SPACE_VERSION);
        if self.phase_amplitude > 0.0 {
            cfg = cfg.with_phases(self.phase_amplitude);
        }
        if let Some(p) = self.fault_plan {
            cfg = cfg.with_faults(p);
        }
        if let Some(p) = self.net_plan {
            cfg = cfg.with_net(p);
        }
        if let Some(s) = self.sensor {
            cfg = cfg.with_telemetry(TelemetryConfig::with_faults(s));
        }
        if let Some(t) = self.topology {
            cfg = cfg.with_topology(t.to_spec());
        }
        if let Some(g) = self.grid_fault {
            cfg = cfg.with_grid_faults(g);
        }
        if self.is_durable() {
            // `kill_at_slot` stays unresolved here: the fraction is
            // relative to the trace span, which only the campaign knows
            // (see `campaign::simulate`).
            cfg = cfg.with_durability(DurabilityPlan {
                fsync: if self.wal_fsync_never {
                    FsyncPolicy::Never
                } else {
                    FsyncPolicy::Always
                },
                disk: self.disk_plan,
                ..DurabilityPlan::default()
            });
        }
        if self.emergency_disabled {
            cfg = cfg.with_emergency_disabled();
        }
        if self.grid_unfenced {
            cfg = cfg.with_grid_fencing_disabled();
        }
        cfg
    }

    /// Size metric for the shrinker: the number of non-default components
    /// the scenario carries. Every shrink step removes at least one, so
    /// shrinking strictly decreases this and terminates.
    #[must_use]
    pub fn complexity(&self) -> usize {
        let mut n = 0;
        if let Some(p) = self.fault_plan {
            n += 1; // presence itself
            n += usize::from(p.unresponsive_frac > 0.0);
            n += usize::from(p.crash_frac > 0.0);
            n += usize::from(p.stale_frac > 0.0);
            n += usize::from(p.byzantine_frac > 0.0);
        }
        if let Some(p) = self.net_plan {
            n += 1;
            n += usize::from(p.drop_prob > 0.0);
            n += usize::from(p.duplicate_prob > 0.0);
            n += usize::from(p.partition_prob > 0.0);
            n += usize::from(p.max_delay_ticks > NetPlan::default().max_delay_ticks);
        }
        if let Some(s) = self.sensor {
            n += 1;
            n += usize::from(s.noise_sigma_frac > 0.0);
            n += usize::from(s.dropout_prob > 0.0);
            n += usize::from(s.stuck_prob > 0.0);
            n += usize::from(s.spike_prob > 0.0);
            n += usize::from(s.delay_polls > 0);
        }
        if let Some(p) = self.disk_plan {
            n += 1;
            n += usize::from(p.torn_write_prob > 0.0);
            n += usize::from(p.bit_flip_prob > 0.0);
            n += usize::from(p.fsync_fail_prob > 0.0);
        }
        if let Some(t) = self.topology {
            n += 1; // presence itself
            n += usize::from(t.total_racks() > 1);
        }
        if let Some(g) = self.grid_fault {
            n += 1; // presence itself
            n += usize::from(g.ups_failure_prob > 0.0);
            n += usize::from(g.ats_derate_prob > 0.0);
            n += usize::from(g.pdu_trip_prob > 0.0);
            n += usize::from(g.derate_prob > 0.0);
        }
        n += usize::from(self.kill_at_frac > 0.0);
        n += usize::from(!matches!(self.cost_noise, CostNoise::None));
        n += usize::from(self.alpha_spread > 0.0);
        n += usize::from(self.participation < 1.0);
        n += usize::from(self.phase_amplitude > 0.0);
        n += usize::from((self.oversub_pct - DEFAULT_OVERSUB_PCT).abs() > 0.0);
        n
    }

    /// One-line human description of the scenario's active components.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("{} @ {:.1}%", self.algorithm, self.oversub_pct)];
        if let Some(p) = self.fault_plan.filter(FaultPlan::is_active) {
            parts.push(format!(
                "faults(unresp={:.2},crash={:.2},stale={:.2},byz={:.2})",
                p.unresponsive_frac, p.crash_frac, p.stale_frac, p.byzantine_frac
            ));
        }
        if let Some(p) = self.net_plan.filter(NetPlan::is_active) {
            parts.push(format!(
                "net(drop={:.2},dup={:.2},part={:.2},delay={}..{})",
                p.drop_prob,
                p.duplicate_prob,
                p.partition_prob,
                p.min_delay_ticks,
                p.max_delay_ticks
            ));
        }
        if let Some(s) = self.sensor {
            parts.push(format!(
                "sensor(noise={:.3},drop={:.2},stuck={:.3},spike={:.3})",
                s.noise_sigma_frac, s.dropout_prob, s.stuck_prob, s.spike_prob
            ));
        }
        if let Some(p) = self.disk_plan {
            parts.push(format!(
                "disk(torn={:.2},flip={:.3},fsync-fail={:.2})",
                p.torn_write_prob, p.bit_flip_prob, p.fsync_fail_prob
            ));
        }
        if self.kill_at_frac > 0.0 {
            parts.push(format!("kill@{:.2}", self.kill_at_frac));
        }
        if let Some(t) = self.topology {
            parts.push(format!(
                "tree({}x{}x{},headroom={:.2})",
                t.ups_count, t.pdus_per_ups, t.racks_per_pdu, t.inner_headroom
            ));
        }
        if let Some(g) = self.grid_fault.filter(GridFaultPlan::is_active) {
            parts.push(format!(
                "grid(ups={:.2},ats={:.2},pdu={:.2},derate={:.2},repair={:.0}s)",
                g.ups_failure_prob,
                g.ats_derate_prob,
                g.pdu_trip_prob,
                g.derate_prob,
                g.repair_secs
            ));
        }
        match self.cost_noise {
            CostNoise::None => {}
            CostNoise::Random { magnitude } => parts.push(format!("noise(random,{magnitude:.2})")),
            CostNoise::Underestimate { fraction } => {
                parts.push(format!("noise(under,{fraction:.2})"));
            }
        }
        if self.participation < 1.0 {
            parts.push(format!("participation={:.2}", self.participation));
        }
        if self.alpha_spread > 0.0 {
            parts.push(format!("alpha-spread={:.2}", self.alpha_spread));
        }
        if self.phase_amplitude > 0.0 {
            parts.push(format!("phases={:.2}", self.phase_amplitude));
        }
        if self.wal_fsync_never {
            parts.push("WAL-FSYNC-NEVER".to_owned());
        }
        if self.emergency_disabled {
            parts.push("EMERGENCY-FSM-DISABLED".to_owned());
        }
        if self.grid_unfenced {
            parts.push("GRID-FENCING-DISABLED".to_owned());
        }
        parts.join(" ")
    }

    // -----------------------------------------------------------------------
    // JSON encoding.

    /// Renders the scenario as a JSON object at the given indent level.
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let mut w = ObjWriter::new();
        w.str("algorithm", &self.algorithm.to_string())
            .num("oversub_pct", self.oversub_pct)
            .u64("sim_seed", self.sim_seed)
            .num("participation", self.participation)
            .num("alpha_spread", self.alpha_spread);
        match self.cost_noise {
            CostNoise::None => w.str("cost_noise", "none").num("cost_noise_value", 0.0),
            CostNoise::Random { magnitude } => w
                .str("cost_noise", "random")
                .num("cost_noise_value", magnitude),
            CostNoise::Underestimate { fraction } => w
                .str("cost_noise", "underestimate")
                .num("cost_noise_value", fraction),
        };
        w.num("phase_amplitude", self.phase_amplitude)
            .num("kill_at_frac", self.kill_at_frac)
            .bool("wal_fsync_never", self.wal_fsync_never)
            .bool("emergency_disabled", self.emergency_disabled)
            .bool("grid_unfenced", self.grid_unfenced);
        match self.fault_plan {
            Some(p) => {
                let mut f = ObjWriter::new();
                f.num("unresponsive_frac", p.unresponsive_frac)
                    .num("crash_frac", p.crash_frac)
                    .num("stale_frac", p.stale_frac)
                    .num("byzantine_frac", p.byzantine_frac)
                    .num("byzantine_factor", p.byzantine_factor)
                    .num("max_retries", p.max_retries as f64)
                    .num("watchdog_window", p.watchdog_window as f64)
                    .num("divergence_min_change", p.divergence_min_change);
                w.raw("fault_plan", f.render(indent + 1));
            }
            None => {
                w.raw("fault_plan", "null");
            }
        }
        match self.net_plan {
            Some(p) => {
                let mut f = ObjWriter::new();
                f.num("drop_prob", p.drop_prob)
                    .num("duplicate_prob", p.duplicate_prob)
                    .num("min_delay_ticks", p.min_delay_ticks as f64)
                    .num("max_delay_ticks", p.max_delay_ticks as f64)
                    .num("partition_prob", p.partition_prob)
                    .num("partition_ticks", p.partition_ticks as f64)
                    .num("deadline_ticks", p.deadline_ticks as f64)
                    .num("max_attempts", p.max_attempts as f64)
                    .num("quarantine_after_misses", p.quarantine_after_misses as f64);
                w.raw("net_plan", f.render(indent + 1));
            }
            None => {
                w.raw("net_plan", "null");
            }
        }
        match self.sensor {
            Some(s) => {
                let mut f = ObjWriter::new();
                f.num("noise_sigma_frac", s.noise_sigma_frac)
                    .num("dropout_prob", s.dropout_prob)
                    .num("stuck_prob", s.stuck_prob)
                    .num("stuck_polls", f64::from(s.stuck_polls))
                    .num("delay_polls", s.delay_polls as f64)
                    .num("spike_prob", s.spike_prob)
                    .num("spike_magnitude_frac", s.spike_magnitude_frac);
                w.raw("sensor", f.render(indent + 1));
            }
            None => {
                w.raw("sensor", "null");
            }
        }
        match self.disk_plan {
            Some(p) => {
                let mut f = ObjWriter::new();
                f.num("torn_write_prob", p.torn_write_prob)
                    .num("bit_flip_prob", p.bit_flip_prob)
                    .num("fsync_fail_prob", p.fsync_fail_prob);
                match p.capacity_bytes {
                    Some(cap) => f.num("capacity_bytes", cap as f64),
                    None => f.raw("capacity_bytes", "null"),
                };
                w.raw("disk_plan", f.render(indent + 1));
            }
            None => {
                w.raw("disk_plan", "null");
            }
        }
        match self.topology {
            Some(t) => {
                let mut f = ObjWriter::new();
                f.num("ups_count", t.ups_count as f64)
                    .num("pdus_per_ups", t.pdus_per_ups as f64)
                    .num("racks_per_pdu", t.racks_per_pdu as f64)
                    .num("inner_headroom", t.inner_headroom);
                w.raw("topology", f.render(indent + 1));
            }
            None => {
                w.raw("topology", "null");
            }
        }
        match self.grid_fault {
            Some(g) => {
                let mut f = ObjWriter::new();
                f.u64("seed", g.seed)
                    .num("ups_failure_prob", g.ups_failure_prob)
                    .num("ats_derate_prob", g.ats_derate_prob)
                    .num("ats_derate_frac", g.ats_derate_frac)
                    .num("pdu_trip_prob", g.pdu_trip_prob)
                    .num("derate_prob", g.derate_prob)
                    .num("derate_floor", g.derate_floor)
                    .num("onset_secs", g.onset_secs)
                    .num("window_secs", g.window_secs)
                    .num("repair_secs", g.repair_secs);
                w.raw("grid_fault", f.render(indent + 1));
            }
            None => {
                w.raw("grid_fault", "null");
            }
        }
        w.render(indent)
    }

    /// Decodes a scenario from a parsed JSON object (the inverse of
    /// [`to_json`](Self::to_json)).
    ///
    /// # Errors
    ///
    /// Returns a [`json::ParseError`] naming the missing or mistyped field.
    pub fn from_json_value(v: &Value) -> Result<Scenario, json::ParseError> {
        let obj = v.as_obj().ok_or_else(|| json::ParseError {
            at: 0,
            message: "scenario is not an object".to_owned(),
        })?;
        let algorithm = match json::field(obj, "algorithm")?.as_str() {
            Some("OPT") => Algorithm::Opt,
            Some("EQL") => Algorithm::Eql,
            Some("MPR-STAT") => Algorithm::MprStat,
            Some("MPR-INT") => Algorithm::MprInt,
            Some("VCG") => Algorithm::Vcg,
            _ => {
                return Err(json::ParseError {
                    at: 0,
                    message: "unknown algorithm".to_owned(),
                })
            }
        };
        let cost_noise_value = json::field_num(obj, "cost_noise_value")?;
        let cost_noise = match json::field(obj, "cost_noise")?.as_str() {
            Some("none") => CostNoise::None,
            Some("random") => CostNoise::Random {
                magnitude: cost_noise_value,
            },
            Some("underestimate") => CostNoise::Underestimate {
                fraction: cost_noise_value,
            },
            _ => {
                return Err(json::ParseError {
                    at: 0,
                    message: "unknown cost_noise kind".to_owned(),
                })
            }
        };
        let fault_plan = match json::field(obj, "fault_plan")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "fault_plan")?;
                Some(FaultPlan {
                    unresponsive_frac: json::field_num(f, "unresponsive_frac")?,
                    crash_frac: json::field_num(f, "crash_frac")?,
                    stale_frac: json::field_num(f, "stale_frac")?,
                    byzantine_frac: json::field_num(f, "byzantine_frac")?,
                    byzantine_factor: json::field_num(f, "byzantine_factor")?,
                    max_retries: usize_field(f, "max_retries")?,
                    watchdog_window: usize_field(f, "watchdog_window")?,
                    divergence_min_change: json::field_num(f, "divergence_min_change")?,
                })
            }
        };
        let net_plan = match json::field(obj, "net_plan")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "net_plan")?;
                Some(NetPlan {
                    drop_prob: json::field_num(f, "drop_prob")?,
                    duplicate_prob: json::field_num(f, "duplicate_prob")?,
                    min_delay_ticks: u64_field(f, "min_delay_ticks")?,
                    max_delay_ticks: u64_field(f, "max_delay_ticks")?,
                    partition_prob: json::field_num(f, "partition_prob")?,
                    partition_ticks: u64_field(f, "partition_ticks")?,
                    deadline_ticks: u64_field(f, "deadline_ticks")?,
                    max_attempts: usize_field(f, "max_attempts")?,
                    quarantine_after_misses: usize_field(f, "quarantine_after_misses")?,
                })
            }
        };
        let sensor = match json::field(obj, "sensor")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "sensor")?;
                Some(SensorFaultConfig {
                    noise_sigma_frac: json::field_num(f, "noise_sigma_frac")?,
                    dropout_prob: json::field_num(f, "dropout_prob")?,
                    stuck_prob: json::field_num(f, "stuck_prob")?,
                    stuck_polls: u32_field(f, "stuck_polls")?,
                    delay_polls: usize_field(f, "delay_polls")?,
                    spike_prob: json::field_num(f, "spike_prob")?,
                    spike_magnitude_frac: json::field_num(f, "spike_magnitude_frac")?,
                })
            }
        };
        let disk_plan = match json::field(obj, "disk_plan")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "disk_plan")?;
                Some(DiskPlan {
                    torn_write_prob: json::field_num(f, "torn_write_prob")?,
                    bit_flip_prob: json::field_num(f, "bit_flip_prob")?,
                    fsync_fail_prob: json::field_num(f, "fsync_fail_prob")?,
                    capacity_bytes: match json::field(f, "capacity_bytes")? {
                        Value::Null => None,
                        _ => Some(u64_field(f, "capacity_bytes")?),
                    },
                })
            }
        };
        let topology = match json::field(obj, "topology")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "topology")?;
                let draw = TopologyDraw {
                    ups_count: usize_field(f, "ups_count")?,
                    pdus_per_ups: usize_field(f, "pdus_per_ups")?,
                    racks_per_pdu: usize_field(f, "racks_per_pdu")?,
                    inner_headroom: json::field_num(f, "inner_headroom")?,
                };
                if draw.total_racks() == 0 {
                    return Err(json::ParseError {
                        at: 0,
                        message: "topology fan-out must be positive at every level".to_owned(),
                    });
                }
                Some(draw)
            }
        };
        let grid_fault = match json::field(obj, "grid_fault")? {
            Value::Null => None,
            v => {
                let f = obj_of(v, "grid_fault")?;
                let plan = GridFaultPlan {
                    seed: json::field_u64(f, "seed")?,
                    ups_failure_prob: json::field_num(f, "ups_failure_prob")?,
                    ats_derate_prob: json::field_num(f, "ats_derate_prob")?,
                    ats_derate_frac: json::field_num(f, "ats_derate_frac")?,
                    pdu_trip_prob: json::field_num(f, "pdu_trip_prob")?,
                    derate_prob: json::field_num(f, "derate_prob")?,
                    derate_floor: json::field_num(f, "derate_floor")?,
                    onset_secs: json::field_num(f, "onset_secs")?,
                    window_secs: json::field_num(f, "window_secs")?,
                    repair_secs: json::field_num(f, "repair_secs")?,
                };
                if topology.is_none() {
                    return Err(json::ParseError {
                        at: 0,
                        message: "grid_fault requires a topology".to_owned(),
                    });
                }
                Some(plan)
            }
        };
        Ok(Scenario {
            algorithm,
            oversub_pct: json::field_num(obj, "oversub_pct")?,
            sim_seed: json::field_u64(obj, "sim_seed")?,
            participation: json::field_num(obj, "participation")?,
            alpha_spread: json::field_num(obj, "alpha_spread")?,
            cost_noise,
            phase_amplitude: json::field_num(obj, "phase_amplitude")?,
            fault_plan,
            net_plan,
            sensor,
            disk_plan,
            kill_at_frac: json::field_num(obj, "kill_at_frac")?,
            topology,
            grid_fault,
            wal_fsync_never: json::field_bool(obj, "wal_fsync_never")?,
            emergency_disabled: json::field_bool(obj, "emergency_disabled")?,
            grid_unfenced: json::field_bool(obj, "grid_unfenced")?,
        })
    }
}

fn obj_of<'a>(v: &'a Value, name: &str) -> Result<&'a BTreeMap<String, Value>, json::ParseError> {
    v.as_obj().ok_or_else(|| json::ParseError {
        at: 0,
        message: format!("field `{name}` is not an object"),
    })
}

fn usize_field(obj: &BTreeMap<String, Value>, key: &str) -> Result<usize, json::ParseError> {
    let n = json::field_num(obj, key)?;
    if n < 0.0 || n.fract().abs() > 0.0 {
        return Err(json::ParseError {
            at: 0,
            message: format!("field `{key}` is not a non-negative integer"),
        });
    }
    Ok(n as usize)
}

fn u64_field(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, json::ParseError> {
    usize_field(obj, key).map(|v| v as u64)
}

fn u32_field(obj: &BTreeMap<String, Value>, key: &str) -> Result<u32, json::ParseError> {
    let v = usize_field(obj, key)?;
    u32::try_from(v).map_err(|_| json::ParseError {
        at: 0,
        message: format!("field `{key}` overflows u32"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_index() {
        for i in [0u64, 1, 7, 999] {
            assert_eq!(Scenario::generate(42, i), Scenario::generate(42, i));
        }
        // Different indices and different seeds draw different scenarios.
        assert_ne!(Scenario::generate(42, 0), Scenario::generate(42, 1));
        assert_ne!(Scenario::generate(42, 0), Scenario::generate(43, 0));
    }

    #[test]
    fn generation_is_order_independent() {
        // Drawing index 5 never depends on having drawn 0..5 first.
        let direct = Scenario::generate(7, 5);
        for i in 0..5 {
            let _ = Scenario::generate(7, i);
        }
        assert_eq!(Scenario::generate(7, 5), direct);
    }

    #[test]
    fn space_covers_all_fault_layers() {
        let scenarios: Vec<Scenario> = (0..200).map(|i| Scenario::generate(1, i)).collect();
        assert!(scenarios.iter().any(|s| s.fault_plan.is_some()));
        assert!(scenarios.iter().any(|s| s.net_plan.is_some()));
        assert!(scenarios.iter().any(|s| s.sensor.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.fault_plan.is_some() && s.net_plan.is_some() && s.sensor.is_some()));
        assert!(scenarios.iter().any(|s| s.algorithm == Algorithm::MprInt));
        assert!(scenarios.iter().any(|s| s.algorithm != Algorithm::MprInt));
        // The disk layer is drawn, usually with a kill, sometimes without.
        assert!(scenarios.iter().any(|s| s.disk_plan.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.disk_plan.is_some() && s.kill_at_frac > 0.0));
        assert!(scenarios
            .iter()
            .any(|s| s.disk_plan.is_some() && s.kill_at_frac == 0.0));
        // A kill never appears without the disk layer that motivates it.
        assert!(scenarios
            .iter()
            .all(|s| s.kill_at_frac == 0.0 || s.disk_plan.is_some()));
        // Power trees are drawn — both squeezed multi-rack shapes and the
        // flat (no-tree) majority — and compose with the fault layers.
        assert!(scenarios.iter().any(|s| s.topology.is_some()));
        assert!(scenarios.iter().any(|s| s.topology.is_none()));
        assert!(scenarios
            .iter()
            .any(|s| s.topology.is_some_and(|t| t.total_racks() > 1)));
        assert!(scenarios
            .iter()
            .any(|s| s.topology.is_some() && s.fault_plan.is_some()));
        assert!(scenarios.iter().all(|s| s
            .topology
            .is_none_or(|t| t.total_racks() >= 1 && (1.0..2.5).contains(&t.inner_headroom))));
        // Grid faults are drawn (space v4), always riding on a tree and
        // always with at least one active fault class; trees without grid
        // faults remain the majority.
        assert!(scenarios.iter().any(|s| s.grid_fault.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.topology.is_some() && s.grid_fault.is_none()));
        assert!(scenarios
            .iter()
            .all(|s| s.grid_fault.is_none() || s.topology.is_some()));
        assert!(scenarios
            .iter()
            .all(|s| s.grid_fault.is_none_or(|g| g.is_active())));
        // Grid faults compose with the other fault layers.
        assert!(scenarios.iter().any(|s| s.grid_fault.is_some()
            && (s.fault_plan.is_some() || s.net_plan.is_some() || s.sensor.is_some())));
        // The generator never plants the test-only knobs.
        assert!(scenarios.iter().all(|s| !s.emergency_disabled));
        assert!(scenarios.iter().all(|s| !s.wal_fsync_never));
        assert!(scenarios.iter().all(|s| !s.grid_unfenced));
    }

    #[test]
    fn json_round_trip_is_exact() {
        for i in 0..50 {
            let mut s = Scenario::generate(99, i);
            if i % 2 == 0 {
                s.emergency_disabled = true;
            }
            if i % 3 == 0 {
                s.wal_fsync_never = true;
            }
            if i % 7 == 0 {
                s.disk_plan = Some(DiskPlan {
                    capacity_bytes: Some(1 << 20),
                    ..DiskPlan::default()
                });
            }
            if i % 5 == 0 {
                s.topology = Some(TopologyDraw {
                    ups_count: 2,
                    pdus_per_ups: 1,
                    racks_per_pdu: 3,
                    inner_headroom: 1.0 + i as f64 / 49.0,
                });
                s.grid_fault = Some(GridFaultPlan {
                    seed: 0xdead_beef + i,
                    ups_failure_prob: 0.5,
                    ..GridFaultPlan::default()
                });
                s.grid_unfenced = i % 10 == 0;
            }
            let text = s.to_json(0);
            let back =
                Scenario::from_json_value(&json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, s, "round-trip mismatch at index {i}\n{text}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let s = Scenario::generate(42, 0);
        let text = s.to_json(0);
        let decode = |doc: &str| {
            Scenario::from_json_value(&json::parse(doc).expect("parses")).expect("decodes")
        };
        let repeated_last = format!(
            "{},\n  \"oversub_pct\": 99.0\n}}",
            text.strip_suffix("\n}").expect("object")
        );
        assert_eq!(decode(&repeated_last), s);
        let repeated_first = text.replacen("{\n", "{\n  \"oversub_pct\": 99.0,\n", 1);
        let first = decode(&repeated_first);
        assert_eq!(first.oversub_pct, 99.0);
        assert_eq!(
            Scenario {
                oversub_pct: s.oversub_pct,
                ..first
            },
            s
        );
    }

    #[test]
    fn sim_config_realization() {
        let mut s = Scenario::generate(3, 11);
        s.emergency_disabled = true;
        let cfg = s.sim_config();
        assert_eq!(cfg.algorithm, s.algorithm);
        assert!(cfg.record_timeline, "cap oracle needs the timeline");
        assert_eq!(cfg.scenario_space, Some(SPACE_VERSION));
        assert!(cfg.emergency_disabled);
        assert_eq!(cfg.seed, s.sim_seed);
        assert_eq!(cfg.fault_plan, s.fault_plan);
        assert_eq!(cfg.net_plan, s.net_plan);
        assert_eq!(cfg.durability.is_some(), s.is_durable());
        assert_eq!(cfg.is_federated(), s.topology.is_some());
        s.topology = Some(TopologyDraw {
            ups_count: 2,
            pdus_per_ups: 2,
            racks_per_pdu: 2,
            inner_headroom: 1.1,
        });
        let cfg = s.sim_config();
        assert!(cfg.is_federated());
        assert_eq!(cfg.topology.as_ref().map(|t| t.nodes.len()), Some(15));
    }

    #[test]
    fn topology_draw_realizes_a_valid_nested_tree() {
        let draw = TopologyDraw {
            ups_count: 3,
            pdus_per_ups: 2,
            racks_per_pdu: 2,
            inner_headroom: 1.2,
        };
        assert_eq!(draw.total_racks(), 12);
        let spec = draw.to_spec();
        // 1 ATS + 3 UPS + 6 PDU + 12 racks, in id order with valid parents.
        assert_eq!(spec.nodes.len(), 22);
        let h = spec.to_hierarchy().expect("draws satisfy nesting rules");
        assert_eq!(h.len(), spec.nodes.len());
        assert_eq!(spec.rack_ids().len(), 12);
        // The spec round-trips through the on-disk codec like any other.
        let reparsed = TopologySpec::parse(&spec.to_json()).expect("reparses");
        assert_eq!(spec, reparsed);
        // Inner capacity is headroom × fair share of the unit root.
        let ups_cap = spec.nodes[1].capacity.get();
        assert!((ups_cap - 1.2 / 3.0).abs() < 1e-12, "{ups_cap}");
        // Squeezing headroom changes the tree identity (and so the
        // checkpoint fingerprint the simulator folds in).
        let squeezed = TopologyDraw {
            inner_headroom: 1.0,
            ..draw
        };
        assert_ne!(spec.fingerprint(), squeezed.to_spec().fingerprint());
    }

    #[test]
    fn durable_scenarios_realize_a_durability_plan() {
        let mut s = Scenario::generate(3, 11);
        s.disk_plan = Some(DiskPlan {
            torn_write_prob: 0.2,
            ..DiskPlan::default()
        });
        s.kill_at_frac = 0.5;
        let plan = s.sim_config().durability.expect("durability plan");
        assert_eq!(plan.disk, s.disk_plan);
        assert_eq!(plan.fsync, FsyncPolicy::Always);
        // The slot is resolved by the campaign against the trace span.
        assert_eq!(plan.kill_at_slot, None);
        s.wal_fsync_never = true;
        let plan = s.sim_config().durability.expect("durability plan");
        assert_eq!(plan.fsync, FsyncPolicy::Never);
        // The planted knob alone is enough to route through the ledger.
        s.disk_plan = None;
        s.kill_at_frac = 0.0;
        assert!(s.is_durable());
        s.wal_fsync_never = false;
        assert!(!s.is_durable());
        assert_eq!(s.sim_config().durability, None);
    }

    #[test]
    fn complexity_counts_components() {
        let mut s = Scenario::generate(5, 0);
        s.fault_plan = None;
        s.net_plan = None;
        s.sensor = None;
        s.disk_plan = None;
        s.kill_at_frac = 0.0;
        s.topology = None;
        s.cost_noise = CostNoise::None;
        s.alpha_spread = 0.0;
        s.participation = 1.0;
        s.phase_amplitude = 0.0;
        s.oversub_pct = 15.0;
        assert_eq!(s.complexity(), 0);
        s.fault_plan = Some(FaultPlan::unresponsive_and_crash(0.3, 0.1));
        assert_eq!(s.complexity(), 3, "presence + two nonzero fracs");
        s.oversub_pct = 20.0;
        assert_eq!(s.complexity(), 4);
        s.disk_plan = Some(DiskPlan {
            torn_write_prob: 0.2,
            fsync_fail_prob: 0.1,
            ..DiskPlan::default()
        });
        assert_eq!(s.complexity(), 7, "presence + two nonzero fault probs");
        s.kill_at_frac = 0.5;
        assert_eq!(s.complexity(), 8);
        s.topology = Some(TopologyDraw {
            ups_count: 1,
            pdus_per_ups: 1,
            racks_per_pdu: 1,
            inner_headroom: 1.5,
        });
        assert_eq!(s.complexity(), 9, "single-branch tree counts presence");
        s.topology = Some(TopologyDraw {
            ups_count: 2,
            pdus_per_ups: 1,
            racks_per_pdu: 2,
            inner_headroom: 1.5,
        });
        assert_eq!(s.complexity(), 10, "fan-out adds one more component");
        s.grid_fault = Some(GridFaultPlan {
            ups_failure_prob: 0.6,
            pdu_trip_prob: 0.2,
            ..GridFaultPlan::default()
        });
        assert_eq!(
            s.complexity(),
            13,
            "grid presence + two active fault classes"
        );
    }

    #[test]
    fn describe_mentions_active_layers() {
        let mut s = Scenario::generate(1, 0);
        s.fault_plan = Some(FaultPlan::unresponsive_and_crash(0.3, 0.1));
        s.disk_plan = Some(DiskPlan {
            torn_write_prob: 0.2,
            ..DiskPlan::default()
        });
        s.kill_at_frac = 0.5;
        s.topology = Some(TopologyDraw {
            ups_count: 2,
            pdus_per_ups: 1,
            racks_per_pdu: 3,
            inner_headroom: 1.25,
        });
        s.wal_fsync_never = true;
        s.emergency_disabled = true;
        s.grid_fault = Some(GridFaultPlan {
            ups_failure_prob: 0.75,
            repair_secs: 1800.0,
            ..GridFaultPlan::default()
        });
        s.grid_unfenced = true;
        let d = s.describe();
        assert!(d.contains("faults("), "{d}");
        assert!(d.contains("disk(torn=0.20"), "{d}");
        assert!(d.contains("kill@0.50"), "{d}");
        assert!(d.contains("tree(2x1x3,headroom=1.25)"), "{d}");
        assert!(d.contains("grid(ups=0.75"), "{d}");
        assert!(d.contains("repair=1800s"), "{d}");
        assert!(d.contains("WAL-FSYNC-NEVER"), "{d}");
        assert!(d.contains("EMERGENCY-FSM-DISABLED"), "{d}");
        assert!(d.contains("GRID-FENCING-DISABLED"), "{d}");
    }
}
