//! Simulation configuration.

use std::sync::Arc;

use mpr_apps::AppProfile;
use mpr_power::telemetry::{EstimatorConfig, SensorFaultConfig};
use mpr_power::{CapacityPolicy, GridFaultPlan, PowerModel, TopologySpec};

/// The overload-handling algorithm under evaluation (Section IV-A,
/// "Benchmark algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Centralized optimum: the manager knows every job's true cost model.
    Opt,
    /// Performance-oblivious uniform slowdown.
    Eql,
    /// MPR with static (submission-time, cooperative) bids.
    MprStat,
    /// MPR with iterative price/bid exchange.
    MprInt,
    /// Truthful pivot auction (Section III-D): allocates like OPT and pays
    /// each contributor its VCG payment. O(M²) in the number of
    /// participants — an extension beyond the paper's four benchmarks, not
    /// part of [`Algorithm::all`].
    Vcg,
}

impl Algorithm {
    /// The paper's four benchmark algorithms in plotting order. [`Vcg`] is
    /// an extension and deliberately excluded.
    ///
    /// [`Vcg`]: Algorithm::Vcg
    #[must_use]
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprStat,
            Algorithm::MprInt,
        ]
    }

    /// Whether this algorithm runs a market (and hence pays rewards).
    #[must_use]
    pub fn is_market(&self) -> bool {
        matches!(
            self,
            Algorithm::MprStat | Algorithm::MprInt | Algorithm::Vcg
        )
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Opt => write!(f, "OPT"),
            Algorithm::Eql => write!(f, "EQL"),
            Algorithm::MprStat => write!(f, "MPR-STAT"),
            Algorithm::MprInt => write!(f, "MPR-INT"),
            Algorithm::Vcg => write!(f, "VCG"),
        }
    }
}

/// Error injected into the cost models users bid from (Fig. 13). The
/// *true* cost accounting is always noise-free; noise only distorts bids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostNoise {
    /// Users know their costs exactly.
    None,
    /// Zero-mean multiplicative error, factor uniform in `[1−m, 1+m]`.
    Random {
        /// Error magnitude `m` (paper studies up to 0.3).
        magnitude: f64,
    },
    /// Systematic underestimation by the given fraction.
    Underestimate {
        /// Fraction by which users under-believe their costs.
        fraction: f64,
    },
}

/// Fault mix injected into the market agents of each overload event.
///
/// Fractions select how many participating agents are wrapped in the
/// corresponding faulty adapter (`mpr_core::market::faults`), drawn
/// deterministically per overload event from the simulation seed. Only
/// MPR-INT consults the plan — the other algorithms have no per-event agent
/// interaction to disrupt — and a plan with all-zero rates is equivalent to
/// no plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Fraction of participating agents that stop answering price
    /// announcements (quarantined after the retry budget).
    pub unresponsive_frac: f64,
    /// Fraction of agents that crash permanently after their first answer.
    pub crash_frac: f64,
    /// Fraction of agents that freeze and replay their first bid.
    pub stale_frac: f64,
    /// Fraction of agents that over/under-bid byzantinely.
    pub byzantine_frac: f64,
    /// Over/under-bidding factor for byzantine agents (oscillating).
    pub byzantine_factor: f64,
    /// Per-agent per-round retry budget before quarantine.
    pub max_retries: usize,
    /// Convergence-watchdog window, rounds.
    pub watchdog_window: usize,
    /// Relative price change under which a round counts as converging.
    pub divergence_min_change: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            unresponsive_frac: 0.0,
            crash_frac: 0.0,
            stale_frac: 0.0,
            byzantine_frac: 0.0,
            byzantine_factor: 4.0,
            max_retries: 2,
            watchdog_window: 8,
            divergence_min_change: 0.05,
        }
    }
}

impl FaultPlan {
    /// A plan injecting the given fractions of unresponsive and crashing
    /// agents (the robustness experiment's canonical mix).
    #[must_use]
    pub fn unresponsive_and_crash(unresponsive_frac: f64, crash_frac: f64) -> Self {
        Self {
            unresponsive_frac: unresponsive_frac.clamp(0.0, 1.0),
            crash_frac: crash_frac.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// `true` when at least one fault rate is positive.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.unresponsive_frac > 0.0
            || self.crash_frac > 0.0
            || self.stale_frac > 0.0
            || self.byzantine_frac > 0.0
    }
}

/// Message-layer fault plan for the MPR-INT bid transport.
///
/// When active, every interactive clearing runs over a seeded
/// [`SimNet`](mpr_core::SimNet) virtual-time network instead of the
/// in-process perfect channel: price announcements and bid replies are
/// dropped, delayed, duplicated and partitioned deterministically from the
/// simulation seed, and the manager applies its deadline/retry/straggler
/// policy. Only MPR-INT consults the plan — the other algorithms exchange
/// no per-event messages — and a plan with all-zero fault rates and zero
/// delay is equivalent to no plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPlan {
    /// Probability a message (either direction) is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate_prob: f64,
    /// Minimum in-flight latency, virtual ticks.
    pub min_delay_ticks: u64,
    /// Maximum in-flight latency, virtual ticks.
    pub max_delay_ticks: u64,
    /// Per-announcement probability the destination agent becomes
    /// unreachable (black-holed) for [`NetPlan::partition_ticks`].
    pub partition_prob: f64,
    /// Duration of a network partition, virtual ticks.
    pub partition_ticks: u64,
    /// Manager-side round deadline, virtual ticks.
    pub deadline_ticks: u64,
    /// Announcement attempts per agent per round (1 = no retransmits).
    pub max_attempts: usize,
    /// Consecutive missed rounds before an agent is quarantined.
    pub quarantine_after_misses: usize,
}

impl Default for NetPlan {
    fn default() -> Self {
        let t = mpr_core::TransportConfig::default();
        let f = mpr_core::NetFaultConfig::default();
        Self {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            min_delay_ticks: f.min_delay_ticks,
            max_delay_ticks: f.max_delay_ticks,
            partition_prob: 0.0,
            partition_ticks: f.partition_ticks,
            deadline_ticks: t.deadline_ticks,
            max_attempts: t.retry.max_attempts,
            quarantine_after_misses: t.quarantine_after_misses,
        }
    }
}

impl NetPlan {
    /// A plan dropping the given fraction of messages (the chaos matrix's
    /// canonical lossy network).
    #[must_use]
    pub fn lossy(drop_prob: f64) -> Self {
        Self {
            drop_prob: drop_prob.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// `true` when the plan perturbs the channel at all (any fault rate
    /// positive or any latency above the default single tick).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.partition_prob > 0.0
            || self.max_delay_ticks > mpr_core::NetFaultConfig::default().max_delay_ticks
    }

    /// The channel-side fault configuration this plan describes.
    #[must_use]
    pub fn fault_config(&self) -> mpr_core::NetFaultConfig {
        mpr_core::NetFaultConfig {
            drop_prob: self.drop_prob.clamp(0.0, 1.0),
            duplicate_prob: self.duplicate_prob.clamp(0.0, 1.0),
            min_delay_ticks: self.min_delay_ticks.min(self.max_delay_ticks),
            max_delay_ticks: self.max_delay_ticks.max(self.min_delay_ticks),
            partition_prob: self.partition_prob.clamp(0.0, 1.0),
            partition_ticks: self.partition_ticks,
        }
    }

    /// The manager-side deadline/retry/quarantine policy this plan
    /// describes, jittered from `jitter_seed`.
    #[must_use]
    pub fn transport_config(&self, jitter_seed: u64) -> mpr_core::TransportConfig {
        mpr_core::TransportConfig {
            deadline_ticks: self.deadline_ticks.max(1),
            retry: mpr_core::RetryPolicy {
                max_attempts: self.max_attempts.max(1),
                ..mpr_core::RetryPolicy::default()
            },
            quarantine_after_misses: self.quarantine_after_misses.max(1),
            jitter_seed,
        }
    }
}

/// Telemetry pipeline configuration: a sensor fault mix layered over the
/// true power, and the robust estimator that digests the faulty feed.
///
/// When installed, the emergency controller is driven by the estimator's
/// conservative **upper bound** instead of true power — the simulation
/// then studies the reactive loop under realistic measurement error. The
/// sensor's fault processes are seeded from the simulation seed, so runs
/// reproduce bit-for-bit. `None` (the default) keeps the paper's ideal
/// measurement assumption and the engine's historical behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryConfig {
    /// The sensor fault mix (noise, dropout, stuck, delay, spikes).
    pub sensor: SensorFaultConfig,
    /// Robust-estimator tuning (window, EWMA, outlier gate, margins).
    pub estimator: EstimatorConfig,
}

impl TelemetryConfig {
    /// A pipeline with the given fault mix and default estimator tuning.
    #[must_use]
    pub fn with_faults(sensor: SensorFaultConfig) -> Self {
        Self {
            sensor,
            ..Self::default()
        }
    }
}

/// Storage-fault plan for the write-ahead market ledger: the disk sibling
/// of [`FaultPlan`] (agents), [`NetPlan`] (messages) and the sensor fault
/// mix (telemetry). Probabilities are per storage operation; all faults are
/// drawn from a ChaCha8 stream seeded with
/// `seed ^ mpr_durable::DISK_SEED_XOR`, so runs reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskPlan {
    /// Probability an append is torn mid-frame.
    pub torn_write_prob: f64,
    /// Probability an append suffers a silent single-bit flip.
    pub bit_flip_prob: f64,
    /// Probability an fsync fails, leaving recent appends volatile.
    pub fsync_fail_prob: f64,
    /// Optional device capacity in bytes (ENOSPC beyond it).
    pub capacity_bytes: Option<u64>,
}

impl Default for DiskPlan {
    fn default() -> Self {
        Self {
            torn_write_prob: 0.0,
            bit_flip_prob: 0.0,
            fsync_fail_prob: 0.0,
            capacity_bytes: None,
        }
    }
}

impl DiskPlan {
    /// `true` when at least one fault class can fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.torn_write_prob > 0.0
            || self.bit_flip_prob > 0.0
            || self.fsync_fail_prob > 0.0
            || self.capacity_bytes.is_some()
    }

    /// The storage-side fault configuration this plan describes.
    #[must_use]
    pub fn fault_config(&self) -> mpr_durable::DiskFaultConfig {
        mpr_durable::DiskFaultConfig {
            torn_write_prob: self.torn_write_prob.clamp(0.0, 1.0),
            bit_flip_prob: self.bit_flip_prob.clamp(0.0, 1.0),
            fsync_fail_prob: self.fsync_fail_prob.clamp(0.0, 1.0),
            capacity_bytes: self.capacity_bytes,
        }
    }
}

/// Crash-durability plan: journal every market event to a write-ahead
/// ledger, optionally over a faulty disk, optionally killing the manager at
/// a scripted slot and recovering it from checkpoint + ledger replay.
///
/// `None` (the default) keeps the engine's historical in-memory behavior
/// exactly. The plan is folded into the checkpoint fingerprint: resuming a
/// journaled run under a different durability configuration is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityPlan {
    /// When the ledger fsyncs relative to appends.
    /// [`FsyncPolicy::Never`](mpr_durable::FsyncPolicy::Never) is the
    /// intentionally unsound policy used by the chaos planted-bug
    /// self-test.
    pub fsync: mpr_durable::FsyncPolicy,
    /// Storage faults injected under the ledger (`None` = perfect disk).
    pub disk: Option<DiskPlan>,
    /// Kill the manager at the start of this slot and recover it from the
    /// latest checkpoint plus ledger replay (`None` = run uninterrupted).
    pub kill_at_slot: Option<u64>,
    /// Checkpoint cadence in slots for the crash/recover harness.
    pub checkpoint_every: u64,
    /// Supervisor restart budget before escalating to safe mode.
    pub max_restarts: u32,
}

impl Default for DurabilityPlan {
    fn default() -> Self {
        Self {
            fsync: mpr_durable::FsyncPolicy::Always,
            disk: None,
            kill_at_slot: None,
            checkpoint_every: 16,
            max_restarts: 3,
        }
    }
}

impl DurabilityPlan {
    /// A plan that kills the manager at `slot` and expects bit-identical
    /// recovery (the kill/recover matrix's canonical shape).
    #[must_use]
    pub fn kill_at(slot: u64) -> Self {
        Self {
            kill_at_slot: Some(slot),
            ..Self::default()
        }
    }

    /// `true` when the plan perturbs the run at all (scripted kill or an
    /// active disk-fault plan); a pure always-fsync journal is passive.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.kill_at_slot.is_some() || self.disk.map(|d| d.is_active()).unwrap_or(false)
    }
}

/// Full simulation configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Overload-handling algorithm.
    pub algorithm: Algorithm,
    /// Oversubscription level in percent (5/10/15/20 in Figs. 8–15).
    pub oversubscription_pct: f64,
    /// Slot length in seconds (paper: one-minute slots).
    pub slot_secs: f64,
    /// Per-core power model.
    pub power_model: PowerModel,
    /// Reduction-target buffer (paper: 0.01).
    pub buffer_frac: f64,
    /// Emergency cool-down in seconds (paper: 600).
    pub cooldown_secs: f64,
    /// Fraction of users participating in the market (Fig. 12). Non-market
    /// algorithms ignore this.
    pub participation: f64,
    /// Users' perceived-cost coefficient `α` (Eqn. 6).
    pub alpha: f64,
    /// Heterogeneity of `α` across users: each job's coefficient is drawn
    /// uniformly from `[alpha, alpha·(1+alpha_spread)]`. Zero (the paper's
    /// setting) gives every user the same α; positive values model users
    /// who value their performance differently (Section III-C).
    pub alpha_spread: f64,
    /// Error in the users' cost estimates (Fig. 13).
    pub cost_noise: CostNoise,
    /// Application profiles assigned uniformly at random to jobs.
    pub profiles: Vec<Arc<AppProfile>>,
    /// RNG seed for profile assignment, participation and noise.
    pub seed: u64,
    /// Maximum MPR-INT rounds before the manager's timeout fires.
    pub int_max_iterations: usize,
    /// Optional time-varying capacity (demand response, carbon caps — see
    /// `mpr-grid`). `None` uses the fixed oversubscribed capacity.
    pub capacity_policy: Option<Arc<dyn CapacityPolicy>>,
    /// Record the per-slot power/capacity/price timeline in the report
    /// (needed for timeline figures and carbon accounting).
    pub record_timeline: bool,
    /// Fixed capacity in watts, overriding the peak-derived
    /// `peak·100/(100+x)` (used by partitioned simulations that share one
    /// infrastructure budget across power domains).
    pub capacity_watts_override: Option<f64>,
    /// Amplitude of per-job power phases in `[0, 1)`: each job's dynamic
    /// power oscillates by ±this fraction around nominal ("HPC jobs also go
    /// through different phases that consume different amounts of power",
    /// Section I). Zero disables phases (the paper's simulation setting).
    pub phase_amplitude: f64,
    /// Period of the per-job power phases, seconds.
    pub phase_period_secs: f64,
    /// Faults injected into market agents per overload event (`None`
    /// disables injection). MPR-INT runs its resilient degradation chain
    /// when a plan is active.
    pub fault_plan: Option<FaultPlan>,
    /// Sensor-fault telemetry pipeline (`None` reads true power directly,
    /// the paper's idealized setting).
    pub telemetry: Option<TelemetryConfig>,
    /// Message-layer faults for the MPR-INT bid transport (`None` keeps the
    /// in-process perfect channel). MPR-INT runs its transported degradation
    /// chain when a plan is active.
    pub net_plan: Option<NetPlan>,
    /// **Test-only.** Disables the emergency state machine entirely: power
    /// is measured but never acted on — no declarations, no reductions, no
    /// events. Exists so the chaos harness (`mpr-chaos`) can plant a known
    /// safety violation and prove its oracles catch it; never set in
    /// production configurations.
    pub emergency_disabled: bool,
    /// Crash-durability plan: WAL journaling, disk faults, scripted kills
    /// and supervised recovery (`None` keeps the historical in-memory
    /// behavior exactly). Consumed by `mpr_sim::ledger`; the engine itself
    /// only journals when the ledger harness asks it to.
    pub durability: Option<DurabilityPlan>,
    /// Version of the chaos generator space that produced this
    /// configuration, when it came from an `mpr-chaos` campaign scenario
    /// (`None` for hand-built configs). Folded into the checkpoint
    /// fingerprint so a campaign resumed under a different generator-space
    /// version is rejected instead of silently diverging.
    pub scenario_space: Option<u32>,
    /// Power-tree topology for federated clearing: overload events clear
    /// through the hierarchical federated market (one subtree market per
    /// oversubscribed node) instead of one flat market. `None` keeps the
    /// flat single-constraint model. The spec's capacities are scaled so the
    /// root matches the run's oversubscribed capacity; its fingerprint is
    /// folded into the checkpoint fingerprint, so a run can only resume
    /// under the identical tree.
    pub topology: Option<TopologySpec>,
    /// Infrastructure faults over the power tree: UPS failures, derated
    /// ATS transfers, PDU breaker trips and gradual deratings with
    /// scheduled repairs (see [`GridFaultPlan`]). The schedule is a pure
    /// function of the plan and topology, so no fault state is
    /// checkpointed — only the plan itself is folded into the checkpoint
    /// fingerprint. Requires [`SimConfig::topology`]; ignored without it.
    pub grid_fault: Option<GridFaultPlan>,
    /// **Test-only.** Disables dead-subtree fencing in federated clearing:
    /// faults still derate the system budget, but jobs stay assigned to
    /// their (possibly dead) racks and the full healthy tree is cleared.
    /// Exists so the chaos harness can plant a known fencing violation
    /// and prove the grid-fencing oracle catches it; never set in
    /// production configurations.
    pub grid_fencing_disabled: bool,
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("algorithm", &self.algorithm)
            .field("oversubscription_pct", &self.oversubscription_pct)
            .field("slot_secs", &self.slot_secs)
            .field("participation", &self.participation)
            .field("alpha", &self.alpha)
            .field("cost_noise", &self.cost_noise)
            .field("profiles", &self.profiles.len())
            .field("seed", &self.seed)
            .field("capacity_policy", &self.capacity_policy.is_some())
            .field("record_timeline", &self.record_timeline)
            .field("fault_plan", &self.fault_plan)
            .field("telemetry", &self.telemetry)
            .field("net_plan", &self.net_plan)
            .field("emergency_disabled", &self.emergency_disabled)
            .field("durability", &self.durability)
            .field("scenario_space", &self.scenario_space)
            .field("topology", &self.topology.as_ref().map(|t| t.name.as_str()))
            .field("grid_fault", &self.grid_fault)
            .field("grid_fencing_disabled", &self.grid_fencing_disabled)
            .finish()
    }
}

impl SimConfig {
    /// Canonical configuration for an algorithm at an oversubscription
    /// level: 1-minute slots, paper power model, 1 % buffer, 10-minute
    /// cool-down, full participation, `α = 1`, no cost noise, the 8 CPU
    /// profiles.
    #[must_use]
    pub fn new(algorithm: Algorithm, oversubscription_pct: f64) -> Self {
        Self {
            algorithm,
            oversubscription_pct,
            slot_secs: 60.0,
            power_model: PowerModel::paper(),
            buffer_frac: 0.01,
            cooldown_secs: 600.0,
            participation: 1.0,
            alpha: 1.0,
            alpha_spread: 0.0,
            cost_noise: CostNoise::None,
            profiles: mpr_apps::cpu_profiles(),
            seed: 0x6d70_7221,
            int_max_iterations: 60,
            capacity_policy: None,
            record_timeline: false,
            capacity_watts_override: None,
            phase_amplitude: 0.0,
            phase_period_secs: 1800.0,
            fault_plan: None,
            telemetry: None,
            net_plan: None,
            emergency_disabled: false,
            durability: None,
            scenario_space: None,
            topology: None,
            grid_fault: None,
            grid_fencing_disabled: false,
        }
    }

    /// Sets the α heterogeneity spread.
    #[must_use]
    pub fn with_alpha_spread(mut self, spread: f64) -> Self {
        self.alpha_spread = spread.max(0.0);
        self
    }

    /// Enables per-job power phases with the given amplitude.
    #[must_use]
    pub fn with_phases(mut self, amplitude: f64) -> Self {
        self.phase_amplitude = amplitude.clamp(0.0, 0.99);
        self
    }

    /// Installs a time-varying capacity policy (see `mpr-grid`).
    #[must_use]
    pub fn with_capacity_policy(mut self, policy: Arc<dyn CapacityPolicy>) -> Self {
        self.capacity_policy = Some(policy);
        self
    }

    /// Enables per-slot timeline recording in the report.
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Replaces the profile pool (e.g. the GPU profiles for Fig. 15).
    #[must_use]
    pub fn with_profiles(mut self, profiles: Vec<Arc<AppProfile>>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Sets market participation (Fig. 12).
    #[must_use]
    pub fn with_participation(mut self, participation: f64) -> Self {
        self.participation = participation.clamp(0.0, 1.0);
        self
    }

    /// Sets the cost-estimate noise (Fig. 13).
    #[must_use]
    pub fn with_cost_noise(mut self, noise: CostNoise) -> Self {
        self.cost_noise = noise;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a sensor-fault telemetry pipeline (see [`TelemetryConfig`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Installs a message-layer fault plan for the bid transport (see
    /// [`NetPlan`]).
    #[must_use]
    pub fn with_net(mut self, plan: NetPlan) -> Self {
        self.net_plan = Some(plan);
        self
    }

    /// Installs a crash-durability plan (see [`DurabilityPlan`]).
    #[must_use]
    pub fn with_durability(mut self, plan: DurabilityPlan) -> Self {
        self.durability = Some(plan);
        self
    }

    /// **Test-only.** Disables the emergency state machine (see
    /// [`SimConfig::emergency_disabled`]).
    #[must_use]
    pub fn with_emergency_disabled(mut self) -> Self {
        self.emergency_disabled = true;
        self
    }

    /// Tags the configuration with the chaos generator-space version that
    /// produced it (see [`SimConfig::scenario_space`]).
    #[must_use]
    pub fn with_scenario_space(mut self, version: u32) -> Self {
        self.scenario_space = Some(version);
        self
    }

    /// Installs a power-tree topology, which clears overload events
    /// through the federated market over it (see [`SimConfig::topology`]).
    #[must_use]
    pub fn with_topology(mut self, spec: TopologySpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Installs an infrastructure fault plan over the power tree (see
    /// [`GridFaultPlan`]). Only consulted when a topology is present.
    #[must_use]
    pub fn with_grid_faults(mut self, plan: GridFaultPlan) -> Self {
        self.grid_fault = Some(plan);
        self
    }

    /// **Test-only.** Disables dead-subtree fencing (see
    /// [`SimConfig::grid_fencing_disabled`]).
    #[must_use]
    pub fn with_grid_fencing_disabled(mut self) -> Self {
        self.grid_fencing_disabled = true;
        self
    }

    /// `true` when overload events clear through the hierarchical
    /// federated market (a topology is present).
    #[must_use]
    pub fn is_federated(&self) -> bool {
        self.topology.is_some()
    }

    /// The grid-fault plan in force: present, active, and backed by a
    /// federated topology to act on.
    #[must_use]
    pub fn active_grid_fault(&self) -> Option<GridFaultPlan> {
        match self.grid_fault {
            Some(plan) if plan.is_active() && self.is_federated() => Some(plan),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_plan_activity_and_derived_configs() {
        assert!(!NetPlan::default().is_active());
        let plan = NetPlan::lossy(0.3);
        assert!(plan.is_active());
        assert!((plan.drop_prob - 0.3).abs() < 1e-12);
        assert!(NetPlan::lossy(2.0).drop_prob <= 1.0);
        // Delay-only plans are active too: reordering without loss.
        let slow = NetPlan {
            max_delay_ticks: 4,
            ..NetPlan::default()
        };
        assert!(slow.is_active());
        let fc = slow.fault_config();
        assert!(fc.min_delay_ticks <= fc.max_delay_ticks);
        let tc = plan.transport_config(42);
        assert_eq!(tc.jitter_seed, 42);
        assert!(tc.deadline_ticks >= 1);
        assert!(tc.retry.max_attempts >= 1);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_net(plan);
        assert_eq!(cfg.net_plan, Some(plan));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Algorithm::Opt.to_string(), "OPT");
        assert_eq!(Algorithm::Eql.to_string(), "EQL");
        assert_eq!(Algorithm::MprStat.to_string(), "MPR-STAT");
        assert_eq!(Algorithm::MprInt.to_string(), "MPR-INT");
    }

    #[test]
    fn market_flag() {
        assert!(Algorithm::MprStat.is_market());
        assert!(Algorithm::MprInt.is_market());
        assert!(Algorithm::Vcg.is_market());
        assert!(!Algorithm::Opt.is_market());
        assert!(!Algorithm::Eql.is_market());
        // VCG is an extension, not one of the paper's four benchmarks.
        assert_eq!(Algorithm::all().len(), 4);
        assert!(!Algorithm::all().contains(&Algorithm::Vcg));
        assert_eq!(Algorithm::Vcg.to_string(), "VCG");
    }

    #[test]
    fn builder_methods() {
        let c = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_participation(1.5)
            .with_seed(9)
            .with_cost_noise(CostNoise::Random { magnitude: 0.3 })
            .with_profiles(mpr_apps::gpu_profiles());
        assert_eq!(c.participation, 1.0, "participation is clamped");
        assert_eq!(c.seed, 9);
        assert!(matches!(c.cost_noise, CostNoise::Random { .. }));
        assert_eq!(c.profiles.len(), 6);
        assert_eq!(c.oversubscription_pct, 15.0);
    }

    #[test]
    fn fault_plan_builder() {
        assert!(!FaultPlan::default().is_active());
        let plan = FaultPlan::unresponsive_and_crash(0.3, 0.1);
        assert!(plan.is_active());
        assert_eq!(plan.unresponsive_frac, 0.3);
        assert_eq!(plan.crash_frac, 0.1);
        // Fractions are clamped into [0, 1].
        let clamped = FaultPlan::unresponsive_and_crash(1.5, -0.2);
        assert_eq!(clamped.unresponsive_frac, 1.0);
        assert_eq!(clamped.crash_frac, 0.0);
        let c = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(plan);
        assert_eq!(c.fault_plan, Some(plan));
        assert!(SimConfig::new(Algorithm::MprInt, 15.0).fault_plan.is_none());
    }

    #[test]
    fn telemetry_builder() {
        assert!(SimConfig::new(Algorithm::MprStat, 15.0).telemetry.is_none());
        let sensor = SensorFaultConfig {
            noise_sigma_frac: 0.05,
            dropout_prob: 0.2,
            ..SensorFaultConfig::default()
        };
        let c = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_telemetry(TelemetryConfig::with_faults(sensor));
        let tel = c.telemetry.expect("telemetry installed");
        assert_eq!(tel.sensor, sensor);
        assert_eq!(tel.estimator, EstimatorConfig::default());
    }

    #[test]
    fn grid_fault_builder_requires_a_topology_to_act() {
        let plan = GridFaultPlan::ups_outage(0.5);
        let c = SimConfig::new(Algorithm::MprStat, 15.0).with_grid_faults(plan);
        assert_eq!(c.grid_fault, Some(plan));
        assert!(
            c.active_grid_fault().is_none(),
            "without a topology the plan has nothing to act on"
        );
        let spec = TopologySpec::parse(
            r#"{"name": "t", "nodes": [
              {"name": "a", "kind": "ats", "capacity_w": 4.0, "parent": null},
              {"name": "u", "kind": "ups", "capacity_w": 2.0, "parent": 0},
              {"name": "p", "kind": "pdu", "capacity_w": 2.0, "parent": 1},
              {"name": "r", "kind": "rack", "capacity_w": 2.0, "parent": 2}
            ]}"#,
        )
        .unwrap();
        let c = c.with_topology(spec);
        assert_eq!(c.active_grid_fault(), Some(plan));
        // An all-zero plan is inert even with a topology.
        let inert =
            SimConfig::new(Algorithm::MprStat, 15.0).with_grid_faults(GridFaultPlan::default());
        assert!(inert.active_grid_fault().is_none());
        assert!(!SimConfig::new(Algorithm::MprStat, 15.0).grid_fencing_disabled);
        assert!(
            SimConfig::new(Algorithm::MprStat, 15.0)
                .with_grid_fencing_disabled()
                .grid_fencing_disabled
        );
    }

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(Algorithm::Opt, 10.0);
        assert_eq!(c.slot_secs, 60.0);
        assert_eq!(c.buffer_frac, 0.01);
        assert_eq!(c.cooldown_secs, 600.0);
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.profiles.len(), 8);
    }
}
