//! Crash-safe checkpoint/resume for long simulations.
//!
//! A checkpoint is a versioned, checksummed binary snapshot of the full
//! `EngineState` — job stream RNG position, active jobs (as their drawn
//! scalars, rebuilt RNG-free on restore), emergency-controller state,
//! accounting, timeline, event log and the telemetry pipeline. Snapshots
//! are written atomically (temp file + rename), so a crash mid-write can
//! never leave a torn checkpoint: the previous one survives intact.
//!
//! Resuming a run from any of its checkpoints produces a `SimReport`
//! **bit-identical** to the uninterrupted run — floats are stored via
//! their raw IEEE bits, and every RNG in the engine snapshots its exact
//! stream position.
//!
//! The file format:
//!
//! ```text
//! magic    8 B   "MPRCKPT\0"
//! version  u32   format version (currently 1)
//! fprint   u64   FNV-1a fingerprint of the config + trace
//! len      u64   payload length in bytes
//! checksum u64   FNV-1a over the payload
//! payload  ...   little-endian engine state
//! ```
//!
//! The fingerprint guards against resuming under a different
//! configuration or trace (which would silently diverge). A custom
//! [`CapacityPolicy`](mpr_power::CapacityPolicy) cannot be fingerprinted
//! through its trait object; only its presence is recorded — callers must
//! resume with the same policy.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};

use mpr_core::{ChainLevel, Watts};
use mpr_power::telemetry::{
    EstimatorConfig, FaultySensor, RobustEstimator, SensorFaultConfig, SensorReading, SplitMix64,
    TelemetryHealth,
};
use mpr_power::{ControllerState, EmergencyConfig, EmergencyController, EmergencyPhase};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::CostNoise;
use crate::engine::{Accounting, ActiveJob, EngineState, RunSetup, Simulation, TelemetryState};
use crate::report::{
    DegradationStats, EmergencyEvent, EmergencyEventKind, ProfileStats, SimReport, Timeline,
    TransportTotals,
};

const MAGIC: [u8; 8] = *b"MPRCKPT\0";
const VERSION: u32 = 5;
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file uses a format version this build cannot read.
    UnsupportedVersion(
        /// Version found in the file.
        u32,
    ),
    /// The payload checksum does not match (torn or corrupted file).
    ChecksumMismatch,
    /// The file ends before the encoded state does.
    Truncated,
    /// The payload decodes to structurally invalid state.
    Malformed(
        /// What was invalid.
        &'static str,
    ),
    /// The checkpoint was written by a simulation with a different
    /// configuration or trace.
    ConfigMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupted file)")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ConfigMismatch => write!(
                f,
                "checkpoint was written under a different configuration or trace"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where and how often to checkpoint, plus an optional injected kill
/// point for crash testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Checkpoint file path. Each write replaces the previous checkpoint
    /// atomically.
    pub path: PathBuf,
    /// Write a checkpoint every this many slots (0 disables writing).
    pub every_slots: usize,
    /// Abort the run just before simulating this slot, simulating a
    /// crash. Used by the kill/resume tests; `None` in production.
    pub kill_at_slot: Option<usize>,
}

impl CheckpointPlan {
    /// A plan writing to `path` every `every_slots` slots.
    pub fn every(path: impl Into<PathBuf>, every_slots: usize) -> Self {
        Self {
            path: path.into(),
            every_slots,
            kill_at_slot: None,
        }
    }

    /// Injects a kill point: the run aborts right before this slot.
    #[must_use]
    pub fn with_kill_at(mut self, slot: usize) -> Self {
        self.kill_at_slot = Some(slot);
        self
    }

    /// A plan that neither writes nor kills — used by plain resume.
    pub(crate) fn resume_only() -> Self {
        Self {
            path: PathBuf::new(),
            every_slots: 0,
            kill_at_slot: None,
        }
    }
}

/// How a checkpointed run ended.
///
/// A transient return value, so the report-sized variant is kept inline
/// rather than boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run finished; here is its report.
    Completed(SimReport),
    /// The injected kill point fired.
    Killed {
        /// Slot at which the run was killed.
        at_slot: usize,
        /// Path of the checkpoint file to resume from.
        checkpoint: PathBuf,
    },
}

impl RunOutcome {
    /// The report, when the run completed.
    #[must_use]
    pub fn into_report(self) -> Option<SimReport> {
        match self {
            RunOutcome::Completed(r) => Some(r),
            RunOutcome::Killed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// FNV-1a and the little-endian codec.

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        self.take(N)?
            .try_into()
            .map_err(|_| CheckpointError::Truncated)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        let [b] = self.array()?;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn u128(&mut self) -> Result<u128, CheckpointError> {
        Ok(u128::from_le_bytes(self.array()?))
    }
    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Malformed("count overflow"))
    }
    /// A length that is about to drive an allocation: bounded by the
    /// remaining payload so corrupt counts cannot trigger huge allocs.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("invalid bool tag")),
        }
    }
    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CheckpointError::Malformed("invalid UTF-8 string"))
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CheckpointError::Malformed("invalid option tag")),
        }
    }
    fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Config/trace fingerprint.

/// FNV-1a fingerprint over everything that determines a run besides the
/// mutable engine state. Two simulations with equal fingerprints evolve
/// identically, so resuming across them is sound (modulo an uncheckable
/// custom capacity policy, whose presence alone is hashed).
pub(crate) fn fingerprint(sim: &Simulation<'_>) -> u64 {
    let cfg = &sim.config;
    let mut e = Enc::default();
    e.u8(match cfg.algorithm {
        crate::config::Algorithm::Opt => 0,
        crate::config::Algorithm::Eql => 1,
        crate::config::Algorithm::MprStat => 2,
        crate::config::Algorithm::MprInt => 3,
        crate::config::Algorithm::Vcg => 4,
    });
    // The resolved clearing mechanism (including the degradation-chain
    // shape under a fault plan): a checkpointed run can never resume under
    // a different `--mechanism`, even one that aliases the same algorithm
    // tag above.
    e.str(&crate::mechanism::descriptor(cfg));
    e.f64(cfg.oversubscription_pct);
    e.f64(cfg.slot_secs);
    e.f64(cfg.power_model.static_w_per_core());
    e.f64(cfg.power_model.dynamic_w_per_core());
    e.f64(cfg.buffer_frac);
    e.f64(cfg.cooldown_secs);
    e.f64(cfg.participation);
    e.f64(cfg.alpha);
    e.f64(cfg.alpha_spread);
    match cfg.cost_noise {
        CostNoise::None => {
            e.u8(0);
            e.f64(0.0);
        }
        CostNoise::Random { magnitude } => {
            e.u8(1);
            e.f64(magnitude);
        }
        CostNoise::Underestimate { fraction } => {
            e.u8(2);
            e.f64(fraction);
        }
    }
    e.usize(cfg.profiles.len());
    for p in &cfg.profiles {
        e.str(p.name());
        e.f64(p.unit_dynamic_power_w());
    }
    e.u64(cfg.seed);
    e.usize(cfg.int_max_iterations);
    e.opt_f64(cfg.capacity_watts_override);
    e.f64(cfg.phase_amplitude);
    e.f64(cfg.phase_period_secs);
    match cfg.fault_plan {
        Some(p) => {
            e.u8(1);
            e.f64(p.unresponsive_frac);
            e.f64(p.crash_frac);
            e.f64(p.stale_frac);
            e.f64(p.byzantine_frac);
            e.f64(p.byzantine_factor);
            e.usize(p.max_retries);
            e.usize(p.watchdog_window);
            e.f64(p.divergence_min_change);
        }
        None => e.u8(0),
    }
    // The transport/network plan changes every interactive clearing (fault
    // draws, deadlines, retry cadence), so resuming under different
    // `--net-*` flags must be rejected exactly like a mechanism mismatch.
    match cfg.net_plan {
        Some(p) => {
            e.u8(1);
            e.f64(p.drop_prob);
            e.f64(p.duplicate_prob);
            e.u64(p.min_delay_ticks);
            e.u64(p.max_delay_ticks);
            e.f64(p.partition_prob);
            e.u64(p.partition_ticks);
            e.u64(p.deadline_ticks);
            e.usize(p.max_attempts);
            e.usize(p.quarantine_after_misses);
        }
        None => e.u8(0),
    }
    match cfg.telemetry {
        Some(t) => {
            e.u8(1);
            enc_sensor_config(&mut e, &t.sensor);
            enc_estimator_config(&mut e, &t.estimator);
        }
        None => e.u8(0),
    }
    e.bool(cfg.record_timeline);
    e.bool(cfg.capacity_policy.is_some());
    e.bool(cfg.emergency_disabled);
    // The durability plan drives the ledger-journaling side channel (fsync
    // cadence, disk-fault draws, scripted kills), so resuming under
    // different `--wal-*` flags must be rejected (checkpoint V3).
    match cfg.durability {
        Some(d) => {
            e.u8(1);
            match d.fsync {
                mpr_durable::FsyncPolicy::Always => e.u8(0),
                mpr_durable::FsyncPolicy::EveryRecords(n) => {
                    e.u8(1);
                    e.u32(n);
                }
                mpr_durable::FsyncPolicy::Never => e.u8(2),
            }
            match d.disk {
                Some(p) => {
                    e.u8(1);
                    e.f64(p.torn_write_prob);
                    e.f64(p.bit_flip_prob);
                    e.f64(p.fsync_fail_prob);
                    match p.capacity_bytes {
                        Some(cap) => {
                            e.u8(1);
                            e.u64(cap);
                        }
                        None => e.u8(0),
                    }
                }
                None => e.u8(0),
            }
            match d.kill_at_slot {
                Some(s) => {
                    e.u8(1);
                    e.u64(s);
                }
                None => e.u8(0),
            }
            e.u64(d.checkpoint_every);
            e.u32(d.max_restarts);
        }
        None => e.u8(0),
    }
    // The chaos generator-space version: a checkpoint written by a campaign
    // scenario can only be resumed by a harness realizing the same space
    // (satellite of the chaos-campaign PR; see `mpr_chaos::SPACE_VERSION`).
    match cfg.scenario_space {
        Some(v) => {
            e.u8(1);
            e.u32(v);
        }
        None => e.u8(0),
    }
    // The power-tree topology and the federated flag change every overload
    // clearing (subtree targets, rack assignment), so a federated run can
    // only resume under the bit-identical tree (checkpoint V4).
    match &cfg.topology {
        Some(t) => {
            e.u8(1);
            e.u64(t.fingerprint());
        }
        None => e.u8(0),
    }
    e.bool(cfg.federated);
    // The grid-fault plan is a pure function of (plan, topology, t): no
    // fault state lives in `EngineState`, so fingerprinting the plan is
    // all that's needed for a bit-identical resume mid-fault-window —
    // and a resume under *different* `--tree-fault-*` flags must be
    // rejected here (checkpoint V5).
    match &cfg.grid_fault {
        Some(p) => {
            e.u8(1);
            e.u64(p.seed);
            e.f64(p.ups_failure_prob);
            e.f64(p.ats_derate_prob);
            e.f64(p.ats_derate_frac);
            e.f64(p.pdu_trip_prob);
            e.f64(p.derate_prob);
            e.f64(p.derate_floor);
            e.f64(p.onset_secs);
            e.f64(p.window_secs);
            e.f64(p.repair_secs);
        }
        None => e.u8(0),
    }
    e.bool(cfg.grid_fencing_disabled);
    e.str(sim.trace.name());
    e.u64(u64::from(sim.trace.total_cores()));
    e.usize(sim.trace.len());
    for j in sim.trace.jobs() {
        e.u64(j.id);
        e.f64(j.start_secs);
        e.f64(j.runtime_secs);
        e.u64(u64::from(j.cores));
    }
    fnv1a64(&e.buf)
}

fn enc_sensor_config(e: &mut Enc, c: &SensorFaultConfig) {
    e.f64(c.noise_sigma_frac);
    e.f64(c.dropout_prob);
    e.f64(c.stuck_prob);
    e.u32(c.stuck_polls);
    e.usize(c.delay_polls);
    e.f64(c.spike_prob);
    e.f64(c.spike_magnitude_frac);
}

fn enc_estimator_config(e: &mut Enc, c: &EstimatorConfig) {
    e.usize(c.window);
    e.f64(c.ewma_alpha);
    e.f64(c.outlier_frac);
    e.usize(c.outlier_streak);
    e.f64(c.stale_after_secs);
    e.f64(c.margin_frac);
    e.f64(c.stale_margin_frac);
}

// ---------------------------------------------------------------------------
// State encode/decode.

fn enc_reading(e: &mut Enc, r: &SensorReading) {
    e.f64(r.t_secs);
    e.f64(r.power.get());
}

fn dec_reading(d: &mut Dec<'_>) -> Result<SensorReading, CheckpointError> {
    Ok(SensorReading {
        t_secs: d.f64()?,
        power: Watts::new(d.f64()?),
    })
}

pub(crate) fn encode_state(state: &EngineState) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(state.step);
    e.usize(state.total_slots);
    e.usize(state.next_job);
    e.bool(state.finished);

    // Job-stream RNG: exact stream position.
    e.buf.extend_from_slice(&state.rng.get_seed());
    e.u64(state.rng.get_stream());
    e.u128(state.rng.get_word_pos());

    // Emergency controller.
    let cs = state.controller.state();
    e.f64(cs.config.capacity.get());
    e.f64(cs.config.buffer_frac);
    e.f64(cs.config.min_overload_secs);
    e.f64(cs.config.cooldown_secs);
    e.u8(match cs.phase {
        EmergencyPhase::Normal => 0,
        EmergencyPhase::Emergency => 1,
        EmergencyPhase::Degraded => 2,
    });
    e.opt_f64(cs.overload_since);
    e.opt_f64(cs.emergency_started);
    e.f64(cs.active_target.get());

    // Active jobs: drawn scalars + dynamic fields; cost models and the
    // profile Arc are rebuilt deterministically on restore.
    e.usize(state.active.len());
    for j in &state.active {
        e.usize(j.idx);
        e.f64(j.alpha);
        e.f64(j.noise_factor);
        e.f64(j.remaining_secs);
        e.f64(j.exec_started_secs);
        e.f64(j.reduction);
        e.f64(j.price);
        e.f64(j.phase_offset);
        e.bool(j.participates);
        e.bool(j.affected);
    }
    e.usize(state.deferred.len());
    for &idx in &state.deferred {
        e.usize(idx);
    }

    // Accounting.
    let acc = &state.acc;
    e.usize(acc.overload_slots);
    e.usize(acc.overload_events);
    e.usize(acc.unmet_emergencies);
    e.usize(acc.jobs_started);
    e.usize(acc.jobs_completed);
    e.usize(acc.jobs_affected);
    e.usize(acc.jobs_deferred);
    e.usize(acc.int_iterations);
    e.usize(acc.fault_events);
    e.usize(acc.stretch_count);
    e.f64(acc.reduction_ch);
    e.f64(acc.cost_ch);
    e.f64(acc.reward_ch);
    e.f64(acc.stretch_sum_pct);
    let deg = &acc.degradation;
    e.usize(deg.rounds_retried);
    e.usize(deg.participants_quarantined);
    e.usize(deg.static_fallbacks);
    e.usize(deg.eql_cappings);
    e.usize(deg.diverged_clearings);
    e.usize(deg.bid_failures);
    e.f64(deg.residual_overload_watts);
    e.u8(match deg.deepest_chain_level {
        None => 0,
        Some(ChainLevel::Interactive) => 1,
        Some(ChainLevel::StaticFallback) => 2,
        Some(ChainLevel::EqlCapping) => 3,
    });
    let t = &acc.transport;
    e.usize(t.clearings);
    e.usize(t.rounds);
    e.usize(t.announces);
    e.usize(t.retransmits);
    e.usize(t.replies_accepted);
    e.usize(t.duplicates_ignored);
    e.usize(t.late_replies_ignored);
    e.usize(t.invalid_replies);
    e.usize(t.straggler_rounds);
    e.usize(t.deadline_quarantines);
    e.u64(t.virtual_ticks);
    e.usize(t.messages_dropped);
    e.usize(t.messages_duplicated);
    e.usize(acc.per_profile.len());
    for (name, s) in &acc.per_profile {
        e.str(name);
        e.f64(s.reduction_core_hours);
        e.f64(s.cost_core_hours);
        e.f64(s.runtime_stretch_pct);
        e.usize(s.jobs);
    }
    e.usize(acc.per_profile_stretch.len());
    for (name, (sum, count)) in &acc.per_profile_stretch {
        e.str(name);
        e.f64(*sum);
        e.usize(*count);
    }
    let fed = &acc.federated;
    e.usize(fed.events);
    e.usize(fed.markets);
    e.usize(fed.rounds);
    e.usize(fed.infeasible_events);
    e.f64(fed.residual_watts);
    e.usize(fed.grid_fault_slots);
    e.usize(fed.fenced_nodes);
    e.usize(fed.derated_nodes);
    e.usize(fed.reassigned_jobs);
    e.usize(fed.quarantined_jobs);
    e.f64(fed.dead_cleared_watts);
    e.f64(fed.derate_excess_watts);
    e.usize(fed.post_repair_events);
    e.usize(fed.levels.len());
    for (name, lv) in &fed.levels {
        e.str(name);
        e.usize(lv.depth);
        e.usize(lv.markets);
        e.f64(lv.target_watts);
        e.f64(lv.cleared_watts);
        e.f64(lv.residual_watts);
        e.usize(lv.escalations);
    }

    // Timeline.
    match &state.timeline {
        Some(tl) => {
            e.u8(1);
            e.f64(tl.slot_secs);
            e.f64s(&tl.power_w);
            e.f64s(&tl.demand_w);
            e.f64s(&tl.capacity_w);
            e.f64s(&tl.reduction_w);
            e.f64s(&tl.price);
        }
        None => e.u8(0),
    }

    // Emergency events.
    e.usize(state.events.len());
    for ev in &state.events {
        e.f64(ev.t_secs);
        e.u8(match ev.kind {
            EmergencyEventKind::Declare => 0,
            EmergencyEventKind::Escalate => 1,
            EmergencyEventKind::Lift => 2,
        });
        e.f64(ev.target_watts);
        e.f64(ev.price);
    }

    // Telemetry pipeline.
    match &state.telemetry {
        Some(tel) => {
            e.u8(1);
            enc_sensor_config(&mut e, &tel.sensor.config);
            e.u64(tel.sensor.rng.state);
            e.usize(tel.sensor.delay_buf.len());
            for r in &tel.sensor.delay_buf {
                enc_reading(&mut e, r);
            }
            e.u32(tel.sensor.stuck_remaining);
            match &tel.sensor.held {
                Some(r) => {
                    e.u8(1);
                    enc_reading(&mut e, r);
                }
                None => e.u8(0),
            }
            enc_estimator_config(&mut e, &tel.estimator.config);
            let w: Vec<f64> = tel.estimator.window.iter().copied().collect();
            e.f64s(&w);
            e.opt_f64(tel.estimator.ewma);
            e.usize(tel.estimator.reject_streak);
            e.opt_f64(tel.estimator.last_reading_secs);
            e.usize(tel.estimator.health.samples_delivered);
            e.usize(tel.estimator.health.samples_missed);
            e.usize(tel.estimator.health.outliers_rejected);
            e.usize(tel.estimator.health.stale_polls);
        }
        None => e.u8(0),
    }

    e.buf
}

fn dec_sensor_config(d: &mut Dec<'_>) -> Result<SensorFaultConfig, CheckpointError> {
    Ok(SensorFaultConfig {
        noise_sigma_frac: d.f64()?,
        dropout_prob: d.f64()?,
        stuck_prob: d.f64()?,
        stuck_polls: d.u32()?,
        delay_polls: d.usize()?,
        spike_prob: d.f64()?,
        spike_magnitude_frac: d.f64()?,
    })
}

fn dec_estimator_config(d: &mut Dec<'_>) -> Result<EstimatorConfig, CheckpointError> {
    Ok(EstimatorConfig {
        window: d.usize()?,
        ewma_alpha: d.f64()?,
        outlier_frac: d.f64()?,
        outlier_streak: d.usize()?,
        stale_after_secs: d.f64()?,
        margin_frac: d.f64()?,
        stale_margin_frac: d.f64()?,
    })
}

pub(crate) fn decode_state(
    payload: &[u8],
    sim: &Simulation<'_>,
    setup: &RunSetup,
) -> Result<EngineState, CheckpointError> {
    let mut d = Dec::new(payload);
    let step = d.usize()?;
    let total_slots = d.usize()?;
    let next_job = d.usize()?;
    if next_job > sim.trace.len() {
        return Err(CheckpointError::Malformed("next_job beyond trace"));
    }
    let finished = d.bool()?;

    let seed: [u8; 32] = d.array()?;
    let stream = d.u64()?;
    let word_pos = d.u128()?;
    let mut rng = ChaCha8Rng::from_seed(seed);
    rng.set_stream(stream);
    rng.set_word_pos(word_pos);

    let controller_config = EmergencyConfig {
        capacity: Watts::new(d.f64()?),
        buffer_frac: d.f64()?,
        min_overload_secs: d.f64()?,
        cooldown_secs: d.f64()?,
    };
    let phase = match d.u8()? {
        0 => EmergencyPhase::Normal,
        1 => EmergencyPhase::Emergency,
        2 => EmergencyPhase::Degraded,
        _ => return Err(CheckpointError::Malformed("invalid emergency phase")),
    };
    let controller = EmergencyController::from_state(ControllerState {
        config: controller_config,
        phase,
        overload_since: d.opt_f64()?,
        emergency_started: d.opt_f64()?,
        active_target: Watts::new(d.f64()?),
    });

    let n_active = d.len()?;
    let mut active = Vec::with_capacity(n_active);
    for _ in 0..n_active {
        let idx = d.usize()?;
        let Some(profile) = setup.profiles.get(idx) else {
            return Err(CheckpointError::Malformed("job index beyond trace"));
        };
        let alpha = d.f64()?;
        let noise_factor = d.f64()?;
        if !noise_factor.is_finite() || noise_factor < 0.0 {
            return Err(CheckpointError::Malformed("invalid noise factor"));
        }
        let mut job: ActiveJob = sim.rebuild_job(idx, profile, alpha, noise_factor);
        job.remaining_secs = d.f64()?;
        job.exec_started_secs = d.f64()?;
        job.reduction = d.f64()?;
        job.price = d.f64()?;
        job.phase_offset = d.f64()?;
        job.participates = d.bool()?;
        job.affected = d.bool()?;
        active.push(job);
    }
    let n_deferred = d.len()?;
    let mut deferred = VecDeque::with_capacity(n_deferred);
    for _ in 0..n_deferred {
        let idx = d.usize()?;
        if idx >= sim.trace.len() {
            return Err(CheckpointError::Malformed("deferred index beyond trace"));
        }
        deferred.push_back(idx);
    }

    let mut acc = Accounting {
        overload_slots: d.usize()?,
        overload_events: d.usize()?,
        unmet_emergencies: d.usize()?,
        jobs_started: d.usize()?,
        jobs_completed: d.usize()?,
        jobs_affected: d.usize()?,
        jobs_deferred: d.usize()?,
        int_iterations: d.usize()?,
        fault_events: d.usize()?,
        stretch_count: d.usize()?,
        ..Accounting::default()
    };
    acc.reduction_ch = d.f64()?;
    acc.cost_ch = d.f64()?;
    acc.reward_ch = d.f64()?;
    acc.stretch_sum_pct = d.f64()?;
    acc.degradation = DegradationStats {
        rounds_retried: d.usize()?,
        participants_quarantined: d.usize()?,
        static_fallbacks: d.usize()?,
        eql_cappings: d.usize()?,
        diverged_clearings: d.usize()?,
        bid_failures: d.usize()?,
        residual_overload_watts: d.f64()?,
        deepest_chain_level: match d.u8()? {
            0 => None,
            1 => Some(ChainLevel::Interactive),
            2 => Some(ChainLevel::StaticFallback),
            3 => Some(ChainLevel::EqlCapping),
            _ => return Err(CheckpointError::Malformed("invalid chain level")),
        },
    };
    acc.transport = TransportTotals {
        clearings: d.usize()?,
        rounds: d.usize()?,
        announces: d.usize()?,
        retransmits: d.usize()?,
        replies_accepted: d.usize()?,
        duplicates_ignored: d.usize()?,
        late_replies_ignored: d.usize()?,
        invalid_replies: d.usize()?,
        straggler_rounds: d.usize()?,
        deadline_quarantines: d.usize()?,
        virtual_ticks: d.u64()?,
        messages_dropped: d.usize()?,
        messages_duplicated: d.usize()?,
    };
    let n_profiles = d.len()?;
    for _ in 0..n_profiles {
        let name = d.string()?;
        let stats = ProfileStats {
            reduction_core_hours: d.f64()?,
            cost_core_hours: d.f64()?,
            runtime_stretch_pct: d.f64()?,
            jobs: d.usize()?,
        };
        acc.per_profile.insert(name, stats);
    }
    let n_stretch = d.len()?;
    for _ in 0..n_stretch {
        let name = d.string()?;
        let sum = d.f64()?;
        let count = d.usize()?;
        acc.per_profile_stretch.insert(name, (sum, count));
    }
    acc.federated.events = d.usize()?;
    acc.federated.markets = d.usize()?;
    acc.federated.rounds = d.usize()?;
    acc.federated.infeasible_events = d.usize()?;
    acc.federated.residual_watts = d.f64()?;
    acc.federated.grid_fault_slots = d.usize()?;
    acc.federated.fenced_nodes = d.usize()?;
    acc.federated.derated_nodes = d.usize()?;
    acc.federated.reassigned_jobs = d.usize()?;
    acc.federated.quarantined_jobs = d.usize()?;
    acc.federated.dead_cleared_watts = d.f64()?;
    acc.federated.derate_excess_watts = d.f64()?;
    acc.federated.post_repair_events = d.usize()?;
    let n_levels = d.len()?;
    for _ in 0..n_levels {
        let name = d.string()?;
        let level = crate::report::FederatedLevelStats {
            depth: d.usize()?,
            markets: d.usize()?,
            target_watts: d.f64()?,
            cleared_watts: d.f64()?,
            residual_watts: d.f64()?,
            escalations: d.usize()?,
        };
        acc.federated.levels.insert(name, level);
    }

    let timeline = match d.u8()? {
        0 => None,
        1 => Some(Timeline {
            slot_secs: d.f64()?,
            power_w: d.f64s()?,
            demand_w: d.f64s()?,
            capacity_w: d.f64s()?,
            reduction_w: d.f64s()?,
            price: d.f64s()?,
        }),
        _ => return Err(CheckpointError::Malformed("invalid timeline tag")),
    };

    let n_events = d.len()?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let t_secs = d.f64()?;
        let kind = match d.u8()? {
            0 => EmergencyEventKind::Declare,
            1 => EmergencyEventKind::Escalate,
            2 => EmergencyEventKind::Lift,
            _ => return Err(CheckpointError::Malformed("invalid event kind")),
        };
        events.push(EmergencyEvent {
            t_secs,
            kind,
            target_watts: d.f64()?,
            price: d.f64()?,
        });
    }

    let telemetry = match d.u8()? {
        0 => None,
        1 => {
            let config = dec_sensor_config(&mut d)?;
            let rng_state = d.u64()?;
            let n_buf = d.len()?;
            let mut delay_buf = VecDeque::with_capacity(n_buf);
            for _ in 0..n_buf {
                delay_buf.push_back(dec_reading(&mut d)?);
            }
            let stuck_remaining = d.u32()?;
            let held = match d.u8()? {
                0 => None,
                1 => Some(dec_reading(&mut d)?),
                _ => return Err(CheckpointError::Malformed("invalid held tag")),
            };
            let sensor = FaultySensor {
                config,
                rng: SplitMix64 { state: rng_state },
                delay_buf,
                stuck_remaining,
                held,
            };
            let est_config = dec_estimator_config(&mut d)?;
            let window: VecDeque<f64> = d.f64s()?.into();
            let estimator = RobustEstimator {
                config: est_config,
                window,
                ewma: d.opt_f64()?,
                reject_streak: d.usize()?,
                last_reading_secs: d.opt_f64()?,
                health: TelemetryHealth {
                    samples_delivered: d.usize()?,
                    samples_missed: d.usize()?,
                    outliers_rejected: d.usize()?,
                    stale_polls: d.usize()?,
                },
            };
            Some(TelemetryState { sensor, estimator })
        }
        _ => return Err(CheckpointError::Malformed("invalid telemetry tag")),
    };

    if d.pos != payload.len() {
        return Err(CheckpointError::Malformed("trailing bytes"));
    }

    Ok(EngineState {
        step,
        total_slots,
        next_job,
        finished,
        rng,
        controller,
        active,
        deferred,
        acc,
        timeline,
        events,
        telemetry,
    })
}

// ---------------------------------------------------------------------------
// File I/O.

/// Atomically writes a checkpoint via the shared crash-durable helper
/// ([`mpr_durable::fsio::atomic_replace`]): the bytes go to a sibling temp
/// file which is fsynced and renamed over `path`, and the parent directory
/// is fsynced after the rename — so a crash mid-write leaves either the old
/// checkpoint or the new one, never a torn file, and the rename itself
/// survives power loss. (Pre-V3 the directory fsync was missing: a freshly
/// renamed checkpoint could vanish entirely on power loss.)
pub(crate) fn write_checkpoint(
    path: &Path,
    sim: &Simulation<'_>,
    state: &EngineState,
) -> Result<(), CheckpointError> {
    let payload = encode_state(state);
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&fingerprint(sim).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    mpr_durable::fsio::atomic_replace(path, &bytes)?;
    Ok(())
}

/// A fixed-width little-endian header field at byte offset `at`.
fn header_field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], CheckpointError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|s| s.try_into().ok())
        .ok_or(CheckpointError::Truncated)
}

/// Reads, validates and decodes a checkpoint into a ready-to-run
/// [`EngineState`].
pub(crate) fn read_checkpoint(
    path: &Path,
    sim: &Simulation<'_>,
    setup: &RunSetup,
) -> Result<EngineState, CheckpointError> {
    let bytes = fs::read(path)?;
    let magic_ok = bytes.get(..8).is_some_and(|m| *m == MAGIC);
    if bytes.len() < HEADER_LEN {
        return Err(if magic_ok {
            CheckpointError::Truncated
        } else {
            CheckpointError::BadMagic
        });
    }
    if !magic_ok {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(header_field(&bytes, 8)?);
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let fprint = u64::from_le_bytes(header_field(&bytes, 12)?);
    let payload_len = u64::from_le_bytes(header_field(&bytes, 20)?);
    let checksum = u64::from_le_bytes(header_field(&bytes, 28)?);
    let payload = bytes.get(HEADER_LEN..).ok_or(CheckpointError::Truncated)?;
    if payload.len() as u64 != payload_len {
        return Err(CheckpointError::Truncated);
    }
    if fnv1a64(payload) != checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    if fprint != fingerprint(sim) {
        return Err(CheckpointError::ConfigMismatch);
    }
    decode_state(payload, sim, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, SimConfig, TelemetryConfig};
    use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(ClusterSpec::gaia().with_span_days(5.0))
            .with_seed(3)
            .generate()
    }

    fn tmp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpr_ckpt_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_timeline();
        let full = Simulation::new(&trace, cfg.clone()).run();

        let path = tmp_ckpt("stat_resume");
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        let sim = Simulation::new(&trace, cfg);
        let outcome = sim.run_with_checkpoints(&plan).expect("checkpointed run");
        match outcome {
            RunOutcome::Killed { at_slot, .. } => assert_eq!(at_slot, 2000),
            RunOutcome::Completed(_) => panic!("kill point must fire"),
        }
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "resumed report must be bit-identical");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_mid_checkpoint_cadence_matches_plain_run() {
        // Kill between two checkpoint writes: the resumed run replays the
        // slots after the last checkpoint and still converges bit-exactly.
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::Opt, 15.0);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("opt_midcadence");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 700).with_kill_at(1650);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpointing_with_telemetry_round_trips() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_telemetry(
            TelemetryConfig::with_faults(mpr_power::telemetry::SensorFaultConfig {
                noise_sigma_frac: 0.02,
                dropout_prob: 0.2,
                ..Default::default()
            }),
        );
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("telemetry_resume");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 500).with_kill_at(1500);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "telemetry state must round-trip exactly");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn completed_checkpointed_run_equals_plain_run() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::Eql, 15.0);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("eql_completed");
        let sim = Simulation::new(&trace, cfg);
        let outcome = sim
            .run_with_checkpoints(&CheckpointPlan::every(&path, 1000))
            .expect("checkpointed run");
        assert_eq!(outcome.into_report().expect("completed"), full);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("corrupt");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let mut bytes = fs::read(&path).expect("checkpoint on disk");
        let flip = HEADER_LEN + 7;
        bytes[flip] ^= 0xff;
        fs::write(&path, &bytes).expect("rewrite");
        match sim.resume(&path) {
            Err(CheckpointError::ChecksumMismatch) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("trunc");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let bytes = fs::read(&path).expect("checkpoint on disk");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        match sim.resume(&path) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("magic");
        fs::write(&path, b"definitely not a checkpoint file").expect("write");
        let sim = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        match sim.resume(&path) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("version");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let mut bytes = fs::read(&path).expect("checkpoint on disk");
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        match sim.resume(&path) {
            Err(CheckpointError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion(99), got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn different_config_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("mismatch");
        let writer = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // Same trace, different oversubscription: resuming would diverge.
        let reader = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 20.0));
        match reader.resume(&path) {
            Err(CheckpointError::ConfigMismatch) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // The writer itself can still resume.
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_mechanism_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("mechanism-mismatch");
        let writer = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // Every other mechanism choice must be refused at restore time.
        for alg in [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprInt,
            Algorithm::Vcg,
        ] {
            let reader = Simulation::new(&trace, SimConfig::new(alg, 15.0));
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("{alg}: expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_is_sensitive_to_the_degradation_chain() {
        // Same algorithm tag, different resolved mechanism: an MPR-INT run
        // with an active fault plan clears through the degradation chain,
        // so its checkpoints must not be resumable by a clean MPR-INT run
        // (and vice versa).
        let trace = small_trace();
        let clean = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0));
        let chained = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0)
                .with_faults(crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1)),
        );
        assert_ne!(fingerprint(&clean), fingerprint(&chained));
    }

    #[test]
    fn federated_kill_and_resume_reproduces_the_uninterrupted_run() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
        let full = Simulation::new(&trace, cfg.clone()).run();
        assert!(
            full.federated.as_ref().is_some_and(|f| f.events > 0),
            "federated path must engage at 15% oversubscription"
        );
        let path = tmp_ckpt("federated_resume");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "federated state must round-trip exactly");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn grid_fault_kill_and_resume_mid_window_is_bit_identical() {
        // The fault schedule is a pure function of (plan, topology, t),
        // so a checkpoint taken while a UPS is dark carries no fault
        // state at all — the resumed run must still be bit-identical to
        // the uninterrupted one, fences and all.
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let plan = mpr_power::GridFaultPlan {
            ups_failure_prob: 1.0,
            window_secs: 0.0,
            repair_secs: 100_000.0,
            ..mpr_power::GridFaultPlan::default()
        };
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_topology(spec)
            .with_grid_faults(plan);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let fed = full.federated.as_ref().expect("federated stats");
        assert!(
            fed.fenced_nodes > 0,
            "the always-on UPS failure must fence nodes during the run"
        );
        let path = tmp_ckpt("grid_fault_resume");
        let sim = Simulation::new(&trace, cfg);
        // 2000 slots × 60 s = 120 000 s: well inside the fault windows of
        // a plan whose repairs land at ~150 000–250 000 s.
        let plan_ck = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        sim.run_with_checkpoints(&plan_ck)
            .expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(
            resumed, full,
            "resume mid-fault-window must be bit-identical"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_grid_fault_plan_is_rejected() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let plan = mpr_power::GridFaultPlan::ups_outage(0.8);
        let path = tmp_ckpt("grid-fault-mismatch");
        let writer = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0)
                .with_topology(spec.clone())
                .with_grid_faults(plan),
        );
        let plan_ck = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan_ck)
            .expect("checkpointed run");
        // A different seed, a different fault mix, a fault-free run, and
        // a fencing-disabled run all change what every overload event
        // cleared — each must be refused at restore time.
        let mut reseeded = plan;
        reseeded.seed ^= 1;
        let mut pdu = plan;
        pdu.pdu_trip_prob = 0.5;
        let base = || SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec.clone());
        let readers = [
            Simulation::new(&trace, base().with_grid_faults(reseeded)),
            Simulation::new(&trace, base().with_grid_faults(pdu)),
            Simulation::new(&trace, base()),
            Simulation::new(
                &trace,
                base().with_grid_faults(plan).with_grid_fencing_disabled(),
            ),
        ];
        for reader in &readers {
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_topology_is_rejected() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let mut other = spec.clone();
        other.nodes[1].capacity = Watts::new(spec.nodes[1].capacity.get() * 0.5);
        let path = tmp_ckpt("topology-mismatch");
        let writer = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec.clone()),
        );
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // A different tree, a flat run, and a federated-flag-off run must
        // all be refused at restore time.
        let different_tree = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_topology(other),
        );
        let flat = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let mut flag_off_cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
        flag_off_cfg.federated = false;
        let flag_off = Simulation::new(&trace, flag_off_cfg);
        for reader in [&different_tree, &flat, &flag_off] {
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let trace = small_trace();
        let sim = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        match sim.resume(Path::new("/nonexistent/mpr.ckpt")) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_seed_and_trace() {
        let trace = small_trace();
        let a = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let b = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_seed(1),
        );
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let other = TraceGenerator::new(ClusterSpec::gaia().with_span_days(5.0))
            .with_seed(4)
            .generate();
        let c = Simulation::new(&other, SimConfig::new(Algorithm::MprStat, 15.0));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let same = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        assert_eq!(fingerprint(&a), fingerprint(&same));
    }

    #[test]
    fn error_display_is_informative() {
        let s = CheckpointError::UnsupportedVersion(7).to_string();
        assert!(s.contains('7'));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::ConfigMismatch
            .to_string()
            .contains("configuration"));
    }
}
