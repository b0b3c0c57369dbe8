//! The slot-driven simulation engine (Section IV-A, "Job simulation").
//!
//! The run loop is factored into an explicit `EngineState` advanced one
//! slot at a time, so the engine supports three execution modes over the
//! same per-slot code path: a plain [`run`](Simulation::run), a
//! checkpointed run
//! ([`run_with_checkpoints`](Simulation::run_with_checkpoints)) that
//! atomically persists the full state on a cadence (and can simulate a
//! crash at an injected kill point), and a
//! [`resume`](Simulation::resume) that restores a checkpoint and
//! continues to a `SimReport` bit-identical to the uninterrupted run.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

use mpr_apps::{AppProfile, NoisyCost, ProfileCost};
use mpr_core::bidding::StaticStrategy;
use mpr_core::mechanism::Clearing as MechanismClearing;
use mpr_core::{
    BiddingAgent, ByzantineAgent, ChainLevel, CostModel, CrashAgent, FallbackChain, MarketInstance,
    Mechanism, NetGainAgent, ParticipantSpec, ScaledCost, StaleAgent, SupplyFunction,
    UnresponsiveAgent, Watts,
};
use mpr_power::telemetry::{FaultySensor, PowerSensor, RobustEstimator};
use mpr_power::{
    EmergencyAction, EmergencyConfig, EmergencyController, HierarchicalMarket, Oversubscription,
    TopologySpec, TopologyState,
};
use mpr_workload::Trace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{self, CheckpointError, CheckpointPlan, RunOutcome};
use crate::config::{Algorithm, CostNoise, FaultPlan, NetPlan, SimConfig};
use crate::ledger::LedgerEvent;
use crate::mechanism::AgentExchange;
use crate::report::{
    DegradationStats, EmergencyEvent, EmergencyEventKind, FederatedStats, ProfileStats, SimReport,
    TransportTotals,
};

/// Stream separator for the sensor fault RNG, so telemetry faults never
/// share draws with profile assignment or the job stream.
const SENSOR_SEED_XOR: u64 = 0x7e1e_6e74_0bad_5eed;

/// A job currently executing in the simulated system.
pub(crate) struct ActiveJob {
    /// Index into the trace's job list (doubles as market id).
    pub(crate) idx: usize,
    pub(crate) cores: f64,
    pub(crate) profile: Arc<AppProfile>,
    /// Remaining work in full-speed seconds.
    pub(crate) remaining_secs: f64,
    pub(crate) nominal_secs: f64,
    pub(crate) exec_started_secs: f64,
    /// Current job-level resource reduction, cores.
    pub(crate) reduction: f64,
    /// Reward price attached to the current reduction (market algorithms).
    pub(crate) price: f64,
    pub(crate) participates: bool,
    /// The job's drawn cost coefficient. Stored so a checkpoint can
    /// rebuild the cost-model stack without consuming RNG.
    pub(crate) alpha: f64,
    /// The job's drawn cost-perception factor (see `NoisyCost`). Stored
    /// for the same reason as `alpha`.
    pub(crate) noise_factor: f64,
    /// The cost model the user bids from (possibly noisy), job-scaled.
    /// `Arc`'d so market instances share it without cloning the model.
    pub(crate) perceived: Arc<ScaledCost<NoisyCost<ProfileCost>>>,
    /// Ground-truth cost model for accounting, job-scaled. `Arc`'d for the
    /// same reason.
    pub(crate) true_cost: Arc<ScaledCost<ProfileCost>>,
    /// Pre-computed cooperative supply for MPR-STAT. `None` when no valid
    /// submission-time bid could be constructed (pathological cost model):
    /// the job then joins markets only through forced capping, and the run
    /// counts it in [`DegradationStats::bid_failures`] instead of aborting.
    pub(crate) static_supply: Option<SupplyFunction>,
    /// Phase offset for the per-job power oscillation, seconds.
    pub(crate) phase_offset: f64,
    pub(crate) affected: bool,
}

impl ActiveJob {
    fn per_core_reduction(&self) -> f64 {
        self.reduction / self.cores
    }

    /// Power drawn given the current per-job dynamic-power phase factor.
    fn power_w(&self, static_w_per_core: f64, phase: f64) -> f64 {
        self.cores * static_w_per_core
            + (self.cores - self.reduction) * self.profile.unit_dynamic_power_w() * phase
    }
}

/// Accumulators shared by the run loop.
#[derive(Default)]
pub(crate) struct Accounting {
    pub(crate) overload_slots: usize,
    pub(crate) overload_events: usize,
    pub(crate) unmet_emergencies: usize,
    pub(crate) jobs_started: usize,
    pub(crate) jobs_completed: usize,
    pub(crate) jobs_affected: usize,
    pub(crate) jobs_deferred: usize,
    pub(crate) reduction_ch: f64,
    pub(crate) cost_ch: f64,
    pub(crate) reward_ch: f64,
    pub(crate) int_iterations: usize,
    pub(crate) degradation: DegradationStats,
    pub(crate) fault_events: usize,
    pub(crate) transport: TransportTotals,
    pub(crate) stretch_sum_pct: f64,
    pub(crate) stretch_count: usize,
    pub(crate) per_profile: BTreeMap<String, ProfileStats>,
    pub(crate) per_profile_stretch: BTreeMap<String, (f64, usize)>,
    pub(crate) federated: FederatedStats,
}

/// Immutable per-run context derived from the trace and configuration.
pub(crate) struct RunSetup {
    pub(crate) slot: f64,
    pub(crate) slot_h: f64,
    pub(crate) static_w: f64,
    pub(crate) peak_w: f64,
    pub(crate) capacity_w: f64,
    pub(crate) profiles: Vec<Arc<AppProfile>>,
    pub(crate) horizon_slots: usize,
}

/// The telemetry pipeline state: the (possibly faulty) sensor and the
/// robust estimator digesting its feed.
pub(crate) struct TelemetryState {
    pub(crate) sensor: FaultySensor,
    pub(crate) estimator: RobustEstimator,
}

/// Everything that changes while the engine runs — the exact contents of a
/// checkpoint. Restoring these fields (plus the deterministic
/// [`RunSetup`]) reproduces the uninterrupted run bit-for-bit.
pub(crate) struct EngineState {
    /// Next slot to simulate.
    pub(crate) step: usize,
    /// Slots simulated so far.
    pub(crate) total_slots: usize,
    /// Next trace job not yet admitted.
    pub(crate) next_job: usize,
    /// Set when the workload is drained.
    pub(crate) finished: bool,
    /// The job-stream RNG (alpha, noise, participation, phase draws).
    pub(crate) rng: ChaCha8Rng,
    pub(crate) controller: EmergencyController,
    pub(crate) active: Vec<ActiveJob>,
    pub(crate) deferred: VecDeque<usize>,
    pub(crate) acc: Accounting,
    pub(crate) timeline: Option<crate::report::Timeline>,
    pub(crate) events: Vec<EmergencyEvent>,
    pub(crate) telemetry: Option<TelemetryState>,
}

/// A configured simulation over one trace.
pub struct Simulation<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) config: SimConfig,
}

impl<'a> Simulation<'a> {
    /// Binds a configuration to a trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no application profiles or a
    /// non-positive slot length.
    #[must_use]
    pub fn new(trace: &'a Trace, config: SimConfig) -> Self {
        assert!(
            !config.profiles.is_empty(),
            "simulation needs at least one application profile"
        );
        assert!(config.slot_secs > 0.0, "slot_secs must be positive");
        Self { trace, config }
    }

    /// The reference peak power of the trace: every job running at its
    /// start time at full speed, with this config's profile assignment.
    /// Capacity is `peak · 100/(100+x)` (Section IV-A).
    #[must_use]
    pub fn reference_peak_watts(&self) -> Watts {
        let profiles = self.assign_profiles();
        let static_w = self.config.power_model.static_w_per_core();
        let slot = self.config.slot_secs;
        let span = self.trace.span_secs();
        let n = (span / slot).ceil() as usize;
        let mut diff = vec![0.0f64; n + 1];
        for (job, p) in self.trace.jobs().iter().zip(&profiles) {
            let w = f64::from(job.cores) * (static_w + p.unit_dynamic_power_w());
            let s = ((job.start_secs / slot).floor() as usize).min(n);
            let e = ((job.end_secs() / slot).ceil() as usize).clamp(s + 1, n.max(s + 1));
            if s < n {
                if let Some(d) = diff.get_mut(s) {
                    *d += w;
                }
                if let Some(d) = diff.get_mut(e.min(n)) {
                    *d -= w;
                }
            }
        }
        let mut acc = 0.0;
        let mut peak = 0.0f64;
        for d in diff.iter().take(n) {
            acc += d;
            peak = peak.max(acc);
        }
        Watts::new(peak)
    }

    fn assign_profiles(&self) -> Vec<Arc<AppProfile>> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let profiles = &self.config.profiles;
        self.trace
            .jobs()
            .iter()
            .filter_map(|_| {
                let k = rng.gen_range(0..profiles.len());
                profiles.get(k).map(Arc::clone)
            })
            .collect()
    }

    /// Builds the immutable per-run context.
    pub(crate) fn setup(&self) -> RunSetup {
        let cfg = &self.config;
        let slot = cfg.slot_secs;
        let peak = self.reference_peak_watts();
        let capacity_w = cfg.capacity_watts_override.unwrap_or_else(|| {
            Oversubscription::percent(cfg.oversubscription_pct)
                .capacity(peak)
                .get()
        });
        RunSetup {
            slot,
            slot_h: slot / 3600.0,
            static_w: cfg.power_model.static_w_per_core(),
            peak_w: peak.get(),
            capacity_w,
            profiles: self.assign_profiles(),
            horizon_slots: ((self.trace.span_secs() / slot).ceil() as usize).saturating_mul(2)
                + 1440,
        }
    }

    /// The engine state at slot zero.
    pub(crate) fn initial_state(&self, setup: &RunSetup) -> EngineState {
        let cfg = &self.config;
        EngineState {
            step: 0,
            total_slots: 0,
            next_job: 0,
            finished: false,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            controller: EmergencyController::new(EmergencyConfig {
                capacity: Watts::new(setup.capacity_w),
                buffer_frac: cfg.buffer_frac,
                min_overload_secs: 0.0,
                cooldown_secs: cfg.cooldown_secs,
            }),
            active: Vec::new(),
            deferred: VecDeque::new(),
            acc: Accounting::default(),
            timeline: cfg.record_timeline.then(|| crate::report::Timeline {
                slot_secs: setup.slot,
                ..crate::report::Timeline::default()
            }),
            events: Vec::new(),
            telemetry: cfg.telemetry.map(|tc| TelemetryState {
                sensor: FaultySensor::new(tc.sensor, cfg.seed ^ SENSOR_SEED_XOR),
                estimator: RobustEstimator::new(tc.estimator),
            }),
        }
    }

    /// Runs the simulation to completion and returns the report.
    #[must_use]
    pub fn run(&self) -> SimReport {
        let setup = self.setup();
        let mut state = self.initial_state(&setup);
        while !state.finished && state.step < setup.horizon_slots {
            self.step_slot(&setup, &mut state);
        }
        self.finish_report(&setup, state)
    }

    /// Runs the simulation, atomically writing a checkpoint of the full
    /// engine state every `plan.every_slots` slots. When
    /// `plan.kill_at_slot` is set the run aborts *before* simulating that
    /// slot — state is dropped on the floor exactly as a crash would —
    /// and returns [`RunOutcome::Killed`]; [`resume`](Self::resume) picks
    /// the run back up from the last checkpoint on disk.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when a checkpoint cannot be written.
    pub fn run_with_checkpoints(
        &self,
        plan: &CheckpointPlan,
    ) -> Result<RunOutcome, CheckpointError> {
        let setup = self.setup();
        let state = self.initial_state(&setup);
        self.drive(&setup, state, plan)
    }

    /// Restores the engine from a checkpoint file and drives the run to
    /// completion, producing a report bit-identical to the uninterrupted
    /// run. The simulation must be configured identically to the one that
    /// wrote the checkpoint (enforced by a config/trace fingerprint).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the file is missing, corrupt, from
    /// an unsupported format version, or fingerprint-mismatched.
    pub fn resume(&self, path: &Path) -> Result<SimReport, CheckpointError> {
        let plan = CheckpointPlan::resume_only();
        match self.resume_with_checkpoints(path, &plan)? {
            RunOutcome::Completed(report) => Ok(report),
            RunOutcome::Killed { .. } => Err(CheckpointError::Malformed(
                "resume-only plan reported a kill point",
            )),
        }
    }

    /// Like [`resume`](Self::resume), but keeps honoring a checkpoint
    /// cadence (and kill point) while the resumed run proceeds.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on restore or checkpoint-write failure.
    pub fn resume_with_checkpoints(
        &self,
        path: &Path,
        plan: &CheckpointPlan,
    ) -> Result<RunOutcome, CheckpointError> {
        let setup = self.setup();
        let state = checkpoint::read_checkpoint(path, self, &setup)?;
        self.drive(&setup, state, plan)
    }

    fn drive(
        &self,
        setup: &RunSetup,
        mut state: EngineState,
        plan: &CheckpointPlan,
    ) -> Result<RunOutcome, CheckpointError> {
        while !state.finished && state.step < setup.horizon_slots {
            // Slot 0 is checkpointed too: a kill before the first periodic
            // interval must still leave a resume point on disk.
            if plan.every_slots > 0 && state.step.is_multiple_of(plan.every_slots) {
                checkpoint::write_checkpoint(&plan.path, self, &state)?;
            }
            if plan.kill_at_slot == Some(state.step) {
                return Ok(RunOutcome::Killed {
                    at_slot: state.step,
                    checkpoint: plan.path.clone(),
                });
            }
            self.step_slot(setup, &mut state);
        }
        Ok(RunOutcome::Completed(self.finish_report(setup, state)))
    }

    /// Simulates one slot: admissions, power measurement and the emergency
    /// controller, overload accounting, job progress.
    fn step_slot(&self, setup: &RunSetup, state: &mut EngineState) {
        self.step_slot_journaled(setup, state, None);
    }

    /// [`step_slot`](Self::step_slot) with an optional market-event journal:
    /// when `journal` is provided, every market event of the slot (FSM
    /// transitions, price announcements, accepted bids, clearings,
    /// quarantines, payments) is pushed in deterministic order for the
    /// durable ledger (`crate::ledger`) to frame and persist. With `None`
    /// the slot computes exactly as it always has — journaling is a pure
    /// side channel and never influences simulation state.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn step_slot_journaled(
        &self,
        setup: &RunSetup,
        state: &mut EngineState,
        mut journal: Option<&mut Vec<LedgerEvent>>,
    ) {
        let cfg = &self.config;
        let slot = setup.slot;
        let static_w = setup.static_w;
        let jobs = self.trace.jobs();
        let t = state.step as f64 * slot;

        // Time-varying capacity: the policy (demand response, carbon
        // caps) can only tighten the oversubscribed baseline.
        let capacity_now = cfg.capacity_policy.as_ref().map_or(setup.capacity_w, |p| {
            p.capacity_at(t).get().min(setup.capacity_w)
        });
        // Infrastructure faults shrink the usable tree: derate the flat
        // budget by the faulted min-cut fraction. The state is a pure
        // function of (plan, topology, t) — exactly 1.0 while healthy, so
        // fault-free slots (and whole fault-free runs) stay bit-identical.
        let capacity_now = match (cfg.active_grid_fault(), cfg.topology.as_ref()) {
            (Some(plan), Some(spec)) => {
                let grid = plan.state_at(spec, t);
                if grid.is_healthy() {
                    capacity_now
                } else {
                    state.acc.federated.grid_fault_slots += 1;
                    capacity_now * grid.capacity_frac()
                }
            }
            _ => capacity_now,
        };
        state.controller.set_capacity(Watts::new(capacity_now));
        let in_emergency = state.controller.phase().is_active();

        // 1. Arrivals. New starts are held during an emergency
        //    (Section III-E, "Executing resource/power reduction").
        while jobs.get(state.next_job).is_some_and(|j| j.start_secs <= t) {
            if in_emergency {
                state.deferred.push_back(state.next_job);
                state.acc.jobs_deferred += 1;
            } else if let Some(profile) = setup.profiles.get(state.next_job) {
                let job = self.start_job(state.next_job, profile, t, &mut state.rng);
                if job.static_supply.is_none() {
                    state.acc.degradation.bid_failures += 1;
                }
                state.active.push(job);
                state.acc.jobs_started += 1;
            }
            state.next_job += 1;
        }
        // Drain the deferred backlog at a bounded rate: releasing the
        // whole queue at once after a lift would dump its demand into a
        // single slot (thundering herd), while real resource managers
        // dispatch queued work at a finite pace. Up to 10 % of capacity
        // worth of queued jobs start per slot; the reactive loop absorbs
        // any overload this produces.
        if !in_emergency && !state.deferred.is_empty() {
            let mut budget = 0.10 * capacity_now;
            // Nominal (phase-free) estimates are good enough here. The first
            // queued job always starts, even when wider than the whole
            // per-slot budget: otherwise a job drawing more than 10 % of
            // capacity is starved until the arrival stream dries up, and its
            // late, stretched run can blow past the simulation horizon.
            let mut started_this_slot = false;
            while let Some(&idx) = state.deferred.front() {
                let (Some(p), Some(spec)) = (setup.profiles.get(idx), jobs.get(idx)) else {
                    state.deferred.pop_front();
                    continue;
                };
                let job_w = f64::from(spec.cores) * (static_w + p.unit_dynamic_power_w());
                if job_w <= budget || !started_this_slot {
                    started_this_slot = true;
                    let job = self.start_job(idx, p, t, &mut state.rng);
                    if job.static_supply.is_none() {
                        state.acc.degradation.bid_failures += 1;
                    }
                    state.active.push(job);
                    state.acc.jobs_started += 1;
                    budget -= job_w;
                    state.deferred.pop_front();
                } else {
                    break;
                }
            }
        }

        // 2. Measure power and drive the emergency controller. Per-job
        //    phases modulate the dynamic draw around nominal. When a
        //    telemetry pipeline is configured, the controller sees the
        //    robust estimator's conservative upper bound instead of the
        //    true power — never the raw (noisy, lossy) sensor feed.
        let phase_of = |j: &ActiveJob| -> f64 {
            if cfg.phase_amplitude <= 0.0 {
                1.0
            } else {
                1.0 + cfg.phase_amplitude
                    * (std::f64::consts::TAU * (t + j.phase_offset) / cfg.phase_period_secs).sin()
            }
        };
        let power_w: f64 = state
            .active
            .iter()
            .map(|j| j.power_w(static_w, phase_of(j)))
            .sum();
        let measured_w = match state.telemetry.as_mut() {
            Some(tel) => {
                let reading = tel.sensor.sample(t, Watts::new(power_w));
                tel.estimator.observe(t, reading).upper_bound.get()
            }
            None => power_w,
        };
        // Test-only chaos knob: with the FSM disabled the controller never
        // steps, so overload passes entirely unhandled — the seeded
        // violation `mpr-chaos`'s cap oracle must catch.
        let action = if cfg.emergency_disabled {
            EmergencyAction::None
        } else {
            state.controller.step(t, Watts::new(measured_w))
        };
        match action {
            action @ (EmergencyAction::Declare { .. } | EmergencyAction::Escalate { .. }) => {
                if state.controller.phase().is_active() {
                    state.acc.overload_events += 1;
                }
                let quarantined_before = state.acc.degradation.participants_quarantined;
                let target = state.controller.active_target().get();
                let (delivered, degraded) =
                    self.apply_algorithm(&mut state.active, target, t, &mut state.acc);
                state.controller.record_delivered(Watts::new(delivered));
                if degraded {
                    state.controller.mark_degraded();
                }
                if delivered < target * (1.0 - 1e-6) {
                    state.acc.unmet_emergencies += 1;
                }
                let max_price = state.active.iter().map(|j| j.price).fold(0.0, f64::max);
                let is_declare = matches!(action, EmergencyAction::Declare { .. });
                state.events.push(EmergencyEvent {
                    t_secs: t,
                    kind: if is_declare {
                        EmergencyEventKind::Declare
                    } else {
                        EmergencyEventKind::Escalate
                    },
                    target_watts: target,
                    price: max_price,
                });
                if let Some(j) = journal.as_deref_mut() {
                    let kind = u8::from(!is_declare);
                    j.push(LedgerEvent::Emergency {
                        kind,
                        t_secs: t,
                        target_watts: target,
                        price: max_price,
                    });
                    j.push(LedgerEvent::PriceAnnounce {
                        t_secs: t,
                        target_watts: target,
                        price: max_price,
                    });
                    for jb in state
                        .active
                        .iter()
                        .filter(|jb| jb.participates && jb.reduction > 0.0)
                    {
                        j.push(LedgerEvent::BidArrival {
                            participant: jb.idx as u64,
                            reduction: jb.reduction,
                            price: jb.price,
                        });
                    }
                    j.push(LedgerEvent::Clearing {
                        kind,
                        target_watts: target,
                        delivered_watts: delivered,
                        degraded,
                    });
                    let quarantined_delta = state
                        .acc
                        .degradation
                        .participants_quarantined
                        .saturating_sub(quarantined_before);
                    if quarantined_delta > 0 {
                        j.push(LedgerEvent::Quarantine {
                            participants: quarantined_delta as u64,
                        });
                    }
                }
            }
            EmergencyAction::Lift => {
                // Restore speeds; the deferred backlog drains gradually
                // from the next slot on (see the admission loop above).
                for j in &mut state.active {
                    j.reduction = 0.0;
                    j.price = 0.0;
                }
                state.events.push(EmergencyEvent {
                    t_secs: t,
                    kind: EmergencyEventKind::Lift,
                    target_watts: 0.0,
                    price: 0.0,
                });
                if let Some(j) = journal.as_deref_mut() {
                    j.push(LedgerEvent::Emergency {
                        kind: 2,
                        t_secs: t,
                        target_watts: 0.0,
                        price: 0.0,
                    });
                }
            }
            EmergencyAction::None => {}
        }

        // 3. Overload accounting. The "overloaded state" of Table I and
        //    Fig. 8 is demand-based: the power the active jobs would
        //    draw at full speed, regardless of in-force reductions.
        let reduction_w: f64 = state
            .active
            .iter()
            .map(|j| j.reduction * j.profile.unit_dynamic_power_w() * phase_of(j))
            .sum();
        // Keep the controller's view of the in-force reduction current: jobs
        // carrying reductions complete over time, and a lift decision that
        // compares headroom against the (stale) reduction recorded at
        // declare time can become unsatisfiable, wedging the system in
        // emergency with every new arrival deferred forever.
        if state.controller.phase().is_active() {
            state.controller.record_delivered(Watts::new(reduction_w));
        }
        let demand_w = power_w + reduction_w;
        if demand_w > capacity_now {
            state.acc.overload_slots += 1;
            for j in &mut state.active {
                j.affected = true;
            }
        }
        let max_price = state.active.iter().map(|j| j.price).fold(0.0, f64::max);
        if let Some(tl) = state.timeline.as_mut() {
            tl.power_w.push(power_w);
            tl.demand_w.push(demand_w);
            tl.capacity_w.push(capacity_now);
            tl.reduction_w.push(reduction_w);
            tl.price.push(max_price);
        }

        // 4. Progress and accounting.
        let mut i = 0;
        while i < state.active.len() {
            let Some(job) = state.active.get_mut(i) else {
                break;
            };
            let r = job.per_core_reduction();
            let perf = job.profile.performance(1.0 - r);
            job.remaining_secs -= perf * slot;
            if job.reduction > 0.0 {
                // True cost at the current reduction (includes the
                // job's own α).
                let cost_rate = job.true_cost.cost(job.reduction);
                state.acc.reduction_ch += job.reduction * setup.slot_h;
                state.acc.cost_ch += cost_rate * setup.slot_h;
                let stats = state
                    .acc
                    .per_profile
                    .entry(job.profile.name().to_owned())
                    .or_default();
                stats.reduction_core_hours += job.reduction * setup.slot_h;
                stats.cost_core_hours += cost_rate * setup.slot_h;
                if cfg.algorithm.is_market() {
                    let amount = job.price * job.reduction * setup.slot_h;
                    state.acc.reward_ch += amount;
                    if let Some(jr) = journal.as_deref_mut() {
                        jr.push(LedgerEvent::Payment {
                            participant: job.idx as u64,
                            price: job.price,
                            reduction: job.reduction,
                            amount_core_hours: amount,
                        });
                    }
                }
            }
            if job.remaining_secs <= 0.0 {
                // Fractional completion inside the slot.
                let overshoot = (-job.remaining_secs / perf.max(1e-9)).min(slot);
                let exec_time = t + slot - overshoot - job.exec_started_secs;
                let stretch_pct = 100.0 * (exec_time - job.nominal_secs) / job.nominal_secs;
                state.acc.jobs_completed += 1;
                let entry = state
                    .acc
                    .per_profile_stretch
                    .entry(job.profile.name().to_owned())
                    .or_insert((0.0, 0));
                entry.0 += stretch_pct.max(0.0);
                entry.1 += 1;
                if job.affected {
                    state.acc.jobs_affected += 1;
                    state.acc.stretch_sum_pct += stretch_pct.max(0.0);
                    state.acc.stretch_count += 1;
                }
                state.active.swap_remove(i);
            } else {
                i += 1;
            }
        }

        state.total_slots = state.step + 1;
        if state.next_job >= jobs.len() && state.active.is_empty() && state.deferred.is_empty() {
            state.finished = true;
        }
        state.step += 1;
    }

    fn start_job(
        &self,
        idx: usize,
        profile: &Arc<AppProfile>,
        now: f64,
        rng: &mut ChaCha8Rng,
    ) -> ActiveJob {
        let cfg = &self.config;
        let alpha = if cfg.alpha_spread > 0.0 {
            cfg.alpha * rng.gen_range(1.0..=1.0 + cfg.alpha_spread)
        } else {
            cfg.alpha
        };
        // Draw the perception factor exactly as the noise constructors do,
        // then keep the scalar: a checkpoint restore rebuilds the stack
        // from (alpha, noise_factor) without touching the RNG.
        let base = profile.cost_model(alpha);
        let noisy = match cfg.cost_noise {
            CostNoise::None => NoisyCost::new(base, 1.0),
            CostNoise::Random { magnitude } => NoisyCost::random_error(base, magnitude, rng),
            CostNoise::Underestimate { fraction } => NoisyCost::underestimate(base, fraction),
        };
        let noise_factor = noisy.factor();
        let mut job = self.rebuild_job(idx, profile, alpha, noise_factor);
        job.exec_started_secs = now;
        job.participates = rng.gen_bool(cfg.participation.clamp(0.0, 1.0));
        job.phase_offset = rng.gen_range(0.0..self.config.phase_period_secs.max(1.0));
        job
    }

    /// Constructs an [`ActiveJob`] from its drawn scalars, consuming no
    /// RNG. Fresh starts overwrite the dynamic fields immediately;
    /// checkpoint restore overwrites them from the snapshot.
    pub(crate) fn rebuild_job(
        &self,
        idx: usize,
        profile: &Arc<AppProfile>,
        alpha: f64,
        noise_factor: f64,
    ) -> ActiveJob {
        let (cores, runtime_secs) = self
            .trace
            .jobs()
            .get(idx)
            .map_or((0.0, 0.0), |j| (f64::from(j.cores), j.runtime_secs));
        let base = profile.cost_model(alpha);
        let noisy = NoisyCost::new(base.clone(), noise_factor);
        let perceived = Arc::new(ScaledCost::new(noisy, cores));
        let true_cost = Arc::new(ScaledCost::new(base, cores));
        // A failed cooperative bid falls back to a zero-bid (always-supply)
        // function; if even that is unconstructible the job carries no
        // static supply at all — recorded as a bid failure by the caller,
        // never a panic mid-run.
        let static_supply = StaticStrategy::Cooperative
            .supply_for(perceived.as_ref())
            .ok()
            .or_else(|| SupplyFunction::new(perceived.delta_max(), 0.0).ok());
        ActiveJob {
            idx,
            cores,
            profile: Arc::clone(profile),
            remaining_secs: runtime_secs,
            nominal_secs: runtime_secs,
            exec_started_secs: 0.0,
            reduction: 0.0,
            price: 0.0,
            participates: false,
            alpha,
            noise_factor,
            perceived,
            true_cost,
            static_supply,
            phase_offset: 0.0,
            affected: false,
        }
    }

    /// The market instance for one overload event. Market algorithms see
    /// only the participating jobs (rows carry bids and/or perceived-cost
    /// models); the OPT and EQL benchmarks see every active job with its
    /// ground-truth cost.
    fn build_instance(&self, active: &[ActiveJob]) -> MarketInstance {
        let row = |j: &ActiveJob, delta: f64| {
            ParticipantSpec::new(
                j.idx as u64,
                delta,
                Watts::new(j.profile.unit_dynamic_power_w()),
            )
        };
        match self.config.algorithm {
            Algorithm::MprStat => active
                .iter()
                .filter(|j| j.participates)
                .filter_map(|j| {
                    let supply = j.static_supply?;
                    Some(row(j, supply.delta_max()).with_bid(supply.bid()))
                })
                .collect(),
            Algorithm::MprInt => active
                .iter()
                .filter(|j| j.participates)
                .map(|j| row(j, j.perceived.delta_max()).with_cost(j.perceived.clone()))
                .collect(),
            Algorithm::Vcg => active
                .iter()
                .filter(|j| j.participates)
                .map(|j| row(j, j.true_cost.delta_max()).with_cost(j.true_cost.clone()))
                .collect(),
            Algorithm::Opt => active
                .iter()
                .map(|j| row(j, j.true_cost.delta_max()).with_cost(j.true_cost.clone()))
                .collect(),
            Algorithm::Eql => active
                .iter()
                .map(|j| row(j, j.true_cost.delta_max()).with_cores(j.cores))
                .collect(),
        }
    }

    /// Runs the configured algorithm for a cumulative reduction target and
    /// applies the resulting (absolute) reductions. Returns delivered watts
    /// and whether the clearing was degraded (produced by a fallback level
    /// of the resilient market's chain rather than a clean clearing).
    ///
    /// Every algorithm clears through the unified [`Mechanism`] interface
    /// over a shared [`MarketInstance`]; this function only decides which
    /// jobs form the instance and how the clearing maps back onto them.
    fn apply_algorithm(
        &self,
        active: &mut [ActiveJob],
        target_w: f64,
        t_secs: f64,
        acc: &mut Accounting,
    ) -> (f64, bool) {
        if active.is_empty() || target_w <= 0.0 {
            return (0.0, false);
        }
        // One deterministic stream per fault-tolerant overload event: the
        // channel faults and the agent-fault assignment depend only on
        // (seed, event ordinal), never on wall progress, so a resumed run
        // replays them bit-for-bit.
        let event_seed =
            self.config.seed ^ (acc.fault_events as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if let Some(level0) = crate::mechanism::fault_tolerant_exchange(&self.config, event_seed) {
            acc.fault_events += 1;
            return self.apply_int_chain(active, target_w, acc, level0, event_seed);
        }
        if self.config.is_federated() {
            if let Some(spec) = self.config.topology.clone() {
                return self.apply_federated(active, target_w, t_secs, acc, &spec);
            }
        }
        let instance = self.build_instance(active);
        let mut mechanism = crate::mechanism::for_algorithm(&self.config);
        let clearing = match mechanism.clear(&instance, Watts::new(target_w)) {
            Ok(clearing) => clearing,
            // Degenerate instance (no participating job could form a row)
            // or a solver failure: nothing clears, reductions stand.
            Err(_) => return (0.0, false),
        };
        self.apply_clearing(active, &instance, &clearing, acc)
    }

    /// Maps a clearing back onto the active jobs according to the
    /// configured algorithm's price discipline. Shared by the flat path
    /// and the federated path (whose merged clearing is positional over
    /// the same instance).
    fn apply_clearing(
        &self,
        active: &mut [ActiveJob],
        instance: &MarketInstance,
        clearing: &MechanismClearing,
        acc: &mut Accounting,
    ) -> (f64, bool) {
        match self.config.algorithm {
            Algorithm::MprStat => {
                // One uniform clearing price; every job sees it,
                // non-members shed nothing.
                (apply_uniform(active, instance, clearing, true), false)
            }
            Algorithm::MprInt => {
                acc.int_iterations += clearing.iterations();
                if clearing.diagnostics().capped_at_delta_max {
                    // Infeasible target: members cap at Δ and are paid
                    // their break-even unit cost; non-members keep their
                    // in-force reductions.
                    (apply_member_rows(active, instance, clearing), false)
                } else {
                    (apply_uniform(active, instance, clearing, true), false)
                }
            }
            // VCG pays per-job pivot prices, never one uniform price.
            Algorithm::Vcg => (apply_member_rows(active, instance, clearing), false),
            // OPT is the offline benchmark: reductions only, no market.
            Algorithm::Opt => (apply_uniform(active, instance, clearing, false), false),
            Algorithm::Eql => {
                let d = clearing.diagnostics();
                // Per-job Δ violations mean the uniform slowdown cannot
                // meet the target; the stop-every-core fallback
                // (`capped_at_delta_max`) is already counted by the
                // shortfall check in `step_slot`.
                if !d.accepted && !d.capped_at_delta_max {
                    acc.unmet_emergencies += 1;
                }
                (apply_uniform(active, instance, clearing, false), false)
            }
        }
    }

    /// Clears one overload event through the hierarchical federated
    /// market: the topology is scaled so the root's capacity deficit is
    /// exactly the controller's reduction target, instance rows are
    /// assigned to racks deterministically by job id, rack loads carry the
    /// rows' full-speed demand, and every oversubscribed node of the tree
    /// runs its own subtree market (same mechanism as the flat path). The
    /// merged clearing maps back onto the jobs exactly as a flat clearing
    /// would; per-level accounting lands in [`FederatedStats`].
    ///
    /// Under an active [`GridFaultPlan`](mpr_power::GridFaultPlan) the
    /// event clears against the faulted [`TopologyState`] instead of the
    /// raw spec: dead subtrees are fenced out of the hierarchy, their jobs
    /// reassigned to the nearest surviving sibling rack (quarantined when
    /// nothing survives), and surviving nodes clear at derated
    /// capacities. Once every fault is repaired the state is bit-identical
    /// to healthy, so post-repair clearing matches the never-faulted run
    /// exactly — the invariant the grid-repair chaos oracle checks.
    #[allow(clippy::too_many_lines)]
    fn apply_federated(
        &self,
        active: &mut [ActiveJob],
        target_w: f64,
        t_secs: f64,
        acc: &mut Accounting,
        spec: &TopologySpec,
    ) -> (f64, bool) {
        let instance = self.build_instance(active);
        let rack_ids = spec.rack_ids();
        let Some(&first_rack) = rack_ids.first() else {
            return (0.0, false);
        };
        if instance.is_empty() {
            return (0.0, false);
        }
        // Infrastructure state at this instant — a pure function of
        // (plan, topology, t), healthy when no plan is active.
        let grid_plan = self.config.active_grid_fault();
        let grid = grid_plan.as_ref().map_or_else(
            || TopologyState::healthy(spec),
            |plan| plan.state_at(spec, t_secs),
        );
        let faulted = !grid.is_healthy();
        let fencing = faulted && !self.config.grid_fencing_disabled;
        if faulted {
            acc.federated.fenced_nodes += grid.dead_count();
            acc.federated.derated_nodes += grid.derated_count();
        }
        if let Some(plan) = grid_plan {
            let last = plan.last_repair_secs(spec);
            if last.is_finite() && t_secs >= last {
                acc.federated.post_repair_events += 1;
            }
        }
        // Full-speed demand of each active job, by market id.
        let static_w = self.config.power_model.static_w_per_core();
        let demand_by_id: BTreeMap<u64, f64> = active
            .iter()
            .map(|j| {
                (
                    j.idx as u64,
                    j.cores * (static_w + j.profile.unit_dynamic_power_w()),
                )
            })
            .collect();
        // Deterministic job → rack placement: stable across slots and
        // resume, independent of arrival order. A job whose home rack is
        // fenced fails over to the nearest surviving sibling (same PDU
        // first, then the same UPS, widening to the whole tree).
        let mut assignment = Vec::with_capacity(instance.len());
        let mut rack_load: BTreeMap<usize, f64> = BTreeMap::new();
        let mut quarantined = 0usize;
        for id in instance.ids() {
            let home = rack_ids
                .get((*id as usize) % rack_ids.len())
                .copied()
                .unwrap_or(first_rack);
            let rack = if fencing && !grid.alive(home) {
                match grid.reassign_rack(home) {
                    Some(r) => {
                        acc.federated.reassigned_jobs += 1;
                        r
                    }
                    None => {
                        quarantined += 1;
                        home
                    }
                }
            } else {
                home
            };
            assignment.push(rack);
            *rack_load.entry(rack).or_insert(0.0) += demand_by_id.get(id).copied().unwrap_or(0.0);
        }
        if quarantined > 0 {
            // Reassignment only fails when no rack anywhere survives: the
            // tree is dark, no market can run. Reductions stand and the
            // shortfall surfaces as an unmet emergency.
            acc.federated.quarantined_jobs += quarantined;
            return (0.0, false);
        }
        let total_load: f64 = rack_load.values().sum();
        // Scale every capacity so the root's deficit equals the
        // controller's target (floored at a sliver of the load so a
        // target exceeding the whole demand still yields a valid tree).
        // The root's *derated* capacity anchors the scale, so inner
        // constraints keep their spec-relative proportions under faults.
        let root_cap_w = (total_load - target_w).max(total_load * 1e-3).max(1e-6);
        let root_spec_cap = grid.derated_capacity(0).get();
        if root_spec_cap <= 0.0 {
            return (0.0, false);
        }
        let scale = root_cap_w / root_spec_cap;
        // The fencing path prunes dead subtrees and derates survivors; on
        // a healthy state it is bit-identical to the plain spec build
        // with an identity map.
        let built = if self.config.grid_fencing_disabled {
            spec.to_hierarchy_scaled(scale)
                .map(|h| (h, (0..spec.nodes.len()).map(Some).collect::<Vec<_>>()))
        } else {
            grid.to_hierarchy_scaled(scale)
        };
        let Ok((mut hierarchy, map)) = built else {
            return (0.0, false);
        };
        for (rack, load) in &rack_load {
            let Some(&Some(mapped)) = map.get(*rack) else {
                return (0.0, false);
            };
            if hierarchy.set_load(mapped, Watts::new(*load)).is_err() {
                return (0.0, false);
            }
        }
        // Assignment in hierarchy ids (identity while healthy).
        let hier_assignment: Vec<usize> = assignment
            .iter()
            .map(|r| map.get(*r).copied().flatten().unwrap_or(*r))
            .collect();
        let Ok(market) = HierarchicalMarket::new(&hierarchy, hier_assignment.clone()) else {
            return (0.0, false);
        };
        let outcome =
            match market.clear(&instance, || crate::mechanism::for_algorithm(&self.config)) {
                Ok(outcome) => outcome,
                // Every subtree market failed: nothing clears,
                // reductions stand — same contract as the flat path.
                Err(_) => return (0.0, false),
            };
        acc.federated.absorb(&outcome);
        if grid_plan.is_some() {
            self.audit_grid_invariants(
                acc,
                &grid,
                &assignment,
                &hier_assignment,
                &hierarchy,
                &instance,
                &outcome,
            );
        }
        self.apply_clearing(active, &instance, &outcome.clearing, acc)
    }

    /// Post-clear audit of the grid-fault safety invariants, recorded in
    /// [`FederatedStats`] for the chaos oracles: (1) watts cleared through
    /// rows still assigned to dead racks (must be zero under fencing), and
    /// (2) the worst excess of any node's post-clear load over its derated
    /// capacity beyond its reported residual (must be ~zero always).
    #[allow(clippy::too_many_arguments)]
    fn audit_grid_invariants(
        &self,
        acc: &mut Accounting,
        grid: &mpr_power::TopologyState<'_>,
        assignment: &[usize],
        hier_assignment: &[usize],
        hierarchy: &mpr_power::PowerHierarchy,
        instance: &MarketInstance,
        outcome: &mpr_power::FederatedOutcome,
    ) {
        let wpu = instance.watts_per_unit_slice();
        let reductions = outcome.clearing.reductions();
        let dead_w: f64 = assignment
            .iter()
            .zip(reductions)
            .zip(wpu)
            .filter(|((rack, _), _)| !grid.alive(**rack))
            .map(|((_, r), w)| r * w)
            .sum();
        acc.federated.dead_cleared_watts += dead_w;
        for node in 0..hierarchy.len() {
            let racks = hierarchy.leaf_racks(node);
            let shed: f64 = hier_assignment
                .iter()
                .zip(reductions)
                .zip(wpu)
                .filter(|((rack, _), _)| racks.binary_search(rack).is_ok())
                .map(|((_, r), w)| r * w)
                .sum();
            let post = hierarchy.load_at(node).get() - shed;
            let residual = outcome
                .levels
                .iter()
                .find(|l| l.id == node)
                .map_or(0.0, |l| l.residual.get());
            let excess = post - hierarchy.capacity_of(node).get() - residual;
            if excess > acc.federated.derate_excess_watts {
                acc.federated.derate_excess_watts = excess;
            }
        }
    }

    /// MPR-INT under an active agent-fault or net plan: wraps each
    /// participating agent in its planned faulty adapter, registers it with
    /// the fault-tolerant `level0` exchange, and clears through the
    /// MPR-INT → MPR-STAT → EQL [`FallbackChain::degradation`] ladder,
    /// recording the degradation diagnostics — and, over a network, the
    /// transport totals — into the accounting.
    fn apply_int_chain(
        &self,
        active: &mut [ActiveJob],
        target_w: f64,
        acc: &mut Accounting,
        mut level0: Box<dyn AgentExchange>,
        event_seed: u64,
    ) -> (f64, bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(event_seed);
        let fault_plan = self.config.fault_plan.filter(FaultPlan::is_active);
        for j in active.iter().filter(|j| j.participates) {
            let inner = NetGainAgent::new(
                j.idx as u64,
                j.perceived.clone(),
                Watts::new(j.profile.unit_dynamic_power_w()),
            );
            let agent = match fault_plan {
                Some(fp) => planned_agent(&fp, inner, &mut rng),
                None => Box::new(inner),
            };
            level0.register(agent, j.static_supply.map(|s| s.bid()));
        }
        let instance = level0.instance();
        // An overload with zero participants clears nothing.
        if instance.is_empty() {
            return (0.0, false);
        }
        let Ok(clearing) =
            FallbackChain::degradation(level0).clear(&instance, Watts::new(target_w))
        else {
            return (0.0, false);
        };
        let d = clearing.diagnostics();
        acc.int_iterations += d.iterations;
        acc.degradation.rounds_retried += d.retries;
        acc.degradation.participants_quarantined += d.quarantined.len();
        acc.degradation.residual_overload_watts += clearing.residual().get();
        if d.diverged {
            acc.degradation.diverged_clearings += 1;
        }
        if let Some(t) = d.transport.as_ref() {
            acc.transport.absorb(t);
            // Each overload event builds a fresh channel, so its lifetime
            // counters are exactly this clearing's share.
            acc.transport.set_channel_totals(t.channel);
        }
        let level = d.chain_level.unwrap_or(ChainLevel::Interactive);
        match level {
            ChainLevel::Interactive => {}
            ChainLevel::StaticFallback => acc.degradation.static_fallbacks += 1,
            ChainLevel::EqlCapping => acc.degradation.eql_cappings += 1,
        }
        acc.degradation.observe_chain_level(level);
        let delivered = apply_uniform(active, &instance, &clearing, true);
        (delivered, level > ChainLevel::Interactive)
    }

    pub(crate) fn finish_report(&self, setup: &RunSetup, state: EngineState) -> SimReport {
        let EngineState {
            total_slots,
            mut acc,
            timeline,
            events,
            telemetry,
            ..
        } = state;
        let federated = self
            .config
            .is_federated()
            .then(|| std::mem::take(&mut acc.federated));
        let hours = total_slots as f64 * self.config.slot_secs / 3600.0;
        let x = self.config.oversubscription_pct;
        let extra_capacity = f64::from(self.trace.total_cores()) * (x / (100.0 + x)) * hours;
        for (name, (sum, count)) in &acc.per_profile_stretch {
            let stats = acc.per_profile.entry(name.clone()).or_default();
            stats.jobs = *count;
            stats.runtime_stretch_pct = if *count > 0 { sum / *count as f64 } else { 0.0 };
        }
        SimReport {
            trace_name: self.trace.name().to_owned(),
            algorithm: self.config.algorithm.to_string(),
            oversubscription_pct: x,
            total_slots,
            overload_slots: acc.overload_slots,
            overload_events: acc.overload_events,
            unmet_emergencies: acc.unmet_emergencies,
            jobs_total: acc.jobs_started,
            jobs_completed: acc.jobs_completed,
            jobs_affected: acc.jobs_affected,
            jobs_deferred: acc.jobs_deferred,
            reduction_core_hours: acc.reduction_ch,
            cost_core_hours: acc.cost_ch,
            reward_core_hours: acc.reward_ch,
            avg_runtime_increase_pct: if acc.stretch_count > 0 {
                acc.stretch_sum_pct / acc.stretch_count as f64
            } else {
                0.0
            },
            extra_capacity_core_hours: extra_capacity,
            capacity_watts: setup.capacity_w,
            peak_watts: setup.peak_w,
            int_iterations_total: acc.int_iterations,
            degradation: acc.degradation,
            per_profile: acc.per_profile,
            timeline,
            events,
            telemetry: telemetry.map(|tel| tel.estimator.health),
            transport: self
                .config
                .net_plan
                .filter(NetPlan::is_active)
                .map(|_| acc.transport),
            durability: None,
            federated,
        }
    }
}

/// Wraps a market agent in the faulty adapter the fault plan draws for it
/// (or returns it untouched). One uniform draw per agent partitions the
/// fault mix exactly as the plan's fractions specify; byzantine agents
/// consume one extra draw for their phase.
fn planned_agent<A: BiddingAgent + 'static>(
    plan: &FaultPlan,
    inner: A,
    rng: &mut ChaCha8Rng,
) -> Box<dyn BiddingAgent> {
    let u: f64 = rng.gen();
    let unresp_end = plan.unresponsive_frac;
    let crash_end = unresp_end + plan.crash_frac;
    let stale_end = crash_end + plan.stale_frac;
    let byz_end = stale_end + plan.byzantine_frac;
    if u < unresp_end {
        Box::new(UnresponsiveAgent::new(inner, 0))
    } else if u < crash_end {
        Box::new(CrashAgent::new(inner, 1))
    } else if u < stale_end {
        Box::new(StaleAgent::new(inner, 1))
    } else if u < byz_end {
        Box::new(ByzantineAgent::new(
            inner,
            plan.byzantine_factor,
            true,
            rng.gen(),
        ))
    } else {
        Box::new(inner)
    }
}

/// Applies a clearing uniformly: every active job takes its row's reduction
/// (zero when it has no row) and, when `set_price` is on, the one headline
/// clearing price — matching the uniform-price markets, where non-members
/// shed nothing but still observe the price.
fn apply_uniform(
    active: &mut [ActiveJob],
    instance: &MarketInstance,
    clearing: &MechanismClearing,
    set_price: bool,
) -> f64 {
    let by_id: BTreeMap<u64, f64> = instance
        .ids()
        .iter()
        .zip(clearing.reductions())
        .map(|(id, r)| (*id, *r))
        .collect();
    let price = clearing.price().get();
    let mut delivered = 0.0;
    for j in active.iter_mut() {
        let delta = by_id.get(&(j.idx as u64)).copied().unwrap_or(0.0);
        j.reduction = delta;
        if set_price {
            j.price = price;
        }
        delivered += delta * j.profile.unit_dynamic_power_w();
    }
    delivered
}

/// Applies a clearing's per-row reductions and per-row prices to the member
/// jobs only — jobs outside the instance keep their in-force reductions.
/// Used by discriminatory-price clearings (VCG payments, the capped
/// break-even fallback).
fn apply_member_rows(
    active: &mut [ActiveJob],
    instance: &MarketInstance,
    clearing: &MechanismClearing,
) -> f64 {
    let by_id: BTreeMap<u64, (f64, f64)> = instance
        .ids()
        .iter()
        .zip(clearing.reductions())
        .zip(clearing.participant_prices())
        .map(|((id, r), q)| (*id, (*r, *q)))
        .collect();
    let mut delivered = 0.0;
    for j in active.iter_mut() {
        if let Some(&(delta, price)) = by_id.get(&(j.idx as u64)) {
            j.reduction = delta;
            j.price = price;
            delivered += delta * j.profile.unit_dynamic_power_w();
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use mpr_power::telemetry::{EstimatorConfig, SensorFaultConfig};
    use mpr_workload::{ClusterSpec, Job, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(ClusterSpec::gaia().with_span_days(5.0))
            .with_seed(3)
            .generate()
    }

    #[test]
    fn baseline_without_oversubscription_never_overloads() {
        let trace = small_trace();
        let report = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 0.0)).run();
        assert_eq!(report.overload_slots, 0);
        assert_eq!(report.overload_events, 0);
        assert_eq!(report.cost_core_hours, 0.0);
        assert_eq!(report.reward_core_hours, 0.0);
        assert_eq!(report.jobs_total, trace.len());
        assert_eq!(report.jobs_completed, trace.len());
    }

    #[test]
    fn oversubscription_triggers_overloads_and_reductions() {
        let trace = small_trace();
        let report = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        assert!(report.overload_events > 0, "expected overloads at 15%");
        assert!(report.reduction_core_hours > 0.0);
        assert!(report.cost_core_hours > 0.0);
        assert!(report.reward_core_hours > 0.0);
        assert!(report.jobs_affected > 0);
        assert!(report.capacity_watts < report.peak_watts);
    }

    #[test]
    fn rewards_exceed_costs_for_cooperative_bidding() {
        // The paper's headline user guarantee (Fig. 11(a)).
        let trace = small_trace();
        let report = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        let pct = report.reward_pct_of_cost().expect("cost incurred");
        assert!(pct > 100.0, "reward must exceed cost, got {pct:.1}%");
    }

    #[test]
    fn eql_costs_more_than_markets_and_opt() {
        let trace = small_trace();
        let cost = |alg| {
            Simulation::new(&trace, SimConfig::new(alg, 15.0))
                .run()
                .cost_core_hours
        };
        let opt = cost(Algorithm::Opt);
        let eql = cost(Algorithm::Eql);
        let stat = cost(Algorithm::MprStat);
        let int = cost(Algorithm::MprInt);
        assert!(eql > opt, "EQL {eql:.1} must cost more than OPT {opt:.1}");
        assert!(
            eql > int,
            "EQL {eql:.1} must cost more than MPR-INT {int:.1}"
        );
        // MPR-INT tracks OPT closely (within 2x here; near-equal at scale).
        assert!(
            int <= opt * 2.0 + 1.0,
            "MPR-INT {int:.1} should be near OPT {opt:.1}"
        );
        assert!(stat >= opt * 0.99, "MPR-STAT should not beat OPT");
    }

    #[test]
    fn all_algorithms_reduce_similarly() {
        // Fig. 8(d): the required reduction is dictated by the overloads.
        let trace = small_trace();
        let red = |alg| {
            Simulation::new(&trace, SimConfig::new(alg, 15.0))
                .run()
                .reduction_core_hours
        };
        let opt = red(Algorithm::Opt);
        let stat = red(Algorithm::MprStat);
        assert!(opt > 0.0 && stat > 0.0);
        let ratio = stat / opt;
        assert!(
            (0.3..3.0).contains(&ratio),
            "reductions should be same order: OPT {opt:.1} vs STAT {stat:.1}"
        );
    }

    #[test]
    fn higher_oversubscription_increases_overloads() {
        // Deferral feedback makes per-level overload time noisy on short
        // traces; the end-to-end trend must still be strongly increasing.
        let trace = small_trace();
        let ov = |pct| {
            Simulation::new(&trace, SimConfig::new(Algorithm::Opt, pct))
                .run()
                .overload_time_pct()
        };
        let low = ov(5.0);
        let high = ov(20.0);
        assert!(
            high > 1.5 * low,
            "overload time must grow with oversubscription: {low} → {high}"
        );
    }

    #[test]
    fn int_iterations_are_recorded() {
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0)).run();
        assert!(r.overload_events > 0);
        assert!(r.int_iterations_total > 0);
        assert!(r.int_iterations_avg() >= 1.0);
    }

    #[test]
    fn deferral_happens_during_long_emergencies() {
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 20.0)).run();
        // At 20 % oversubscription emergencies last ≥ 10 min; some of the
        // steady job stream must land inside one.
        assert!(r.jobs_deferred > 0);
        // Everybody still completes: deferred jobs are started on lift.
        assert_eq!(r.jobs_completed, r.jobs_total);
    }

    #[test]
    fn runtime_increase_is_small() {
        // Fig. 9(b): < 1 % average runtime increase.
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        assert!(
            r.avg_runtime_increase_pct < 5.0,
            "runtime increase {} should be small",
            r.avg_runtime_increase_pct
        );
    }

    #[test]
    fn per_profile_stats_cover_reduced_profiles() {
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::Eql, 15.0)).run();
        assert!(!r.per_profile.is_empty());
        let total: f64 = r.per_profile.values().map(|s| s.reduction_core_hours).sum();
        assert!((total - r.reduction_core_hours).abs() < 1e-6);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let trace = small_trace();
        let a = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        let b = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn lower_participation_increases_cost() {
        let trace = small_trace();
        let cost = |p: f64| {
            Simulation::new(
                &trace,
                SimConfig::new(Algorithm::MprStat, 15.0).with_participation(p),
            )
            .run()
            .cost_core_hours
        };
        let full = cost(1.0);
        let half = cost(0.5);
        assert!(
            half > full * 0.9,
            "cost at 50% participation ({half:.1}) should not be far below full ({full:.1})"
        );
    }

    #[test]
    fn single_job_trace_completes() {
        let trace = Trace::new("tiny", 100, vec![Job::new(1, 0.0, 1800.0, 10)]);
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::Opt, 10.0)).run();
        assert_eq!(r.jobs_total, 1);
        assert_eq!(r.jobs_completed, 1);
    }

    #[test]
    fn power_phases_increase_overload_churn() {
        let trace = small_trace();
        let flat = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        let phased = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_phases(0.25),
        )
        .run();
        // Phase oscillation makes demand noisier around the cap: at least
        // as many emergencies as the flat model.
        assert!(
            phased.overload_events + 5 >= flat.overload_events,
            "phased {} vs flat {}",
            phased.overload_events,
            flat.overload_events
        );
        // And the run is still fully accounted.
        assert_eq!(phased.jobs_total, phased.jobs_completed);
    }

    #[test]
    fn phase_amplitude_is_clamped() {
        let cfg = SimConfig::new(Algorithm::Opt, 10.0).with_phases(2.0);
        assert!(cfg.phase_amplitude < 1.0);
        let cfg = SimConfig::new(Algorithm::Opt, 10.0).with_phases(-1.0);
        assert_eq!(cfg.phase_amplitude, 0.0);
    }

    #[test]
    fn event_log_is_consistent() {
        use crate::report::EmergencyEventKind;
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        let declares = r
            .events
            .iter()
            .filter(|e| e.kind == EmergencyEventKind::Declare)
            .count();
        assert_eq!(declares, r.overload_events);
        // Times are non-decreasing, declare events carry positive targets
        // and prices, lifts carry neither.
        for w in r.events.windows(2) {
            assert!(w[1].t_secs >= w[0].t_secs);
        }
        for e in &r.events {
            match e.kind {
                EmergencyEventKind::Declare | EmergencyEventKind::Escalate => {
                    assert!(e.target_watts > 0.0);
                    assert!(e.price > 0.0, "market algorithms price every event");
                }
                EmergencyEventKind::Lift => {
                    assert_eq!(e.target_watts, 0.0);
                    assert_eq!(e.price, 0.0);
                }
            }
        }
        // Every completed emergency lasts at least the cool-down.
        for d in r.emergency_durations_secs() {
            assert!(d >= 600.0 - 1e-9, "duration {d} below cool-down");
        }
    }

    #[test]
    fn timeline_recording() {
        let trace = small_trace();
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_timeline(),
        )
        .run();
        let tl = r.timeline.as_ref().expect("timeline recorded");
        assert_eq!(tl.power_w.len(), r.total_slots);
        assert_eq!(tl.capacity_w.len(), r.total_slots);
        // Demand = power + reduction at every slot.
        for ((p, d), red) in tl.power_w.iter().zip(&tl.demand_w).zip(&tl.reduction_w) {
            assert!((p + red - d).abs() < 1e-6);
        }
        // Demand-overload slots in the timeline match the report.
        let over = tl
            .demand_w
            .iter()
            .zip(&tl.capacity_w)
            .filter(|(d, c)| d > c)
            .count();
        assert_eq!(over, r.overload_slots);
        // Prices are only nonzero during emergencies.
        assert!(tl.price.iter().any(|&q| q > 0.0));
    }

    #[test]
    fn capacity_policy_tightens_the_cap() {
        use mpr_power::FixedCapacity;
        use std::sync::Arc;
        let trace = small_trace();
        let base = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let peak = base.reference_peak_watts();
        let baseline = base.run();
        // A policy pinning capacity 5 % below the oversubscribed level.
        let tight = peak * (100.0 / 115.0 * 0.95);
        let policy = Arc::new(FixedCapacity(tight));
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_capacity_policy(policy),
        )
        .run();
        assert!(
            r.overload_slots > baseline.overload_slots,
            "tighter capacity must overload more: {} vs {}",
            r.overload_slots,
            baseline.overload_slots
        );
        assert!(r.reduction_core_hours > baseline.reduction_core_hours);
    }

    #[test]
    fn fault_injection_quarantines_and_still_clears() {
        let trace = small_trace();
        let plan = crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1);
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0).with_faults(plan),
        )
        .run();
        assert!(
            r.overload_events > 0,
            "need overloads to inject faults into"
        );
        assert!(
            r.degradation.participants_quarantined > 0,
            "30%+10% fault rates must quarantine someone"
        );
        assert!(
            r.degradation.deepest_chain_level.is_some(),
            "chain level must be recorded"
        );
        // The degradation chain delivers min(target, attainable) at every
        // event, so no emergency goes unmet and no residual accumulates.
        assert_eq!(r.unmet_emergencies, 0, "chain must meet every target");
        assert_eq!(r.degradation.residual_overload_watts, 0.0);
        // The run itself stays healthy.
        assert_eq!(r.jobs_completed, r.jobs_total);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let trace = small_trace();
        let plan = crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(plan);
        let a = Simulation::new(&trace, cfg.clone()).run();
        let b = Simulation::new(&trace, cfg).run();
        assert_eq!(a, b, "seeded fault injection must reproduce bit-for-bit");
    }

    #[test]
    fn clean_runs_report_no_degradation() {
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0)).run();
        assert!(!r.degradation.any_degradation());
        assert_eq!(r.degradation.deepest_chain_level, None);
        assert_eq!(r.degradation.bid_failures, 0);
        // An all-zero plan is equivalent to no plan.
        let z = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0)
                .with_faults(crate::config::FaultPlan::default()),
        )
        .run();
        assert_eq!(z, r);
    }

    #[test]
    fn lossy_network_run_still_clears_and_records_transport_totals() {
        let trace = small_trace();
        let plan = crate::config::NetPlan::lossy(0.3);
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0).with_net(plan),
        )
        .run();
        assert!(r.overload_events > 0, "need overloads to exercise the net");
        let t = r.transport.expect("active net plan must report totals");
        assert!(t.clearings > 0, "every overload event clears over the net");
        assert!(t.rounds > 0);
        assert!(t.announces >= t.rounds, "each round announces to someone");
        assert!(
            t.replies_accepted > 0,
            "agents must get through at 30% loss"
        );
        assert!(t.messages_dropped > 0, "30% drop must lose messages");
        assert!(t.retransmits > 0, "losses must trigger retransmits");
        assert!(t.virtual_ticks > 0);
        // The resilient chain (ISSUE acceptance): under 30% drop the run
        // still meets every power-reduction target or reports the exact
        // residual — nothing goes silently unmet.
        assert_eq!(r.unmet_emergencies, 0, "chain must meet every target");
        assert_eq!(r.degradation.residual_overload_watts, 0.0);
        assert_eq!(r.jobs_completed, r.jobs_total);
    }

    #[test]
    fn lossy_network_run_is_deterministic() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_net(crate::config::NetPlan {
            drop_prob: 0.25,
            duplicate_prob: 0.10,
            partition_prob: 0.05,
            ..crate::config::NetPlan::default()
        });
        let a = Simulation::new(&trace, cfg.clone()).run();
        let b = Simulation::new(&trace, cfg).run();
        assert_eq!(a, b, "seeded virtual network must reproduce bit-for-bit");
    }

    #[test]
    fn idle_net_plan_is_equivalent_to_no_plan() {
        let trace = small_trace();
        let clean = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0)).run();
        let idle = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0).with_net(crate::config::NetPlan::default()),
        )
        .run();
        assert_eq!(idle, clean);
        assert_eq!(idle.transport, None, "idle plan reports no totals");
    }

    #[test]
    fn net_plan_composes_with_an_agent_fault_plan() {
        let trace = small_trace();
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0)
                .with_net(crate::config::NetPlan::lossy(0.2))
                .with_faults(crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1)),
        )
        .run();
        assert!(r.overload_events > 0);
        assert!(r.transport.is_some(), "net totals present when composed");
        assert!(
            r.degradation.participants_quarantined > 0,
            "unresponsive agents must still be quarantined behind the net"
        );
        assert_eq!(r.unmet_emergencies, 0);
        assert_eq!(r.jobs_completed, r.jobs_total);
    }

    #[test]
    #[should_panic(expected = "at least one application profile")]
    fn empty_profiles_panic() {
        let trace = small_trace();
        let mut cfg = SimConfig::new(Algorithm::Opt, 10.0);
        cfg.profiles.clear();
        let _ = Simulation::new(&trace, cfg);
    }

    #[test]
    fn runs_without_telemetry_report_no_health() {
        let trace = small_trace();
        let r = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        assert_eq!(r.telemetry, None);
    }

    #[test]
    fn ideal_telemetry_with_passthrough_estimator_matches_direct_measurement() {
        // An ideal sensor through a pass-through estimator feeds the
        // controller the exact same floats as no telemetry at all: the
        // reports must be identical except for the health counters.
        let trace = small_trace();
        let direct = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0)).run();
        let mut piped = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_telemetry(TelemetryConfig {
                sensor: SensorFaultConfig::default(),
                estimator: EstimatorConfig::passthrough(),
            }),
        )
        .run();
        let health = piped.telemetry.take().expect("telemetry health recorded");
        assert_eq!(health.samples_missed, 0);
        assert_eq!(health.outliers_rejected, 0);
        assert_eq!(health.samples_delivered, piped.total_slots);
        assert_eq!(piped, direct);
    }

    #[test]
    fn telemetry_faults_are_deterministic() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_telemetry(
            TelemetryConfig::with_faults(SensorFaultConfig {
                noise_sigma_frac: 0.02,
                dropout_prob: 0.2,
                ..SensorFaultConfig::default()
            }),
        );
        let a = Simulation::new(&trace, cfg.clone()).run();
        let b = Simulation::new(&trace, cfg).run();
        assert_eq!(a, b, "seeded sensor faults must reproduce bit-for-bit");
        let health = a.telemetry.expect("health recorded");
        assert!(health.samples_missed > 0, "20% dropout must lose samples");
    }

    #[test]
    fn noisy_telemetry_still_controls_overloads() {
        let trace = small_trace();
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_telemetry(TelemetryConfig::with_faults(
                SensorFaultConfig {
                    noise_sigma_frac: 0.03,
                    dropout_prob: 0.3,
                    ..SensorFaultConfig::default()
                },
            )),
        )
        .run();
        // The reactive loop still functions end to end on estimated power.
        assert!(r.overload_events > 0);
        assert!(r.reduction_core_hours > 0.0);
        assert_eq!(r.jobs_completed, r.jobs_total);
    }
}
