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

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

use mpr_apps::{AppProfile, NoisyCost, ProfileCost};
use mpr_core::bidding::StaticStrategy;
use mpr_core::mechanism::{Clearing as MechanismClearing, FaultTolerantExchange};
use mpr_core::{
    BiddingAgent, ByzantineAgent, ChainLevel, CostModel, CrashAgent, FallbackChain, MarketInstance,
    Mechanism, NetGainAgent, ParticipantSpec, ScaledCost, StaleAgent, SupplyFunction,
    UnresponsiveAgent, Watts,
};
use mpr_power::telemetry::{FaultySensor, PowerSensor, RobustEstimator};
use mpr_power::{
    CompiledGridFaults, EmergencyAction, EmergencyConfig, EmergencyController, GridSnapshot,
    HierarchicalMarket, Oversubscription, TopologySpec, TopologyState,
};
use mpr_workload::Trace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{self, CheckpointError, CheckpointPlan, RunOutcome};
use crate::config::{Algorithm, CostNoise, FaultPlan, NetPlan, SimConfig};
use crate::ledger::LedgerEvent;
use crate::mechanism::Level0;
use crate::report::{
    DegradationStats, EmergencyEvent, EmergencyEventKind, FederatedStats, ProfileStats, SimReport,
    TransportTotals,
};

/// Stream separator for the sensor fault RNG, so telemetry faults never
/// share draws with profile assignment or the job stream.
const SENSOR_SEED_XOR: u64 = 0x7e1e_6e74_0bad_5eed;

/// Remaining work, full-speed seconds, below which a full-speed job may
/// step lazily: 2^46, well inside the 2^53 where a whole-second slot
/// stops being a multiple of the remaining work's ulp.
const LAZY_MAX_REMAINING_SECS: f64 = 70_368_744_177_664.0;

/// A job currently executing in the simulated system.
pub(crate) struct ActiveJob {
    /// Index into the trace's job list (doubles as market id).
    pub(crate) idx: usize,
    pub(crate) cores: f64,
    pub(crate) profile: Arc<AppProfile>,
    /// Remaining work in full-speed seconds. While the job steps lazily
    /// this is its remaining work before slot `lazy_since`; read it
    /// through [`Progress::remaining`].
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
    /// Slowdown and cost rate at the reduction they were computed for;
    /// derived data, never checkpointed.
    rates: Rates,
    /// While the job steps lazily, the slot its `remaining_secs` was
    /// synced at; derived data, never checkpointed.
    lazy_since: Option<usize>,
}

/// Lazy full-speed progress. At zero reduction a job's rate is exactly
/// 1.0, and with a whole-second slot and remaining work below
/// [`LAZY_MAX_REMAINING_SECS`] every per-slot subtraction `r − slot` that
/// stays non-negative is exact. `k` of them therefore equal the single
/// subtraction `r − k·slot`, so such a job skips the progress loop until
/// the slot it completes in, its wake step. Reduced jobs, and every job
/// when the slot is fractional, step eagerly each slot. Derived data,
/// never checkpointed: a restore re-sorts every job with
/// [`EngineState::resync`].
pub(crate) struct Progress {
    /// The slot length when it is a whole number of seconds; `None` steps
    /// every job eagerly.
    slot: Option<f64>,
    /// Jobs stepped every slot.
    eager: usize,
    /// Earliest wake step of a lazy job; `usize::MAX` when none is lazy.
    due: usize,
    /// Each active job's wake step, in `active` order: the slot a lazy job
    /// completes in, 0 for a job stepped every slot. The progress loop
    /// skips a lazy job on this column alone, without touching the job.
    wake: Vec<usize>,
}

impl Progress {
    pub(crate) fn new(slot: f64) -> Self {
        Self {
            slot: (slot.fract().to_bits() == 0).then_some(slot),
            eager: 0,
            due: usize::MAX,
            wake: Vec::new(),
        }
    }

    /// `job`'s remaining work before slot `step`, materialized when the
    /// job steps lazily.
    pub(crate) fn remaining(&self, job: &ActiveJob, step: usize) -> f64 {
        match (job.lazy_since, self.slot) {
            (Some(since), Some(slot)) => {
                job.remaining_secs - step.saturating_sub(since) as f64 * slot
            }
            _ => job.remaining_secs,
        }
    }

    /// Stores `job`'s remaining work before slot `step` and ends its lazy
    /// stepping.
    fn materialize(&self, job: &mut ActiveJob, step: usize) {
        job.remaining_secs = self.remaining(job, step);
        job.lazy_since = None;
    }

    /// Sorts `job` into lazy or eager stepping as of slot `step`,
    /// materializing its remaining work first, and returns its wake step.
    fn sync(&mut self, job: &mut ActiveJob, step: usize) -> usize {
        self.materialize(job, step);
        let r = job.remaining_secs;
        let full_speed = job.reduction <= 0.0 && job.rates().perf.to_bits() == 1f64.to_bits();
        match self.slot {
            Some(slot) if full_speed && r > 0.0 && r < LAZY_MAX_REMAINING_SECS => {
                let done_step = step + slots_to_finish(r, slot) - 1;
                job.lazy_since = Some(step);
                self.due = self.due.min(done_step);
                done_step
            }
            _ => {
                self.eager += 1;
                0
            }
        }
    }

    /// Sorts a newly admitted job and appends its wake step.
    fn push(&mut self, job: &mut ActiveJob, step: usize) {
        let wake = self.sync(job, step);
        self.wake.push(wake);
    }

    /// Re-sorts every active job and rebuilds the wake column.
    fn resync(&mut self, active: &mut [ActiveJob], step: usize) {
        self.eager = 0;
        self.due = usize::MAX;
        self.wake.clear();
        for job in active {
            let wake = self.sync(job, step);
            self.wake.push(wake);
        }
    }
}

/// The least `k ≥ 1` with `r − k·slot ≤ 0`: the number of full-speed
/// slots that finish `r` seconds of work. Every `k·slot` here is a whole
/// number below 2^53 and so exact, and a subtraction's sign is always
/// exact, so the float estimate is corrected to the true count.
fn slots_to_finish(r: f64, slot: f64) -> usize {
    let mut k = ((r / slot).ceil() as usize).max(1);
    while k > 1 && r - (k - 1) as f64 * slot <= 0.0 {
        k -= 1;
    }
    while r - k as f64 * slot > 0.0 {
        k += 1;
    }
    k
}

/// A job's progress rate and true cost rate at one reduction. Only a
/// clearing or a lift writes a job's reduction, so the slot loop
/// evaluates the profile curve and the cost stack once per change instead
/// of once per slot.
#[derive(Clone, Copy)]
struct Rates {
    /// `to_bits` of the reduction the rates were computed for.
    reduction_bits: u64,
    /// Full-speed seconds of work done per second.
    perf: f64,
    /// True cost rate, core-hours per hour (0 while unreduced).
    cost_rate: f64,
}

impl Rates {
    /// The rates of a `cores`-wide job of `profile`, priced by
    /// `true_cost`, at `reduction` cores.
    fn at(
        profile: &AppProfile,
        true_cost: &ScaledCost<ProfileCost>,
        cores: f64,
        reduction: f64,
    ) -> Self {
        Self {
            reduction_bits: reduction.to_bits(),
            perf: profile.performance(1.0 - reduction / cores),
            cost_rate: if reduction > 0.0 {
                true_cost.cost(reduction)
            } else {
                0.0
            },
        }
    }
}

impl ActiveJob {
    /// The rates at the current reduction, refreshed only when the
    /// reduction changed since they were last computed.
    fn rates(&mut self) -> Rates {
        if self.rates.reduction_bits != self.reduction.to_bits() {
            self.rates = Rates::at(&self.profile, &self.true_cost, self.cores, self.reduction);
        }
        self.rates
    }
}

/// What a job's draw depends on besides the job itself.
#[derive(Clone, Copy)]
struct DrawShape {
    static_w: f64,
    phase_amplitude: f64,
    phase_period_secs: f64,
}

impl DrawShape {
    /// `job`'s `(power_w, reduction_w)` at `t`, watts: per-job phases
    /// modulate the dynamic draw around nominal.
    fn terms(self, job: &ActiveJob, t: f64) -> (f64, f64) {
        let phase = if self.phase_amplitude <= 0.0 {
            1.0
        } else {
            1.0 + self.phase_amplitude
                * (std::f64::consts::TAU * (t + job.phase_offset) / self.phase_period_secs).sin()
        };
        let unit_w = job.profile.unit_dynamic_power_w();
        (
            job.cores * self.static_w + (job.cores - job.reduction) * unit_w * phase,
            job.reduction * unit_w * phase,
        )
    }
}

/// The active jobs' power draw and in-force reduction: each job's terms in
/// `active` order, and their sums. The sums depend only on the active set
/// and its reductions (and on `t` under phased power), so they are summed
/// again only after one of those changed. Derived data, never
/// checkpointed: [`EngineState::resync`] rebuilds it.
pub(crate) struct Draw {
    shape: DrawShape,
    /// Each active job's `(power_w, reduction_w)`, in `active` order.
    terms: Vec<(f64, f64)>,
    /// The terms' sums, or `None` once a term changed or moved.
    sums: Option<(f64, f64)>,
}

impl Draw {
    pub(crate) fn new(setup: &RunSetup<'_>, cfg: &SimConfig) -> Self {
        Self {
            shape: DrawShape {
                static_w: setup.static_w,
                phase_amplitude: cfg.phase_amplitude,
                phase_period_secs: cfg.phase_period_secs,
            },
            terms: Vec::new(),
            sums: None,
        }
    }

    /// Appends the terms of a job admitted at `t`. Clean sums stay exact:
    /// they are the left fold of the earlier terms, and `.sum()` would add
    /// the new terms last.
    fn push(&mut self, job: &ActiveJob, t: f64) {
        let (power_w, reduction_w) = self.shape.terms(job, t);
        self.terms.push((power_w, reduction_w));
        self.sums = self.sums.map(|(p, r)| (p + power_w, r + reduction_w));
    }

    /// Drops the terms of the job at `i`, as `active.swap_remove(i)` does.
    fn swap_remove(&mut self, i: usize) {
        self.terms.swap_remove(i);
        self.sums = None;
    }

    /// Recomputes every job's terms at `t`.
    fn rebuild(&mut self, active: &[ActiveJob], t: f64) {
        let shape = self.shape;
        self.terms.clear();
        self.terms.extend(active.iter().map(|j| shape.terms(j, t)));
        self.sums = None;
    }

    /// The active jobs' `(power_w, reduction_w)` at `t`, watts. Phased
    /// power refreshes every term first.
    fn at(&mut self, active: &[ActiveJob], t: f64) -> (f64, f64) {
        if self.shape.phase_amplitude > 0.0 {
            self.rebuild(active, t);
        }
        // Both left folds in one pass, from `.sum()`'s start value `-0.0`
        // (which an empty active set reads), in `active` order.
        *self.sums.get_or_insert_with(|| {
            self.terms
                .iter()
                .fold((-0.0, -0.0), |(p, r), t| (p + t.0, r + t.1))
        })
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
pub(crate) struct RunSetup<'a> {
    pub(crate) slot: f64,
    pub(crate) slot_h: f64,
    pub(crate) static_w: f64,
    pub(crate) peak_w: f64,
    pub(crate) capacity_w: f64,
    /// Each trace job's profile.
    pub(crate) profiles: Vec<ProfileIdx>,
    pub(crate) horizon_slots: usize,
    /// The active grid-fault plan compiled over the topology; derived
    /// data, rebuilt on resume.
    pub(crate) grid: Option<CompiledGridFaults<'a>>,
}

/// A profile's position in [`SimConfig::profiles`]: the key each trace
/// job's profile assignment and the [`BidMemo`] use for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ProfileIdx(usize);

impl ProfileIdx {
    fn get(self) -> usize {
        self.0
    }
}

/// The cost models and cooperative static bids built at job admission,
/// reused for every later admission with the same inputs.
///
/// A job's cost stacks and its bid `b = max_δ (Δ−δ)·C(δ)/δ` depend only on
/// its profile, α, cost-perception factor and core count. One entry is
/// kept per (profile, cores), holding the α and perception-factor bits it
/// was built for: a hit needs equal bits and shares the entry's cost-model
/// `Arc`s, a miss rebuilds and replaces the entry (jobs holding the old
/// `Arc`s keep them). The memo therefore never holds more than profiles ×
/// distinct core counts entries, whatever α spread or cost noise the run
/// draws. It is derived data and never checkpointed: a restored run starts
/// with an empty memo and rebuilds on demand.
#[derive(Default)]
pub(crate) struct BidMemo {
    /// One table per profile, indexed by [`ProfileIdx`].
    tables: Vec<CoreTable>,
}

/// Jobs at least this wide bypass the memo: a core-indexed table that
/// size would cost more memory than rebuilding their models saves.
const MEMO_MAX_CORES: usize = 1 << 16;

/// One profile's memo entries, looked up by core count: `slots[cores]` is
/// the entry's position in `entries` plus one, or 0 when there is none.
/// The slots are four bytes per core count up to the widest job seen; the
/// entries are as many as the distinct core counts.
#[derive(Default)]
struct CoreTable {
    slots: Vec<u32>,
    entries: Vec<MemoEntry>,
}

struct MemoEntry {
    alpha_bits: u64,
    noise_bits: u64,
    models: JobModels,
}

/// A job's admission-time cost models and static bid.
#[derive(Clone)]
struct JobModels {
    perceived: Arc<ScaledCost<NoisyCost<ProfileCost>>>,
    true_cost: Arc<ScaledCost<ProfileCost>>,
    static_supply: Option<SupplyFunction>,
}

impl BidMemo {
    /// The memoized models for `(profile, cores)` at `alpha` and
    /// `noise_factor`, running `build` on a miss.
    fn models(
        &mut self,
        profile: ProfileIdx,
        cores: u32,
        alpha: f64,
        noise_factor: f64,
        build: impl FnOnce() -> JobModels,
    ) -> JobModels {
        let (alpha_bits, noise_bits) = (alpha.to_bits(), noise_factor.to_bits());
        let width = usize::try_from(cores).unwrap_or(usize::MAX);
        if width >= MEMO_MAX_CORES {
            return build();
        }
        if self.tables.len() <= profile.get() {
            self.tables
                .resize_with(profile.get() + 1, CoreTable::default);
        }
        let Some(table) = self.tables.get_mut(profile.get()) else {
            return build();
        };
        if table.slots.len() <= width {
            table.slots.resize(width + 1, 0);
        }
        let Some(slot) = table.slots.get_mut(width) else {
            return build();
        };
        let entry = slot.checked_sub(1);
        if let Some(e) = entry.and_then(|i| table.entries.get_mut(i as usize)) {
            if e.alpha_bits == alpha_bits && e.noise_bits == noise_bits {
                return e.models.clone();
            }
            let models = build();
            *e = MemoEntry {
                alpha_bits,
                noise_bits,
                models: models.clone(),
            };
            return models;
        }
        let models = build();
        table.entries.push(MemoEntry {
            alpha_bits,
            noise_bits,
            models: models.clone(),
        });
        // A table holds at most one entry per slot, so the count fits.
        *slot = table.entries.len() as u32;
        models
    }

    /// Number of memoized entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }
}

/// The telemetry pipeline state: the (possibly faulty) sensor and the
/// robust estimator digesting its feed.
pub(crate) struct TelemetryState {
    pub(crate) sensor: FaultySensor,
    pub(crate) estimator: RobustEstimator,
}

/// Everything that changes while the engine runs — the exact contents of a
/// checkpoint, except the derived [`BidMemo`], [`Progress`] and [`Draw`].
/// Restoring these fields (plus the deterministic [`RunSetup`]) reproduces
/// the uninterrupted run bit-for-bit.
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
    /// Admission bid memo; not checkpointed.
    pub(crate) bids: BidMemo,
    /// Lazy full-speed progress and the wake column; not checkpointed.
    pub(crate) progress: Progress,
    /// The draw-terms column and its sums; not checkpointed.
    pub(crate) draw: Draw,
}

impl EngineState {
    /// Adds a job started at `t` to the active set and its columns.
    fn admit(&mut self, mut job: ActiveJob, t: f64) {
        if job.static_supply.is_none() {
            self.acc.degradation.bid_failures += 1;
        }
        self.progress.push(&mut job, self.step);
        self.draw.push(&job, t);
        self.active.push(job);
        self.acc.jobs_started += 1;
    }

    /// Re-sorts every active job into lazy or eager stepping and rebuilds
    /// both columns at `t`: after reductions change, and after a restore.
    pub(crate) fn resync(&mut self, t: f64) {
        self.progress.resync(&mut self.active, self.step);
        self.draw.rebuild(&self.active, t);
    }
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
        self.peak_watts_for(&self.assign_profiles())
    }

    /// [`reference_peak_watts`](Self::reference_peak_watts) for a given
    /// profile assignment (one per trace job).
    fn peak_watts_for(&self, assignment: &[ProfileIdx]) -> Watts {
        let profiles = &self.config.profiles;
        let static_w = self.config.power_model.static_w_per_core();
        let slot = self.config.slot_secs;
        let span = self.trace.span_secs();
        let n = (span / slot).ceil() as usize;
        let mut diff = vec![0.0f64; n + 1];
        let assigned = assignment.iter().filter_map(|&k| profiles.get(k.get()));
        for (job, p) in self.trace.jobs().iter().zip(assigned) {
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

    /// Draws each trace job's profile: an index into
    /// [`SimConfig::profiles`], uniform, from the config seed's stream.
    fn assign_profiles(&self) -> Vec<ProfileIdx> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let n = self.config.profiles.len();
        self.trace
            .jobs()
            .iter()
            .map(|_| ProfileIdx(rng.gen_range(0..n)))
            .collect()
    }

    /// A trace job's profile index and profile, if the job exists.
    pub(crate) fn job_profile(
        &self,
        setup: &RunSetup<'_>,
        job: usize,
    ) -> Option<(ProfileIdx, &Arc<AppProfile>)> {
        let k = *setup.profiles.get(job)?;
        Some((k, self.config.profiles.get(k.get())?))
    }

    /// Builds the immutable per-run context.
    pub(crate) fn setup(&self) -> RunSetup<'_> {
        let cfg = &self.config;
        let slot = cfg.slot_secs;
        let profiles = self.assign_profiles();
        let peak = self.peak_watts_for(&profiles);
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
            profiles,
            horizon_slots: ((self.trace.span_secs() / slot).ceil() as usize).saturating_mul(2)
                + 1440,
            grid: cfg
                .active_grid_fault()
                .zip(cfg.topology.as_ref())
                .map(|(plan, spec)| CompiledGridFaults::compile(&plan, spec)),
        }
    }

    /// The engine state at slot zero.
    pub(crate) fn initial_state(&self, setup: &RunSetup<'_>) -> EngineState {
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
            bids: BidMemo::default(),
            progress: Progress::new(setup.slot),
            draw: Draw::new(setup, cfg),
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
        setup: &RunSetup<'_>,
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
    fn step_slot(&self, setup: &RunSetup<'_>, state: &mut EngineState) {
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
        setup: &RunSetup<'_>,
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
        // budget by the faulted min-cut fraction, looked up in the plan
        // compiled once per run. The state is a pure function of (plan,
        // topology, t) — exactly 1.0 while healthy, so fault-free slots
        // (and whole fault-free runs) stay bit-identical.
        let capacity_now = match setup.grid.as_ref().map(|grid| grid.at(t)) {
            Some(grid) if !grid.is_healthy() => {
                state.acc.federated.grid_fault_slots += 1;
                capacity_now * grid.capacity_frac()
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
            } else if let Some(profile) = self.job_profile(setup, state.next_job) {
                let job =
                    self.start_job(state.next_job, profile, t, &mut state.rng, &mut state.bids);
                state.admit(job, t);
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
                let (Some(profile @ (_, p)), Some(spec)) =
                    (self.job_profile(setup, idx), jobs.get(idx))
                else {
                    state.deferred.pop_front();
                    continue;
                };
                let job_w = f64::from(spec.cores) * (static_w + p.unit_dynamic_power_w());
                if job_w <= budget || !started_this_slot {
                    started_this_slot = true;
                    let job = self.start_job(idx, profile, t, &mut state.rng, &mut state.bids);
                    state.admit(job, t);
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
        let (power_w, mut reduction_w) = state.draw.at(&state.active, t);
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
                    self.apply_algorithm(setup, &mut state.active, target, t, &mut state.acc);
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
        if !matches!(action, EmergencyAction::None) {
            // The action may have changed any reduction.
            state.resync(t);
            reduction_w = state.draw.at(&state.active, t).1;
        }

        // 3. Overload accounting. The "overloaded state" of Table I and
        //    Fig. 8 is demand-based: the power the active jobs would
        //    draw at full speed, regardless of in-force reductions.
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
        if let Some(tl) = state.timeline.as_mut() {
            let max_price = state.active.iter().map(|j| j.price).fold(0.0, f64::max);
            tl.power_w.push(power_w);
            tl.demand_w.push(demand_w);
            tl.capacity_w.push(capacity_now);
            tl.reduction_w.push(reduction_w);
            tl.price.push(max_price);
        }

        // 4. Progress and accounting, in scan order. Lazy jobs are skipped
        //    on their wake step until the slot they complete in, and the
        //    loop runs at all only when some job steps eagerly or a lazy
        //    one is due.
        let step = state.step;
        let progress = &mut state.progress;
        let run_loop = progress.eager > 0 || progress.due <= step;
        // With no eager job, every job is lazy and the wake column alone
        // finds the due ones. Otherwise most visited jobs are eager and
        // read anyway, so a job's own state says whether its wake step
        // needs reading.
        let all_lazy = progress.eager == 0;
        if run_loop {
            progress.eager = 0;
            progress.due = usize::MAX;
        }
        let mut i = 0;
        while run_loop && i < state.active.len() {
            let Some(job) = state.active.get_mut(i) else {
                break;
            };
            if all_lazy || job.lazy_since.is_some() {
                let Some(wake) = progress.wake.get_mut(i) else {
                    break;
                };
                if *wake > step {
                    progress.due = progress.due.min(*wake);
                    i += 1;
                    continue;
                }
                // Due: finish with the same float subtraction an eagerly
                // stepped job makes.
                *wake = 0;
                progress.materialize(job, step);
            }
            let Rates {
                perf, cost_rate, ..
            } = job.rates();
            job.remaining_secs -= perf * slot;
            if job.reduction > 0.0 {
                // `cost_rate` is the true cost at the current reduction
                // (includes the job's own α).
                state.acc.reduction_ch += job.reduction * setup.slot_h;
                state.acc.cost_ch += cost_rate * setup.slot_h;
                // The `String` key is allocated only on a profile's first
                // insert.
                let per_profile = &mut state.acc.per_profile;
                let stats = match per_profile.get_mut(job.profile.name()) {
                    Some(stats) => stats,
                    None => per_profile
                        .entry(job.profile.name().to_owned())
                        .or_default(),
                };
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
                let stretch = &mut state.acc.per_profile_stretch;
                let entry = match stretch.get_mut(job.profile.name()) {
                    Some(entry) => entry,
                    None => stretch
                        .entry(job.profile.name().to_owned())
                        .or_insert((0.0, 0)),
                };
                entry.0 += stretch_pct.max(0.0);
                entry.1 += 1;
                if job.affected {
                    state.acc.jobs_affected += 1;
                    state.acc.stretch_sum_pct += stretch_pct.max(0.0);
                    state.acc.stretch_count += 1;
                }
                state.active.swap_remove(i);
                progress.wake.swap_remove(i);
                state.draw.swap_remove(i);
            } else {
                progress.eager += 1;
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
        (profile_id, profile): (ProfileIdx, &Arc<AppProfile>),
        now: f64,
        rng: &mut ChaCha8Rng,
        bids: &mut BidMemo,
    ) -> ActiveJob {
        let cfg = &self.config;
        let alpha = if cfg.alpha_spread > 0.0 {
            cfg.alpha * rng.gen_range(1.0..=1.0 + cfg.alpha_spread)
        } else {
            cfg.alpha
        };
        // Draw the perception factor exactly as the noise constructors do,
        // then keep the scalar: a checkpoint restore rebuilds the stack
        // from (alpha, noise_factor) without touching the RNG. Without
        // noise the factor is exactly 1 and nothing is drawn.
        let noise_factor = match cfg.cost_noise {
            CostNoise::None => 1.0,
            CostNoise::Random { magnitude } => {
                NoisyCost::random_error(profile.cost_model(alpha), magnitude, rng).factor()
            }
            CostNoise::Underestimate { fraction } => {
                NoisyCost::underestimate(profile.cost_model(alpha), fraction).factor()
            }
        };
        let mut job = self.rebuild_job(idx, (profile_id, profile), alpha, noise_factor, bids);
        job.exec_started_secs = now;
        job.participates = rng.gen_bool(cfg.participation.clamp(0.0, 1.0));
        job.phase_offset = rng.gen_range(0.0..self.config.phase_period_secs.max(1.0));
        job
    }

    /// Constructs an [`ActiveJob`] from its drawn scalars, consuming no
    /// RNG. Fresh starts overwrite the dynamic fields immediately;
    /// checkpoint restore overwrites them from the snapshot (a restored
    /// nonzero reduction refreshes the job's rates in its first slot). The
    /// cost models and cooperative static bid come from `bids` when it
    /// holds them for the same inputs.
    pub(crate) fn rebuild_job(
        &self,
        idx: usize,
        (profile_id, profile): (ProfileIdx, &Arc<AppProfile>),
        alpha: f64,
        noise_factor: f64,
        bids: &mut BidMemo,
    ) -> ActiveJob {
        let (job_cores, runtime_secs) = self
            .trace
            .jobs()
            .get(idx)
            .map_or((0, 0.0), |j| (j.cores, j.runtime_secs));
        let cores = f64::from(job_cores);
        let JobModels {
            perceived,
            true_cost,
            static_supply,
        } = bids.models(profile_id, job_cores, alpha, noise_factor, || {
            let base = profile.cost_model(alpha);
            let noisy = NoisyCost::new(base.clone(), noise_factor);
            let perceived = Arc::new(ScaledCost::new(noisy, cores));
            // A failed cooperative bid falls back to a zero-bid
            // (always-supply) function; if even that is unconstructible the
            // job carries no static supply at all — recorded as a bid
            // failure by the caller, never a panic mid-run.
            let static_supply = StaticStrategy::Cooperative
                .supply_for(perceived.as_ref())
                .ok()
                .or_else(|| SupplyFunction::new(perceived.delta_max(), 0.0).ok());
            JobModels {
                perceived,
                true_cost: Arc::new(ScaledCost::new(base, cores)),
                static_supply,
            }
        });
        let rates = Rates::at(profile, &true_cost, cores, 0.0);
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
            rates,
            lazy_since: None,
        }
    }

    /// The market instance for one overload event, with the `active`
    /// position of each row. Market algorithms see only the participating
    /// jobs (rows carry bids and/or perceived-cost models); the OPT and
    /// EQL benchmarks see every active job with its ground-truth cost.
    fn build_instance(&self, active: &[ActiveJob]) -> (MarketInstance, Vec<usize>) {
        let row = |j: &ActiveJob, delta: f64| {
            ParticipantSpec::new(
                j.idx as u64,
                delta,
                Watts::new(j.profile.unit_dynamic_power_w()),
            )
        };
        match self.config.algorithm {
            Algorithm::MprStat => rows_of(active, |j| {
                let supply = j.static_supply.filter(|_| j.participates)?;
                Some(row(j, supply.delta_max()).with_bid(supply.bid()))
            }),
            Algorithm::MprInt => rows_of(active, |j| {
                j.participates
                    .then(|| row(j, j.perceived.delta_max()).with_cost(j.perceived.clone()))
            }),
            Algorithm::Vcg => rows_of(active, |j| {
                j.participates
                    .then(|| row(j, j.true_cost.delta_max()).with_cost(j.true_cost.clone()))
            }),
            Algorithm::Opt => rows_of(active, |j| {
                Some(row(j, j.true_cost.delta_max()).with_cost(j.true_cost.clone()))
            }),
            Algorithm::Eql => rows_of(active, |j| {
                Some(row(j, j.true_cost.delta_max()).with_cores(j.cores))
            }),
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
        setup: &RunSetup<'_>,
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
            return match level0 {
                Level0::InProcess(x) => self.apply_int_chain(active, target_w, acc, x, event_seed),
                Level0::Net(x) => self.apply_int_chain(active, target_w, acc, *x, event_seed),
            };
        }
        if self.config.is_federated() {
            if let Some(spec) = self.config.topology.as_ref() {
                return self.apply_federated(setup, active, target_w, t_secs, acc, spec);
            }
        }
        let (instance, rows) = self.build_instance(active);
        let mut mechanism = crate::mechanism::for_algorithm(&self.config);
        let clearing = match mechanism.clear(&instance, Watts::new(target_w)) {
            Ok(clearing) => clearing,
            // Degenerate instance (no participating job could form a row)
            // or a solver failure: nothing clears, reductions stand.
            Err(_) => return (0.0, false),
        };
        self.apply_clearing(active, &rows, &clearing, acc)
    }

    /// Maps a clearing back onto the active jobs according to the
    /// configured algorithm's price discipline; `rows` holds each clearing
    /// row's position in `active`. Shared by the flat path and the
    /// federated path (whose merged clearing is positional over the same
    /// instance).
    fn apply_clearing(
        &self,
        active: &mut [ActiveJob],
        rows: &[usize],
        clearing: &MechanismClearing,
        acc: &mut Accounting,
    ) -> (f64, bool) {
        match self.config.algorithm {
            Algorithm::MprStat => {
                // One uniform clearing price; every job sees it,
                // non-members shed nothing.
                (apply_uniform(active, rows, clearing, true), false)
            }
            Algorithm::MprInt => {
                acc.int_iterations += clearing.iterations();
                if clearing.diagnostics().capped_at_delta_max {
                    // Infeasible target: members cap at Δ and are paid
                    // their break-even unit cost; non-members keep their
                    // in-force reductions.
                    (apply_member_rows(active, rows, clearing), false)
                } else {
                    (apply_uniform(active, rows, clearing, true), false)
                }
            }
            // VCG pays per-job pivot prices, never one uniform price.
            Algorithm::Vcg => (apply_member_rows(active, rows, clearing), false),
            // OPT is the offline benchmark: reductions only, no market.
            Algorithm::Opt => (apply_uniform(active, rows, clearing, false), false),
            Algorithm::Eql => {
                let d = clearing.diagnostics();
                // Per-job Δ violations mean the uniform slowdown cannot
                // meet the target; the stop-every-core fallback
                // (`capped_at_delta_max`) is already counted by the
                // shortfall check in `step_slot`.
                if !d.accepted && !d.capped_at_delta_max {
                    acc.unmet_emergencies += 1;
                }
                (apply_uniform(active, rows, clearing, false), false)
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
        setup: &RunSetup<'_>,
        active: &mut [ActiveJob],
        target_w: f64,
        t_secs: f64,
        acc: &mut Accounting,
        spec: &TopologySpec,
    ) -> (f64, bool) {
        let (instance, rows) = self.build_instance(active);
        let rack_ids = spec.rack_ids();
        let Some(&first_rack) = rack_ids.first() else {
            return (0.0, false);
        };
        if instance.is_empty() {
            return (0.0, false);
        }
        // Infrastructure state at this instant — a pure function of
        // (plan, topology, t), healthy when no plan is active.
        let snapshot = setup.grid.as_ref().map_or_else(
            || Cow::Owned(GridSnapshot::new(TopologyState::healthy(spec))),
            |grid| grid.at(t_secs),
        );
        let grid = snapshot.state();
        let faulted = !snapshot.is_healthy();
        let fencing = faulted && !self.config.grid_fencing_disabled;
        if faulted {
            acc.federated.fenced_nodes += grid.dead_count();
            acc.federated.derated_nodes += grid.derated_count();
        }
        if let Some(compiled) = setup.grid.as_ref() {
            let last = compiled.last_repair_secs();
            if last.is_finite() && t_secs >= last {
                acc.federated.post_repair_events += 1;
            }
        }
        // Deterministic job → rack placement: stable across slots and
        // resume, independent of arrival order. A job whose home rack is
        // fenced fails over to the nearest surviving sibling (same PDU
        // first, then the same UPS, widening to the whole tree). Each
        // rack's load is the full-speed demand of its rows' jobs, indexed
        // by spec node.
        let static_w = self.config.power_model.static_w_per_core();
        let mut assignment = Vec::with_capacity(instance.len());
        let mut rack_load: Vec<Option<f64>> = vec![None; spec.nodes.len()];
        let mut quarantined = 0usize;
        for (id, &pos) in instance.ids().iter().zip(&rows) {
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
            let demand = active.get(pos).map_or(0.0, |j| {
                j.cores * (static_w + j.profile.unit_dynamic_power_w())
            });
            if let Some(load) = rack_load.get_mut(rack) {
                *load = Some(load.unwrap_or(0.0) + demand);
            }
        }
        if quarantined > 0 {
            // Reassignment only fails when no rack anywhere survives: the
            // tree is dark, no market can run. Reductions stand and the
            // shortfall surfaces as an unmet emergency.
            acc.federated.quarantined_jobs += quarantined;
            return (0.0, false);
        }
        let total_load: f64 = rack_load.iter().flatten().sum();
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
        for (rack, load) in rack_load.iter().enumerate() {
            let Some(load) = *load else {
                continue;
            };
            let Some(&Some(mapped)) = map.get(rack) else {
                return (0.0, false);
            };
            if hierarchy.set_load(mapped, Watts::new(load)).is_err() {
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
        if setup.grid.is_some() {
            self.audit_grid_invariants(
                acc,
                grid,
                &assignment,
                &hier_assignment,
                &hierarchy,
                &instance,
                &outcome,
            );
        }
        self.apply_clearing(active, &rows, &outcome.clearing, acc)
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
    fn apply_int_chain<C>(
        &self,
        active: &mut [ActiveJob],
        target_w: f64,
        acc: &mut Accounting,
        mut level0: FaultTolerantExchange<C>,
        event_seed: u64,
    ) -> (f64, bool)
    where
        FaultTolerantExchange<C>: Mechanism,
    {
        let mut rng = ChaCha8Rng::seed_from_u64(event_seed);
        let fault_plan = self.config.fault_plan.filter(FaultPlan::is_active);
        // The exchange's instance holds one row per registered agent, in
        // registration order.
        let mut rows = Vec::new();
        for (pos, j) in active.iter().enumerate().filter(|(_, j)| j.participates) {
            rows.push(pos);
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
        let delivered = apply_uniform(active, &rows, &clearing, true);
        (delivered, level > ChainLevel::Interactive)
    }

    pub(crate) fn finish_report(&self, setup: &RunSetup<'_>, state: EngineState) -> SimReport {
        let EngineState {
            total_slots,
            mut acc,
            mut timeline,
            mut events,
            telemetry,
            ..
        } = state;
        // The report keeps no spare capacity: the per-slot vectors grow by
        // doubling, and a caller may hold many reports at once.
        events.shrink_to_fit();
        if let Some(tl) = timeline.as_mut() {
            for v in [
                &mut tl.power_w,
                &mut tl.demand_w,
                &mut tl.capacity_w,
                &mut tl.reduction_w,
                &mut tl.price,
            ] {
                v.shrink_to_fit();
            }
        }
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

/// The instance of the jobs `row` keeps, with each row's position in
/// `active`: the rows are a subsequence of `active`, in its order.
fn rows_of(
    active: &[ActiveJob],
    mut row: impl FnMut(&ActiveJob) -> Option<ParticipantSpec>,
) -> (MarketInstance, Vec<usize>) {
    let mut rows = Vec::new();
    let instance = active
        .iter()
        .enumerate()
        .filter_map(|(pos, j)| {
            let spec = row(j)?;
            rows.push(pos);
            Some(spec)
        })
        .collect();
    (instance, rows)
}

/// Applies a clearing uniformly: every active job takes its row's reduction
/// (zero when it has no row) and, when `set_price` is on, the one headline
/// clearing price — matching the uniform-price markets, where non-members
/// shed nothing but still observe the price. `rows` holds each clearing
/// row's position in `active`, ascending.
fn apply_uniform(
    active: &mut [ActiveJob],
    rows: &[usize],
    clearing: &MechanismClearing,
    set_price: bool,
) -> f64 {
    let mut by_pos = rows.iter().zip(clearing.reductions()).peekable();
    let price = clearing.price().get();
    let mut delivered = 0.0;
    for (pos, j) in active.iter_mut().enumerate() {
        let delta = by_pos.next_if(|(p, _)| **p == pos).map_or(0.0, |(_, r)| *r);
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
/// break-even fallback). `rows` holds each clearing row's position in
/// `active`, ascending.
fn apply_member_rows(
    active: &mut [ActiveJob],
    rows: &[usize],
    clearing: &MechanismClearing,
) -> f64 {
    let mut delivered = 0.0;
    let members = rows
        .iter()
        .zip(clearing.reductions())
        .zip(clearing.participant_prices());
    for ((&pos, &delta), &price) in members {
        if let Some(j) = active.get_mut(pos) {
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

    /// Runs `cfg` slot by slot on `trace`, calling `check` after every
    /// slot.
    fn drive_checked(trace: &Trace, cfg: SimConfig, mut check: impl FnMut(&EngineState)) {
        let sim = Simulation::new(trace, cfg);
        let setup = sim.setup();
        let mut state = sim.initial_state(&setup);
        while !state.finished && state.step < setup.horizon_slots {
            sim.step_slot(&setup, &mut state);
            check(&state);
        }
    }

    #[test]
    fn memoized_static_bids_equal_a_fresh_computation() {
        let trace = small_trace();
        let same_inputs = SimConfig::new(Algorithm::MprStat, 15.0);
        let every_input_new = same_inputs
            .clone()
            .with_alpha_spread(0.5)
            .with_cost_noise(CostNoise::Random { magnitude: 0.3 });
        for (cfg, shares_inputs) in [(same_inputs, true), (every_input_new, false)] {
            let mut checked = std::collections::BTreeSet::new();
            let mut memo_len = 0;
            drive_checked(&trace, cfg, |state| {
                for job in state.active.iter().filter(|j| checked.insert(j.idx)) {
                    let fresh = StaticStrategy::Cooperative
                        .supply_for(job.perceived.as_ref())
                        .ok()
                        .or_else(|| SupplyFunction::new(job.perceived.delta_max(), 0.0).ok());
                    let bits = |s: Option<SupplyFunction>| {
                        s.map(|s| (s.delta_max().to_bits(), s.bid().to_bits()))
                    };
                    assert_eq!(bits(job.static_supply), bits(fresh), "job {}", job.idx);
                    // The memoized cost stacks price every δ exactly as a
                    // freshly built stack does.
                    let base = job.profile.cost_model(job.alpha);
                    let perceived =
                        ScaledCost::new(NoisyCost::new(base.clone(), job.noise_factor), job.cores);
                    let true_cost = ScaledCost::new(base, job.cores);
                    for frac in [0.05, 0.25, 0.5, 0.9, 1.0] {
                        let delta = frac * true_cost.delta_max();
                        assert_eq!(
                            job.perceived.cost(delta).to_bits(),
                            perceived.cost(delta).to_bits(),
                            "job {} perceived at {delta}",
                            job.idx
                        );
                        assert_eq!(
                            job.true_cost.cost(delta).to_bits(),
                            true_cost.cost(delta).to_bits(),
                            "job {} true cost at {delta}",
                            job.idx
                        );
                    }
                }
                memo_len = state.bids.len();
            });
            assert!(memo_len > 0);
            if shares_inputs {
                // Far fewer entries than admissions: most admissions hit.
                assert!(
                    2 * memo_len < checked.len(),
                    "{memo_len} vs {}",
                    checked.len()
                );
            }
        }
    }

    #[test]
    fn memo_hits_share_cost_models() {
        let trace = small_trace();
        // Constant α and no cost noise: every admission after the first
        // with a given (profile, cores) hits its memo entry.
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let mut first: BTreeMap<(String, u64), (Arc<_>, Arc<_>)> = BTreeMap::new();
        let mut shared = std::collections::BTreeSet::new();
        drive_checked(&trace, cfg, |state| {
            for job in &state.active {
                let key = (job.profile.name().to_owned(), job.cores.to_bits());
                let (perceived, true_cost) = first
                    .entry(key)
                    .or_insert_with(|| (job.perceived.clone(), job.true_cost.clone()));
                assert!(Arc::ptr_eq(perceived, &job.perceived), "job {}", job.idx);
                assert!(Arc::ptr_eq(true_cost, &job.true_cost), "job {}", job.idx);
                if Arc::strong_count(&job.true_cost) > 2 {
                    shared.insert(job.idx);
                }
            }
        });
        assert!(!shared.is_empty(), "some jobs must share a memo entry");
    }

    /// Active jobs in an order unrelated to their ids: some do not
    /// participate, some have no static bid, and some carry an in-force
    /// reduction and price from an earlier clear.
    fn mixed_active(sim: &Simulation<'_>, setup: &RunSetup<'_>) -> Vec<ActiveJob> {
        let mut memo = BidMemo::default();
        [7usize, 2, 11, 0, 5, 9, 1, 10, 3, 8, 4, 6]
            .into_iter()
            .filter_map(|idx| {
                let profile = sim.job_profile(setup, idx)?;
                let mut job = sim.rebuild_job(idx, profile, sim.config.alpha, 1.0, &mut memo);
                job.participates = idx % 3 != 0;
                if idx % 4 == 1 {
                    job.static_supply = None;
                }
                if matches!(idx, 3 | 7) {
                    job.reduction = 0.25 * job.cores;
                    job.price = 0.125;
                }
                Some(job)
            })
            .collect()
    }

    /// Each job's `(reduction, price)` bits and the delivered watts after
    /// `clearing`, mapped back by job id under `alg`'s price discipline.
    fn id_keyed_reference(
        alg: Algorithm,
        active: &[ActiveJob],
        instance: &MarketInstance,
        clearing: &MechanismClearing,
    ) -> (Vec<(u64, u64)>, u64) {
        let by_id = |values: &[f64]| -> BTreeMap<u64, f64> {
            instance
                .ids()
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect()
        };
        let reductions = by_id(clearing.reductions());
        let prices = by_id(clearing.participant_prices());
        let members_only = match alg {
            Algorithm::Vcg => true,
            Algorithm::MprInt => clearing.diagnostics().capped_at_delta_max,
            _ => false,
        };
        let uniform_price =
            matches!(alg, Algorithm::MprStat | Algorithm::MprInt).then(|| clearing.price().get());
        let mut delivered = 0.0;
        let jobs = active
            .iter()
            .map(|j| {
                let id = j.idx as u64;
                let w = j.profile.unit_dynamic_power_w();
                let (reduction, price) = if members_only {
                    match (reductions.get(&id), prices.get(&id)) {
                        (Some(&r), Some(&q)) => {
                            delivered += r * w;
                            (r, q)
                        }
                        _ => (j.reduction, j.price),
                    }
                } else {
                    let r = reductions.get(&id).copied().unwrap_or(0.0);
                    delivered += r * w;
                    (r, uniform_price.unwrap_or(j.price))
                };
                (reduction.to_bits(), price.to_bits())
            })
            .collect();
        (jobs, delivered.to_bits())
    }

    #[test]
    fn positional_rows_apply_as_an_id_keyed_reference_for_every_algorithm() {
        let trace = small_trace();
        let mut capped_int = false;
        for alg in [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprStat,
            Algorithm::MprInt,
            Algorithm::Vcg,
        ] {
            let sim = Simulation::new(&trace, SimConfig::new(alg, 15.0));
            let setup = sim.setup();
            let mut compared = 0;
            // A reachable target, and one past every job's Δ (MPR-INT's
            // capped branch).
            for target in [400.0, 1e9] {
                let mut active = mixed_active(&sim, &setup);
                assert_eq!(active.len(), 12);
                assert!(active.iter().any(|j| !j.participates));
                assert!(active
                    .iter()
                    .any(|j| j.participates && j.static_supply.is_none()));
                let (instance, rows) = sim.build_instance(&active);
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "{alg}");
                let Ok(clearing) = crate::mechanism::for_algorithm(&sim.config)
                    .clear(&instance, Watts::new(target))
                else {
                    continue;
                };
                if alg == Algorithm::MprInt && clearing.diagnostics().capped_at_delta_max {
                    capped_int = true;
                }
                let (want, want_delivered) = id_keyed_reference(alg, &active, &instance, &clearing);
                let (delivered, _) = sim.apply_algorithm(
                    &setup,
                    &mut active,
                    target,
                    0.0,
                    &mut Accounting::default(),
                );
                let got: Vec<_> = active
                    .iter()
                    .map(|j| (j.reduction.to_bits(), j.price.to_bits()))
                    .collect();
                assert_eq!(got, want, "{alg} at {target} W");
                assert!(got.iter().any(|&(r, _)| r != 0), "{alg} at {target} W");
                assert_eq!(delivered.to_bits(), want_delivered, "{alg} at {target} W");
                compared += 1;
            }
            assert!(compared > 0, "{alg} cleared no target");
        }
        assert!(capped_int, "MPR-INT's capped branch was not reached");
    }

    #[test]
    fn cached_rates_equal_a_fresh_evaluation_after_every_slot() {
        let trace = small_trace();
        for alg in [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprStat,
            Algorithm::MprInt,
            Algorithm::Vcg,
        ] {
            let mut reduced_checks = 0usize;
            drive_checked(&trace, SimConfig::new(alg, 15.0), |state| {
                for job in &state.active {
                    let perf = job.profile.performance(1.0 - job.reduction / job.cores);
                    assert_eq!(job.rates.reduction_bits, job.reduction.to_bits());
                    assert_eq!(job.rates.perf.to_bits(), perf.to_bits(), "{alg}");
                    if job.reduction > 0.0 {
                        let cost_rate = job.true_cost.cost(job.reduction);
                        assert_eq!(job.rates.cost_rate.to_bits(), cost_rate.to_bits(), "{alg}");
                        reduced_checks += 1;
                    }
                }
            });
            assert!(reduced_checks > 0, "{alg} must run jobs reduced");
        }
    }

    /// The wake and draw-terms columns, and any cached sums, checked
    /// against a fresh rebuild at `t`; returns whether the sums were
    /// cached.
    fn assert_columns_fresh(state: &EngineState, cfg: &SimConfig, t: f64, label: &str) -> bool {
        let n = state.active.len();
        assert_eq!(state.progress.wake.len(), n, "{label}: wake column length");
        assert_eq!(state.draw.terms.len(), n, "{label}: draw column length");
        let slot = cfg.slot_secs;
        let static_w = cfg.power_model.static_w_per_core();
        let mut fresh = Vec::with_capacity(n);
        for (i, job) in state.active.iter().enumerate() {
            let wake = job.lazy_since.map_or(0, |since| {
                since + slots_to_finish(job.remaining_secs, slot) - 1
            });
            assert_eq!(
                state.progress.wake[i], wake,
                "{label}: wake of job {}",
                job.idx
            );
            let phase = if cfg.phase_amplitude <= 0.0 {
                1.0
            } else {
                1.0 + cfg.phase_amplitude
                    * (std::f64::consts::TAU * (t + job.phase_offset) / cfg.phase_period_secs).sin()
            };
            let unit_w = job.profile.unit_dynamic_power_w();
            let power_w = job.cores * static_w + (job.cores - job.reduction) * unit_w * phase;
            let reduction_w = job.reduction * unit_w * phase;
            let (p, r) = state.draw.terms[i];
            assert_eq!(
                (p.to_bits(), r.to_bits()),
                (power_w.to_bits(), reduction_w.to_bits()),
                "{label}: draw terms of job {}",
                job.idx
            );
            fresh.push((power_w, reduction_w));
        }
        let Some((power_w, reduction_w)) = state.draw.sums else {
            return false;
        };
        // `.sum()` starts from -0.0, which an empty active set reads.
        let p: f64 = fresh.iter().map(|t| t.0).sum();
        let r: f64 = fresh.iter().map(|t| t.1).sum();
        assert_eq!(
            (power_w.to_bits(), reduction_w.to_bits()),
            (p.to_bits(), r.to_bits()),
            "{label}: cached draw"
        );
        true
    }

    /// After every slot, each job's materialized remaining work equals an
    /// eagerly stepped shadow to the bit, and the wake and draw-terms
    /// columns and any cached draw equal a fresh rebuild. Every algorithm
    /// runs plain; phased power and a faulty sensor are crossed with the
    /// three algorithms whose clearings are cheap enough for a debug-build
    /// test; one run has a fractional slot. Every run is restored from an
    /// in-memory checkpoint every 211 slots and checked again.
    #[test]
    fn lazy_progress_and_cached_draw_equal_an_eager_shadow_after_every_slot() {
        let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(2.0))
            .with_seed(3)
            .generate();
        let telemetry = TelemetryConfig::with_faults(SensorFaultConfig {
            noise_sigma_frac: 0.02,
            dropout_prob: 0.2,
            ..SensorFaultConfig::default()
        });
        let mut configs = Vec::new();
        for alg in [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprStat,
            Algorithm::MprInt,
            Algorithm::Vcg,
        ] {
            configs.push((format!("{alg}"), SimConfig::new(alg, 15.0)));
        }
        for alg in [Algorithm::Opt, Algorithm::Eql, Algorithm::MprStat] {
            for (phases, sensed) in [(true, false), (false, true), (true, true)] {
                let mut cfg = SimConfig::new(alg, 15.0);
                if phases {
                    cfg = cfg.with_phases(0.3);
                }
                if sensed {
                    cfg = cfg.with_telemetry(telemetry);
                }
                configs.push((format!("{alg} phases={phases} telemetry={sensed}"), cfg));
            }
        }
        let mut fractional = SimConfig::new(Algorithm::MprStat, 15.0);
        fractional.slot_secs = 45.5;
        configs.push(("MPR-STAT slot=45.5".to_owned(), fractional));
        for (label, cfg) in configs {
            let slot = cfg.slot_secs;
            let phased = cfg.phase_amplitude > 0.0;
            let sim = Simulation::new(&trace, cfg);
            let setup = sim.setup();
            let mut state = sim.initial_state(&setup);
            // Each active job's remaining work, stepped every slot.
            let mut shadow: BTreeMap<usize, f64> = BTreeMap::new();
            let (mut lazy_checks, mut draw_checks, mut appends) = (0usize, 0usize, 0usize);
            let (mut completions, mut restores) = (0usize, 0usize);
            let mut sums_clean = false;
            while !state.finished && state.step < setup.horizon_slots {
                let events_before = state.events.len();
                sim.step_slot(&setup, &mut state);
                let t = (state.step - 1) as f64 * slot;
                let at = format!("{label} after slot {}", state.step - 1);
                let mut stepped = BTreeMap::new();
                for job in &state.active {
                    let before = shadow.get(&job.idx).copied().unwrap_or(job.nominal_secs);
                    let perf = job.profile.performance(1.0 - job.reduction / job.cores);
                    let eager = before - perf * slot;
                    assert_eq!(
                        state.progress.remaining(job, state.step).to_bits(),
                        eager.to_bits(),
                        "{at}: job {}",
                        job.idx
                    );
                    assert!(eager > 0.0, "{at}: job {} finished late", job.idx);
                    stepped.insert(job.idx, eager);
                    lazy_checks += usize::from(job.lazy_since.is_some());
                }
                let completed = shadow.keys().any(|idx| !stepped.contains_key(idx));
                let admitted = stepped.keys().any(|idx| !shadow.contains_key(idx));
                completions += usize::from(completed);
                // An admission-only slot on clean sums appends exactly.
                if sums_clean && admitted && !completed && state.events.len() == events_before {
                    appends += usize::from(!phased);
                }
                shadow = stepped;
                sums_clean = assert_columns_fresh(&state, &sim.config, t, &at);
                draw_checks += usize::from(sums_clean);
                if state.step.is_multiple_of(211) {
                    let bytes = checkpoint::encode_state(&state);
                    state = checkpoint::decode_state(&bytes, &sim, &setup).expect("restore");
                    let t = state.step as f64 * slot;
                    sums_clean = assert_columns_fresh(&state, &sim.config, t, &at);
                    restores += 1;
                }
            }
            let count =
                |kind: EmergencyEventKind| state.events.iter().filter(|e| e.kind == kind).count();
            assert!(
                count(EmergencyEventKind::Declare) > 0,
                "{label}: no declare"
            );
            assert!(count(EmergencyEventKind::Lift) > 0, "{label}: no lift");
            assert!(completions > 0 && restores > 0, "{label}");
            assert!(draw_checks > 0, "{label}: the draw must be cached");
            if !phased {
                assert!(appends > 0, "{label}: no admission appended exactly");
            }
            if slot.fract() > 0.0 {
                assert_eq!(lazy_checks, 0, "{label}: fractional slots step eagerly");
            } else {
                assert!(lazy_checks > 0, "{label}: full-speed jobs must step lazily");
            }
        }
    }

    #[test]
    fn finished_reports_keep_no_spare_capacity() {
        let trace = small_trace();
        let r = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_timeline(),
        )
        .run();
        assert!(!r.events.is_empty());
        assert_eq!(r.events.capacity(), r.events.len());
        let tl = r.timeline.as_ref().expect("timeline recorded");
        for v in [
            &tl.power_w,
            &tl.demand_w,
            &tl.capacity_w,
            &tl.reduction_w,
            &tl.price,
        ] {
            assert_eq!(v.capacity(), v.len());
        }
    }

    /// The core-indexed memo against the contract of a memo keyed by
    /// (profile, cores): for each call in `calls`, a hit (equal α and
    /// perception-factor bits) shares the entry's `Arc`s, a bits mismatch
    /// replaces the entry with fresh ones, and the memo holds exactly one
    /// entry per key seen. A call carrying a job checks the job a
    /// checkpoint restore already rebuilt through `memo`. Returns (hits,
    /// replacements).
    fn check_keyed_contract<'j>(
        sim: &Simulation<'_>,
        setup: &RunSetup<'_>,
        memo: &mut BidMemo,
        calls: impl IntoIterator<Item = (usize, f64, f64, Option<&'j ActiveJob>)>,
    ) -> (usize, usize) {
        type Handles = (
            Arc<ScaledCost<NoisyCost<ProfileCost>>>,
            Arc<ScaledCost<ProfileCost>>,
        );
        let mut shadow: BTreeMap<(ProfileIdx, u32), (u64, u64, Handles)> = BTreeMap::new();
        let (mut hits, mut replaced) = (0, 0);
        for (idx, alpha, noise, restored) in calls {
            let profile = sim.job_profile(setup, idx).expect("job has a profile");
            let cores = sim.trace.jobs().get(idx).expect("job in trace").cores;
            let rebuilt;
            let job = match restored {
                Some(job) => job,
                None => {
                    rebuilt = sim.rebuild_job(idx, profile, alpha, noise, memo);
                    &rebuilt
                }
            };
            let key = (profile.0, cores);
            let bits = (alpha.to_bits(), noise.to_bits());
            if let Some((a, n, (perceived, true_cost))) = shadow.get(&key) {
                let shared = Arc::ptr_eq(perceived, &job.perceived);
                assert_eq!(shared, Arc::ptr_eq(true_cost, &job.true_cost), "job {idx}");
                if (*a, *n) == bits {
                    assert!(shared, "job {idx}: a hit must share the entry's models");
                    hits += 1;
                } else {
                    assert!(!shared, "job {idx}: a bits mismatch must rebuild");
                    replaced += 1;
                }
            }
            let handles = (job.perceived.clone(), job.true_cost.clone());
            shadow.insert(key, (bits.0, bits.1, handles));
            if restored.is_none() {
                assert_eq!(memo.len(), shadow.len(), "job {idx}");
            }
        }
        assert_eq!(memo.len(), shadow.len());
        (hits, replaced)
    }

    #[test]
    fn memo_tables_keep_the_keyed_memo_contract() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_alpha_spread(0.5)
            .with_cost_noise(CostNoise::Random { magnitude: 0.3 });
        let sim = Simulation::new(&trace, cfg);
        let setup = sim.setup();
        // Admissions drawing from two α and two perception factors.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let calls: Vec<(usize, f64, f64, Option<&ActiveJob>)> = (0..trace.len().min(4000))
            .map(|idx| {
                let alpha = [1.0, 1.5][usize::from(rng.gen_bool(0.3))];
                let noise = [1.0, 0.8][usize::from(rng.gen_bool(0.3))];
                (idx, alpha, noise, None)
            })
            .collect();
        let mut memo = BidMemo::default();
        let (hits, replaced) = check_keyed_contract(&sim, &setup, &mut memo, calls);
        assert!(
            hits > 0 && replaced > 0,
            "{hits} hits, {replaced} replacements"
        );

        // A checkpoint restore rebuilds the active jobs, in order, into a
        // fresh memo under the same contract.
        let mut state = sim.initial_state(&setup);
        let mut restores = 0;
        while !state.finished && state.step < setup.horizon_slots {
            sim.step_slot(&setup, &mut state);
            if state.step.is_multiple_of(997) && state.active.len() > 1 {
                let bytes = checkpoint::encode_state(&state);
                state = checkpoint::decode_state(&bytes, &sim, &setup).expect("restore");
                let calls = state
                    .active
                    .iter()
                    .map(|j| (j.idx, j.alpha, j.noise_factor, Some(j)));
                check_keyed_contract(&sim, &setup, &mut state.bids, calls);
                restores += 1;
            }
        }
        assert!(restores > 0);
    }

    #[test]
    fn memo_stays_within_profiles_times_core_counts() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_alpha_spread(0.5);
        let core_counts = trace
            .jobs()
            .iter()
            .map(|j| j.cores)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let bound = cfg.profiles.len() * core_counts;
        let mut admitted = 0;
        drive_checked(&trace, cfg, |state| {
            assert!(state.bids.len() <= bound, "{} > {bound}", state.bids.len());
            admitted = state.acc.jobs_started;
        });
        assert!(admitted > bound, "the bound must be reachable to bite");
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
