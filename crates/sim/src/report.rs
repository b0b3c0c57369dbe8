//! Simulation output: every metric the paper's evaluation plots.

use std::collections::BTreeMap;

use mpr_core::ChainLevel;
use mpr_power::telemetry::TelemetryHealth;

/// Degradation accounting across all market clearings of a run: what the
/// graceful-degradation chain had to do when agents misbehaved. All-zero
/// (and `deepest_chain_level == None`) for runs without fault injection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationStats {
    /// Retry attempts spent re-polling slow agents across all rounds.
    pub rounds_retried: usize,
    /// Participants quarantined (summed over overload events; the same job
    /// counts once per event it defaulted in).
    pub participants_quarantined: usize,
    /// Clearings that fell back to the static (MPR-STAT) level.
    pub static_fallbacks: usize,
    /// Clearings that reached the terminal uniform-capping (EQL) level.
    pub eql_cappings: usize,
    /// Clearings aborted by the convergence watchdog.
    pub diverged_clearings: usize,
    /// Deepest chain level any clearing reached (`None` when no market
    /// clearing ran with fault injection).
    pub deepest_chain_level: Option<ChainLevel>,
    /// Total target watts the chain could not cover (positive only for
    /// physically unattainable targets), summed over events.
    pub residual_overload_watts: f64,
    /// Jobs whose cooperative submission-time bid could not be constructed
    /// (they join markets only through forced capping).
    pub bid_failures: usize,
}

impl DegradationStats {
    /// `true` when any clearing left the clean interactive level or any
    /// participant was quarantined.
    #[must_use]
    pub fn any_degradation(&self) -> bool {
        self.participants_quarantined > 0
            || self.static_fallbacks > 0
            || self.eql_cappings > 0
            || self.diverged_clearings > 0
            || self.residual_overload_watts > 0.0
    }

    /// Folds one clearing's chain level into the deepest-level watermark.
    pub fn observe_chain_level(&mut self, level: ChainLevel) {
        self.deepest_chain_level = Some(match self.deepest_chain_level {
            Some(prev) if prev >= level => prev,
            _ => level,
        });
    }
}

/// Message-layer accounting across all transported market clearings of a
/// run (present only when `SimConfig::net_plan` is active).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportTotals {
    /// Market clearings that ran over the simulated network.
    pub clearings: usize,
    /// Price-announcement rounds executed.
    pub rounds: usize,
    /// First-attempt price announcements sent.
    pub announces: usize,
    /// Backoff-scheduled retransmissions to silent agents.
    pub retransmits: usize,
    /// Bid replies accepted (first valid reply per agent per round).
    pub replies_accepted: usize,
    /// Duplicate deliveries of an already-answered round, discarded.
    pub duplicates_ignored: usize,
    /// Replies for past rounds or unknown announcement ids, discarded.
    pub late_replies_ignored: usize,
    /// Non-finite bids received and discarded.
    pub invalid_replies: usize,
    /// Agent-rounds that missed the deadline (round cleared with the
    /// agent's last-known bid).
    pub straggler_rounds: usize,
    /// Agents quarantined for missing `k` consecutive round deadlines.
    pub deadline_quarantines: usize,
    /// Virtual ticks the transported exchanges consumed in total.
    pub virtual_ticks: u64,
    /// Messages the channel itself dropped (loss + partitions).
    pub messages_dropped: usize,
    /// Extra deliveries the channel duplicated.
    pub messages_duplicated: usize,
}

impl TransportTotals {
    /// Folds one clearing's transport diagnostics into the run totals.
    ///
    /// Channel counters (`messages_*`) are cumulative over the transport's
    /// life, so callers pass the *final* stats once via
    /// [`TransportTotals::set_channel_totals`] instead.
    pub fn absorb(&mut self, d: &mpr_core::TransportDiagnostics) {
        self.clearings += 1;
        self.rounds += d.rounds;
        self.announces += d.announces;
        self.retransmits += d.retransmits;
        self.replies_accepted += d.replies_accepted;
        self.duplicates_ignored += d.duplicates_ignored;
        self.late_replies_ignored += d.late_replies_ignored;
        self.invalid_replies += d.invalid_replies;
        self.straggler_rounds += d.straggler_rounds;
        self.deadline_quarantines += d.deadline_quarantines;
        self.virtual_ticks += d.virtual_ticks;
    }

    /// Adds one transport's lifetime channel stats to the run totals.
    pub fn set_channel_totals(&mut self, stats: mpr_core::TransportStats) {
        self.messages_dropped += stats.dropped;
        self.messages_duplicated += stats.duplicated;
    }
}

/// Crash-durability accounting for a journaled (and possibly killed and
/// recovered) run — present only when `SimConfig::durability` is set.
///
/// Filled by the `ledger` harness, not by the engine itself: an
/// uninterrupted non-journaled run always reports `None`, preserving the
/// historical report bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityTotals {
    /// Ledger records appended by live execution (pre- and post-crash).
    pub records_journaled: u64,
    /// Ledger records re-applied from the journal during recovery.
    pub records_replayed: u64,
    /// Payment records journaled by live execution.
    pub payments_journaled: u64,
    /// Recomputed payments suppressed as duplicates during replay —
    /// evidence the idempotency key worked, not an anomaly.
    pub duplicate_payments_suppressed: u64,
    /// Market reward reconstructed from the ledger's payment records alone,
    /// core-hours. Must equal `SimReport::reward_core_hours` bit-for-bit
    /// (the `durability-payments` oracle).
    pub ledger_reward_core_hours: f64,
    /// Highest slot with a durable commit record at the moment of the
    /// crash, as observed *before* the kill (what the manager acknowledged
    /// to the outside world).
    pub acked_slot_before_crash: Option<u64>,
    /// Highest committed slot actually recovered from the surviving ledger
    /// image. `durability-commit` demands `>= acked_slot_before_crash`
    /// unless bit-flip media faults were active.
    pub recovered_commit_slot: Option<u64>,
    /// Bytes of corrupt ledger tail discarded by scan-and-truncate.
    pub truncated_bytes: u64,
    /// Slots re-driven from checkpoint + ledger during recovery.
    pub recovered_slots: u64,
    /// Replayed slots whose recomputed records disagreed with the journal
    /// (must be zero: the `durability-replay` oracle).
    pub replay_divergence: u64,
    /// Supervisor restarts consumed by the run.
    pub restarts: u32,
    /// True when the supervisor exhausted its restart budget and escalated
    /// to safe mode (EQL capping, admission hold).
    pub safe_mode: bool,
    /// Storage faults injected by the `DiskPlan`, by class:
    /// torn writes.
    pub disk_torn_writes: u64,
    /// Storage faults injected: silent single-bit flips.
    pub disk_bit_flips: u64,
    /// Storage faults injected: ENOSPC rejections.
    pub disk_enospc: u64,
    /// Storage faults injected: failed fsyncs.
    pub disk_fsync_failures: u64,
    /// True when a storage fault wedged the ledger mid-run (journaling
    /// stopped; the run continued without durability).
    pub ledger_wedged: bool,
}

/// Per-application-profile accounting (Figs. 9(c), 9(d), 15(c), 15(d)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStats {
    /// Total resource reduction attributed to jobs of this profile,
    /// core-hours.
    pub reduction_core_hours: f64,
    /// Total performance-loss cost, core-hours.
    pub cost_core_hours: f64,
    /// Extra execution time accumulated, as a fraction of the profile's
    /// jobs' nominal runtime (for per-app performance-loss plots).
    pub runtime_stretch_pct: f64,
    /// Number of completed jobs of this profile.
    pub jobs: usize,
}

/// One emergency-lifecycle event, always recorded (unlike the heavyweight
/// per-slot [`Timeline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmergencyEvent {
    /// Event time, seconds from simulation origin.
    pub t_secs: f64,
    /// What happened.
    pub kind: EmergencyEventKind,
    /// Power-reduction target in force after the event, watts (zero on
    /// lift).
    pub target_watts: f64,
    /// Clearing price in force after the event (zero for OPT/EQL and on
    /// lift).
    pub price: f64,
}

/// The kind of an [`EmergencyEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmergencyEventKind {
    /// An emergency was declared and the market/algorithm ran.
    Declare,
    /// Power exceeded capacity during an emergency; reductions deepened.
    Escalate,
    /// Normal operation resumed; reductions restored.
    Lift,
}

/// Per-slot time series recorded when `SimConfig::record_timeline` is set.
///
/// All vectors have one entry per simulated slot. `power_w` is the measured
/// (post-reduction) power, `demand_w` what the active jobs would draw at
/// full speed, `capacity_w` the (possibly policy-driven) capacity, and
/// `price` the market clearing price in force.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Slot length in seconds.
    pub slot_secs: f64,
    /// Measured power per slot, watts.
    pub power_w: Vec<f64>,
    /// Full-speed demand per slot, watts.
    pub demand_w: Vec<f64>,
    /// Capacity per slot, watts.
    pub capacity_w: Vec<f64>,
    /// Total reduction in force per slot, watts.
    pub reduction_w: Vec<f64>,
    /// Clearing price in force per slot (0 outside emergencies).
    pub price: Vec<f64>,
}

impl Timeline {
    /// Serializes the timeline as CSV
    /// (`minute,demand_w,power_w,capacity_w,reduction_w,price` per slot),
    /// ready for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        // The `_w` column tokens come from `Watts::SUFFIX` so header and
        // typed display can never drift apart.
        let w = mpr_core::Watts::SUFFIX.trim().to_ascii_lowercase();
        let mut out = format!("minute,demand_{w},power_{w},capacity_{w},reduction_{w},price\n");
        let rows = self
            .demand_w
            .iter()
            .zip(&self.power_w)
            .zip(&self.capacity_w)
            .zip(&self.reduction_w)
            .zip(&self.price);
        for (i, ((((demand, power), capacity), reduction), price)) in rows.enumerate() {
            out.push_str(&format!(
                "{:.2},{:.1},{:.1},{:.1},{:.1},{:.6}\n",
                i as f64 * self.slot_secs / 60.0,
                demand,
                power,
                capacity,
                reduction,
                price,
            ));
        }
        out
    }
}

/// Per-tree-level accounting of federated clearings, keyed by node name
/// inside [`FederatedStats::levels`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FederatedLevelStats {
    /// Distance of the node from the tree root.
    pub depth: usize,
    /// Subtree markets cleared at this node across the run.
    pub markets: usize,
    /// Summed initial capacity deficits (the node markets' targets), W.
    pub target_watts: f64,
    /// Summed power shed by markets run at this node, W.
    pub cleared_watts: f64,
    /// Summed residual deficit left at this node after each sweep, W.
    pub residual_watts: f64,
    /// Sweeps where this node's markets could not shed its full deficit
    /// and the residual escalated to the node's emergency path.
    pub escalations: usize,
}

/// Federated-market totals, present when the run cleared overload events
/// through a [`HierarchicalMarket`](mpr_power::HierarchicalMarket) over a
/// power-tree topology (`SimConfig::topology`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FederatedStats {
    /// Overload events cleared through the federated path.
    pub events: usize,
    /// Total subtree markets cleared across all events.
    pub markets: usize,
    /// Total deepest-to-root sweep rounds across all events.
    pub rounds: usize,
    /// Summed residual deficit left at the tree after each sweep, W —
    /// the federated analogue of
    /// [`DegradationStats::residual_overload_watts`].
    pub residual_watts: f64,
    /// Events whose sweep ended with the tree still infeasible.
    pub infeasible_events: usize,
    /// Slots during which at least one infrastructure fault was in force
    /// over the power tree (grid-fault plans only).
    pub grid_fault_slots: usize,
    /// Cumulative dead (fenced) nodes observed across federated events.
    pub fenced_nodes: usize,
    /// Cumulative derated-but-alive nodes observed across federated
    /// events.
    pub derated_nodes: usize,
    /// Jobs moved off a dead rack to a surviving sibling, cumulative.
    pub reassigned_jobs: usize,
    /// Jobs stranded with no surviving rack anywhere, cumulative.
    pub quarantined_jobs: usize,
    /// Power cleared through rows assigned to dead racks, W. The
    /// grid-fencing chaos oracle requires this to stay exactly zero —
    /// any positive value means power was routed through a dead node.
    pub dead_cleared_watts: f64,
    /// Worst observed excess of a node's post-clear load over its derated
    /// capacity *beyond* its reported residual, W. The derate chaos
    /// oracle requires this to stay within tolerance — residuals account
    /// every exceedance, nothing is silently over capacity.
    pub derate_excess_watts: f64,
    /// Federated events cleared after the last scheduled repair — the
    /// post-repair window the bit-exactness oracle scrutinizes.
    pub post_repair_events: usize,
    /// Per-node accounting, keyed by node name, ordered by name.
    pub levels: BTreeMap<String, FederatedLevelStats>,
}

impl FederatedStats {
    /// Folds one sweep's per-level reports into the running totals.
    pub fn absorb(&mut self, outcome: &mpr_power::FederatedOutcome) {
        self.events += 1;
        self.markets += outcome.markets;
        self.rounds += outcome.rounds;
        self.residual_watts += outcome.residual.get();
        if !outcome.feasible() {
            self.infeasible_events += 1;
        }
        for level in &outcome.levels {
            let entry = self.levels.entry(level.name.clone()).or_default();
            entry.depth = level.depth;
            entry.markets += level.markets;
            entry.target_watts += level.target.get();
            entry.cleared_watts += level.cleared.get();
            entry.residual_watts += level.residual.get();
            entry.escalations += usize::from(level.escalated);
        }
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Trace the run consumed.
    pub trace_name: String,
    /// Algorithm label (`"OPT"`, `"EQL"`, `"MPR-STAT"`, `"MPR-INT"`).
    pub algorithm: String,
    /// Oversubscription level in percent.
    pub oversubscription_pct: f64,

    /// Number of simulated slots.
    pub total_slots: usize,
    /// Slots during which measured power exceeded capacity.
    pub overload_slots: usize,
    /// Number of declared emergencies.
    pub overload_events: usize,
    /// Emergencies where even best-effort capping could not meet the
    /// target (EQL on fragile apps, low participation).
    pub unmet_emergencies: usize,

    /// Jobs that started during the run.
    pub jobs_total: usize,
    /// Jobs that finished during the run.
    pub jobs_completed: usize,
    /// Jobs active during at least one overloaded slot.
    pub jobs_affected: usize,
    /// Jobs whose start was held back by an active emergency.
    pub jobs_deferred: usize,

    /// Total resource reduction, core-hours (Fig. 8(d)).
    pub reduction_core_hours: f64,
    /// Total performance-loss cost, core-hours (Fig. 9(a)).
    pub cost_core_hours: f64,
    /// Total market reward paid to users, core-hours (Fig. 11).
    pub reward_core_hours: f64,
    /// Mean runtime increase of affected completed jobs, percent
    /// (Fig. 9(b)).
    pub avg_runtime_increase_pct: f64,

    /// Extra compute gained from oversubscription, core-hours (Fig. 11(b)).
    pub extra_capacity_core_hours: f64,
    /// Infrastructure capacity, watts.
    pub capacity_watts: f64,
    /// The trace's reference peak power, watts.
    pub peak_watts: f64,

    /// Total MPR-INT iterations across all market invocations (0 for other
    /// algorithms).
    pub int_iterations_total: usize,

    /// Degradation accounting: retries, quarantines, chain levels and
    /// residual overload across the run's market clearings.
    pub degradation: DegradationStats,

    /// Per-profile breakdown, keyed by application name.
    pub per_profile: BTreeMap<String, ProfileStats>,

    /// Per-slot series, present when timeline recording was enabled.
    pub timeline: Option<Timeline>,

    /// Every emergency declare/escalate/lift, in time order.
    pub events: Vec<EmergencyEvent>,

    /// Telemetry-pipeline health counters, present when the run measured
    /// power through a sensor/estimator pipeline (`SimConfig::telemetry`).
    pub telemetry: Option<TelemetryHealth>,

    /// Message-layer totals, present when the run's market clearings went
    /// over a simulated network (`SimConfig::net_plan`).
    pub transport: Option<TransportTotals>,

    /// Crash-durability totals, present when the run journaled to a
    /// write-ahead ledger (`SimConfig::durability`). Attached by the
    /// `ledger` harness after the engine finishes.
    pub durability: Option<DurabilityTotals>,

    /// Federated-market totals, present when the run cleared overload
    /// events through a hierarchical market over a power-tree topology
    /// (`SimConfig::topology`).
    pub federated: Option<FederatedStats>,
}

impl SimReport {
    /// Durations of completed emergencies (declare → lift), seconds.
    #[must_use]
    pub fn emergency_durations_secs(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut started: Option<f64> = None;
        for e in &self.events {
            match e.kind {
                EmergencyEventKind::Declare => started = Some(e.t_secs),
                EmergencyEventKind::Lift => {
                    if let Some(s) = started.take() {
                        out.push(e.t_secs - s);
                    }
                }
                EmergencyEventKind::Escalate => {}
            }
        }
        out
    }
}

impl SimReport {
    /// Fraction of time spent overloaded, in percent (Fig. 8(a)).
    #[must_use]
    pub fn overload_time_pct(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            100.0 * self.overload_slots as f64 / self.total_slots as f64
        }
    }

    /// Fraction of jobs affected by overloads, in percent (Fig. 8(c)).
    #[must_use]
    pub fn jobs_affected_pct(&self) -> f64 {
        if self.jobs_total == 0 {
            0.0
        } else {
            100.0 * self.jobs_affected as f64 / self.jobs_total as f64
        }
    }

    /// Reward as a percentage of the performance-loss cost (Fig. 11(a)).
    /// `None` when no cost was incurred.
    #[must_use]
    pub fn reward_pct_of_cost(&self) -> Option<f64> {
        (self.cost_core_hours > 1e-9).then(|| 100.0 * self.reward_core_hours / self.cost_core_hours)
    }

    /// The HPC manager's gain ratio: extra capacity per core-hour of
    /// reward paid (Fig. 11(b)). `None` when no reward was paid.
    #[must_use]
    pub fn gain_over_reward(&self) -> Option<f64> {
        (self.reward_core_hours > 1e-9)
            .then(|| self.extra_capacity_core_hours / self.reward_core_hours)
    }

    /// Mean MPR-INT iterations per market invocation (Fig. 10(b)).
    #[must_use]
    pub fn int_iterations_avg(&self) -> f64 {
        if self.overload_events == 0 {
            0.0
        } else {
            self.int_iterations_total as f64 / self.overload_events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            trace_name: "t".into(),
            algorithm: "MPR-STAT".into(),
            oversubscription_pct: 15.0,
            total_slots: 1000,
            overload_slots: 50,
            overload_events: 5,
            unmet_emergencies: 0,
            jobs_total: 200,
            jobs_completed: 180,
            jobs_affected: 40,
            jobs_deferred: 3,
            reduction_core_hours: 100.0,
            cost_core_hours: 20.0,
            reward_core_hours: 60.0,
            avg_runtime_increase_pct: 0.5,
            extra_capacity_core_hours: 30000.0,
            capacity_watts: 262_434.0,
            peak_watts: 301_800.0,
            int_iterations_total: 0,
            degradation: DegradationStats::default(),
            per_profile: BTreeMap::new(),
            timeline: None,
            events: Vec::new(),
            telemetry: None,
            transport: None,
            durability: None,
            federated: None,
        }
    }

    #[test]
    fn derived_percentages() {
        let r = report();
        assert!((r.overload_time_pct() - 5.0).abs() < 1e-12);
        assert!((r.jobs_affected_pct() - 20.0).abs() < 1e-12);
        assert!((r.reward_pct_of_cost().unwrap() - 300.0).abs() < 1e-9);
        assert!((r.gain_over_reward().unwrap() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let mut r = report();
        r.total_slots = 0;
        r.jobs_total = 0;
        r.cost_core_hours = 0.0;
        r.reward_core_hours = 0.0;
        r.overload_events = 0;
        assert_eq!(r.overload_time_pct(), 0.0);
        assert_eq!(r.jobs_affected_pct(), 0.0);
        assert_eq!(r.reward_pct_of_cost(), None);
        assert_eq!(r.gain_over_reward(), None);
        assert_eq!(r.int_iterations_avg(), 0.0);
    }

    #[test]
    fn emergency_durations_pair_declare_with_lift() {
        let mut r = report();
        r.events = vec![
            EmergencyEvent {
                t_secs: 60.0,
                kind: EmergencyEventKind::Declare,
                target_watts: 100.0,
                price: 0.4,
            },
            EmergencyEvent {
                t_secs: 120.0,
                kind: EmergencyEventKind::Escalate,
                target_watts: 150.0,
                price: 0.5,
            },
            EmergencyEvent {
                t_secs: 900.0,
                kind: EmergencyEventKind::Lift,
                target_watts: 0.0,
                price: 0.0,
            },
            // A dangling declare (run ended mid-emergency) contributes no
            // duration.
            EmergencyEvent {
                t_secs: 1200.0,
                kind: EmergencyEventKind::Declare,
                target_watts: 80.0,
                price: 0.3,
            },
        ];
        assert_eq!(r.emergency_durations_secs(), vec![840.0]);
    }

    #[test]
    fn timeline_csv_round_numbers() {
        let tl = Timeline {
            slot_secs: 60.0,
            power_w: vec![100.0, 200.0],
            demand_w: vec![150.0, 200.0],
            capacity_w: vec![180.0, 180.0],
            reduction_w: vec![50.0, 0.0],
            price: vec![0.5, 0.0],
        };
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("minute,"));
        assert_eq!(lines[1], "0.00,150.0,100.0,180.0,50.0,0.500000");
        assert_eq!(lines[2], "1.00,200.0,200.0,180.0,0.0,0.000000");
    }

    #[test]
    fn int_iteration_average() {
        let mut r = report();
        r.int_iterations_total = 40;
        assert!((r.int_iterations_avg() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn transport_totals_absorb_sums_counters() {
        let mut t = TransportTotals::default();
        let d = mpr_core::TransportDiagnostics {
            rounds: 5,
            announces: 15,
            retransmits: 2,
            replies_accepted: 13,
            duplicates_ignored: 1,
            straggler_rounds: 2,
            virtual_ticks: 40,
            ..mpr_core::TransportDiagnostics::default()
        };
        t.absorb(&d);
        t.absorb(&d);
        assert_eq!(t.clearings, 2);
        assert_eq!(t.rounds, 10);
        assert_eq!(t.announces, 30);
        assert_eq!(t.retransmits, 4);
        assert_eq!(t.virtual_ticks, 80);
        t.set_channel_totals(mpr_core::TransportStats {
            sent: 30,
            delivered: 25,
            dropped: 5,
            duplicated: 1,
        });
        assert_eq!(t.messages_dropped, 5);
        assert_eq!(t.messages_duplicated, 1);
    }

    #[test]
    fn degradation_stats_watermark_and_flags() {
        let mut d = DegradationStats::default();
        assert!(!d.any_degradation());
        assert_eq!(d.deepest_chain_level, None);

        d.observe_chain_level(ChainLevel::Interactive);
        assert_eq!(d.deepest_chain_level, Some(ChainLevel::Interactive));
        // Clean interactive clearings alone are not degradation.
        assert!(!d.any_degradation());

        d.observe_chain_level(ChainLevel::EqlCapping);
        assert_eq!(d.deepest_chain_level, Some(ChainLevel::EqlCapping));
        // The watermark never recedes.
        d.observe_chain_level(ChainLevel::StaticFallback);
        assert_eq!(d.deepest_chain_level, Some(ChainLevel::EqlCapping));

        d.participants_quarantined = 2;
        d.static_fallbacks = 1;
        assert!(d.any_degradation());
    }
}
