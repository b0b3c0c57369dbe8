//! The durable market ledger: write-ahead journaling of every market event,
//! crash/recovery orchestration and supervised self-healing.
//!
//! # What gets journaled
//!
//! When [`SimConfig::durability`] is set, [`run_durable`] drives the engine
//! slot by slot with the journaling side channel enabled. Every market
//! event of a slot — emergency-FSM transition, price announcement,
//! accepted bid, clearing, quarantine, payment — becomes one CRC-framed
//! record in a [`Wal`] over a seeded [`FaultyDisk`], terminated by a
//! `SlotCommit` record. A slot is *acknowledged* once its commit record is
//! durable under the configured [`FsyncPolicy`] — except under
//! [`FsyncPolicy::Never`], which (unsoundly) acknowledges on append; the
//! chaos campaign's `durability-commit` oracle exists to catch exactly
//! that.
//!
//! # Recovery
//!
//! A scripted kill ([`DurabilityPlan::kill_at_slot`](crate::DurabilityPlan))
//! drops the engine state on the floor and crashes the disk (losing
//! unsynced bytes). Recovery then
//!
//! 1. scans the surviving image and truncates the corrupt tail
//!    (scan-and-truncate, [`mpr_durable::recover`]),
//! 2. additionally truncates any record *tail* belonging to a slot whose
//!    `SlotCommit` never became durable, so the log ends at a slot
//!    boundary and fresh appends can never interleave with a
//!    half-journaled slot,
//! 3. replays all journaled payments into an exactly-once
//!    [`PaymentLog`], and
//! 4. picks the newest in-memory checkpoint at or before the last
//!    committed slot and re-drives the engine from there: replayed slots
//!    are verified event-by-event against the journal (divergence
//!    counted), recomputed payments are suppressed as duplicates, and
//!    post-commit slots journal fresh records into the recovered WAL.
//!
//! Because the engine is deterministic, the recovered run's [`SimReport`]
//! is bit-identical to an uninterrupted run — the recovery-equivalence
//! property `tests/durability.rs` proves for arbitrary kill points. The
//! whole recovery attempt executes under [`mpr_durable::supervise`]: a
//! panic or unrecoverable error triggers capped-backoff restarts, and
//! exhausting the restart budget escalates to safe mode — the process
//! level of the degradation ladder — which re-runs the workload under EQL
//! capping with the market (and its durability dependency) disabled.

use std::fmt;

use mpr_core::codec::{Dec, DecodeError, Enc};
use mpr_core::{CoreHours, PaymentKey, PaymentLog};
use mpr_durable::wal::{
    encode_segment_header, BODY_PREFIX_LEN, FRAME_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use mpr_durable::{
    scan, DiskFaultConfig, DiskFaultCounters, FaultyDisk, FsyncPolicy, Record, Storage, Supervised,
    SupervisorConfig, Wal, WalError, DISK_SEED_XOR,
};
use mpr_workload::Trace;

use crate::config::{Algorithm, SimConfig};
use crate::engine::{RunSetup, Simulation};
use crate::report::{DurabilityTotals, SimReport};

/// Record kind tags on the wire. Dense and stable: they are part of the
/// on-disk format and `mpr ledger` decodes them offline.
mod kind {
    pub const PRICE_ANNOUNCE: u8 = 1;
    pub const BID_ARRIVAL: u8 = 2;
    pub const CLEARING: u8 = 3;
    pub const PAYMENT: u8 = 4;
    pub const EMERGENCY: u8 = 5;
    pub const QUARANTINE: u8 = 6;
    pub const SLOT_COMMIT: u8 = 7;
}

/// One market event, as journaled to the write-ahead ledger.
///
/// Emitted by the engine's journaling side channel in deterministic order
/// within each slot; `SlotCommit` is appended by the ledger harness, never
/// by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// The manager announced a clearing price to the participants.
    PriceAnnounce {
        /// Simulation time, seconds.
        t_secs: f64,
        /// Reduction target, watts.
        target_watts: f64,
        /// Announced (maximum) price, core-hours per unit reduction.
        price: f64,
    },
    /// A participant's accepted bid entered the clearing.
    BidArrival {
        /// Trace job index of the participant.
        participant: u64,
        /// Accepted resource reduction, cores.
        reduction: f64,
        /// Price attached to the reduction.
        price: f64,
    },
    /// A market clearing completed.
    Clearing {
        /// 0 = declare-triggered, 1 = escalate-triggered.
        kind: u8,
        /// Reduction target, watts.
        target_watts: f64,
        /// Power reduction actually delivered, watts.
        delivered_watts: f64,
        /// True when the degradation chain fell below MPR-INT.
        degraded: bool,
    },
    /// A participant was paid for an in-force reduction this slot.
    Payment {
        /// Trace job index of the paid participant.
        participant: u64,
        /// Price at payment time.
        price: f64,
        /// Reduction paid for, cores.
        reduction: f64,
        /// Payment amount, core-hours (price × reduction × slot hours).
        amount_core_hours: f64,
    },
    /// Emergency-FSM transition.
    Emergency {
        /// 0 = declare, 1 = escalate, 2 = lift.
        kind: u8,
        /// Simulation time, seconds.
        t_secs: f64,
        /// Reduction target, watts (zero for lift).
        target_watts: f64,
        /// Price in force (zero for lift).
        price: f64,
    },
    /// Participants quarantined by this clearing's fault handling.
    Quarantine {
        /// Number of newly quarantined participants.
        participants: u64,
    },
    /// Terminates a slot's record group: every record since the previous
    /// commit belongs to `slot`. A slot is acknowledged once this record
    /// is durable.
    SlotCommit {
        /// The committed slot.
        slot: u64,
    },
}

impl LedgerEvent {
    /// Encodes the event as a `(kind, payload)` WAL record body. Payloads
    /// are fixed-layout per kind, in the shared little-endian record codec
    /// ([`mpr_core::codec`]).
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::with_capacity(33);
        let record_kind = match self {
            LedgerEvent::PriceAnnounce {
                t_secs,
                target_watts,
                price,
            } => {
                e.f64(*t_secs);
                e.f64(*target_watts);
                e.f64(*price);
                kind::PRICE_ANNOUNCE
            }
            LedgerEvent::BidArrival {
                participant,
                reduction,
                price,
            } => {
                e.u64(*participant);
                e.f64(*reduction);
                e.f64(*price);
                kind::BID_ARRIVAL
            }
            LedgerEvent::Clearing {
                kind: k,
                target_watts,
                delivered_watts,
                degraded,
            } => {
                e.u8(*k);
                e.f64(*target_watts);
                e.f64(*delivered_watts);
                e.bool(*degraded);
                kind::CLEARING
            }
            LedgerEvent::Payment {
                participant,
                price,
                reduction,
                amount_core_hours,
            } => {
                e.u64(*participant);
                e.f64(*price);
                e.f64(*reduction);
                e.f64(*amount_core_hours);
                kind::PAYMENT
            }
            LedgerEvent::Emergency {
                kind: k,
                t_secs,
                target_watts,
                price,
            } => {
                e.u8(*k);
                e.f64(*t_secs);
                e.f64(*target_watts);
                e.f64(*price);
                kind::EMERGENCY
            }
            LedgerEvent::Quarantine { participants } => {
                e.u64(*participants);
                kind::QUARANTINE
            }
            LedgerEvent::SlotCommit { slot } => {
                e.u64(*slot);
                kind::SLOT_COMMIT
            }
        };
        (record_kind, e.into_bytes())
    }

    /// Decodes a WAL record body back into an event. `None` on unknown
    /// kind or malformed payload: a short payload, trailing bytes, or a
    /// `degraded` tag other than 0 or 1.
    #[must_use]
    pub fn decode(record_kind: u8, payload: &[u8]) -> Option<Self> {
        Self::try_decode(record_kind, Dec::new(payload)).ok()
    }

    fn try_decode(record_kind: u8, mut d: Dec<'_>) -> Result<Self, DecodeError> {
        let event = match record_kind {
            kind::PRICE_ANNOUNCE => LedgerEvent::PriceAnnounce {
                t_secs: d.f64()?,
                target_watts: d.f64()?,
                price: d.f64()?,
            },
            kind::BID_ARRIVAL => LedgerEvent::BidArrival {
                participant: d.u64()?,
                reduction: d.f64()?,
                price: d.f64()?,
            },
            kind::CLEARING => LedgerEvent::Clearing {
                kind: d.u8()?,
                target_watts: d.f64()?,
                delivered_watts: d.f64()?,
                degraded: d.bool()?,
            },
            kind::PAYMENT => LedgerEvent::Payment {
                participant: d.u64()?,
                price: d.f64()?,
                reduction: d.f64()?,
                amount_core_hours: d.f64()?,
            },
            kind::EMERGENCY => LedgerEvent::Emergency {
                kind: d.u8()?,
                t_secs: d.f64()?,
                target_watts: d.f64()?,
                price: d.f64()?,
            },
            kind::QUARANTINE => LedgerEvent::Quarantine {
                participants: d.u64()?,
            },
            kind::SLOT_COMMIT => LedgerEvent::SlotCommit { slot: d.u64()? },
            _ => return Err(DecodeError::Malformed("unknown record kind")),
        };
        d.finish()?;
        Ok(event)
    }

    /// One-line human rendering for `mpr ledger dump`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            LedgerEvent::PriceAnnounce {
                t_secs,
                target_watts,
                price,
            } => {
                format!("price-announce t={t_secs:.0}s target={target_watts:.1}W price={price:.4}")
            }
            LedgerEvent::BidArrival {
                participant,
                reduction,
                price,
            } => {
                format!(
                    "bid-arrival job={participant} reduction={reduction:.3}cores price={price:.4}"
                )
            }
            LedgerEvent::Clearing {
                kind,
                target_watts,
                delivered_watts,
                degraded,
            } => {
                let trigger = if *kind == 0 { "declare" } else { "escalate" };
                format!(
                    "clearing trigger={trigger} target={target_watts:.1}W delivered={delivered_watts:.1}W degraded={degraded}"
                )
            }
            LedgerEvent::Payment {
                participant,
                amount_core_hours,
                ..
            } => format!("payment job={participant} amount={amount_core_hours:.6}ch"),
            LedgerEvent::Emergency {
                kind,
                t_secs,
                target_watts,
                ..
            } => {
                let name = match kind {
                    0 => "declare",
                    1 => "escalate",
                    _ => "lift",
                };
                format!("emergency {name} t={t_secs:.0}s target={target_watts:.1}W")
            }
            LedgerEvent::Quarantine { participants } => {
                format!("quarantine participants={participants}")
            }
            LedgerEvent::SlotCommit { slot } => format!("slot-commit slot={slot}"),
        }
    }
}

/// Errors surfaced by the durable-run harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The WAL failed before the run could even start (e.g. a
    /// zero-capacity disk plan rejecting the segment header).
    Wal(WalError),
    /// Recovery exhausted the supervisor's restart budget *and* the
    /// safe-mode fallback failed too.
    Unrecoverable(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Wal(err) => write!(f, "ledger wal error: {err}"),
            LedgerError::Unrecoverable(msg) => write!(f, "unrecoverable: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<WalError> for LedgerError {
    fn from(err: WalError) -> Self {
        LedgerError::Wal(err)
    }
}

/// The write-ahead market ledger: a [`Wal`] over a seeded [`FaultyDisk`],
/// tracking per-slot commit acknowledgements.
#[derive(Debug)]
pub struct MarketLedger {
    wal: Wal<FaultyDisk>,
    /// `(commit record seq, slot)` pairs, in append order.
    commits: Vec<(u64, u64)>,
    records_journaled: u64,
    payments_journaled: u64,
}

impl MarketLedger {
    /// Creates a fresh ledger for a configuration: the disk is seeded with
    /// `cfg.seed ^ DISK_SEED_XOR` and the stream id is `cfg.seed`, so a
    /// ledger can never be replayed against the wrong run. When even the
    /// segment header cannot be made durable (a torn header write, or a
    /// zero-capacity disk plan) the ledger starts *wedged*: the run
    /// proceeds without durability, exactly as with a mid-run wedge.
    #[must_use]
    pub fn create(cfg: &SimConfig) -> Self {
        let plan = cfg.durability.unwrap_or_default();
        let disk_cfg = plan.disk.map(|d| d.fault_config()).unwrap_or_default();
        let disk = FaultyDisk::new(disk_cfg, cfg.seed ^ DISK_SEED_XOR);
        let wal = Wal::create_or_wedge(disk, cfg.seed, plan.fsync);
        Self {
            wal,
            commits: Vec::new(),
            records_journaled: 0,
            payments_journaled: 0,
        }
    }

    /// Journals one executed slot: its events in engine order, then the
    /// `SlotCommit`. A storage fault wedges the WAL — journaling silently
    /// stops (the run continues without durability) and the wedge is
    /// surfaced in [`DurabilityTotals::ledger_wedged`].
    pub fn journal_slot(&mut self, slot: u64, events: &[LedgerEvent]) {
        if self.wal.is_wedged() {
            return;
        }
        for event in events {
            let (k, payload) = event.encode();
            if self.wal.append(k, &payload).is_err() {
                return;
            }
            self.records_journaled += 1;
            if matches!(event, LedgerEvent::Payment { .. }) {
                self.payments_journaled += 1;
            }
        }
        let (k, payload) = LedgerEvent::SlotCommit { slot }.encode();
        if let Ok(seq) = self.wal.append(k, &payload) {
            self.records_journaled += 1;
            self.commits.push((seq, slot));
        }
    }

    /// Highest slot the manager may report as durably committed: the last
    /// commit record at or below the WAL's acknowledged sequence. Under
    /// [`FsyncPolicy::Never`] this reflects the unsound append-time
    /// acknowledgement — the planted bug the `durability-commit` oracle
    /// catches.
    #[must_use]
    pub fn acked_slot(&self) -> Option<u64> {
        let acked = self.wal.acked_seq()?;
        self.commits
            .iter()
            .rev()
            .find(|(seq, _)| *seq <= acked)
            .map(|(_, slot)| *slot)
    }

    /// Records appended so far.
    #[must_use]
    pub fn records_journaled(&self) -> u64 {
        self.records_journaled
    }

    /// Payment records appended so far.
    #[must_use]
    pub fn payments_journaled(&self) -> u64 {
        self.payments_journaled
    }

    /// True once a storage fault has stopped journaling.
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.wal.is_wedged()
    }

    /// Injected disk-fault counters.
    #[must_use]
    pub fn disk_counters(&self) -> DiskFaultCounters {
        self.wal.storage().counters()
    }

    /// Crashes the underlying disk (power loss): unsynced bytes are lost
    /// except for a seeded prefix. Returns the surviving durable image.
    pub fn crash(&mut self) -> Vec<u8> {
        self.wal.storage_mut().crash();
        self.wal.storage_mut().durable_bytes().to_vec()
    }

    /// Consumes the ledger, returning the full byte image — what
    /// `mpr ledger` inspects after a clean shutdown.
    #[must_use]
    pub fn into_image(self) -> Vec<u8> {
        let mut storage = self.wal.into_storage();
        storage.read_all().unwrap_or_default()
    }
}

/// Ledger image decoded to slot granularity.
struct SlotGroups {
    /// `(slot, events)` — including the `SlotCommit` — for every committed
    /// slot, in order.
    groups: Vec<(u64, Vec<LedgerEvent>)>,
    /// Byte length of the image prefix ending at the last durable commit.
    committed_len: u64,
    /// Sequence the next record after that prefix must carry.
    next_seq: u64,
    /// Records inside the committed prefix.
    committed_records: u64,
    /// Last committed slot.
    last_slot: Option<u64>,
}

/// Groups a scanned record stream into committed slots and locates the
/// byte boundary of the last commit, so the uncommitted tail (records of a
/// slot whose `SlotCommit` never made it to durable storage) can be
/// truncated away along with the corrupt bytes.
fn group_by_slot(records: &[Record]) -> SlotGroups {
    let mut groups: Vec<(u64, Vec<LedgerEvent>)> = Vec::new();
    let mut pending: Vec<LedgerEvent> = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN as u64;
    let mut committed_len = offset;
    let mut next_seq = 0u64;
    let mut committed_records = 0u64;
    let mut last_slot = None;
    let mut records_seen = 0u64;
    for record in records {
        offset += (FRAME_HEADER_LEN + BODY_PREFIX_LEN + record.payload.len()) as u64;
        records_seen += 1;
        match LedgerEvent::decode(record.kind, &record.payload) {
            Some(LedgerEvent::SlotCommit { slot }) => {
                pending.push(LedgerEvent::SlotCommit { slot });
                groups.push((slot, std::mem::take(&mut pending)));
                committed_len = offset;
                next_seq = record.seq + 1;
                committed_records = records_seen;
                last_slot = Some(slot);
            }
            Some(event) => pending.push(event),
            // An undecodable record body (valid CRC, unknown layout) ends
            // the usable prefix at the previous commit.
            None => break,
        }
    }
    SlotGroups {
        groups,
        committed_len,
        next_seq,
        committed_records,
        last_slot,
    }
}

/// A completed durable run: the report (with [`SimReport::durability`]
/// filled) plus the final ledger image for offline inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableRun {
    /// The simulation report, durability totals attached.
    pub report: SimReport,
    /// Final WAL image (single segment, post-recovery when a kill was
    /// scripted). Write it to a file to inspect with `mpr ledger`.
    pub wal_image: Vec<u8>,
}

/// Runs a simulation under the configured
/// [`DurabilityPlan`](crate::DurabilityPlan): journals every market event
/// to a write-ahead ledger over a (possibly faulty) disk, optionally kills
/// the manager at a scripted slot, and recovers it — supervised — from the
/// latest checkpoint plus ledger replay. See the module docs for the full
/// protocol.
///
/// # Errors
///
/// [`LedgerError::Unrecoverable`] when the supervisor exhausts its restart
/// budget and the safe-mode fallback fails too. WAL wedging — at creation
/// (a torn segment-header write) or mid-run — is *not* an error: the run
/// completes without durability and reports the wedge.
pub fn run_durable(trace: &Trace, cfg: SimConfig) -> Result<DurableRun, LedgerError> {
    let plan = cfg.durability.unwrap_or_default();
    let sim = Simulation::new(trace, cfg.clone());
    let setup = sim.setup();
    let mut state = sim.initial_state(&setup);
    let mut ledger = MarketLedger::create(&cfg);
    let mut payment_log = PaymentLog::new();
    let mut totals = DurabilityTotals::default();

    // In-memory checkpoints through the real checkpoint codec (no file
    // I/O): recovery picks the newest one at or before the last durable
    // commit, so it never needs journal records older than the restore
    // point.
    let every = usize::try_from(plan.checkpoint_every.max(1)).unwrap_or(usize::MAX);
    let mut checkpoints: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut journal: Vec<LedgerEvent> = Vec::new();
    let mut crashed = false;

    while !state.finished && state.step < setup.horizon_slots {
        if state.step.is_multiple_of(every) {
            checkpoints.push((state.step as u64, crate::checkpoint::encode_state(&state)));
        }
        if plan.kill_at_slot == Some(state.step as u64) {
            crashed = true;
            break;
        }
        let slot = state.step as u64;
        journal.clear();
        sim.step_slot_journaled(&setup, &mut state, Some(&mut journal));
        apply_payments(&mut payment_log, slot, &journal);
        ledger.journal_slot(slot, &journal);
    }

    if !crashed {
        // Uninterrupted: report straight from the live state.
        totals.records_journaled = ledger.records_journaled();
        totals.payments_journaled = ledger.payments_journaled();
        totals.recovered_commit_slot = ledger.acked_slot();
        totals.ledger_reward_core_hours = payment_log.total().get();
        totals.duplicate_payments_suppressed = payment_log.duplicates_suppressed();
        totals.ledger_wedged = ledger.is_wedged();
        fill_disk_counters(&mut totals, &ledger.disk_counters());
        let mut report = sim.finish_report(&setup, state);
        report.durability = Some(totals);
        return Ok(DurableRun {
            report,
            wal_image: ledger.into_image(),
        });
    }

    // ----- Crash: what did the manager believe vs. what survived? -----
    totals.acked_slot_before_crash = ledger.acked_slot();
    totals.records_journaled = ledger.records_journaled();
    totals.ledger_wedged = ledger.is_wedged();
    fill_disk_counters(&mut totals, &ledger.disk_counters());
    let surviving = ledger.crash();

    // ----- Scan-and-truncate, then cut back to the last slot commit. -----
    let scan_report = scan(&surviving, Some(cfg.seed));
    let slots = group_by_slot(&scan_report.records);
    totals.truncated_bytes =
        scan_report.truncated_bytes + scan_report.valid_len.saturating_sub(slots.committed_len);
    totals.recovered_commit_slot = slots.last_slot;
    totals.records_replayed = slots.committed_records;

    // A corrupt or missing segment header means nothing usable survived:
    // recovery restarts the stream from a fresh header.
    let committed_len = usize::try_from(slots.committed_len).unwrap_or(surviving.len());
    let image = match (scan_report.stream_id, surviving.get(..committed_len)) {
        (Some(_), Some(prefix)) => prefix.to_vec(),
        _ => encode_segment_header(cfg.seed),
    };

    // ----- Replay journaled payments, exactly once. -----
    let mut recovery_payments = PaymentLog::new();
    for (slot, events) in &slots.groups {
        apply_payments(&mut recovery_payments, *slot, events);
    }

    // ----- Supervised re-drive from checkpoint + ledger. -----
    let resume_ceiling = slots.last_slot.map_or(0, |s| s + 1);
    let resume_from = checkpoints
        .iter()
        .rev()
        .find(|(slot, _)| *slot <= resume_ceiling)
        .map(|(slot, bytes)| (*slot, bytes.clone()))
        .unwrap_or_else(|| {
            (
                0,
                crate::checkpoint::encode_state(&sim.initial_state(&setup)),
            )
        });
    let supervisor_cfg = SupervisorConfig {
        max_restarts: plan.max_restarts,
        ..SupervisorConfig::default()
    };
    let outcome = mpr_durable::supervise(&supervisor_cfg, |_attempt| {
        replay_from(
            &sim,
            &setup,
            &resume_from,
            &slots,
            &image,
            recovery_payments.clone(),
            plan.fsync,
        )
    });
    totals.restarts = outcome.restarts();
    match outcome {
        Supervised::Completed { value, .. } => {
            let (mut report, replay) = value;
            totals.recovered_slots = replay.recovered_slots;
            totals.replay_divergence = replay.divergence;
            totals.ledger_reward_core_hours = replay.payments.total().get();
            totals.duplicate_payments_suppressed = replay.payments.duplicates_suppressed();
            totals.payments_journaled = replay.payments.payments();
            totals.records_journaled += replay.fresh_records;
            report.durability = Some(totals);
            Ok(DurableRun {
                report,
                wal_image: replay.wal_image,
            })
        }
        Supervised::Escalated { failures, .. } => {
            // Safe mode: the process-level end of the degradation ladder —
            // EQL capping, no market, no durability dependency.
            totals.safe_mode = true;
            let mut safe_cfg = cfg.clone();
            safe_cfg.algorithm = Algorithm::Eql;
            safe_cfg.durability = None;
            let safe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Simulation::new(trace, safe_cfg).run()
            }));
            match safe {
                Ok(mut report) => {
                    report.durability = Some(totals);
                    Ok(DurableRun {
                        report,
                        wal_image: image,
                    })
                }
                Err(_) => Err(LedgerError::Unrecoverable(format!(
                    "supervisor escalated after {} failures ({}); safe-mode run panicked too",
                    failures.len(),
                    failures.last().cloned().unwrap_or_default(),
                ))),
            }
        }
    }
}

/// Outcome of one successful recovery attempt.
struct ReplayOutcome {
    recovered_slots: u64,
    divergence: u64,
    payments: PaymentLog,
    fresh_records: u64,
    wal_image: Vec<u8>,
}

/// One supervised recovery attempt: restore the checkpoint, re-drive the
/// engine to completion, verify replayed slots against the journal,
/// journal post-commit slots into the recovered WAL, and finish the
/// report.
fn replay_from(
    sim: &Simulation<'_>,
    setup: &RunSetup,
    resume_from: &(u64, Vec<u8>),
    slots: &SlotGroups,
    image: &[u8],
    mut payments: PaymentLog,
    fsync: FsyncPolicy,
) -> Result<(SimReport, ReplayOutcome), String> {
    let (resume_slot, checkpoint_bytes) = resume_from;
    let mut state = crate::checkpoint::decode_state(checkpoint_bytes, sim, setup)
        .map_err(|e| format!("checkpoint restore failed: {e}"))?;
    if state.step as u64 != *resume_slot {
        return Err(format!(
            "checkpoint slot mismatch: expected {resume_slot}, restored {}",
            state.step
        ));
    }
    // The recovered WAL continues the committed prefix on a fault-free
    // disk: recovery must never inject fresh faults into bytes that
    // already survived a crash.
    let disk = FaultyDisk::with_image(DiskFaultConfig::default(), 0, image.to_vec());
    let mut wal = Wal::resume(disk, fsync, slots.next_seq);

    let last_committed = slots.last_slot;
    let mut journal: Vec<LedgerEvent> = Vec::new();
    let mut divergence = 0u64;
    let mut fresh_records = 0u64;
    let start_step = state.step;
    while !state.finished && state.step < setup.horizon_slots {
        let slot = state.step as u64;
        journal.clear();
        sim.step_slot_journaled(setup, &mut state, Some(&mut journal));
        apply_payments(&mut payments, slot, &journal);
        if last_committed.is_some_and(|c| slot <= c) {
            // Replayed slot: verify the recomputation against the journal
            // (the journaled group carries a trailing SlotCommit the
            // engine does not emit). Recomputed payments were suppressed
            // as duplicates by the exactly-once log above.
            let matches =
                slots
                    .groups
                    .iter()
                    .find(|(s, _)| *s == slot)
                    .is_some_and(|(_, journaled)| {
                        journaled.len() == journal.len() + 1
                            && journaled.iter().zip(journal.iter()).all(|(a, b)| a == b)
                    });
            if !matches {
                divergence += 1;
            }
        } else {
            // Fresh slot: journal it into the recovered WAL.
            for event in &journal {
                let (k, payload) = event.encode();
                if wal.append(k, &payload).is_ok() {
                    fresh_records += 1;
                }
            }
            let (k, payload) = LedgerEvent::SlotCommit { slot }.encode();
            if wal.append(k, &payload).is_ok() {
                fresh_records += 1;
            }
        }
    }
    // lint: allow(error-swallowing) replay runs over fault-injected storage by design; the wal image read back below reflects exactly what persisted
    let _ = wal.sync();
    let recovered_slots = (state.step - start_step) as u64;
    let report = sim.finish_report(setup, state);
    let mut storage = wal.into_storage();
    let wal_image = storage.read_all().unwrap_or_default();
    Ok((
        report,
        ReplayOutcome {
            recovered_slots,
            divergence,
            payments,
            fresh_records,
            wal_image,
        },
    ))
}

/// Applies a slot's journaled payments to an exactly-once log.
fn apply_payments(log: &mut PaymentLog, slot: u64, events: &[LedgerEvent]) {
    for event in events {
        if let LedgerEvent::Payment {
            participant,
            amount_core_hours,
            ..
        } = event
        {
            log.apply(
                PaymentKey {
                    slot,
                    participant: *participant,
                },
                CoreHours::new(*amount_core_hours),
            );
        }
    }
}

fn fill_disk_counters(totals: &mut DurabilityTotals, c: &DiskFaultCounters) {
    totals.disk_torn_writes = c.torn_writes;
    totals.disk_bit_flips = c.bit_flips;
    totals.disk_enospc = c.enospc_rejections;
    totals.disk_fsync_failures = c.fsync_failures;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_durable::MemStorage;

    #[test]
    fn ledger_event_codec_round_trips() {
        let events = [
            LedgerEvent::PriceAnnounce {
                t_secs: 60.0,
                target_watts: 1234.5,
                price: 0.25,
            },
            LedgerEvent::BidArrival {
                participant: 17,
                reduction: 3.5,
                price: 0.125,
            },
            LedgerEvent::Clearing {
                kind: 1,
                target_watts: 900.0,
                delivered_watts: 890.5,
                degraded: true,
            },
            LedgerEvent::Payment {
                participant: 4,
                price: 0.3,
                reduction: 2.0,
                amount_core_hours: 0.01,
            },
            LedgerEvent::Emergency {
                kind: 0,
                t_secs: 120.0,
                target_watts: 55.0,
                price: 0.5,
            },
            LedgerEvent::Quarantine { participants: 3 },
            LedgerEvent::SlotCommit { slot: 42 },
        ];
        for event in &events {
            let (k, payload) = event.encode();
            let decoded = LedgerEvent::decode(k, &payload).expect("decode");
            assert_eq!(&decoded, event);
        }
    }

    #[test]
    fn decode_rejects_trailing_unknown_and_short() {
        let (k, mut payload) = LedgerEvent::SlotCommit { slot: 1 }.encode();
        payload.push(0);
        assert_eq!(LedgerEvent::decode(k, &payload), None, "trailing byte");
        assert_eq!(LedgerEvent::decode(250, &[]), None, "unknown kind");
        assert_eq!(LedgerEvent::decode(kind::PAYMENT, &[1, 2]), None, "short");
        let degraded = LedgerEvent::Clearing {
            kind: 0,
            target_watts: 1.0,
            delivered_watts: 1.0,
            degraded: true,
        };
        let (k, mut payload) = degraded.encode();
        assert_eq!(LedgerEvent::decode(k, &payload), Some(degraded));
        *payload.last_mut().expect("degraded tag") = 2;
        assert_eq!(LedgerEvent::decode(k, &payload), None, "degraded tag 2");
    }

    #[test]
    fn group_by_slot_cuts_uncommitted_tail() {
        // Two committed slots, then a dangling event without its commit.
        let mut wal = Wal::create(MemStorage::new(), 7, FsyncPolicy::Always).expect("create");
        let mk = |slot: u64| LedgerEvent::Quarantine { participants: slot };
        for slot in 0..2u64 {
            let (k, p) = mk(slot).encode();
            wal.append(k, &p).expect("append");
            let (k, p) = LedgerEvent::SlotCommit { slot }.encode();
            wal.append(k, &p).expect("append");
        }
        let (k, p) = mk(2).encode();
        wal.append(k, &p).expect("append dangling");
        let storage = wal.into_storage();
        let report = scan(storage.bytes(), Some(7));
        let slots = group_by_slot(&report.records);
        assert_eq!(slots.groups.len(), 2);
        assert_eq!(slots.last_slot, Some(1));
        assert_eq!(slots.next_seq, 4, "dangling record excluded");
        assert!(slots.committed_len < report.valid_len, "tail cut");
        assert_eq!(slots.committed_records, 4);
    }

    #[test]
    fn describe_is_total() {
        for event in [
            LedgerEvent::PriceAnnounce {
                t_secs: 0.0,
                target_watts: 0.0,
                price: 0.0,
            },
            LedgerEvent::Quarantine { participants: 1 },
            LedgerEvent::SlotCommit { slot: 0 },
        ] {
            assert!(!event.describe().is_empty());
        }
    }
}
