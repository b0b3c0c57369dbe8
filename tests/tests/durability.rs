//! Acceptance tests for the crash-durable market ledger (ISSUE 7): a run
//! journaled to a write-ahead ledger, killed at an arbitrary slot and
//! recovered from checkpoint + ledger replay must produce a `SimReport`
//! bit-identical to the uninterrupted run; payments must be applied
//! exactly once no matter how often the journal is replayed; and the
//! intentionally unsound `--wal-fsync never` policy must be *caught* by
//! the acknowledgement accounting the chaos `durability-commit` oracle
//! checks.

use mpr_durable::FsyncPolicy;
use mpr_sim::{run_durable, Algorithm, DiskPlan, DurabilityPlan, DurableRun, SimConfig, SimReport};
use mpr_tests::{quiet_slot_between_completions, test_trace};
use proptest::prelude::*;

/// Strips the durability totals so a recovered report can be compared
/// bit-for-bit against a plain (non-journaled) run.
fn without_durability(report: &SimReport) -> SimReport {
    let mut r = report.clone();
    r.durability = None;
    r
}

fn durable(cfg: &SimConfig, days: f64, seed: u64) -> DurableRun {
    let trace = test_trace(days, seed);
    run_durable(&trace, cfg.clone()).expect("durable run")
}

fn baseline(cfg: &SimConfig, days: f64, seed: u64) -> SimReport {
    let trace = test_trace(days, seed);
    mpr_sim::Simulation::new(&trace, cfg.clone()).run()
}

/// The kill/recover matrix: several kill points × several seeds, each
/// recovered run bit-identical to the uninterrupted one, payments exactly
/// once, replay never diverging.
#[test]
fn kill_recover_matrix_is_bit_identical() {
    for &seed in &[3u64, 11] {
        for &kill_at in &[1u64, 17, 120] {
            let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
                .with_seed(seed)
                .with_durability(DurabilityPlan::kill_at(kill_at));
            let full = baseline(&cfg, 2.0, seed);
            let run = durable(&cfg, 2.0, seed);
            assert_eq!(
                without_durability(&run.report),
                full,
                "seed {seed} kill {kill_at}: recovered report must be bit-identical"
            );
            let totals = run.report.durability.expect("durability totals");
            assert_eq!(
                totals.replay_divergence, 0,
                "seed {seed} kill {kill_at}: replay must match the journal"
            );
            assert_eq!(
                totals.ledger_reward_core_hours.to_bits(),
                run.report.reward_core_hours.to_bits(),
                "seed {seed} kill {kill_at}: ledger payments must equal the report reward"
            );
            assert!(!totals.safe_mode, "recovery must not escalate");
        }
    }
}

/// A kill at a Normal-phase slot between two completions, recovered from a
/// checkpoint taken in the same quiet stretch, reproduces the
/// uninterrupted run under both a market and the EQL baseline.
#[test]
fn kill_at_a_quiet_slot_between_completions_recovers_bit_identical() {
    let seed = 3u64;
    for alg in [Algorithm::MprStat, Algorithm::Eql] {
        let base = SimConfig::new(alg, 15.0).with_seed(seed);
        let kill_at = quiet_slot_between_completions(&test_trace(2.0, seed), &base);
        let cfg = base.with_durability(DurabilityPlan {
            checkpoint_every: 1,
            ..DurabilityPlan::kill_at(kill_at as u64)
        });
        let full = baseline(&cfg, 2.0, seed);
        let run = durable(&cfg, 2.0, seed);
        assert_eq!(
            without_durability(&run.report),
            full,
            "{alg} kill {kill_at}: recovered report must be bit-identical"
        );
        let totals = run.report.durability.expect("durability totals");
        assert_eq!(totals.replay_divergence, 0, "{alg} kill {kill_at}");
    }
}

/// An uninterrupted journaled run changes nothing about the report and
/// accounts every payment in the ledger.
#[test]
fn uninterrupted_journaled_run_matches_plain_run() {
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_seed(7)
        .with_durability(DurabilityPlan::default());
    let full = baseline(&cfg, 2.0, 7);
    let run = durable(&cfg, 2.0, 7);
    assert_eq!(without_durability(&run.report), full);
    let totals = run.report.durability.expect("durability totals");
    assert_eq!(
        totals.ledger_reward_core_hours.to_bits(),
        run.report.reward_core_hours.to_bits()
    );
    assert_eq!(totals.duplicate_payments_suppressed, 0);
    assert!(
        totals.records_journaled > 0,
        "market events must be journaled"
    );
    assert!(!totals.ledger_wedged);
}

/// Replaying the journal on top of recomputed slots never double-pays:
/// every recomputed payment for an already-journaled slot is suppressed as
/// a duplicate, and the final ledger total still equals the report reward
/// bit-for-bit.
#[test]
fn double_replay_never_double_pays() {
    let seed = 3u64;
    // Kill a few slots into the first emergency with a sparse checkpoint
    // cadence, so the replay window (restore point -> last commit) spans
    // journaled payments that recovery recomputes.
    let probe = baseline(
        &SimConfig::new(Algorithm::MprStat, 15.0).with_seed(seed),
        2.0,
        seed,
    );
    let declare = probe
        .events
        .iter()
        .find(|e| e.kind == mpr_sim::EmergencyEventKind::Declare)
        .expect("probe run must declare an emergency");
    let slot_secs = SimConfig::new(Algorithm::MprStat, 15.0).slot_secs;
    let kill_at = (declare.t_secs / slot_secs) as u64 + 6;
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_seed(seed)
        .with_durability(DurabilityPlan {
            checkpoint_every: 64,
            ..DurabilityPlan::kill_at(kill_at)
        });
    let run = durable(&cfg, 2.0, seed);
    let totals = run.report.durability.expect("durability totals");
    assert!(
        run.report.reward_core_hours > 0.0,
        "need payments for this test to bite"
    );
    assert!(
        totals.duplicate_payments_suppressed > 0,
        "recomputed journaled payments must be suppressed, not re-applied"
    );
    assert_eq!(
        totals.ledger_reward_core_hours.to_bits(),
        run.report.reward_core_hours.to_bits(),
        "exactly-once accounting must hold through replay"
    );
    // Running the whole crash/recover cycle again is itself a replay:
    // identical results, no accumulated double payment.
    let again = durable(&cfg, 2.0, seed);
    assert_eq!(run.report, again.report, "durable runs are deterministic");
}

/// The planted bug: `FsyncPolicy::Never` acknowledges slots on append, so
/// a crash loses slots the manager already acknowledged — exactly the
/// invariant violation the chaos `durability-commit` oracle asserts on.
/// Recovery still converges to the bit-identical report (the engine is
/// deterministic), but the broken acknowledgement is visible in the
/// totals.
#[test]
fn fsync_never_loses_acknowledged_slots() {
    let mut caught = false;
    for seed in [3u64, 5, 11, 13] {
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_seed(seed)
            .with_durability(DurabilityPlan {
                fsync: FsyncPolicy::Never,
                ..DurabilityPlan::kill_at(150)
            });
        let full = baseline(&cfg, 2.0, seed);
        let run = durable(&cfg, 2.0, seed);
        assert_eq!(
            without_durability(&run.report),
            full,
            "seed {seed}: even under fsync=never recovery recomputes correctly"
        );
        let totals = run.report.durability.expect("durability totals");
        let acked = totals.acked_slot_before_crash;
        let recovered = totals.recovered_commit_slot;
        if acked > recovered {
            caught = true;
        }
    }
    assert!(
        caught,
        "fsync=never must lose acknowledged slots for at least one seed \
         (durability-commit violation)"
    );
}

/// Under the sound policies the acknowledgement is honest: nothing the
/// manager acknowledged is ever lost by a crash.
#[test]
fn sound_policies_never_lose_acknowledged_slots() {
    for fsync in [FsyncPolicy::Always, FsyncPolicy::EveryRecords(4)] {
        for seed in [3u64, 11] {
            let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
                .with_seed(seed)
                .with_durability(DurabilityPlan {
                    fsync,
                    ..DurabilityPlan::kill_at(150)
                });
            let run = durable(&cfg, 2.0, seed);
            let totals = run.report.durability.expect("durability totals");
            assert!(
                totals.recovered_commit_slot >= totals.acked_slot_before_crash,
                "{fsync}: acknowledged slots must survive the crash"
            );
        }
    }
}

/// The recovered WAL image is a valid, scannable ledger whose payment
/// records sum (bit-for-bit) to the report's reward — `mpr ledger verify`
/// runs this same check offline.
#[test]
fn recovered_wal_image_is_scannable_and_complete() {
    let seed = 3u64;
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_seed(seed)
        .with_durability(DurabilityPlan::kill_at(100));
    let run = durable(&cfg, 2.0, seed);
    let scan = mpr_durable::scan(&run.wal_image, Some(seed));
    assert!(scan.corruption.is_none(), "recovered image must be clean");
    assert_eq!(scan.truncated_bytes, 0);
    let mut ledger_reward = 0.0f64;
    for record in &scan.records {
        if let Some(mpr_sim::LedgerEvent::Payment {
            amount_core_hours, ..
        }) = mpr_sim::LedgerEvent::decode(record.kind, &record.payload)
        {
            ledger_reward += amount_core_hours;
        }
    }
    assert_eq!(
        ledger_reward.to_bits(),
        run.report.reward_core_hours.to_bits(),
        "offline ledger scan must reproduce the reward total"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Recovery equivalence for an arbitrary kill point under active disk
    /// faults (torn writes + failed fsyncs): whatever survives the crash,
    /// the recovered report is bit-identical to the uninterrupted run and
    /// no payment is ever double-applied.
    #[test]
    fn arbitrary_kill_point_recovers_bit_identical(
        kill_at in 1u64..240,
        seed in 1u64..6,
        torn in 0.0f64..0.3,
        fsync_fail in 0.0f64..0.2,
    ) {
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_seed(seed)
            .with_durability(DurabilityPlan {
                disk: Some(DiskPlan {
                    torn_write_prob: torn,
                    fsync_fail_prob: fsync_fail,
                    ..DiskPlan::default()
                }),
                checkpoint_every: 16,
                ..DurabilityPlan::kill_at(kill_at)
            });
        let full = baseline(&cfg, 1.0, seed);
        let run = durable(&cfg, 1.0, seed);
        prop_assert_eq!(
            without_durability(&run.report),
            full,
            "kill {} seed {}: recovery must be bit-identical",
            kill_at,
            seed
        );
        let totals = run.report.durability.expect("durability totals");
        prop_assert_eq!(
            totals.ledger_reward_core_hours.to_bits(),
            run.report.reward_core_hours.to_bits()
        );
        prop_assert_eq!(totals.replay_divergence, 0);
    }
}
