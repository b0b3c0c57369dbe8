//! Acceptance tests for the sensor-fault telemetry pipeline and the
//! crash-safe checkpoint/resume subsystem: a run killed mid-overload —
//! including one measuring power through an actively faulty sensor — must
//! resume to a `SimReport` bit-identical to the uninterrupted run, and the
//! robust estimator must keep the reactive loop sound under noise,
//! dropout and spikes.

use std::fs;
use std::path::PathBuf;

use mpr_power::telemetry::{EstimatorConfig, SensorFaultConfig};
use mpr_sim::{
    Algorithm, CheckpointPlan, FaultPlan, RunOutcome, SimConfig, SimReport, Simulation,
    TelemetryConfig,
};
use mpr_tests::{quiet_slot_between_completions, test_trace};

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpr_accept_{}_{tag}.ckpt", std::process::id()))
}

/// The canonical noisy sensor used across these tests: Gaussian noise plus
/// heavy dropout plus occasional spikes — all three fault processes active.
fn noisy_sensor() -> SensorFaultConfig {
    SensorFaultConfig {
        noise_sigma_frac: 0.02,
        dropout_prob: 0.3,
        spike_prob: 0.02,
        ..SensorFaultConfig::default()
    }
}

/// Kills a checkpointed run at `kill_at`, resumes it, and asserts the
/// resumed report equals the uninterrupted run bit-for-bit.
fn assert_kill_resume_identity(cfg: SimConfig, tag: &str, kill_at: usize) {
    assert_kill_resume_identity_every(cfg, tag, 300, kill_at);
}

/// [`assert_kill_resume_identity`] with a checkpoint every `every` slots.
fn assert_kill_resume_identity_every(cfg: SimConfig, tag: &str, every: usize, kill_at: usize) {
    let trace = test_trace(5.0, 3);
    let full = Simulation::new(&trace, cfg.clone()).run();

    let path = ckpt_path(tag);
    let sim = Simulation::new(&trace, cfg);
    let plan = CheckpointPlan::every(&path, every).with_kill_at(kill_at);
    match sim.run_with_checkpoints(&plan).expect("checkpointed run") {
        RunOutcome::Killed {
            at_slot,
            checkpoint,
        } => {
            assert_eq!(at_slot, kill_at);
            assert_eq!(checkpoint, path);
        }
        RunOutcome::Completed(_) => panic!("kill point at slot {kill_at} must fire"),
    }
    let resumed = sim.resume(&path).expect("resume from checkpoint");
    assert_eq!(
        resumed, full,
        "resumed report must be bit-identical to the uninterrupted run"
    );
    let _ = fs::remove_file(&path);
}

/// Finds a slot where the run is inside an emergency, so the kill point
/// lands mid-overload (the acceptance criterion's hard case).
fn slot_during_emergency(report: &SimReport, slot_secs: f64) -> usize {
    let declare = report
        .events
        .iter()
        .find(|e| e.kind == mpr_sim::EmergencyEventKind::Declare)
        .expect("run must declare at least one emergency");
    ((declare.t_secs / slot_secs) as usize) + 2
}

#[test]
fn kill_mid_overload_and_resume_is_bit_identical() {
    let trace = test_trace(5.0, 3);
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
    let probe = Simulation::new(&trace, cfg.clone()).run();
    assert!(probe.overload_events > 0, "need an overload to kill inside");
    let kill_at = slot_during_emergency(&probe, cfg.slot_secs);
    assert_kill_resume_identity(cfg, "mid_overload", kill_at);
}

#[test]
fn kill_mid_overload_under_eql_and_resume_is_bit_identical() {
    // EQL caps every active job. The checkpoint is written at the kill
    // slot itself, so the snapshot carries those nonzero reductions and
    // the resumed run must rebuild their progress and cost rates.
    let trace = test_trace(5.0, 3);
    let cfg = SimConfig::new(Algorithm::Eql, 15.0);
    let probe = Simulation::new(&trace, cfg.clone()).run();
    assert!(probe.overload_events > 0, "need an overload to kill inside");
    let kill_at = slot_during_emergency(&probe, cfg.slot_secs);
    assert_kill_resume_identity_every(cfg, "eql_mid_overload", kill_at, kill_at);
}

#[test]
fn kill_at_a_quiet_slot_between_completions_and_resume_is_bit_identical() {
    // A Normal-phase slot with unreduced jobs mid-flight: the checkpoint
    // must carry each job's remaining work as of the kill slot, and the
    // resumed run must complete every job exactly where the
    // uninterrupted run does.
    let trace = test_trace(5.0, 3);
    for (tag, alg) in [
        ("stat_quiet", Algorithm::MprStat),
        ("eql_quiet", Algorithm::Eql),
    ] {
        let cfg = SimConfig::new(alg, 15.0);
        let kill_at = quiet_slot_between_completions(&trace, &cfg);
        assert_kill_resume_identity_every(cfg, tag, kill_at, kill_at);
    }
}

#[test]
fn kill_mid_overload_under_active_sensor_faults_is_bit_identical() {
    // The acceptance criterion: noise + dropout active during an overload
    // event, killed mid-emergency, resumed — byte-identical SimReport.
    let trace = test_trace(5.0, 3);
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_telemetry(TelemetryConfig::with_faults(noisy_sensor()));
    let probe = Simulation::new(&trace, cfg.clone()).run();
    assert!(
        probe.overload_events > 0,
        "noisy run must still declare overloads"
    );
    let health = probe.telemetry.expect("telemetry health recorded");
    assert!(health.samples_missed > 0, "dropout must be active");
    let kill_at = slot_during_emergency(&probe, cfg.slot_secs);
    assert_kill_resume_identity(cfg, "noisy_mid_overload", kill_at);
}

#[test]
fn kill_resume_identity_holds_for_interactive_market_with_agent_faults() {
    // Checkpointing composes with PR 1's fault-injection plan: the
    // per-event fault RNG is derived from (seed, event ordinal), both of
    // which are checkpointed state.
    let cfg = SimConfig::new(Algorithm::MprInt, 15.0)
        .with_faults(FaultPlan::unresponsive_and_crash(0.3, 0.1))
        .with_telemetry(TelemetryConfig::with_faults(noisy_sensor()));
    assert_kill_resume_identity(cfg, "int_faults", 2400);
}

#[test]
fn degradation_chain_composes_with_noisy_telemetry() {
    // Satellite regression: estimated (noisy) reduction targets flow into
    // the resilient market's degradation chain. The estimator's
    // conservative upper bound can ask for more reduction than the true
    // power requires — occasionally more than the jobs can physically
    // deliver — so a residual is legitimate, but it must be reported
    // exactly: only ever after the chain's terminal EQL level handed out
    // everything attainable, never silently dropped before that.
    let trace = test_trace(5.0, 3);
    let r = Simulation::new(
        &trace,
        SimConfig::new(Algorithm::MprInt, 15.0)
            .with_faults(FaultPlan::unresponsive_and_crash(0.3, 0.1))
            .with_telemetry(TelemetryConfig::with_faults(SensorFaultConfig {
                dropout_prob: 0.3,
                ..SensorFaultConfig::default()
            })),
    )
    .run();
    assert!(
        r.overload_events > 0,
        "need overloads to exercise the chain"
    );
    assert!(
        r.degradation.participants_quarantined > 0,
        "agent faults must quarantine someone"
    );
    let d = &r.degradation;
    assert!(
        d.residual_overload_watts.is_finite() && d.residual_overload_watts >= 0.0,
        "residual must be reported as a finite non-negative shortfall"
    );
    if d.residual_overload_watts > 0.0 {
        assert!(
            d.eql_cappings > 0,
            "a shortfall may only remain after the terminal EQL level ran"
        );
    }
    if r.unmet_emergencies > 0 {
        assert!(
            d.eql_cappings > 0,
            "an unmet emergency implies the chain was walked to the end"
        );
    }
    assert_eq!(r.jobs_completed, r.jobs_total);
    let health = r.telemetry.expect("health recorded");
    assert!(health.samples_missed > 0, "dropout must actually drop");
}

#[test]
fn robust_estimator_beats_raw_feed_on_spiky_sensor() {
    // Ablation: the same spiky sensor drives the controller either raw
    // (pass-through estimator) or through the robust estimator. The
    // robust pipeline must not declare more emergencies than the raw one
    // — spike rejection can only remove false alarms.
    let trace = test_trace(5.0, 3);
    let spiky = SensorFaultConfig {
        spike_prob: 0.05,
        ..SensorFaultConfig::default()
    };
    let raw = Simulation::new(
        &trace,
        SimConfig::new(Algorithm::MprStat, 5.0).with_telemetry(TelemetryConfig {
            sensor: spiky,
            estimator: EstimatorConfig::passthrough(),
        }),
    )
    .run();
    let robust = Simulation::new(
        &trace,
        SimConfig::new(Algorithm::MprStat, 5.0).with_telemetry(TelemetryConfig::with_faults(spiky)),
    )
    .run();
    assert!(
        robust.overload_events <= raw.overload_events,
        "robust ({}) must not alarm more than raw ({})",
        robust.overload_events,
        raw.overload_events
    );
    let health = robust.telemetry.expect("health recorded");
    assert!(
        health.outliers_rejected > 0,
        "5% spikes over a 5-day run must trip the outlier gate"
    );
}

#[test]
fn telemetry_reports_are_deterministic_across_checkpoint_cadences() {
    // The checkpoint cadence itself must not perturb the simulation:
    // different cadences, same kill-free run, same report.
    let trace = test_trace(3.0, 7);
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
        .with_telemetry(TelemetryConfig::with_faults(noisy_sensor()));
    let plain = Simulation::new(&trace, cfg.clone()).run();
    for (i, every) in [200usize, 700].into_iter().enumerate() {
        let path = ckpt_path(&format!("cadence_{i}"));
        let sim = Simulation::new(&trace, cfg.clone());
        let outcome = sim
            .run_with_checkpoints(&CheckpointPlan::every(&path, every))
            .expect("checkpointed run");
        assert_eq!(
            outcome.into_report().expect("completed"),
            plain,
            "cadence {every} perturbed the run"
        );
        let _ = fs::remove_file(&path);
    }
}
