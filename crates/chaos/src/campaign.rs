//! Campaign orchestration: parallel fan-out, oracle checking, shrinking
//! and repro artifacts.
//!
//! [`run`] simulates `runs` scenarios drawn from `(seed, 0..runs)`,
//! sequentially *within* each run and in parallel *across* runs (rayon).
//! Results are collected in run-index order and all post-processing
//! (shrinking, artifact emission, serialization) is sequential, so a
//! campaign's [`CampaignReport`] — including its CSV and JSON renderings —
//! is bit-identical for a given seed regardless of `RAYON_NUM_THREADS`.
//!
//! Every run is wrapped in `catch_unwind` as a backstop: a panicking
//! simulation is itself a safety violation (oracle `no-panic`) rather
//! than a crashed campaign.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use mpr_core::json::{self, ObjWriter, Value};
use mpr_sim::Simulation;
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};
use rayon::prelude::*;

use crate::oracle::{self, Violation};
use crate::scenario::Scenario;
use crate::shrink;
use crate::SPACE_VERSION;

/// Name of the synthesized oracle for runs that panic.
pub const NO_PANIC_ORACLE: &str = "no-panic";

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of scenarios to draw and simulate.
    pub runs: usize,
    /// Campaign seed: run *k* simulates [`Scenario::generate`]`(seed, k)`.
    pub seed: u64,
    /// Trace span per run, days (the gaia cluster trace).
    pub days: f64,
    /// **Test-only.** Plant `emergency_disabled` into every scenario to
    /// prove the oracles catch a real safety failure end-to-end.
    pub emergency_disabled: bool,
    /// **Test-only.** Plant the unsound `wal_fsync_never` journaling
    /// policy (plus a mid-run kill where the scenario drew none) into
    /// every scenario, to prove the `durability-commit` oracle catches an
    /// acknowledgement-loss bug end-to-end.
    pub wal_fsync_never: bool,
    /// **Test-only.** Plant an always-on UPS failure with fencing
    /// disabled (plus a power tree where the scenario drew none) into
    /// every scenario, to prove the `grid-fencing` oracle catches power
    /// routed through dead infrastructure end-to-end.
    pub tree_fault_ups: bool,
    /// Delta-debug each failure to a minimal reproducing scenario.
    pub shrink: bool,
    /// Where to write repro artifacts (one JSON file per failing run);
    /// `None` keeps artifacts in memory only.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            runs: 100,
            seed: 0x4d50_5221,
            days: 1.0,
            emergency_disabled: false,
            wal_fsync_never: false,
            tree_fault_ups: false,
            shrink: true,
            artifact_dir: None,
        }
    }
}

/// Per-run outcome, kept scalar so thousand-run campaigns stay small.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Run index (the scenario is `Scenario::generate(seed, index)`).
    pub index: u64,
    /// The scenario simulated.
    pub scenario: Scenario,
    /// Violations found by the oracle registry (empty = clean run).
    pub violations: Vec<Violation>,
    /// `true` when the simulation panicked (`violations` then carries the
    /// synthesized `no-panic` entry).
    pub panicked: bool,
    /// Simulated slots.
    pub total_slots: usize,
    /// Emergencies declared.
    pub overload_events: usize,
    /// Slots over capacity.
    pub overload_slots: usize,
}

/// One failing run, minimized and packaged for reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Failing run index.
    pub index: u64,
    /// Name of the first oracle that fired (the shrink target).
    pub oracle: String,
    /// The firing oracle's evidence.
    pub message: String,
    /// The scenario as generated.
    pub original: Scenario,
    /// The minimal scenario that still reproduces (equals `original`
    /// when shrinking is disabled or nothing could be removed).
    pub shrunk: Scenario,
    /// Shrink transformations accepted, in order.
    pub shrink_steps: Vec<&'static str>,
    /// Re-simulations the shrinker spent.
    pub probes: usize,
    /// Artifact location, when `artifact_dir` was set.
    pub artifact_path: Option<PathBuf>,
    /// Exact command reproducing the violation from the artifact.
    pub repro_command: Option<String>,
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Generator-space version the campaign drew from.
    pub space_version: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Trace span per run, days.
    pub days: f64,
    /// Every run, in index order.
    pub records: Vec<RunRecord>,
    /// Every failing run, in index order, shrunk when enabled.
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// Total violations across all runs.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.records.iter().map(|r| r.violations.len()).sum()
    }

    /// `true` when every oracle held on every run.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Per-run CSV (`index,algorithm,...,oracles`), for offline triage.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,algorithm,oversub_pct,complexity,total_slots,overload_events,\
             overload_slots,violations,oracles\n",
        );
        for r in &self.records {
            let oracles: Vec<&str> = r.violations.iter().map(|v| v.oracle.as_str()).collect();
            out.push_str(&format!(
                "{},{},{:.3},{},{},{},{},{},{}\n",
                r.index,
                r.scenario.algorithm,
                r.scenario.oversub_pct,
                r.scenario.complexity(),
                r.total_slots,
                r.overload_events,
                r.overload_slots,
                r.violations.len(),
                oracles.join(";"),
            ));
        }
        out
    }

    /// Machine-readable campaign summary (failures carry full scenarios).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.num("space_version", f64::from(self.space_version))
            .u64("seed", self.seed)
            .num("days", self.days)
            .num("runs", self.records.len() as f64)
            .num("violations", self.violation_count() as f64)
            .bool("passed", self.passed());
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                let mut fw = ObjWriter::new();
                fw.num("index", f.index as f64)
                    .str("oracle", &f.oracle)
                    .str("message", &f.message)
                    .raw("original", f.original.to_json(2))
                    .raw("shrunk", f.shrunk.to_json(2))
                    .raw("shrink_steps", str_array(&f.shrink_steps))
                    .num("probes", f.probes as f64);
                fw.render(1)
            })
            .collect();
        w.raw("failures", format!("[{}]", failures.join(", ")));
        w.render(0)
    }

    /// Human-readable campaign summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "chaos campaign: {} runs, seed {:#x}, generator space v{}, {} day(s) per run\n",
            self.records.len(),
            self.seed,
            self.space_version,
            self.days,
        );
        let with_faults = self
            .records
            .iter()
            .filter(|r| r.scenario.fault_plan.is_some())
            .count();
        let with_net = self
            .records
            .iter()
            .filter(|r| r.scenario.net_plan.is_some())
            .count();
        let with_sensor = self
            .records
            .iter()
            .filter(|r| r.scenario.sensor.is_some())
            .count();
        let with_disk = self
            .records
            .iter()
            .filter(|r| r.scenario.disk_plan.is_some())
            .count();
        let with_kill = self
            .records
            .iter()
            .filter(|r| r.scenario.kill_at_frac > 0.0)
            .count();
        let with_grid = self
            .records
            .iter()
            .filter(|r| r.scenario.grid_fault.is_some())
            .count();
        let emergencies: usize = self.records.iter().map(|r| r.overload_events).sum();
        out.push_str(&format!(
            "  fault plans: {with_faults}  net plans: {with_net}  sensor faults: {with_sensor}  \
             disk faults: {with_disk}  kills: {with_kill}  grid faults: {with_grid}  \
             emergencies simulated: {emergencies}\n",
        ));
        if self.passed() {
            out.push_str(&format!(
                "PASS: every safety invariant held across {} runs\n",
                self.records.len()
            ));
            return out;
        }
        out.push_str(&format!(
            "FAIL: {} violation(s) in {} run(s)\n",
            self.violation_count(),
            self.failures.len()
        ));
        for f in &self.failures {
            out.push_str(&format!(
                "  run {}: [{}] {}\n    original: {}\n    shrunk:   {} (complexity {} -> {}, {} steps, {} probes)\n",
                f.index,
                f.oracle,
                f.message,
                f.original.describe(),
                f.shrunk.describe(),
                f.original.complexity(),
                f.shrunk.complexity(),
                f.shrink_steps.len(),
                f.probes,
            ));
            if let Some(cmd) = &f.repro_command {
                out.push_str(&format!("    reproduce: {cmd}\n"));
            }
        }
        out
    }
}

fn str_array(items: &[&str]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json::escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Simulates one scenario, catching panics. Durable scenarios (a disk
/// plan, a kill, or the planted fsync knob) run through the
/// crash/recover harness; the kill fraction is resolved to a slot here,
/// against the trace span — the one quantity the scenario cannot know.
fn simulate(trace: &Trace, scenario: &Scenario) -> Result<mpr_sim::SimReport, String> {
    let mut cfg = scenario.sim_config();
    if let Some(plan) = cfg.durability.as_mut() {
        if scenario.kill_at_frac > 0.0 {
            let slots = (trace.span_secs() / cfg.slot_secs).max(1.0);
            plan.kill_at_slot = Some(((slots * scenario.kill_at_frac) as u64).max(1));
        }
    }
    let durable = cfg.durability.is_some();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if durable {
            mpr_sim::run_durable(trace, cfg)
                .map(|run| run.report)
                .map_err(|e| format!("ledger unrecoverable: {e}"))
        } else {
            Ok(Simulation::new(trace, cfg).run())
        }
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic payload of unknown type".to_owned())),
    }
}

fn run_one(trace: &Trace, cc: &CampaignConfig, index: u64) -> RunRecord {
    let mut scenario = Scenario::generate(cc.seed, index);
    if cc.emergency_disabled {
        scenario.emergency_disabled = true;
    }
    if cc.wal_fsync_never {
        scenario.wal_fsync_never = true;
        // The unsound policy only loses data when something actually
        // crashes: make sure every planted run gets killed mid-flight.
        // lint: allow(nan-safety) 0.0 is the exact "no kill drawn" sentinel, never computed
        if scenario.kill_at_frac == 0.0 {
            scenario.kill_at_frac = 0.5;
        }
    }
    if cc.tree_fault_ups {
        // The unfenced knob only bites when a dead node exists to route
        // power through: give every planted run a tree and a UPS that is
        // dark from the first slot and never repaired.
        scenario.grid_unfenced = true;
        if scenario.topology.is_none() {
            scenario.topology = Some(crate::scenario::TopologyDraw {
                ups_count: 2,
                pdus_per_ups: 1,
                racks_per_pdu: 2,
                inner_headroom: 1.3,
            });
        }
        scenario.grid_fault = Some(mpr_power::GridFaultPlan::always_on_ups_failure());
    }
    match simulate(trace, &scenario) {
        Ok(report) => RunRecord {
            index,
            violations: oracle::check_all(&scenario, &report),
            panicked: false,
            total_slots: report.total_slots,
            overload_events: report.overload_events,
            overload_slots: report.overload_slots,
            scenario,
        },
        Err(panic_msg) => RunRecord {
            index,
            violations: vec![Violation {
                oracle: NO_PANIC_ORACLE.to_owned(),
                message: format!("simulation panicked: {panic_msg}"),
            }],
            panicked: true,
            total_slots: 0,
            overload_events: 0,
            overload_slots: 0,
            scenario,
        },
    }
}

/// `true` when `candidate` still trips the oracle named `oracle`.
fn reproduces(trace: &Trace, candidate: &Scenario, oracle_name: &str) -> bool {
    match simulate(trace, candidate) {
        Ok(report) => oracle::check_all(candidate, &report)
            .iter()
            .any(|v| v.oracle == oracle_name),
        Err(_) => oracle_name == NO_PANIC_ORACLE,
    }
}

/// Runs a full campaign: generate, fan out, check, shrink, package.
///
/// # Errors
///
/// Only artifact-file I/O can fail; the campaign itself is infallible
/// (panicking runs become `no-panic` violations).
pub fn run(cc: &CampaignConfig) -> std::io::Result<CampaignReport> {
    let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(cc.days)).generate();

    let records: Vec<RunRecord> = (0..cc.runs as u64)
        .into_par_iter()
        .map(|i| run_one(&trace, cc, i))
        .collect();

    if let Some(dir) = &cc.artifact_dir {
        std::fs::create_dir_all(dir)?;
    }

    let mut failures = Vec::new();
    for r in records.iter().filter(|r| !r.violations.is_empty()) {
        // Shrink against the first violation's oracle; the rest are listed
        // in the record but usually collapse to the same root cause.
        let Some(primary) = r.violations.first() else {
            continue;
        };
        let shrunk = if cc.shrink {
            shrink::shrink(&r.scenario, |cand| {
                reproduces(&trace, cand, &primary.oracle)
            })
        } else {
            shrink::ShrinkResult {
                scenario: r.scenario.clone(),
                steps_applied: Vec::new(),
                probes: 0,
            }
        };
        let mut failure = Failure {
            index: r.index,
            oracle: primary.oracle.clone(),
            message: primary.message.clone(),
            original: r.scenario.clone(),
            shrunk: shrunk.scenario,
            shrink_steps: shrunk.steps_applied,
            probes: shrunk.probes,
            artifact_path: None,
            repro_command: None,
        };
        if let Some(dir) = &cc.artifact_dir {
            // The artifact names only its own file, so the same campaign
            // writes the same bytes into any directory; the report's
            // command carries the full path.
            let name = format!("chaos-repro-{}.json", r.index);
            let path = dir.join(&name);
            let text = artifact_json(cc, &failure, &repro_command(&name));
            let mut file = std::fs::File::create(&path)?;
            file.write_all(text.as_bytes())?;
            failure.repro_command = Some(repro_command(&path.display().to_string()));
            failure.artifact_path = Some(path);
        }
        failures.push(failure);
    }

    Ok(CampaignReport {
        space_version: SPACE_VERSION,
        seed: cc.seed,
        days: cc.days,
        records,
        failures,
    })
}

/// The command replaying the artifact at `path`.
fn repro_command(path: &str) -> String {
    format!("cargo run -p mpr-cli --release -- chaos --replay {path}")
}

/// Renders one failure as a self-contained repro artifact.
#[must_use]
fn artifact_json(cc: &CampaignConfig, f: &Failure, repro_command: &str) -> String {
    let mut w = ObjWriter::new();
    w.num("space_version", f64::from(SPACE_VERSION))
        .u64("campaign_seed", cc.seed)
        .num("run_index", f.index as f64)
        .num("days", cc.days)
        .str("oracle", &f.oracle)
        .str("message", &f.message)
        .raw("shrink_steps", str_array(&f.shrink_steps))
        .raw("scenario", f.shrunk.to_json(1))
        .str("repro_command", repro_command);
    let mut text = w.render(0);
    text.push('\n');
    text
}

/// A parsed repro artifact, ready to re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// The (shrunk) scenario to re-simulate.
    pub scenario: Scenario,
    /// Trace span, days.
    pub days: f64,
    /// The oracle expected to fire.
    pub oracle: String,
    /// The original violation message, for context.
    pub message: String,
}

/// Outcome of replaying an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// `true` when the expected oracle fired again.
    pub reproduced: bool,
    /// All violations the replay produced.
    pub violations: Vec<Violation>,
}

/// Parses a repro artifact produced by [`run`].
///
/// # Errors
///
/// Returns a [`json::ParseError`] for malformed artifacts, missing
/// fields, or a generator-space version mismatch (an artifact from
/// another space version describes a different scenario distribution and
/// must not be silently replayed).
pub fn parse_artifact(text: &str) -> Result<ReplayPlan, json::ParseError> {
    let v = json::parse(text)?;
    let obj = v.as_obj().ok_or_else(|| json::ParseError {
        at: 0,
        message: "artifact is not an object".to_owned(),
    })?;
    let space = json::field_num(obj, "space_version")?;
    if (space - f64::from(SPACE_VERSION)).abs() > 0.0 {
        return Err(json::ParseError {
            at: 0,
            message: format!(
                "artifact was produced by generator space v{space} but this \
                 binary implements v{SPACE_VERSION}"
            ),
        });
    }
    let scenario = Scenario::from_json_value(json::field(obj, "scenario")?)?;
    let oracle_name = json::field(obj, "oracle")?.as_str().map(str::to_owned);
    let message = match obj.get("message") {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    Ok(ReplayPlan {
        scenario,
        days: json::field_num(obj, "days")?,
        oracle: oracle_name.ok_or_else(|| json::ParseError {
            at: 0,
            message: "field `oracle` is not a string".to_owned(),
        })?,
        message,
    })
}

/// Re-simulates a parsed artifact and re-checks the oracle registry.
#[must_use]
pub fn replay(plan: &ReplayPlan) -> ReplayOutcome {
    let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(plan.days)).generate();
    let violations = match simulate(&trace, &plan.scenario) {
        Ok(report) => oracle::check_all(&plan.scenario, &report),
        Err(panic_msg) => vec![Violation {
            oracle: NO_PANIC_ORACLE.to_owned(),
            message: format!("simulation panicked: {panic_msg}"),
        }],
    };
    ReplayOutcome {
        reproduced: violations.iter().any(|v| v.oracle == plan.oracle),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(runs: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            runs,
            seed,
            days: 0.25,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn healthy_campaign_passes() {
        let report = run(&quick(8, 42)).expect("no artifact io");
        assert_eq!(report.records.len(), 8);
        assert!(report.passed(), "{}", report.summary());
        assert!(report.summary().contains("PASS"));
        // Index order is the collection order.
        let indices: Vec<u64> = report.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn seeded_violation_is_caught_and_shrunk() {
        let cc = CampaignConfig {
            emergency_disabled: true,
            ..quick(4, 7)
        };
        let report = run(&cc).expect("no artifact io");
        assert!(!report.passed(), "disabled FSM must violate power-cap");
        for f in &report.failures {
            assert_eq!(f.oracle, "power-cap");
            assert!(f.shrunk.emergency_disabled, "knob must survive shrinking");
            assert!(f.shrunk.complexity() <= f.original.complexity());
        }
        assert!(report.summary().contains("FAIL"));
    }

    #[test]
    fn planted_fsync_never_is_caught_and_shrunk() {
        let cc = CampaignConfig {
            wal_fsync_never: true,
            ..quick(6, 21)
        };
        let report = run(&cc).expect("no artifact io");
        assert!(
            !report.passed(),
            "the unsound fsync policy must lose acknowledged slots:\n{}",
            report.summary()
        );
        let f = report
            .failures
            .iter()
            .find(|f| f.oracle == "durability-commit")
            .expect("durability-commit must be the firing oracle");
        assert!(f.shrunk.wal_fsync_never, "knob must survive shrinking");
        assert!(
            f.shrunk.kill_at_frac > 0.0,
            "the kill must survive shrinking: without a crash nothing is lost"
        );
        // The minimal counterexample reproduces independently.
        let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(cc.days)).generate();
        assert!(
            reproduces(&trace, &f.shrunk, "durability-commit"),
            "shrunk scenario no longer trips durability-commit: {}",
            f.shrunk.describe()
        );
        // A sound campaign at the same seed is clean: the violation is
        // attributable to the planted policy, not the disk faults.
        let sound = run(&quick(6, 21)).expect("no artifact io");
        assert!(sound.passed(), "{}", sound.summary());
    }

    #[test]
    fn planted_ups_failure_is_caught_and_shrunk() {
        let cc = CampaignConfig {
            tree_fault_ups: true,
            ..quick(4, 33)
        };
        let report = run(&cc).expect("no artifact io");
        assert!(
            !report.passed(),
            "unfenced clearing over a dark UPS must route power through it:\n{}",
            report.summary()
        );
        let f = report
            .failures
            .iter()
            .find(|f| f.oracle == "grid-fencing")
            .expect("grid-fencing must be the firing oracle");
        assert!(f.shrunk.grid_unfenced, "knob must survive shrinking");
        assert!(
            f.shrunk.grid_fault.is_some() && f.shrunk.topology.is_some(),
            "the fault plan and its tree must survive shrinking: {}",
            f.shrunk.describe()
        );
        // The minimal counterexample reproduces independently.
        let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(cc.days)).generate();
        assert!(
            reproduces(&trace, &f.shrunk, "grid-fencing"),
            "shrunk scenario no longer trips grid-fencing: {}",
            f.shrunk.describe()
        );
        // A sound campaign at the same seed is clean: the violation is
        // attributable to the planted knob, not grid faults per se.
        let sound = run(&quick(4, 33)).expect("no artifact io");
        assert!(sound.passed(), "{}", sound.summary());
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let a = run(&quick(6, 123)).expect("io");
        let b = run(&quick(6, 123)).expect("io");
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn grid_campaign_is_bit_identical_across_thread_counts() {
        // A campaign whose draws include at least one grid-faulted federated
        // scenario must produce byte-identical CSV whether rayon fans the
        // runs out over one worker or several — the acceptance bar for
        // infrastructure-fault determinism.
        let cc = quick(8, 21);
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let a = run(&cc).expect("io");
        match &saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let b = run(&cc).expect("io");
        assert!(
            a.records.iter().any(|r| r.scenario.grid_fault.is_some()),
            "seed 21 must draw at least one grid-faulted scenario"
        );
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn artifacts_round_trip_and_replay() {
        let dir = std::env::temp_dir().join("mpr-chaos-test-artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let cc = CampaignConfig {
            emergency_disabled: true,
            artifact_dir: Some(dir.clone()),
            ..quick(2, 9)
        };
        let report = run(&cc).expect("artifact io");
        assert!(!report.failures.is_empty());
        let f = &report.failures[0];
        let path = f.artifact_path.as_ref().expect("artifact written");
        let text = std::fs::read_to_string(path).expect("artifact readable");
        let plan = parse_artifact(&text).expect("artifact parses");
        assert_eq!(plan.oracle, f.oracle);
        assert_eq!(plan.scenario, f.shrunk);
        let outcome = replay(&plan);
        assert!(outcome.reproduced, "replay must reproduce: {outcome:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_are_byte_identical_across_output_directories() {
        let base = std::env::temp_dir().join(format!("mpr-chaos-dirs-{}", std::process::id()));
        let run_into = |dir: PathBuf| {
            run(&CampaignConfig {
                emergency_disabled: true,
                artifact_dir: Some(dir),
                ..quick(2, 9)
            })
            .expect("artifact io")
        };
        let a = run_into(base.join("a"));
        let b = run_into(base.join("elsewhere").join("b"));
        assert!(!a.failures.is_empty());
        assert_eq!(a.failures.len(), b.failures.len());
        for (fa, fb) in a.failures.iter().zip(&b.failures) {
            let read = |f: &Failure| {
                let path = f.artifact_path.as_ref().expect("artifact written");
                std::fs::read(path).expect("artifact readable")
            };
            let (bytes_a, bytes_b) = (read(fa), read(fb));
            assert_eq!(bytes_a, bytes_b, "artifact {} differs", fa.index);
            let text = String::from_utf8(bytes_a).expect("utf-8 artifact");
            let name = format!("chaos-repro-{}.json", fa.index);
            assert!(text.contains(&format!("--replay {name}\"")), "{text}");
            // The report's command still names the full path.
            let cmd = fb.repro_command.as_deref().expect("command recorded");
            let path = fb.artifact_path.as_ref().expect("artifact written");
            assert!(cmd.ends_with(&path.display().to_string()), "{cmd}");
            let outcome = replay(&parse_artifact(&text).expect("artifact parses"));
            assert!(outcome.reproduced, "replay must reproduce: {outcome:?}");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn mismatched_space_version_is_rejected() {
        let text = r#"{"space_version": 999, "campaign_seed": "1", "run_index": 0,
                       "days": 1, "oracle": "power-cap", "message": "",
                       "shrink_steps": [], "scenario": {}, "repro_command": ""}"#;
        let err = parse_artifact(text).expect_err("must reject");
        assert!(err.message.contains("generator space"), "{err:?}");
    }

    #[test]
    fn csv_has_one_row_per_run() {
        let report = run(&quick(5, 2)).expect("io");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 6); // header + 5 runs
        assert!(csv.starts_with("index,algorithm,"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(3))]
        /// Whatever the generator draws, every shrunk counterexample must
        /// (a) independently re-reproduce the same oracle violation and
        /// (b) be no more complex than the scenario it came from.
        #[test]
        fn shrunk_counterexamples_reproduce_and_never_grow(raw in 0.0f64..1e6) {
            let cc = CampaignConfig {
                emergency_disabled: true,
                ..quick(2, raw as u64)
            };
            let report = run(&cc).expect("no artifact io");
            // With the FSM disabled, every drawn scenario leaves daytime
            // overloads unattended — the property must never be vacuous.
            assert!(!report.failures.is_empty(), "seed {raw} drew no failures");
            let trace =
                TraceGenerator::new(ClusterSpec::gaia().with_span_days(cc.days)).generate();
            for f in &report.failures {
                assert!(
                    f.shrunk.complexity() <= f.original.complexity(),
                    "shrinking grew the scenario: {} -> {}",
                    f.original.complexity(),
                    f.shrunk.complexity()
                );
                assert!(
                    reproduces(&trace, &f.shrunk, &f.oracle),
                    "shrunk scenario no longer trips [{}]: {}",
                    f.oracle,
                    f.shrunk.describe()
                );
            }
        }
    }
}
