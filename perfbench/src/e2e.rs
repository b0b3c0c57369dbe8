//! The untraced run: set-up, timed passes over the ensemble, output checks
//! and the end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpr_sim::{SimReport, Simulation};

use crate::spans::Tracer;
use crate::workloads::{Member, Workload};
use crate::{check, host, median, Metric, Outcome};

/// Set-ups run in groups, one before each of the first [`MIN_PASSES`]
/// passes, so that their samples span the run as the passes' do. A group
/// sets up at least this many times and for at least [`SETUP_GROUP_S`]:
/// a run sets up at least 15 times and for at least 3 s in all.
const SETUPS_PER_GROUP: usize = 5;
const SETUP_GROUP_S: f64 = 1.0;

/// Passes per run at the least, whatever `--seconds` says: the median of
/// three drops one slow outlier, and the identity check needs two.
const MIN_PASSES: usize = 3;

/// Runs one member: `mpr_sim::run_durable` when its config carries a
/// durability plan, `Simulation::run` otherwise. A panic or an `Err`
/// becomes a message.
pub fn run_member(m: &Member) -> Result<SimReport, String> {
    let config = m.config.clone();
    catch_unwind(AssertUnwindSafe(|| {
        if config.durability.is_some() {
            mpr_sim::run_durable(&m.trace, config)
                .map(|run| run.report)
                .map_err(|e| e.to_string())
        } else {
            Ok(Simulation::new(&m.trace, config).run())
        }
    }))
    .unwrap_or_else(|_| Err("simulation panicked".into()))
}

/// One pass over the ensemble: its wall time, each member's, the
/// host-speed kernel's samples and the member reports, or the first error.
pub struct Pass {
    pub secs: f64,
    pub member_secs: Vec<f64>,
    pub calibration: Vec<f64>,
    pub reports: Result<Vec<SimReport>, String>,
}

/// Runs every member in turn, each in a `run.member` span of `tr`; with
/// `calibrate`, times the host-speed kernel before each member.
pub fn pass(members: &[Member], tr: &mut Tracer, calibrate: bool) -> Pass {
    let start = Instant::now();
    let mut member_secs = Vec::with_capacity(members.len());
    let mut calibration = Vec::new();
    let mut reports = Vec::with_capacity(members.len());
    let mut error = None;
    for m in members {
        if calibrate {
            calibration.push(host::sample());
        }
        let (report, secs) = tr.leaf("run.member", || run_member(m));
        match report {
            Ok(r) => reports.push(r),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        member_secs.push(secs);
    }
    Pass {
        secs: start.elapsed().as_secs_f64(),
        member_secs,
        calibration,
        reports: error.map_or(Ok(reports), Err),
    }
}

/// The uninterrupted durable run of each member, for the recovery check.
pub fn uninterrupted(members: &[Member]) -> Result<Vec<SimReport>, String> {
    members
        .iter()
        .map(|m| {
            let mut config = m.config.clone();
            if let Some(plan) = config.durability.as_mut() {
                plan.kill_at_slot = None;
            }
            mpr_sim::run_durable(&m.trace, config)
                .map(|run| run.report)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Judges a sequence of passes: the first pass is the reference every
/// later one must equal bit for bit; a durable run's reference must also
/// equal the uninterrupted run. Returns each pass's violations.
pub fn judge(
    w: &Workload,
    members: &[Member],
    passes: &[Result<Vec<SimReport>, String>],
) -> Vec<Vec<String>> {
    let Some(Ok(first)) = passes.first() else {
        return passes
            .iter()
            .map(|p| match p {
                Err(e) => vec![e.clone()],
                Ok(_) => vec!["the reference pass failed".to_owned()],
            })
            .collect();
    };
    let reference: Vec<String> = first.iter().map(check::fingerprint).collect();
    let mut reference_violations = Vec::new();
    if members.iter().any(|m| m.config.durability.is_some()) {
        match uninterrupted(members) {
            Ok(clean) => {
                for (i, (r, u)) in first.iter().zip(&clean).enumerate() {
                    if let Some(v) = check::matches_uninterrupted(r, u) {
                        reference_violations.push(format!("member {i}: {v}"));
                    }
                }
            }
            Err(e) => reference_violations.push(format!("uninterrupted run failed: {e}")),
        }
    }
    passes
        .iter()
        .map(|p| match p {
            Err(e) => vec![e.clone()],
            Ok(reports) => {
                let mut v = check::pass(w, reports, &reference);
                // A pass equal to a wrong reference is wrong too.
                v.extend(reference_violations.iter().cloned());
                v
            }
        })
        .collect()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Summed outcome guards over an ensemble's reports.
pub struct Outcomes {
    pub slots: usize,
    pub cost_core_hours: f64,
    pub runtime_increase_pct: f64,
    pub overload_time_pct: f64,
}

pub fn outcomes(reports: &[SimReport]) -> Outcomes {
    let slots: usize = reports.iter().map(|r| r.total_slots).sum();
    let overload: usize = reports.iter().map(|r| r.overload_slots).sum();
    let affected: usize = reports.iter().map(|r| r.jobs_affected).sum();
    // `avg_runtime_increase_pct` is a mean over a report's affected jobs;
    // weighting by them pools the ensemble into one mean.
    let stretch: f64 = reports
        .iter()
        .map(|r| r.avg_runtime_increase_pct * r.jobs_affected as f64)
        .sum();
    Outcomes {
        slots,
        cost_core_hours: reports.iter().map(|r| r.cost_core_hours).sum(),
        runtime_increase_pct: stretch / affected.max(1) as f64,
        overload_time_pct: 100.0 * overload as f64 / slots.max(1) as f64,
    }
}

/// One group of set-ups, the host-speed kernel timed before each. Adds
/// each set-up's time, scaled to the reference host by the group's kernel
/// samples, to `samples` and returns the last ensemble.
fn setup_group(w: &Workload, seed: u64, samples: &mut Vec<f64>) -> Vec<Member> {
    let start = Instant::now();
    let mut members = Vec::new();
    let mut raw = Vec::new();
    let mut calibration = Vec::new();
    while raw.len() < SETUPS_PER_GROUP || start.elapsed().as_secs_f64() < SETUP_GROUP_S {
        // The previous ensemble goes first, so every set-up of a group
        // starts from the same heap.
        drop(std::mem::take(&mut members));
        calibration.push(host::sample());
        let s = w.setup(seed, &mut Tracer::off());
        raw.push(s.member_secs.iter().sum::<f64>());
        members = s.members;
    }
    samples.extend(raw.iter().filter_map(|&r| host::scale(r, &calibration)));
    members
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, plant: bool) -> Outcome {
    let mut setups = Vec::new();
    let members = setup_group(w, seed, &mut setups);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timings = Vec::new();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        if (1..MIN_PASSES).contains(&passes.len()) {
            // Only the samples are kept; the passes run the first group's
            // ensemble.
            drop(setup_group(w, seed, &mut setups));
        }
        let mut p = pass(&members, &mut Tracer::off(), true);
        if plant && passes.len() == 1 {
            if let Ok(Some(r)) = p.reports.as_mut().map(|r| r.first_mut()) {
                check::plant_wrong_report(r);
            }
        }
        timings.push((p.member_secs.iter().sum::<f64>(), p.calibration));
        passes.push(p.reports);
    }
    let verdicts = judge(w, &members, &passes);
    let mut good = Vec::new();
    let mut unscaled = Vec::new();
    for (i, (v, (secs, calibration))) in verdicts.iter().zip(&timings).enumerate() {
        if v.is_empty() {
            good.extend(host::scale(*secs, calibration));
            unscaled.push(*secs);
        } else {
            eprintln!("pass {i} failed: {}", v.join("; "));
        }
    }
    let failed = verdicts.iter().filter(|v| !v.is_empty()).count();
    let run_s = median(&good).unwrap_or(0.0);
    let o = passes
        .iter()
        .find_map(|p| p.as_ref().ok())
        .map_or_else(|| outcomes(&[]), |r| outcomes(r));
    let kernel: Vec<f64> = timings
        .iter()
        .flat_map(|(_, c)| c.iter().copied())
        .collect();
    eprintln!(
        "set-ups {}, passes {} ({} good); unscaled median pass {:.3} s, kernel median {:.2} ms (reference {:.2} ms)",
        setups.len(),
        passes.len(),
        good.len(),
        median(&unscaled).unwrap_or(0.0),
        median(&kernel).unwrap_or(0.0) * 1e3,
        host::REFERENCE_S * 1e3,
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
        Metric::new("run_s", run_s, "s"),
        Metric::new(
            "slots_per_s",
            if run_s > 0.0 {
                o.slots as f64 / run_s
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("cost_core_hours", o.cost_core_hours, "core-h"),
        Metric::new("runtime_increase_pct", o.runtime_increase_pct, "%"),
        Metric::new("overload_time_pct", o.overload_time_pct, "%"),
    ];
    Outcome {
        attempted: passes.len(),
        failed,
        metrics,
    }
}
