//! Output checks. A pass whose reports break any of them counts as failed
//! and its time is left out of the timing.

use mpr_sim::SimReport;

use crate::workloads::Workload;

/// A bit-exact fingerprint of a report. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal fingerprints mean equal bits.
pub fn fingerprint(report: &SimReport) -> String {
    format!("{report:?}")
}

/// The report without its durability totals: what a recovered run must
/// share with an uninterrupted one.
fn without_durability(report: &SimReport) -> String {
    let mut r = report.clone();
    r.durability = None;
    fingerprint(&r)
}

/// Invariants every report of the workload must hold on its own.
pub fn invariants(w: &Workload, report: &SimReport) -> Vec<String> {
    let mut violations = Vec::new();
    if report.jobs_completed != report.jobs_total {
        violations.push(format!(
            "jobs_completed {} != jobs_total {}",
            report.jobs_completed, report.jobs_total
        ));
    }
    if w.name == "tree-gridfault" {
        match &report.federated {
            Some(f) if f.dead_cleared_watts == 0.0 => {}
            Some(f) => violations.push(format!("dead_cleared_watts {} != 0", f.dead_cleared_watts)),
            None => violations.push("federated stats missing".into()),
        }
    }
    if w.name == "wal-recover" {
        match &report.durability {
            Some(d) if d.replay_divergence == 0 => {}
            Some(d) => violations.push(format!("replay_divergence {} != 0", d.replay_divergence)),
            None => violations.push("durability totals missing".into()),
        }
    }
    violations
}

/// Checks a recovered report against the uninterrupted durable run of the
/// same config, ignoring the durability totals.
pub fn matches_uninterrupted(recovered: &SimReport, uninterrupted: &SimReport) -> Option<String> {
    (without_durability(recovered) != without_durability(uninterrupted))
        .then(|| "recovered report differs from the uninterrupted run".to_owned())
}

/// Checks one pass: every member report holds the invariants and is
/// bit-identical to the reference pass. Returns the violations.
pub fn pass(w: &Workload, reports: &[SimReport], reference: &[String]) -> Vec<String> {
    let mut violations = Vec::new();
    if reports.len() != reference.len() {
        violations.push(format!(
            "{} reports, expected {}",
            reports.len(),
            reference.len()
        ));
    }
    for (i, (report, expected)) in reports.iter().zip(reference).enumerate() {
        for v in invariants(w, report) {
            violations.push(format!("member {i}: {v}"));
        }
        if &fingerprint(report) != expected {
            violations.push(format!("member {i}: report differs from the first pass"));
        }
    }
    violations
}

/// The self-test's planted fault: a report whose cost is off by a small
/// amount, as a broken accounting change would produce.
pub fn plant_wrong_report(report: &mut SimReport) {
    report.cost_core_hours += 1e-6 * report.cost_core_hours.abs().max(1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::workloads::by_name;
    use mpr_sim::Simulation;

    fn small_run(name: &str) -> (Workload, SimReport) {
        let mut w = by_name(name).expect("workload exists");
        w.days = 1.0;
        w.members = 1;
        let setup = w.setup(3, &mut Tracer::off());
        let m = &setup.members[0];
        let report = Simulation::new(&m.trace, m.config.clone()).run();
        (w, report)
    }

    #[test]
    fn identical_reports_pass() {
        let (w, report) = small_run("flat-stat");
        let reference = vec![fingerprint(&report)];
        assert!(pass(&w, &[report], &reference).is_empty());
    }

    #[test]
    fn planted_wrong_report_fails() {
        let (w, report) = small_run("flat-stat");
        let reference = vec![fingerprint(&report)];
        let mut wrong = report.clone();
        plant_wrong_report(&mut wrong);
        let violations = pass(&w, &[wrong], &reference);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("differs"));
    }

    #[test]
    fn unfinished_jobs_fail() {
        let (w, mut report) = small_run("flat-stat");
        let reference = vec![fingerprint(&report)];
        report.jobs_completed -= 1;
        let violations = pass(&w, &[report], &reference);
        assert!(violations.iter().any(|v| v.contains("jobs_completed")));
    }

    #[test]
    fn power_through_dead_nodes_fails() {
        let (w, mut report) = small_run("tree-gridfault");
        assert!(invariants(&w, &report).is_empty());
        if let Some(f) = report.federated.as_mut() {
            f.dead_cleared_watts = 1.0;
        }
        assert!(invariants(&w, &report)
            .iter()
            .any(|v| v.contains("dead_cleared_watts")));
    }

    #[test]
    fn recovery_ignores_durability_totals_only() {
        let (_, report) = small_run("flat-stat");
        let mut recovered = report.clone();
        recovered.durability = Some(mpr_sim::DurabilityTotals::default());
        assert_eq!(matches_uninterrupted(&recovered, &report), None);
        recovered.overload_slots += 1;
        assert!(matches_uninterrupted(&recovered, &report).is_some());
    }
}
