//! Shared helpers for the cross-crate integration tests.

use mpr_sim::{Algorithm, EmergencyEventKind, SimConfig, SimReport, Simulation};
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

/// A small Gaia-like trace used across the integration tests.
#[must_use]
pub fn test_trace(days: f64, seed: u64) -> Trace {
    TraceGenerator::new(ClusterSpec::gaia().with_span_days(days))
        .with_seed(seed)
        .generate()
}

/// Runs a paper-default simulation.
#[must_use]
pub fn simulate(trace: &Trace, algorithm: Algorithm, oversub_pct: f64) -> SimReport {
    Simulation::new(trace, SimConfig::new(algorithm, oversub_pct)).run()
}

/// A Normal-phase slot between two job completions under `cfg`: inside
/// the first stretch of at least 10 slots between a lift and the next
/// declare that holds two slots whose power draw fell (a job completed),
/// right after the first of them. Unreduced jobs are mid-flight there,
/// and the job finishing at the second drop is one of them.
///
/// # Panics
///
/// Panics if the run has no such stretch.
#[must_use]
pub fn quiet_slot_between_completions(trace: &Trace, cfg: &SimConfig) -> usize {
    let probe = Simulation::new(trace, cfg.clone().with_timeline()).run();
    let power = &probe.timeline.as_ref().expect("timeline recorded").power_w;
    let dropped =
        |s: usize| matches!((power.get(s), power.get(s + 1)), (Some(a), Some(b)) if b < a);
    let slot = |t: f64| (t / cfg.slot_secs) as usize;
    probe
        .events
        .windows(2)
        .find_map(|w| match (w[0].kind, w[1].kind) {
            (EmergencyEventKind::Lift, EmergencyEventKind::Declare) => {
                let (lift, next) = (slot(w[0].t_secs), slot(w[1].t_secs));
                let mut drops = (lift + 1..next.saturating_sub(1)).filter(|&s| dropped(s));
                let first = drops.next()?;
                drops.next().map(|_| first + 1)
            }
            _ => None,
        })
        .expect("run must have a quiet stretch with two completions")
}

/// Serializes a trace into SWF text — thin alias over the library writer,
/// kept for the round-trip tests' readability.
#[must_use]
pub fn to_swf(trace: &Trace) -> String {
    mpr_workload::swf::write_swf(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let t = test_trace(1.0, 1);
        assert!(!t.is_empty());
        let swf = to_swf(&t);
        assert!(swf.lines().count() > t.len());
    }
}
