//! End-to-end benchmark of the MPR simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat-stat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced run;
//! with `--trace 1` it runs the workload again with spans around every
//! public call, replays each layer on the workload's inputs, writes the
//! spans to `perfbench/trace-out/` and prints the per-layer metrics. The
//! last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! `--plant-wrong-report` perturbs one report to prove the output checks
//! catch it: the run then reports one failed pass and `correct: false`.

mod check;
mod e2e;
mod host;
mod layers;
mod spans;
mod workloads;

use std::process::ExitCode;

/// The timed passes run the rayon shim on this many threads. The shim
/// spawns threads for every federated wave, and on a shared host that
/// times the scheduler more than the program.
const THREADS: &str = "1";

/// The traced run's extra pass runs on this many threads (the host has two
/// cores), for the 1- versus 2-thread split.
const PARALLEL_THREADS: &str = "2";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// The median of a sample, `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// A JSON number: non-finite values, which JSON cannot hold, become 0.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        plant: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--plant-wrong-report" {
            args.plant = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pinned before any thread exists; the rayon shim reads it per call.
    std::env::set_var("RAYON_NUM_THREADS", THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        match layers::run(&w, args.seed) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        e2e::run(&w, args.seed, args.seconds, args.plant)
    };
    println!(
        "workload {} seed {} threads {} passes {} failed {}",
        w.name, args.seed, THREADS, outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("{:<28} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
