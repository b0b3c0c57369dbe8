//! Fig. 10 at full scale, through the unified [`Mechanism`] trait: one
//! shared structure-of-arrays [`MarketInstance`] per job count, cleared by
//! every mechanism at N = 1k / 10k / 100k.
//!
//! Recorded results live in `BENCHMARKS.md` at the repo root.
//!
//! Per-mechanism caps (logged when they bite):
//! * MPR-INT runs with `max_iterations = 8` — Fig. 10(b) measures per-round
//!   computation; unbounded Jacobi rounds would benchmark convergence luck,
//!   not clearing work.
//! * VCG runs only at N = 1k: the auction is M+1 full OPT solves, so 100k
//!   participants means 100 001 solves per clearing — quadratic work the
//!   paper's scalability claim explicitly does not extend to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpr_bench::{attainable_watts, make_instance, make_jobs};
use mpr_core::{
    EqlMechanism, FallbackChain, InteractiveConfig, InteractiveMechanism, MarketInstance,
    MclrMechanism, Mechanism, OptMechanism, OptMethod, VcgMechanism, Watts,
};

const SIZES: &[usize] = &[1_000, 10_000, 100_000];
const VCG_MAX_N: usize = 1_000;

fn int_config() -> InteractiveConfig {
    InteractiveConfig {
        max_iterations: 8,
        ..InteractiveConfig::default()
    }
}

/// Every mechanism benchmarked at size `n`, each behind the trait.
fn mechanisms(n: usize) -> Vec<(&'static str, Box<dyn Mechanism>)> {
    let mut out: Vec<(&'static str, Box<dyn Mechanism>)> = vec![
        ("mpr-stat", Box::new(MclrMechanism::best_effort())),
        (
            "mpr-int",
            Box::new(InteractiveMechanism::best_effort(int_config())),
        ),
        ("opt", Box::new(OptMechanism::best_effort(OptMethod::Auto))),
        ("eql", Box::new(EqlMechanism)),
        (
            "chain",
            Box::new(FallbackChain::degradation(
                InteractiveMechanism::best_effort(int_config()),
            )),
        ),
    ];
    if n <= VCG_MAX_N {
        out.push(("vcg", Box::new(VcgMechanism::best_effort(OptMethod::Auto))));
    } else {
        eprintln!(
            "mechanism_scale: skipping vcg at N={n} (quadratic: M+1 OPT solves per clearing)"
        );
    }
    out
}

fn bench_mechanism_scale(c: &mut Criterion) {
    for &n in SIZES {
        let jobs = make_jobs(n);
        let instance: MarketInstance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));

        let mut group = c.benchmark_group("mechanism_clear");
        group.sample_size(10);
        for (name, mut mech) in mechanisms(n) {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    mech.clear(std::hint::black_box(&instance), target)
                        .expect("best-effort mechanisms always clear")
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_mechanism_scale);
criterion_main!(benches);
