//! Fig. 10(a) as a criterion bench: solution time of MPR-STAT clearing,
//! OPT and EQL as the number of active jobs grows. Every solver runs
//! through the unified [`Mechanism`] trait over one shared
//! [`MarketInstance`]; `mechanism_scale` extends the same sweep to 100k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpr_bench::{attainable_watts, make_instance, make_jobs};
use mpr_core::{EqlMechanism, MclrMechanism, Mechanism, OptMechanism, OptMethod, Watts};

fn bench_static_market(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpr_stat_clear");
    for &n in &[100usize, 1_000, 10_000, 30_000] {
        let jobs = make_jobs(n);
        let instance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));
        let mut mech = MclrMechanism::strict();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mech.clear(std::hint::black_box(&instance), target).unwrap());
        });
    }
    group.finish();
}

/// Best-effort MPR-STAT clears, the simulator's path: a rack-sized
/// market, one the size of a typical `flat-stat` overload (about 127
/// rows), and one at the 100k scale of the paper's scalability claim.
fn bench_best_effort(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpr_stat_best_effort");
    for &(n, samples) in &[(8usize, 20_000), (128, 20_000), (100_000, 20)] {
        let jobs = make_jobs(n);
        let instance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));
        let mut mech = MclrMechanism::best_effort();
        group.sample_size(samples);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mech.clear(std::hint::black_box(&instance), target).unwrap());
        });
    }
    group.finish();
}

fn bench_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_solve");
    group.sample_size(10);
    for &n in &[100usize, 1_000, 10_000] {
        let jobs = make_jobs(n);
        let instance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));
        let mut mech = OptMechanism::strict(OptMethod::Auto);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mech.clear(std::hint::black_box(&instance), target).unwrap());
        });
    }
    group.finish();
}

fn bench_eql(c: &mut Criterion) {
    let mut group = c.benchmark_group("eql_reduce");
    for &n in &[100usize, 1_000, 10_000, 30_000] {
        let jobs = make_jobs(n);
        let instance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                EqlMechanism
                    .clear(std::hint::black_box(&instance), target)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_static_market,
    bench_best_effort,
    bench_opt,
    bench_eql
);
criterion_main!(benches);
