//! Mechanism-level benches beyond MClr: the VCG auction (M+1 OPT solves),
//! welfare evaluation, and the EASY-backfill scheduler. The auction and the
//! welfare fixture both run through the unified [`Mechanism`] trait.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpr_bench::{attainable_watts, make_instance, make_jobs};
use mpr_core::{analysis, MclrMechanism, Mechanism, OptMethod, VcgMechanism, Watts};
use mpr_sched::{schedule, Policy, SubmittedJob};
use rand::{Rng, SeedableRng};

fn bench_vcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("vcg_auction");
    group.sample_size(10);
    for &n in &[16usize, 64, 128] {
        let jobs = make_jobs(n);
        let instance = make_instance(&jobs);
        let target = Watts::new(0.3 * attainable_watts(&jobs));
        let mut mech = VcgMechanism::strict(OptMethod::Auto);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mech.clear(std::hint::black_box(&instance), target).unwrap());
        });
    }
    group.finish();
}

fn bench_welfare(c: &mut Criterion) {
    let jobs = make_jobs(1000);
    let instance = make_instance(&jobs);
    let target = Watts::new(0.3 * attainable_watts(&jobs));
    let clearing = MclrMechanism::strict().clear(&instance, target).unwrap();
    let costs: Vec<_> = jobs.iter().map(|j| j.cost.clone()).collect();
    let w: Vec<f64> = jobs
        .iter()
        .map(|j| j.profile.unit_dynamic_power_w())
        .collect();
    c.bench_function("welfare_evaluate_1000", |b| {
        b.iter(|| analysis::evaluate(std::hint::black_box(&clearing), &costs, &w).unwrap());
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let submissions: Vec<SubmittedJob> = (0..2000)
        .map(|i| {
            let runtime = rng.gen_range(300.0..14_400.0);
            SubmittedJob::new(
                i,
                rng.gen_range(0.0..86_400.0),
                runtime,
                runtime * 1.5,
                rng.gen_range(1..=64),
            )
        })
        .collect();
    let mut group = c.benchmark_group("schedule_2000_jobs");
    group.sample_size(10);
    for (name, policy) in [("fcfs", Policy::Fcfs), ("easy", Policy::EasyBackfill)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &p| {
            b.iter(|| schedule(std::hint::black_box(&submissions), 512, p).stats);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vcg, bench_welfare, bench_scheduler);
criterion_main!(benches);
