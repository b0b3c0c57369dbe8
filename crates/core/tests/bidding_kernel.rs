//! Bit-identity of the batched bidding grid.
//!
//! `numeric::maximize` prices its whole grid through one
//! `CostModel::cost_many` call. These properties pin that path to the
//! per-element one: `cost_many` against `cost` for every layer of the
//! simulator's cost stack, and `cooperative_bid` / `best_response`
//! against a copy of the point-by-point grid scan kept here as the
//! reference.

use std::sync::Arc;

use mpr_apps::{cpu_profiles, cpu_profiles_smooth, gpu_profiles, AppProfile, DeviceKind};
use mpr_apps::{NoisyCost, ProfileCost};
use mpr_core::bidding::{best_response, cooperative_bid};
use mpr_core::{CostModel, LinearCost, LogFitCost, PowerLawCost, Price, QuadraticCost, ScaledCost};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Grid density of the bidding searches.
const GRID: usize = 512;

/// The point-by-point grid scan and golden-section polish as they were
/// before the grid was batched.
mod reference {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    const REL_TOL: f64 = 1e-10;

    pub fn maximize(lo: f64, hi: f64, grid: usize, f: impl Fn(f64) -> f64) -> (f64, f64) {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        if hi - lo <= f64::EPSILON * lo.abs().max(1.0) {
            return (lo, f(lo));
        }
        let n = grid.max(3);
        let step = (hi - lo) / n as f64;
        let mut best_i = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for i in 0..=n {
            let v = f(lo + step * i as f64);
            if v >= best_v {
                best_v = v;
                best_i = i;
            }
        }
        let a = lo + step * best_i.saturating_sub(1) as f64;
        let b = (lo + step * (best_i + 1) as f64).min(hi);
        let (x, v) = golden(a, b, &f);
        if v >= best_v {
            (x, v)
        } else {
            (lo + step * best_i as f64, best_v)
        }
    }

    fn golden(mut a: f64, mut b: f64, f: &impl Fn(f64) -> f64) -> (f64, f64) {
        let mut c = b - INV_PHI * (b - a);
        let mut d = a + INV_PHI * (b - a);
        let mut fc = f(c);
        let mut fd = f(d);
        for _ in 0..120 {
            if (b - a).abs() <= REL_TOL * b.abs().max(1.0) {
                break;
            }
            if fc >= fd {
                b = d;
                d = c;
                fd = fc;
                c = b - INV_PHI * (b - a);
                fc = f(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + INV_PHI * (b - a);
                fd = f(d);
            }
        }
        let x = 0.5 * (a + b);
        (x, f(x))
    }

    /// `cooperative_bid` over the point-by-point scan.
    pub fn cooperative_bid(cost: &dyn mpr_core::CostModel) -> f64 {
        let delta_max = cost.delta_max();
        let f = |delta: f64| {
            if delta <= 0.0 {
                return 0.0;
            }
            (delta_max - delta) * cost.unit_cost(delta)
        };
        maximize(delta_max * 1e-6, delta_max, super::GRID, f)
            .1
            .max(0.0)
    }

    /// `best_response`'s `(delta, bid, net_gain)` over the point-by-point
    /// scan.
    pub fn best_response(cost: &dyn mpr_core::CostModel, q: f64) -> (f64, f64, f64) {
        let delta_max = cost.delta_max();
        let (delta, gain) = maximize(0.0, delta_max, super::GRID, |d| q * d - cost.cost(d));
        let (delta, gain) = if gain < 0.0 {
            (0.0, 0.0)
        } else {
            (delta, gain)
        };
        (delta, (q * (delta_max - delta)).max(0.0), gain)
    }
}

/// Every catalog profile: CPU, GPU and the monotone-cubic CPU variants.
fn catalog() -> Vec<Arc<AppProfile>> {
    cpu_profiles()
        .into_iter()
        .chain(gpu_profiles())
        .chain(cpu_profiles_smooth())
        .collect()
}

/// A two-point profile whose feasible reduction is only `delta_max`.
fn narrow_profile(delta_max: f64) -> Arc<AppProfile> {
    let points = vec![(1.0 - delta_max, 0.5), (1.0, 1.0)];
    Arc::new(AppProfile::new("narrow", DeviceKind::Cpu, points, 125.0).unwrap())
}

/// A random profile on dyadic knots, so `1 − (1 − x_k)` lands exactly on
/// each knot, with performance levels spread wide enough that
/// `y_{k−1} + (y_k − y_{k−1})` often rounds away from `y_k`: evaluating a
/// knot in the wrong segment then changes its bits.
fn dyadic_profile(rng: &mut ChaCha8Rng) -> Arc<AppProfile> {
    let n = rng.gen_range(2..=8usize);
    let mut xs: Vec<u32> = (0..n - 1).map(|_| rng.gen_range(1..1024u32)).collect();
    xs.sort_unstable();
    xs.dedup();
    let mut ys: Vec<f64> = xs.iter().map(|_| rng.gen_range(0.01..1.0)).collect();
    ys.sort_by(f64::total_cmp);
    let mut points: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .map(|(&x, y)| (f64::from(x) / 1024.0, y))
        .collect();
    points.push((1.0, 1.0));
    Arc::new(AppProfile::new("dyadic", DeviceKind::Cpu, points, 125.0).unwrap())
}

/// Reductions that probe every branch of a profile: the bid and response
/// grids, each knot approached from both sides, extrapolation below the
/// profiled range, negatives, and a descending and a shuffled pass.
fn probe_reductions(profile: &AppProfile, scale: f64, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let delta_max = profile.delta_max() * scale;
    let mut xs: Vec<f64> = Vec::new();
    for lo in [0.0, delta_max * 1e-6] {
        let step = (delta_max - lo) / GRID as f64;
        xs.extend((0..=GRID).map(|i| lo + step * i as f64));
    }
    // Each knot right after a point above it and right after one below
    // it, so the segment walk reaches the knot from both sides.
    for &(x, _) in profile.points() {
        let r = (1.0 - x) * scale;
        xs.extend([r.next_down(), r, r.next_up(), r]);
    }
    xs.extend([-1.0, -0.0, 0.0, 1.5 * delta_max, scale, 2.0 * scale]);
    let rev: Vec<f64> = xs.iter().rev().copied().collect();
    xs.extend(rev);
    for _ in 0..64 {
        xs.push(rng.gen_range(-0.1..=1.2) * scale);
    }
    xs
}

fn assert_cost_many_matches(cost: &dyn CostModel, deltas: &[f64], label: &str) {
    let mut batch = deltas.to_vec();
    cost.cost_many(&mut batch);
    for (&d, &c) in deltas.iter().zip(&batch) {
        assert_eq!(
            c.to_bits(),
            cost.cost(d).to_bits(),
            "{label}: cost_many({d:e}) = {c:e}, cost = {:e}",
            cost.cost(d)
        );
    }
}

fn bits3((a, b, c): (f64, f64, f64)) -> (u64, u64, u64) {
    (a.to_bits(), b.to_bits(), c.to_bits())
}

/// `cooperative_bid` and `best_response` at `q` against the reference
/// scan.
fn assert_bids_match(cost: &dyn CostModel, q: f64, label: &str) {
    let bid = cooperative_bid(cost).unwrap();
    let want = reference::cooperative_bid(cost);
    assert_eq!(
        bid.to_bits(),
        want.to_bits(),
        "{label}: bid {bid:e} vs {want:e}"
    );
    let r = best_response(cost, Price::new(q)).unwrap();
    let want = reference::best_response(cost, q);
    assert_eq!(
        bits3((r.delta, r.bid, r.net_gain)),
        bits3(want),
        "{label}: response at q = {q}: {r:?} vs {want:?}"
    );
}

/// The simulator's perceived-cost stack for one job.
fn job_stack(
    profile: &Arc<AppProfile>,
    alpha: f64,
    noise: f64,
    cores: f64,
) -> ScaledCost<NoisyCost<ProfileCost>> {
    ScaledCost::new(NoisyCost::new(profile.cost_model(alpha), noise), cores)
}

#[test]
fn bidding_kernel_matches_per_element_cost_on_every_catalog_profile() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    for profile in catalog() {
        let label = profile.name().to_owned();
        let deltas = probe_reductions(&profile, 1.0, &mut rng);
        let base = profile.cost_model(1.3);
        assert_cost_many_matches(&base, &deltas, &label);
        let noisy = NoisyCost::random_error(base.clone(), 0.3, &mut rng);
        assert_cost_many_matches(&noisy, &deltas, &label);
        for cores in [1u32, 7, 64, 1024] {
            let cores = f64::from(cores);
            let job = ScaledCost::new(noisy.clone(), cores);
            let scaled = probe_reductions(&profile, cores, &mut rng);
            assert_cost_many_matches(&job, &scaled, &label);
            assert_cost_many_matches(&&job, &scaled, &label);
            assert_cost_many_matches(&Arc::new(job.clone()), &scaled, &label);
            let boxed: Box<dyn CostModel> = Box::new(job);
            assert_cost_many_matches(&boxed, &scaled, &label);
        }
    }
}

#[test]
fn bidding_kernel_matches_the_reference_scan_at_price_zero_and_tiny_ranges() {
    for profile in catalog() {
        let stack = job_stack(&profile, 1.0, 1.0, 16.0);
        assert_bids_match(&stack, 0.0, profile.name());
    }
    // Δ below 1e-6 puts the bid grid's first points under 1e-12, where
    // `unit_cost` takes its limit-slope branch.
    for delta_max in [3e-7, 1e-8, 1e-12] {
        let profile = narrow_profile(delta_max);
        assert!(profile.delta_max() < 1e-6);
        let label = format!("narrow Δ={delta_max:e}");
        let mut rng = ChaCha8Rng::seed_from_u64(delta_max.to_bits());
        let deltas = probe_reductions(&profile, 1.0, &mut rng);
        assert_cost_many_matches(&profile.cost_model(1.0), &deltas, &label);
        for q in [0.0, 0.5] {
            assert_bids_match(&job_stack(&profile, 1.0, 1.0, 1.0), q, &label);
            assert_bids_match(&profile.cost_model(2.0), q, &label);
        }
        let analytic: [Box<dyn CostModel>; 4] = [
            Box::new(LinearCost::new(2.0, delta_max)),
            Box::new(QuadraticCost::new(4.0, delta_max)),
            Box::new(PowerLawCost::new(1.5, 2.3, delta_max)),
            Box::new(LogFitCost::new(0.5, 8e6, delta_max)),
        ];
        for cost in &analytic {
            assert_bids_match(cost.as_ref(), 0.0, &label);
            assert_bids_match(cost.as_ref(), 0.5, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The simulator's job stacks: a catalog profile, α spread up to 50 %,
    /// a ±30 % perception error and 1..=1024 cores.
    #[test]
    fn bidding_kernel_is_bit_identical_for_job_stacks(
        idx in 0usize..22,
        spread in 0.0f64..=0.5,
        seed in 0u64..u64::MAX,
        cores in 1u32..=1024,
        price in prop_oneof![Just(0.0), 0.0f64..4.0],
    ) {
        let profiles = catalog();
        let profile = &profiles[idx % profiles.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let alpha = 1.0 + rng.gen_range(0.0..=spread);
        let base = profile.cost_model(alpha);
        let noisy = NoisyCost::random_error(base, 0.3, &mut rng);
        let cores = f64::from(cores);
        let job = ScaledCost::new(noisy, cores);
        let label = format!("{} α={alpha} factor={} cores={cores}", profile.name(),
            job.inner().factor());
        let deltas = probe_reductions(profile, cores, &mut rng);
        assert_cost_many_matches(&job, &deltas, &label);
        assert_bids_match(&job, price * cores, &label);
        assert_bids_match(&Arc::new(job), price, &label);
    }

    /// Exact knots of random profiles, reached from above and below.
    #[test]
    fn bidding_kernel_evaluates_each_knot_in_its_own_segment(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let profile = dyadic_profile(&mut rng);
        let deltas = probe_reductions(&profile, 1.0, &mut rng);
        assert_cost_many_matches(&profile.cost_model(1.0), &deltas, "dyadic");
        assert_bids_match(&profile.cost_model(1.0), 0.5, "dyadic");
    }
}
