//! Shared fixtures for the MPR criterion benches.

use std::sync::Arc;

use mpr_apps::{cpu_profiles, AppProfile, ProfileCost};
use mpr_core::bidding::StaticStrategy;
use mpr_core::{CostModel, MarketInstance, ParticipantSpec, ScaledCost, SupplyFunction};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One synthetic active job used across the solver benches.
pub struct BenchJob {
    /// Core count.
    pub cores: f64,
    /// Application profile.
    pub profile: Arc<AppProfile>,
    /// True, job-scaled cost model.
    pub cost: ScaledCost<ProfileCost>,
    /// Cooperative MPR-STAT supply.
    pub supply: SupplyFunction,
}

/// Deterministic set of `n` jobs with random profiles and power-of-two
/// widths — the same fixture the Fig. 10 scalability study uses.
#[must_use]
pub fn make_jobs(n: usize) -> Vec<BenchJob> {
    let profiles = cpu_profiles();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    (0..n)
        .map(|_| {
            let p = Arc::clone(&profiles[rng.gen_range(0..profiles.len())]);
            let cores = f64::from(2u32.pow(rng.gen_range(0..6)));
            let cost = ScaledCost::new(p.cost_model(1.0), cores);
            let supply = StaticStrategy::Cooperative
                .supply_for(&cost)
                .expect("valid cooperative bid");
            BenchJob {
                cores,
                profile: p,
                cost,
                supply,
            }
        })
        .collect()
}

/// The shared structure-of-arrays instance for a job set: one build, every
/// mechanism clears it through the [`Mechanism`](mpr_core::Mechanism) trait.
#[must_use]
pub fn make_instance(jobs: &[BenchJob]) -> MarketInstance {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| {
            ParticipantSpec::new(
                i as u64,
                j.cost.delta_max(),
                mpr_core::Watts::new(j.profile.unit_dynamic_power_w()),
            )
            .with_bid(j.supply.bid())
            .with_cores(j.cores)
            .with_cost(Arc::new(j.cost.clone()))
        })
        .collect()
}

/// Aggregate attainable power reduction of a job set, watts.
#[must_use]
pub fn attainable_watts(jobs: &[BenchJob]) -> f64 {
    jobs.iter()
        .map(|j| j.cost.delta_max() * j.profile.unit_dynamic_power_w())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let a = make_jobs(10);
        let b = make_jobs(10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cores, y.cores);
            assert_eq!(x.profile.name(), y.profile.name());
        }
    }

    #[test]
    fn instance_uses_profile_power() {
        let jobs = make_jobs(3);
        let inst = make_instance(&jobs);
        assert_eq!(inst.ids(), &[0, 1, 2]);
        assert_eq!(
            inst.watts_per_unit_slice()[0],
            jobs[0].profile.unit_dynamic_power_w()
        );
        assert_eq!(inst.bid(0), Some(jobs[0].supply.bid()));
        assert!(jobs[0].cost.delta_max() > 0.0);
    }

    #[test]
    fn attainable_is_positive_and_scales() {
        let a = attainable_watts(&make_jobs(10));
        let b = attainable_watts(&make_jobs(100));
        assert!(a > 0.0);
        assert!(b > 5.0 * a);
    }
}
