//! Application performance profiles: piecewise-linear perf-vs-allocation
//! curves and the ground-truth cost model they imply.

use std::fmt;
use std::sync::Arc;

use mpr_core::CostModel;

/// Performance floor used when extrapolating past the profiled range: a job
/// pushed below its minimum operating point makes almost no progress and its
/// extra-execution cost explodes (how EQL "breaks" sensitive GPU apps in
/// Fig. 15).
const MIN_PERF: f64 = 1e-3;

/// Whether an application profile was measured on CPU or GPU hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// CPU codes, power-capped via RAPL/DVFS (Fig. 7).
    Cpu,
    /// GPU kernels, power-capped via `nvidia-smi` (Fig. 15).
    Gpu,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "CPU"),
            DeviceKind::Gpu => write!(f, "GPU"),
        }
    }
}

/// Errors raised when constructing an [`AppProfile`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProfileError {
    /// Fewer than two calibration points were supplied.
    TooFewPoints,
    /// Points are not strictly increasing in allocation.
    UnsortedAllocations,
    /// A performance value is outside `(0, 1]`.
    PerformanceOutOfRange(f64),
    /// The curve does not end at `(1.0, 1.0)` — profiles are normalized to
    /// full-allocation performance.
    NotNormalized,
    /// A performance value decreases as allocation increases.
    NonMonotone,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::TooFewPoints => write!(f, "profile needs at least two points"),
            ProfileError::UnsortedAllocations => {
                write!(f, "profile allocations must be strictly increasing")
            }
            ProfileError::PerformanceOutOfRange(p) => {
                write!(f, "performance {p} outside (0, 1]")
            }
            ProfileError::NotNormalized => {
                write!(f, "profile must end at allocation 1.0 with performance 1.0")
            }
            ProfileError::NonMonotone => {
                write!(f, "performance must not decrease with allocation")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// A measured (here: digitized) application profile — normalized
/// performance as a function of per-core resource allocation.
///
/// An allocation of `1.0` means cores run at full speed; `0.7` means the
/// cores were slowed (via DVFS / power capping) to an effective 70 %. The
/// smallest profiled allocation determines the application's maximum
/// feasible reduction `Δ = 1 − alloc_min` — its supply-function parameter.
///
/// ```
/// use mpr_apps::AppProfile;
///
/// let xs = mpr_apps::profile_by_name("XSBench").unwrap();
/// assert!((xs.delta_max() - 0.7).abs() < 1e-12); // paper: Δ = 0.7 for XSBench
/// assert_eq!(xs.performance(1.0), 1.0);
/// assert!(xs.performance(0.5) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: String,
    kind: DeviceKind,
    /// `(allocation, performance)` points, strictly increasing in
    /// allocation, ending at `(1.0, 1.0)`.
    points: Vec<(f64, f64)>,
    /// Dynamic power in watts drawn by one unit of allocation of this
    /// application (125 W for the paper's CPU model; GPU apps are
    /// normalized so that "one core" is their maximum power draw).
    unit_dynamic_power_w: f64,
    /// Optional C¹ monotone-cubic fit through the points (see
    /// [`with_monotone_interpolation`](Self::with_monotone_interpolation)).
    smooth: Option<crate::interp::MonotoneCubic>,
}

impl AppProfile {
    /// Creates a profile from calibration points.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] when the points are not a valid
    /// normalized, monotone performance curve.
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        points: Vec<(f64, f64)>,
        unit_dynamic_power_w: f64,
    ) -> Result<Self, ProfileError> {
        if points.len() < 2 {
            return Err(ProfileError::TooFewPoints);
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(ProfileError::UnsortedAllocations);
            }
            if w[1].1 < w[0].1 {
                return Err(ProfileError::NonMonotone);
            }
        }
        for &(_, p) in &points {
            if !(p > 0.0 && p <= 1.0) {
                return Err(ProfileError::PerformanceOutOfRange(p));
            }
        }
        let last = points[points.len() - 1];
        if (last.0 - 1.0).abs() > 1e-9 || (last.1 - 1.0).abs() > 1e-9 {
            return Err(ProfileError::NotNormalized);
        }
        Ok(Self {
            name: name.into(),
            kind,
            points,
            unit_dynamic_power_w,
            smooth: None,
        })
    }

    /// Switches the profile to monotone-cubic (PCHIP) interpolation between
    /// its calibration points. The curve is C¹ — no kinks in derived cost
    /// curves or bidding references — and provably stays monotone
    /// (Fritsch–Carlson), so all market assumptions continue to hold. The
    /// catalog profiles default to linear interpolation to stay faithful to
    /// the digitization.
    #[must_use]
    pub fn with_monotone_interpolation(mut self) -> Self {
        self.smooth = Some(crate::interp::MonotoneCubic::new(&self.points));
        self
    }

    /// Application name (e.g. `"XSBench"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CPU or GPU profile.
    #[must_use]
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The calibration points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Dynamic power (watts) per unit of allocation — the market's
    /// `watts_per_unit` conversion for jobs of this application.
    #[must_use]
    pub fn unit_dynamic_power_w(&self) -> f64 {
        self.unit_dynamic_power_w
    }

    /// The application's maximum feasible resource reduction per core,
    /// `Δ = 1 − alloc_min`.
    #[must_use]
    pub fn delta_max(&self) -> f64 {
        1.0 - self.points[0].0
    }

    /// Normalized performance at `allocation`, linearly interpolated.
    ///
    /// Below the profiled range the last segment's slope is extrapolated
    /// down to a floor of `1e-3` (the job barely progresses); above `1.0`
    /// performance is clamped to `1.0`.
    #[must_use]
    pub fn performance(&self, allocation: f64) -> f64 {
        let pts = &self.points;
        if allocation >= 1.0 {
            return 1.0;
        }
        if let Some(smooth) = &self.smooth {
            if allocation >= pts[0].0 {
                return smooth.eval(allocation).clamp(MIN_PERF, 1.0);
            }
            // Below the profiled range fall through to the linear
            // extrapolation, which models the performance collapse.
        }
        if allocation <= pts[0].0 {
            // Extrapolate with the first segment's slope.
            let (x0, y0) = pts[0];
            let (x1, y1) = pts[1];
            let slope = (y1 - y0) / (x1 - x0);
            return (y0 + slope * (allocation - x0)).max(MIN_PERF);
        }
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if allocation <= x1 {
                let t = (allocation - x0) / (x1 - x0);
                return (y0 + t * (y1 - y0)).max(MIN_PERF);
            }
        }
        1.0
    }

    /// Extra execution needed to finish the same work under a per-core
    /// reduction of `reduction`, following Fig. 3(b):
    /// `ExtraExecution = (100 − Performance) / Performance` — expressed per
    /// unit of capped time, in the same core-time units as the reduction.
    #[must_use]
    pub fn extra_execution(&self, reduction: f64) -> f64 {
        let perf = self.performance(1.0 - reduction.max(0.0));
        (1.0 - perf) / perf
    }

    /// Replaces every reduction in `reductions` with its
    /// [`extra_execution`](Self::extra_execution), bit for bit. Allocation
    /// falls as the reduction rises, so an ascending run of reductions
    /// walks the linear segments once, top down, and each run of
    /// reductions inside one segment is one tight loop; any order stays
    /// correct. Monotone-cubic profiles and allocations outside the
    /// profiled segments evaluate per element.
    pub fn extra_execution_many(&self, reductions: &mut [f64]) {
        let pts = &self.points;
        let mut k = pts.len() - 2;
        let mut rest = reductions;
        while let Some((first, _)) = rest.split_first() {
            let allocation = 1.0 - first.max(0.0);
            let linear = self.smooth.is_none() && allocation < 1.0 && allocation > pts[0].0;
            if linear {
                // Segment `k` spans `(x_k, x_{k+1}]`: the first segment
                // whose upper knot reaches the allocation, as in
                // `performance`.
                while k > 0 && allocation <= pts[k].0 {
                    k -= 1;
                }
                while k + 2 < pts.len() && allocation > pts[k + 1].0 {
                    k += 1;
                }
            }
            let (x0, y0) = pts[k];
            let (x1, y1) = pts[k + 1];
            let in_segment = |r: &f64| {
                let a = 1.0 - r.max(0.0);
                a > x0 && a <= x1 && a < 1.0
            };
            let len = if linear && in_segment(first) {
                rest.iter()
                    .position(|r| !in_segment(r))
                    .unwrap_or(rest.len())
            } else {
                0
            };
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len.max(1));
            if len == 0 {
                for r in run {
                    let perf = self.performance(1.0 - r.max(0.0));
                    *r = (1.0 - perf) / perf;
                }
            } else {
                let (dx, dy) = (x1 - x0, y1 - y0);
                for r in run {
                    let t = (1.0 - r.max(0.0) - x0) / dx;
                    let perf = (y0 + t * dy).max(MIN_PERF);
                    *r = (1.0 - perf) / perf;
                }
            }
            rest = tail;
        }
    }

    /// A measure of how sensitive this application is to resource
    /// reduction: its extra execution at half its feasible range. Used for
    /// ordering/reporting, not by the market itself.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.extra_execution(0.5 * self.delta_max())
    }

    /// The ground-truth cost model for a single core of this application
    /// with user surcharge coefficient `alpha >= 1` (Eqn. 6).
    #[must_use]
    pub fn cost_model(self: &Arc<Self>, alpha: f64) -> ProfileCost {
        ProfileCost {
            profile: Arc::clone(self),
            alpha,
        }
    }
}

/// The ground-truth, table-driven cost model of an application:
/// `C(δ) = α · ExtraExecution(δ)` per core (Section III-C).
#[derive(Debug, Clone)]
pub struct ProfileCost {
    profile: Arc<AppProfile>,
    alpha: f64,
}

impl ProfileCost {
    /// The underlying application profile.
    #[must_use]
    pub fn profile(&self) -> &Arc<AppProfile> {
        &self.profile
    }

    /// The user's perceived-cost coefficient `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CostModel for ProfileCost {
    fn cost(&self, delta: f64) -> f64 {
        self.alpha * self.profile.extra_execution(delta)
    }

    fn cost_many(&self, deltas: &mut [f64]) {
        self.profile.extra_execution_many(deltas);
        for c in deltas {
            *c *= self.alpha;
        }
    }

    fn delta_max(&self) -> f64 {
        self.profile.delta_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use proptest::prelude::*;

    fn xsbench() -> Arc<AppProfile> {
        catalog::profile_by_name("XSBench").unwrap()
    }

    #[test]
    fn validation_rejects_bad_curves() {
        let mk = |pts: Vec<(f64, f64)>| AppProfile::new("t", DeviceKind::Cpu, pts, 125.0);
        assert_eq!(
            mk(vec![(1.0, 1.0)]).unwrap_err(),
            ProfileError::TooFewPoints
        );
        assert_eq!(
            mk(vec![(0.5, 0.5), (0.5, 1.0)]).unwrap_err(),
            ProfileError::UnsortedAllocations
        );
        assert_eq!(
            mk(vec![(0.5, 0.8), (0.7, 0.6), (1.0, 1.0)]).unwrap_err(),
            ProfileError::NonMonotone
        );
        assert_eq!(
            mk(vec![(0.5, 0.0), (1.0, 1.0)]).unwrap_err(),
            ProfileError::PerformanceOutOfRange(0.0)
        );
        assert_eq!(
            mk(vec![(0.5, 0.5), (0.9, 0.9)]).unwrap_err(),
            ProfileError::NotNormalized
        );
        assert!(mk(vec![(0.3, 0.35), (1.0, 1.0)]).is_ok());
    }

    #[test]
    fn interpolation_hits_calibration_points() {
        let p = xsbench();
        for &(alloc, perf) in p.points() {
            assert!(
                (p.performance(alloc) - perf).abs() < 1e-12,
                "at {alloc}: {} != {perf}",
                p.performance(alloc)
            );
        }
    }

    #[test]
    fn performance_clamps_above_one() {
        let p = xsbench();
        assert_eq!(p.performance(1.5), 1.0);
    }

    #[test]
    fn extrapolation_below_range_floors_at_min_perf() {
        let p = xsbench();
        let deep = p.performance(0.0);
        assert!(deep >= MIN_PERF);
        assert!(deep < p.performance(p.points()[0].0));
        // Extra execution explodes as we push past the feasible range.
        assert!(p.extra_execution(0.99) > p.extra_execution(p.delta_max()) * 2.0);
    }

    #[test]
    fn extra_execution_zero_at_no_reduction() {
        let p = xsbench();
        assert_eq!(p.extra_execution(0.0), 0.0);
        assert_eq!(p.extra_execution(-0.5), 0.0);
    }

    #[test]
    fn cost_model_scales_with_alpha() {
        let p = xsbench();
        let c1 = p.cost_model(1.0);
        let c2 = p.cost_model(2.0);
        assert!((c2.cost(0.3) - 2.0 * c1.cost(0.3)).abs() < 1e-12);
        assert_eq!(c1.delta_max(), p.delta_max());
        assert_eq!(c2.alpha(), 2.0);
        assert_eq!(c1.profile().name(), "XSBench");
    }

    #[test]
    fn monotone_interpolation_agrees_at_knots_and_stays_monotone() {
        let linear = xsbench();
        let smooth = AppProfile::clone(&linear).with_monotone_interpolation();
        for &(alloc, perf) in linear.points() {
            assert!(
                (smooth.performance(alloc) - perf).abs() < 1e-9,
                "knot at {alloc}"
            );
        }
        let mut prev = 0.0;
        for i in 0..=200 {
            let a = 0.3 + 0.7 * f64::from(i) / 200.0;
            let p = smooth.performance(a);
            assert!(p + 1e-9 >= prev, "monotone violated at {a}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        // Below the profiled range the collapse behaviour is preserved.
        assert!(smooth.performance(0.05) <= linear.performance(0.3));
    }

    #[test]
    fn device_kind_display() {
        assert_eq!(DeviceKind::Cpu.to_string(), "CPU");
        assert_eq!(DeviceKind::Gpu.to_string(), "GPU");
    }

    #[test]
    fn profile_error_display_nonempty() {
        for e in [
            ProfileError::TooFewPoints,
            ProfileError::UnsortedAllocations,
            ProfileError::PerformanceOutOfRange(2.0),
            ProfileError::NotNormalized,
            ProfileError::NonMonotone,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    proptest! {
        /// Performance is monotone in allocation for every catalog profile.
        #[test]
        fn performance_monotone(
            idx in 0usize..14,
            a1 in 0.0f64..1.0,
            da in 0.0f64..1.0,
        ) {
            let all: Vec<_> = catalog::cpu_profiles()
                .into_iter()
                .chain(catalog::gpu_profiles())
                .collect();
            let p = &all[idx % all.len()];
            let lo = p.performance(a1);
            let hi = p.performance((a1 + da).min(1.0));
            prop_assert!(hi + 1e-12 >= lo);
        }

        /// Extra execution (hence cost) is non-negative, zero at zero, and
        /// non-decreasing in the reduction.
        #[test]
        fn extra_execution_monotone(idx in 0usize..14, r in 0.0f64..0.9, dr in 0.0f64..0.1) {
            let all: Vec<_> = catalog::cpu_profiles()
                .into_iter()
                .chain(catalog::gpu_profiles())
                .collect();
            let p = &all[idx % all.len()];
            prop_assert!(p.extra_execution(r) >= 0.0);
            prop_assert!(p.extra_execution(r + dr) + 1e-12 >= p.extra_execution(r));
        }
    }
}
