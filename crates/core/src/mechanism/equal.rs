//! EQL (uniform capping) on the unified [`Mechanism`] interface: the
//! performance-oblivious baseline.
//!
//! EQL "equally slows down all cores in the system to reduce power"
//! (Section IV-A). It ignores every job's sensitivity — the same per-core
//! reduction fraction is applied to a memory-bound job as to a compute-bound
//! one — which is exactly why it suffers the highest performance cost in the
//! paper's comparison (Fig. 9) and can even push sensitive applications past
//! their feasible operating range (Fig. 15, EQL at 20 % oversubscription).

use crate::mechanism::{Clearing, Diagnostics, InstanceView, Mechanism, MechanismError};
use crate::units::{Price, Watts};

/// The cost-oblivious baseline (Section III-C): every job loses the same
/// fraction of its *cores*, regardless of sensitivity. Jobs pushed past
/// their feasible `Δ_m` are counted in
/// [`Diagnostics::violations`](crate::mechanism::Diagnostics).
///
/// The uniform fraction is `f = target / (Σ cores · watts_per_unit)`,
/// capped at 1 (cores cannot run backwards). The "bookkeeping" of logging
/// every job's new allocation is what dominates EQL's solution time at
/// scale (Fig. 10(a)).
///
/// On an infeasible target (even stopping every core cannot reach it) the
/// mechanism caps at fraction 1 — every core stopped — and reports the
/// positive residual.
///
/// ```
/// use mpr_core::{EqlMechanism, MarketInstance, Mechanism, ParticipantSpec, Watts};
///
/// # fn main() -> Result<(), mpr_core::MechanismError> {
/// let instance: MarketInstance = [(10.0, 7.0), (30.0, 21.0)]
///     .iter()
///     .zip(0..)
///     .map(|(&(cores, delta), id)| {
///         ParticipantSpec::new(id, delta, Watts::new(125.0)).with_cores(cores)
///     })
///     .collect();
/// let clearing = EqlMechanism.clear(&instance, Watts::new(1000.0))?;
/// // Everyone slows by 20 %.
/// assert!((clearing.reductions()[0] - 2.0).abs() < 1e-12);
/// assert!((clearing.reductions()[1] - 6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EqlMechanism;

impl Mechanism for EqlMechanism {
    fn name(&self) -> &'static str {
        "EQL"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let target_watts = target.get();
        let (reductions, violations) = if target_watts <= 0.0 {
            (vec![0.0; view.len()], 0)
        } else {
            let capacity: f64 = view
                .cores()
                .iter()
                .zip(view.watts_per_unit_slice())
                .map(|(c, w)| c * w)
                .sum();
            if capacity < target_watts * (1.0 - 1e-9) {
                // Fraction 1: stop every core.
                let diagnostics = Diagnostics {
                    accepted: false,
                    capped_at_delta_max: true,
                    ..Diagnostics::default()
                };
                return Ok(Clearing::build(
                    view,
                    target,
                    Price::ZERO,
                    view.cores().to_vec(),
                    None,
                    None,
                    diagnostics,
                ));
            }
            let fraction = (target_watts / capacity).min(1.0);
            let reductions: Vec<f64> = view.cores().iter().map(|c| fraction * c).collect();
            // Rows pushed past their feasible `Δ_m` operate outside their
            // profiled range (runaway cost).
            let violations = reductions
                .iter()
                .zip(view.deltas())
                .filter(|(r, d)| **r > **d + 1e-12)
                .count();
            (reductions, violations)
        };
        let diagnostics = Diagnostics {
            violations,
            accepted: violations == 0,
            ..Diagnostics::default()
        };
        Ok(Clearing::build(
            view,
            target,
            Price::ZERO,
            reductions,
            None,
            None,
            diagnostics,
        ))
    }
}

/// The degradation chain's terminal stage: uniform capping over `Δ_m`
/// (not cores), the fraction chosen so any physically attainable target is
/// met exactly. Pays nothing — this is manager-side forced capping.
#[derive(Debug, Clone, Default)]
pub struct EqlCappingMechanism;

impl Mechanism for EqlCappingMechanism {
    fn name(&self) -> &'static str {
        "EQL-CAP"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let attainable = view.attainable_watts().get();
        let fraction = if attainable > 0.0 {
            (target.get() / attainable).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let reductions: Vec<f64> = view.deltas().iter().map(|d| fraction * d).collect();
        Ok(Clearing::build(
            view,
            target,
            Price::ZERO,
            reductions,
            None,
            None,
            Diagnostics::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{MarketInstance, ParticipantSpec};
    use proptest::prelude::*;

    /// Rows of `(cores, Δ_m)` at 125 W per core.
    fn sized(rows: &[(f64, f64)]) -> MarketInstance {
        rows.iter()
            .zip(0..)
            .map(|(&(cores, delta), id)| {
                ParticipantSpec::new(id, delta, Watts::new(125.0)).with_cores(cores)
            })
            .collect()
    }

    fn instance() -> MarketInstance {
        vec![
            ParticipantSpec::new(0, 7.0, Watts::new(125.0)).with_cores(10.0),
            ParticipantSpec::new(1, 21.0, Watts::new(125.0)).with_cores(30.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn uniform_fraction_over_cores() {
        let mut mech = EqlMechanism;
        let c = mech.clear(&instance(), Watts::new(1000.0)).unwrap();
        // fraction = 1000 / (40 * 125) = 0.2
        assert!((c.reductions()[0] - 2.0).abs() < 1e-9);
        assert!((c.reductions()[1] - 6.0).abs() < 1e-9);
        assert!(c.met_target());
        assert_eq!(c.diagnostics().violations, 0);
        assert_eq!(c.total_payment_rate().get(), 0.0);
    }

    #[test]
    fn violations_are_counted() {
        let mut mech = EqlMechanism;
        // fraction = 4000/5000 = 0.8 -> reductions 8 > 7 and 24 > 21.
        let c = mech.clear(&instance(), Watts::new(4000.0)).unwrap();
        assert_eq!(c.diagnostics().violations, 2);
        assert!(!c.diagnostics().accepted);
    }

    #[test]
    fn infeasible_target_caps_every_core() {
        let mut mech = EqlMechanism;
        let c = mech.clear(&instance(), Watts::new(1e6)).unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert!((c.reductions()[0] - 10.0).abs() < 1e-12);
        assert!((c.reductions()[1] - 30.0).abs() < 1e-12);
        assert!(!c.met_target());
        assert!(c.residual().get() > 0.0);
    }

    #[test]
    fn capping_meets_any_attainable_target_exactly() {
        let mut mech = EqlCappingMechanism;
        // attainable = (7 + 21) * 125 = 3500 W
        let c = mech.clear(&instance(), Watts::new(1750.0)).unwrap();
        assert!(c.met_target());
        assert!((c.total_power_reduction().get() - 1750.0).abs() < 1e-9);
        assert_eq!(c.price(), Price::ZERO);
        // Uniform fraction of delta_max, not cores.
        assert!((c.reductions()[0] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_instances_error() {
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            EqlMechanism.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        assert!(matches!(
            EqlCappingMechanism.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        let nan: MarketInstance = (0..2)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)).with_bid(f64::NAN))
            .collect();
        assert!(matches!(
            EqlMechanism.clear(&nan, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    #[test]
    fn uniform_fraction_reaches_target() {
        let c = EqlMechanism
            .clear(&sized(&[(10.0, 7.0), (30.0, 21.0)]), Watts::new(1000.0))
            .unwrap();
        // f = 1000 / (40 * 125) = 0.2
        assert!((c.reductions()[0] - 2.0).abs() < 1e-12);
        assert!((c.reductions()[1] - 6.0).abs() < 1e-12);
        assert!((c.total_power_reduction().get() - 1000.0).abs() < 1e-9);
        assert!(c.diagnostics().accepted);
    }

    #[test]
    fn violations_reported_for_sensitive_jobs() {
        // Job 1 tolerates only 10 % reduction; a 40 % uniform cut violates it.
        let c = EqlMechanism
            .clear(&sized(&[(10.0, 9.0), (10.0, 1.0)]), Watts::new(1000.0))
            .unwrap();
        assert!((c.reductions()[1] - 4.0).abs() < 1e-12);
        assert_eq!(c.diagnostics().violations, 1);
        assert!(!c.diagnostics().accepted);
    }

    #[test]
    fn zero_target_no_reduction() {
        let c = EqlMechanism
            .clear(&sized(&[(4.0, 2.0)]), Watts::ZERO)
            .unwrap();
        assert_eq!(c.reductions(), &[0.0]);
        assert!(c.diagnostics().accepted);
    }

    #[test]
    fn empty_errs_and_overlarge_targets_cap() {
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            EqlMechanism.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        let c = EqlMechanism
            .clear(&sized(&[(1.0, 0.7)]), Watts::new(1e6))
            .unwrap();
        assert!(c.diagnostics().capped_at_delta_max);
        assert_eq!(c.reductions(), &[1.0]);
    }

    proptest! {
        /// The fraction is within [0, 1], identical for all jobs, and the
        /// power target is met exactly.
        #[test]
        fn fraction_uniform_and_exact(
            sizes in proptest::collection::vec(1.0f64..64.0, 1..20),
            frac in 0.05f64..0.95,
        ) {
            let rows: Vec<(f64, f64)> = sizes.iter().map(|&c| (c, 0.7 * c)).collect();
            let capacity: f64 = sizes.iter().map(|c| c * 125.0).sum();
            let target = frac * capacity;
            let c = EqlMechanism.clear(&sized(&rows), Watts::new(target)).unwrap();
            let fraction = c.reductions()[0] / sizes[0];
            prop_assert!((0.0..=1.0).contains(&fraction));
            for (d, cores) in c.reductions().iter().zip(&sizes) {
                prop_assert!((d / cores - fraction).abs() < 1e-9);
            }
            let delivered = c.total_power_reduction().get();
            prop_assert!((delivered - target).abs() < 1e-6 * target.max(1.0));
        }
    }
}
