//! MPR-STAT / MClr on the unified [`Mechanism`] interface.

use crate::error::MarketError;
use crate::mclr::{self, BidColumns};
use crate::mechanism::{Clearing, Diagnostics, InstanceView, Mechanism, MechanismError};
use crate::units::Watts;

/// The static market (Section III-B): one MClr solve over the instance's
/// standing bids.
///
/// Rows without a finite bid, or whose `Δ_m` is not finite and
/// non-negative, sit the clearing out (their reduction is 0); a negative
/// bid counts as 0.
///
/// * **strict** — propagates [`crate::MarketError::Infeasible`] /
///   [`crate::MarketError::NoParticipants`], for callers that must know the
///   target was unreachable (the CLI, experiments that measure
///   feasibility).
/// * **best-effort** — on an infeasible target clears at the bounded price
///   ceiling instead, extracting almost all of `Σ Δ_m` (the simulator's
///   behaviour: the manager force-caps the remainder).
#[derive(Debug, Clone, Default)]
pub struct MclrMechanism {
    strict: bool,
}

impl MclrMechanism {
    /// Strict variant: infeasible targets are errors.
    #[must_use]
    pub fn strict() -> Self {
        Self { strict: true }
    }

    /// Best-effort variant: infeasible targets clear at the price ceiling.
    #[must_use]
    pub fn best_effort() -> Self {
        Self { strict: false }
    }
}

impl Mechanism for MclrMechanism {
    fn name(&self) -> &'static str {
        "MPR-STAT"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        view.ensure_clearable()?;
        let market = BidColumns::new(view.deltas(), view.bids(), view.watts_per_unit_slice());
        if market.is_empty() {
            return Err(MechanismError::Market(MarketError::NoParticipants));
        }
        let price = if self.strict {
            mclr::solve(market, target)?
        } else {
            mclr::clear_best_effort(market, target)
        };
        let diagnostics = Diagnostics {
            accepted: true,
            ..Diagnostics::default()
        };
        Ok(Clearing::build(
            view,
            target,
            price,
            market.reductions(price),
            None,
            None,
            diagnostics,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{MarketInstance, ParticipantSpec};

    fn instance(bids: &[f64]) -> MarketInstance {
        bids.iter()
            .enumerate()
            .map(|(i, &b)| ParticipantSpec::new(i as u64, 1.0, Watts::new(125.0)).with_bid(b))
            .collect()
    }

    #[test]
    fn matches_static_market_clearing() {
        let inst = instance(&[0.2, 0.5, 0.1]);
        let mut mech = MclrMechanism::strict();
        let c = mech.clear(&inst, Watts::new(200.0)).unwrap();

        let market = BidColumns::new(inst.deltas(), inst.bids(), inst.watts_per_unit_slice());
        let price = mclr::solve(market, Watts::new(200.0)).unwrap();
        assert_eq!(c.price(), price);
        for ((mine, delta), bid) in c.reductions().iter().zip(inst.deltas()).zip(inst.bids()) {
            assert_eq!(*mine, (delta - bid / price.get()).max(0.0));
        }
        assert!(c.met_target());
        assert_eq!(c.residual(), Watts::ZERO);
        assert_eq!(c.iterations(), 1);
    }

    #[test]
    fn lower_bids_reduce_more() {
        let c = MclrMechanism::strict()
            .clear(&instance(&[0.1, 0.4]), Watts::new(100.0))
            .unwrap();
        assert!(c.reductions()[0] > c.reductions()[1]);
    }

    #[test]
    fn zero_target_is_free() {
        let c = MclrMechanism::strict()
            .clear(&instance(&[0.2]), Watts::ZERO)
            .unwrap();
        assert_eq!(c.price(), crate::units::Price::ZERO);
        assert_eq!(c.total_reduction(), 0.0);
        assert!(c.met_target());
    }

    #[test]
    fn strict_propagates_infeasible() {
        let inst = instance(&[0.2]);
        let mut mech = MclrMechanism::strict();
        let err = mech.clear(&inst, Watts::new(1e6)).unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Market(crate::MarketError::Infeasible { .. })
        ));
    }

    #[test]
    fn best_effort_caps_at_price_ceiling() {
        let inst = instance(&[0.2]);
        let mut mech = MclrMechanism::best_effort();
        let c = mech.clear(&inst, Watts::new(1e6)).unwrap();
        assert!(!c.met_target());
        assert!(c.residual().get() > 0.0);
        assert!(c.total_power_reduction().get() >= 125.0 * (1.0 - 2e-3));
        assert!(c.price().get() <= 1000.0 * 0.2 + 1e-9);
    }

    #[test]
    fn empty_and_all_nan_instances_are_degenerate() {
        let mut mech = MclrMechanism::best_effort();
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            mech.clear(&empty, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        let nan = instance(&[f64::NAN, f64::NAN]);
        assert!(matches!(
            mech.clear(&nan, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    #[test]
    fn nan_bid_rows_sit_out_of_a_mixed_clearing() {
        let inst = instance(&[f64::NAN, 0.2]);
        let mut mech = MclrMechanism::strict();
        let c = mech.clear(&inst, Watts::new(100.0)).unwrap();
        assert_eq!(c.reductions()[0], 0.0);
        assert!(c.reductions()[1] > 0.0);
        assert!(c.met_target());
    }

    proptest::proptest! {
        /// Every reduction respects its row's Δ and the payment is the
        /// price times the reduction.
        #[test]
        fn reductions_respect_delta_max(
            jobs in proptest::collection::vec((0.1f64..3.0, 0.0f64..1.0), 1..30),
            frac in 0.1f64..0.9,
        ) {
            let inst: MarketInstance = jobs
                .iter()
                .enumerate()
                .map(|(i, (d, b))| ParticipantSpec::new(i as u64, *d, Watts::new(125.0)).with_bid(*b))
                .collect();
            let c = MclrMechanism::strict()
                .clear(&inst, inst.attainable_watts() * frac)
                .unwrap();
            for (i, (r, d)) in c.reductions().iter().zip(inst.deltas()).enumerate() {
                proptest::prop_assert!(*r >= 0.0);
                proptest::prop_assert!(*r <= d + 1e-9);
                proptest::prop_assert!((c.payment(i).get() - c.price().get() * r).abs() < 1e-9);
            }
        }
    }
}
