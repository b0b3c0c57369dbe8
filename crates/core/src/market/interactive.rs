//! The user side of MPR-INT (Section III-B): bidding agents that answer
//! price announcements, the exchange's tuning knobs, and its oscillation
//! detector. The exchange itself runs in
//! [`InteractiveMechanism`](crate::mechanism::InteractiveMechanism) and its
//! fault-tolerant variants.

use crate::bidding;
use crate::cost::CostModel;
use crate::error::MarketError;
use crate::mechanism::JobId;
use crate::units::{Price, Watts};

/// A user-side software agent that answers price announcements with bids.
///
/// The paper notes such agents are "relatively straightforward as they
/// require lightweight computation to find the optimum bid" — see
/// [`NetGainAgent`] for the rational implementation. The trait is public so
/// simulations can inject non-rational or faulty agents.
pub trait BiddingAgent: Send {
    /// The job this agent bids for.
    fn job_id(&self) -> JobId;

    /// Power reduction per unit of resource reduction, in watts.
    fn watts_per_unit(&self) -> f64;

    /// The job's maximum resource reduction `Δ`.
    fn delta_max(&self) -> f64;

    /// Responds to an announced price with a bidding parameter `b`.
    ///
    /// # Errors
    ///
    /// Implementations may fail on invalid prices or internal numeric
    /// problems; the market aborts the round and propagates the error.
    fn respond(&mut self, price: f64) -> Result<f64, MarketError>;
}

impl<T: BiddingAgent + ?Sized> BiddingAgent for Box<T> {
    fn job_id(&self) -> JobId {
        (**self).job_id()
    }
    fn watts_per_unit(&self) -> f64 {
        (**self).watts_per_unit()
    }
    fn delta_max(&self) -> f64 {
        (**self).delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        (**self).respond(price)
    }
}

/// The rational agent: best-responds by maximizing the net gain
/// `G = q·δ(q) − C(δ(q))` of Eqn. (7) at every announced price.
#[derive(Debug, Clone)]
pub struct NetGainAgent<C> {
    id: JobId,
    cost: C,
    watts_per_unit: f64,
}

impl<C: CostModel> NetGainAgent<C> {
    /// Creates a rational agent for job `id` with the user's private cost
    /// model.
    #[must_use]
    pub fn new(id: JobId, cost: C, watts_per_unit: Watts) -> Self {
        Self {
            id,
            cost,
            watts_per_unit: watts_per_unit.get(),
        }
    }

    /// The agent's private cost model.
    #[must_use]
    pub fn cost(&self) -> &C {
        &self.cost
    }
}

impl<C: CostModel + Send> BiddingAgent for NetGainAgent<C> {
    fn job_id(&self) -> JobId {
        self.id
    }
    fn watts_per_unit(&self) -> f64 {
        self.watts_per_unit
    }
    fn delta_max(&self) -> f64 {
        self.cost.delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        Ok(bidding::best_response(&self.cost, Price::new(price))?.bid)
    }
}

/// Tuning knobs for the interactive market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractiveConfig {
    /// Price announced in the first round, `q'_0`.
    pub initial_price: f64,
    /// Convergence threshold: relative change in clearing price between
    /// consecutive rounds below which the market is considered cleared.
    pub tolerance: f64,
    /// Hard cap on rounds; the manager takes the last price as clearing
    /// price when hit (the paper's fixed-timeout safeguard).
    pub max_iterations: usize,
    /// Damping `γ ∈ (0, 1]` applied to price updates:
    /// `q_{k+1} = (1−γ)·q_k + γ·q_solved`. `1.0` is the undamped exchange;
    /// smaller values stabilize bang-bang best responses under non-convex
    /// cost models.
    pub damping: f64,
    /// Trailing window (in price deltas) inspected by [`is_oscillating`]
    /// when the round cap fires: the cap-time price is only trusted if the
    /// last `oscillation_window` deltas do **not** form a sign-alternating
    /// above-tolerance oscillation.
    pub oscillation_window: usize,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        Self {
            initial_price: 0.5,
            tolerance: 1e-6,
            max_iterations: 100,
            damping: 1.0,
            oscillation_window: 6,
        }
    }
}

/// Whether the tail of a price trace is *oscillating* rather than settling:
/// over the last `window` consecutive deltas, every relative change exceeds
/// `rel_tolerance` **and** the deltas strictly alternate in sign.
///
/// This distinguishes a limit cycle (e.g. bang-bang best responses flipping
/// between two prices) from slow monotone convergence: a manager hitting its
/// round cap may honestly take the last announced price in the second case,
/// but in the first case that price is an arbitrary point of the cycle and
/// the clearing should be rejected instead. Returns `false` whenever the
/// trace is shorter than `window + 1` points or `window < 2`.
#[must_use]
pub fn is_oscillating(trace: &[f64], rel_tolerance: f64, window: usize) -> bool {
    if window < 2 || trace.len() < window + 1 {
        return false;
    }
    let tail = trace.split_at(trace.len() - (window + 1)).1;
    let mut prev_delta: Option<f64> = None;
    for pair in tail.windows(2) {
        let (Some(a), Some(b)) = (pair.first(), pair.get(1)) else {
            return false;
        };
        let delta = b - a;
        let rel = delta.abs() / a.abs().max(1e-9);
        if !rel.is_finite() || rel <= rel_tolerance.max(0.0) {
            return false;
        }
        if let Some(p) = prev_delta {
            if p * delta >= 0.0 {
                return false;
            }
        }
        prev_delta = Some(delta);
    }
    true
}

#[cfg(test)]
mod tests {
    //! The synchronous exchange driven through
    //! [`InteractiveMechanism`](crate::mechanism::InteractiveMechanism),
    //! whose rational agents are this module's [`NetGainAgent`]s.

    use std::sync::Arc;

    use super::*;
    use crate::cost::{PowerLawCost, QuadraticCost};
    use crate::mechanism::{
        Clearing, InteractiveMechanism, MarketInstance, Mechanism, MechanismError, OptMechanism,
        OptMethod, ParticipantSpec, ResilientInteractiveMechanism,
    };

    fn instance_of(costs: Vec<Arc<dyn CostModel>>) -> MarketInstance {
        costs
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                ParticipantSpec::new(i as u64, c.delta_max(), Watts::new(125.0)).with_cost(c)
            })
            .collect()
    }

    fn quad_instance(alphas: &[f64]) -> MarketInstance {
        instance_of(
            alphas
                .iter()
                .map(|&a| Arc::new(QuadraticCost::new(a, 1.0)) as Arc<dyn CostModel>)
                .collect(),
        )
    }

    fn clear(
        instance: &MarketInstance,
        config: InteractiveConfig,
        target: f64,
    ) -> Result<Clearing, MechanismError> {
        InteractiveMechanism::strict(config).clear(instance, Watts::new(target))
    }

    #[test]
    fn converges_on_quadratic_costs() {
        let c = clear(
            &quad_instance(&[1.0, 2.0, 4.0]),
            InteractiveConfig::default(),
            150.0,
        )
        .unwrap();
        assert!(
            c.diagnostics().converged,
            "price trace: {:?}",
            c.diagnostics().price_trace
        );
        assert!(c.met_target());
        // More sensitive (higher α) jobs reduce less.
        let r = c.reductions();
        assert!(r[0] > r[1]);
        assert!(r[1] > r[2]);
    }

    #[test]
    fn equilibrium_matches_opt_for_convex_costs() {
        // At the Nash equilibrium the interactive market's total cost
        // should be close to OPT's (the paper's headline property).
        let costs: Vec<QuadraticCost> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&a| QuadraticCost::new(a, 1.0))
            .collect();
        let c = clear(
            &quad_instance(&[1.0, 2.0, 4.0, 8.0]),
            InteractiveConfig::default(),
            250.0,
        )
        .unwrap();

        let optimal = OptMechanism::strict(OptMethod::Auto)
            .clear(&quad_instance(&[1.0, 2.0, 4.0, 8.0]), Watts::new(250.0))
            .unwrap();
        let cost_of = |c: &Clearing| -> f64 {
            c.reductions()
                .iter()
                .zip(&costs)
                .map(|(r, cost)| cost.cost(*r))
                .sum()
        };
        let (int_cost, opt_cost) = (cost_of(&c), cost_of(&optimal));
        assert!(
            int_cost <= opt_cost * 1.10 + 1e-9,
            "interactive {int_cost} vs OPT {opt_cost}"
        );
    }

    #[test]
    fn zero_target_clears_immediately() {
        let c = clear(&quad_instance(&[1.0]), InteractiveConfig::default(), 0.0).unwrap();
        assert!(c.diagnostics().converged);
        assert_eq!(c.iterations(), 0);
        assert_eq!(c.price(), Price::ZERO);
    }

    #[test]
    fn empty_market_errs() {
        let empty = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            clear(&empty, InteractiveConfig::default(), 10.0),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        // Rows without a cost curve cannot bid.
        let costless: MarketInstance = (0..2)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)))
            .collect();
        assert_eq!(
            clear(&costless, InteractiveConfig::default(), 10.0).unwrap_err(),
            MechanismError::Market(MarketError::NoParticipants)
        );
    }

    #[test]
    fn infeasible_target_errs() {
        // One job, Δ = 1, 125 W/unit → attainable 125 W.
        let err = clear(&quad_instance(&[1.0]), InteractiveConfig::default(), 1000.0).unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Market(MarketError::Infeasible { .. })
        ));
    }

    #[test]
    fn iteration_cap_returns_last_price() {
        let config = InteractiveConfig {
            max_iterations: 2,
            tolerance: 0.0, // never converges by tolerance
            ..InteractiveConfig::default()
        };
        let c = clear(&quad_instance(&[1.0, 3.0]), config, 100.0).unwrap();
        assert!(!c.diagnostics().converged);
        assert_eq!(c.iterations(), 2);
        assert!(c.price() > Price::ZERO);
    }

    #[test]
    fn oscillation_detector_flags_alternating_tails_only() {
        // A settled 2-cycle: deltas alternate sign and stay large.
        let cycle = [0.5, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0];
        assert!(is_oscillating(&cycle, 1e-6, 6));
        // Monotone stall: above tolerance but never alternating — the
        // cap-time price is still trustworthy.
        let stall = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        assert!(!is_oscillating(&stall, 1e-6, 6));
        // Damped ringing that fell below tolerance is convergence, not
        // oscillation.
        let ringing = [
            2.0, 1.0, 1.5, 1.25, 1.250_01, 1.249_99, 1.250_001, 1.249_999,
        ];
        assert!(!is_oscillating(&ringing, 1e-3, 6));
        // Too short a trace, or a degenerate window, never triggers.
        assert!(!is_oscillating(&[1.0, 2.0, 1.0], 1e-6, 6));
        assert!(!is_oscillating(&cycle, 1e-6, 1));
        assert!(!is_oscillating(&[], 1e-6, 6));
    }

    #[test]
    fn damping_still_converges() {
        let config = InteractiveConfig {
            damping: 0.5,
            ..InteractiveConfig::default()
        };
        let c = clear(&quad_instance(&[1.0, 2.0, 4.0]), config, 150.0).unwrap();
        assert!(c.diagnostics().converged);
        assert!(c.met_target());
    }

    #[test]
    fn iteration_count_stays_flat_with_more_agents() {
        // Fig. 10(b): iterations barely grow with the number of jobs.
        let mut iters = Vec::new();
        for n in [10usize, 100, 1000] {
            let alphas: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let attainable = 125.0 * n as f64;
            let c = clear(
                &quad_instance(&alphas),
                InteractiveConfig::default(),
                0.3 * attainable,
            )
            .unwrap();
            assert!(c.diagnostics().converged);
            iters.push(c.iterations());
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap();
        assert!(
            max <= min.saturating_mul(3).max(min + 10),
            "iterations grew too fast: {iters:?}"
        );
    }

    /// A cost curve without a usable maximum reduction: every best
    /// response fails, as an agent losing its session would.
    struct UnboundedCost;

    impl CostModel for UnboundedCost {
        fn cost(&self, delta: f64) -> f64 {
            delta
        }
        fn delta_max(&self) -> f64 {
            f64::INFINITY
        }
    }

    #[test]
    fn agent_failure_aborts_the_round_with_an_error() {
        let inst = instance_of(vec![
            Arc::new(QuadraticCost::new(1.0, 1.0)),
            Arc::new(QuadraticCost::new(2.0, 1.0)),
            Arc::new(UnboundedCost),
        ]);
        assert!(matches!(
            clear(&inst, InteractiveConfig::default(), 200.0),
            Err(MechanismError::Market(MarketError::InvalidParameter {
                name: "delta_max",
                ..
            }))
        ));
    }

    /// A hostile agent that bids NaN every round.
    struct GarbageAgent;

    impl BiddingAgent for GarbageAgent {
        fn job_id(&self) -> u64 {
            7
        }
        fn watts_per_unit(&self) -> f64 {
            125.0
        }
        fn delta_max(&self) -> f64 {
            1.0
        }
        fn respond(&mut self, _price: f64) -> Result<f64, MarketError> {
            Ok(f64::NAN)
        }
    }

    /// Agents only answer arbitrary bids through the fault-tolerant
    /// exchange: a non-finite bid quarantines its agent instead of
    /// entering the clearing as a zero bid.
    #[test]
    fn non_finite_bids_are_rejected_not_propagated() {
        let mut exchange = ResilientInteractiveMechanism::new(crate::ResilientConfig::default());
        exchange.register(
            Box::new(NetGainAgent::new(
                0,
                QuadraticCost::new(1.0, 1.0),
                Watts::new(125.0),
            )),
            None,
        );
        exchange.register(Box::new(GarbageAgent), None);
        let inst = exchange.instance();
        let c = exchange.clear(&inst, Watts::new(100.0)).unwrap();
        let q = &c.diagnostics().quarantined;
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].id, 7);
        assert!(matches!(
            q[0].error,
            MarketError::InvalidParameter { name: "bid", .. }
        ));
        assert!(c.reductions().iter().all(|r| r.is_finite()));
        assert_eq!(c.reductions()[1], 0.0);
    }

    #[test]
    fn power_law_costs_converge() {
        let inst = instance_of(
            (0..5)
                .map(|i| {
                    Arc::new(PowerLawCost::new(1.0 + f64::from(i), 2.2, 0.7)) as Arc<dyn CostModel>
                })
                .collect(),
        );
        assert!(clear(&inst, InteractiveConfig::default(), 200.0)
            .unwrap()
            .met_target());
    }
}
