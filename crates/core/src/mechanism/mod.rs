//! The unified mechanism abstraction (DESIGN.md §11).
//!
//! The paper compares several clearing schemes on the *same* overload
//! instance — MClr/MPR-STAT (Section III-B), the iterative MPR-INT game,
//! and the OPT/EQL/VCG baselines (Sections III-C/D, Fig. 4/10, Table 1).
//! This module gives them one interface:
//!
//! * [`MarketInstance`] — a struct-of-arrays snapshot of the overload
//!   (contiguous `Δ_m`, `b_m`, watts-per-unit, cores, cost curves), built
//!   once per overload and shared by every solver.
//! * [`InstanceView`] — a borrowed, index-mapped window over those columns:
//!   the full instance, a row subset ([`MarketInstance::select`]), or one
//!   group of a [`MarketInstance::partition_by`] split. Solvers clear
//!   views; per-view clearings fold back into parent row order with
//!   [`Clearing::merge`].
//! * [`Mechanism`] — `prepare`/`clear_view` over an `InstanceView` (with
//!   `clear` sugar for the full instance), returning a uniform
//!   [`Clearing`] (price, per-participant reductions and payments,
//!   residual shortfall, diagnostics) or a typed [`MechanismError`].
//! * The implementations: [`MclrMechanism`] (MPR-STAT),
//!   [`InteractiveMechanism`] (MPR-INT), [`OptMechanism`], [`EqlMechanism`],
//!   [`VcgMechanism`], [`TransportedInteractiveMechanism`] (MPR-INT over an
//!   asynchronous deadline-bounded [`Transport`](crate::market::transport::Transport)),
//!   and [`FallbackChain`] — the generic degradation chain, e.g.
//!   [`ResilientInteractiveMechanism`] → MPR-STAT → [`EqlCappingMechanism`]
//!   ([`FallbackChain::degradation`]).
//!
//! The simulator, CLI, benches, and experiment binaries drive clearing
//! exclusively through this API (`mpr-lint` rule L5 enforces the layering).

mod auction;
mod chain;
mod equal;
mod instance;
mod interactive;
mod optimal;
mod resilient;
mod stat;
mod transported;
mod view;

pub use auction::VcgMechanism;
pub use chain::FallbackChain;
pub use equal::{EqlCappingMechanism, EqlMechanism};
pub use instance::{MarketInstance, ParticipantSpec};
pub use interactive::InteractiveMechanism;
pub use optimal::OptMechanism;
pub use resilient::ResilientInteractiveMechanism;
pub use stat::MclrMechanism;
pub use transported::TransportedInteractiveMechanism;
pub use view::{GroupId, InstanceView};

use crate::error::MarketError;
use crate::market::faults::{ChainLevel, Quarantine};
use crate::market::transport::TransportDiagnostics;
use crate::participant::JobId;
use crate::units::{CoreHours, Price, Watts};

/// Errors shared by every mechanism.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MechanismError {
    /// The instance cannot be cleared by *any* mechanism: it is empty, or
    /// bids were supplied but all of them are non-finite. Callers should
    /// treat this as "nothing to do / reject the input", never as a
    /// zero-reduction success.
    DegenerateInstance {
        /// The degeneracy that was detected.
        reason: &'static str,
    },
    /// An iterative exchange hit its round cap with the price trajectory
    /// *oscillating* (sign-alternating deltas above tolerance) instead of
    /// settling. Taking the last announced price would ship a bogus
    /// clearing; callers should degrade to a static mechanism instead.
    NonConvergent {
        /// Rounds executed before the cap.
        rounds: usize,
        /// The last announced price, for diagnostics only.
        last_price: f64,
    },
    /// A market-level failure from the underlying solver (infeasible
    /// target, agent fault, numeric breakdown, ...).
    Market(MarketError),
}

impl From<MarketError> for MechanismError {
    fn from(e: MarketError) -> Self {
        MechanismError::Market(e)
    }
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::DegenerateInstance { reason } => {
                write!(f, "degenerate market instance: {reason}")
            }
            MechanismError::NonConvergent { rounds, last_price } => write!(
                f,
                "price oscillating after {rounds} rounds (last announced {last_price}); \
                 refusing to clear at an arbitrary point of the oscillation"
            ),
            MechanismError::Market(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Market(e) => Some(e),
            MechanismError::DegenerateInstance { .. } | MechanismError::NonConvergent { .. } => {
                None
            }
        }
    }
}

/// Iteration and degradation counters attached to every [`Clearing`].
///
/// Single-shot mechanisms (MPR-STAT, OPT, EQL, VCG) leave most fields at
/// their defaults; the interactive game and the fallback chain fill them in.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Market rounds executed (1 for single-shot mechanisms).
    pub iterations: usize,
    /// Whether an iterative price exchange converged within tolerance.
    pub converged: bool,
    /// Whether the convergence watchdog declared the price trajectory
    /// divergent.
    pub diverged: bool,
    /// Agent response retries consumed (resilient mechanisms only).
    pub retries: usize,
    /// Participants quarantined for defaulting mid-negotiation.
    pub quarantined: Vec<Quarantine>,
    /// Price trajectory over the rounds (iterative mechanisms only).
    pub price_trace: Vec<f64>,
    /// Participants pushed past their feasible `Δ_m` (EQL only).
    pub violations: usize,
    /// The mechanism could not meet the target and fell back to capping
    /// every participant at its maximum reduction.
    pub capped_at_delta_max: bool,
    /// Whether the mechanism itself considers this clearing good. A
    /// [`FallbackChain`] only stops at a stage whose clearing is accepted
    /// *and* meets the target.
    pub accepted: bool,
    /// Which degradation level produced the clearing (chains only).
    pub chain_level: Option<ChainLevel>,
    /// How many chain stages ran before one was accepted (1 outside
    /// chains).
    pub levels_tried: usize,
    /// Per-row effective bids observed during the clearing (last-known or
    /// registered-fallback). A chain patches these into the instance before
    /// trying its next stage.
    pub observed_bids: Option<Vec<f64>>,
    /// Message-layer counters when the clearing ran over an asynchronous
    /// [`Transport`](crate::market::transport::Transport).
    pub transport: Option<TransportDiagnostics>,
}

impl Default for Diagnostics {
    fn default() -> Self {
        Self {
            iterations: 1,
            converged: true,
            diverged: false,
            retries: 0,
            quarantined: Vec::new(),
            price_trace: Vec::new(),
            violations: 0,
            capped_at_delta_max: false,
            accepted: true,
            chain_level: None,
            levels_tried: 1,
            observed_bids: None,
            transport: None,
        }
    }
}

impl Diagnostics {
    /// Folds two per-view diagnostics into one merged account (used by
    /// [`Clearing::merge`]): counters add, convergence flags conjoin,
    /// degradation flags disjoin, quarantines concatenate in fold order,
    /// and the chain level keeps the deepest degradation seen. Per-view
    /// price traces, observed bids, and transport counters do not compose
    /// across disjoint row windows and are dropped.
    #[must_use]
    pub fn fold(mut acc: Self, other: &Self) -> Self {
        acc.iterations += other.iterations;
        acc.converged &= other.converged;
        acc.diverged |= other.diverged;
        acc.retries += other.retries;
        acc.quarantined.extend(other.quarantined.iter().cloned());
        acc.price_trace = Vec::new();
        acc.violations += other.violations;
        acc.capped_at_delta_max |= other.capped_at_delta_max;
        acc.accepted &= other.accepted;
        acc.chain_level = match (acc.chain_level, other.chain_level) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        acc.levels_tried = acc.levels_tried.max(other.levels_tried);
        acc.observed_bids = None;
        acc.transport = None;
        acc
    }
}

/// The uniform result of clearing a [`MarketInstance`].
///
/// Per-participant data is dense and positional: index `i` in every slice
/// refers to row `i` of the instance the clearing was produced from.
#[derive(Debug, Clone, PartialEq)]
pub struct Clearing {
    price: Price,
    target: Watts,
    ids: Vec<JobId>,
    reductions: Vec<f64>,
    power_w: Vec<f64>,
    prices: Vec<f64>,
    payments: Vec<f64>,
    residual: Watts,
    diagnostics: Diagnostics,
}

impl Clearing {
    /// Assembles a clearing for the rows of `view`.
    ///
    /// `reductions` is positional (row `i` of the view); shorter vectors
    /// are zero-padded, longer ones truncated. `prices` defaults to the
    /// uniform clearing `price`; `payments` (core-hours per hour) defaults
    /// to `price_i · reduction_i`.
    #[must_use]
    pub fn build(
        view: &InstanceView<'_>,
        target: Watts,
        price: Price,
        reductions: Vec<f64>,
        prices: Option<Vec<f64>>,
        payments: Option<Vec<f64>>,
        diagnostics: Diagnostics,
    ) -> Self {
        let n = view.len();
        let mut reductions = reductions;
        reductions.resize(n, 0.0);
        reductions.truncate(n);
        let power_w: Vec<f64> = reductions
            .iter()
            .zip(view.watts_per_unit_slice())
            .map(|(r, w)| r * w)
            .collect();
        let mut prices = prices.unwrap_or_else(|| vec![price.get(); n]);
        prices.resize(n, price.get());
        prices.truncate(n);
        let mut payments = payments
            .unwrap_or_else(|| prices.iter().zip(&reductions).map(|(p, r)| p * r).collect());
        payments.resize(n, 0.0);
        payments.truncate(n);
        let delivered: f64 = power_w.iter().sum();
        // Met and residual are mutually exclusive by construction: within
        // tolerance the residual is exactly zero, otherwise it is the
        // strictly positive shortfall.
        let residual = if delivered >= target.get() * (1.0 - 1e-6) {
            Watts::ZERO
        } else {
            Watts::new(target.get() - delivered)
        };
        Self {
            price,
            target,
            ids: view.ids().to_vec(),
            reductions,
            power_w,
            prices,
            payments,
            residual,
            diagnostics,
        }
    }

    /// Folds per-view clearings back into the parent instance's row order:
    /// the deterministic merge step of a
    /// [`MarketInstance::partition_by`] round.
    ///
    /// Reductions and payments scatter-add through each view's row map
    /// (partitions are disjoint, so adds are plain writes there);
    /// per-participant prices scatter with last-writer-wins in part order.
    /// The headline price is the maximum part price — the binding subtree
    /// market. Diagnostics fold part-by-part in the given (deterministic)
    /// order. A single full-cover part whose target matches is returned
    /// verbatim, making the identity partition's merge bit-identical to
    /// the flat clearing, diagnostics included.
    #[must_use]
    pub fn merge(
        instance: &MarketInstance,
        target: Watts,
        parts: &[(InstanceView<'_>, Clearing)],
    ) -> Self {
        if let [(view, clearing)] = parts {
            if view.is_full() && clearing.target_watts() == target {
                return clearing.clone();
            }
        }
        let n = instance.len();
        let mut reductions = vec![0.0; n];
        let mut prices = vec![0.0; n];
        let mut payments = vec![0.0; n];
        let mut folded: Option<Diagnostics> = None;
        let mut price = Price::ZERO;
        for (view, clearing) in parts {
            for (j, ((r, q), pay)) in clearing
                .reductions()
                .iter()
                .zip(clearing.participant_prices())
                .zip(clearing.payment_rates())
                .enumerate()
            {
                let row = view.parent_row(j);
                let (Some(rs), Some(qs), Some(ps)) = (
                    reductions.get_mut(row),
                    prices.get_mut(row),
                    payments.get_mut(row),
                ) else {
                    continue;
                };
                *rs += r;
                *qs = *q;
                *ps += pay;
            }
            if clearing.price() > price {
                price = clearing.price();
            }
            let d = clearing.diagnostics();
            folded = Some(match folded {
                None => d.clone(),
                Some(acc) => Diagnostics::fold(acc, d),
            });
        }
        let diagnostics = folded.unwrap_or_default();
        Clearing::build(
            &instance.view(),
            target,
            price,
            reductions,
            Some(prices),
            Some(payments),
            diagnostics,
        )
    }

    /// The headline clearing price `q'` in core-hours per watt (zero for
    /// mechanisms that do not price uniformly, e.g. VCG and forced
    /// capping).
    #[must_use]
    pub fn price(&self) -> Price {
        self.price
    }

    /// The power-reduction target this clearing was solved for.
    #[must_use]
    pub fn target_watts(&self) -> Watts {
        self.target
    }

    /// Number of participants (instance rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the clearing covers no participants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Job ids, in instance-row order.
    #[must_use]
    pub fn ids(&self) -> &[JobId] {
        &self.ids
    }

    /// Per-row resource reductions `δ_m` in cores.
    #[must_use]
    pub fn reductions(&self) -> &[f64] {
        &self.reductions
    }

    /// Per-row power reductions in watts.
    #[must_use]
    pub fn power_reductions_w(&self) -> &[f64] {
        &self.power_w
    }

    /// Per-row unit prices in core-hours per watt (uniform for
    /// price-clearing mechanisms, per-participant for VCG).
    #[must_use]
    pub fn participant_prices(&self) -> &[f64] {
        &self.prices
    }

    /// Per-row payment rates in core-hours per hour of capping.
    #[must_use]
    pub fn payment_rates(&self) -> &[f64] {
        &self.payments
    }

    /// Power reduction of row `i`.
    #[must_use]
    pub fn power_reduction(&self, i: usize) -> Watts {
        Watts::new(self.power_w.get(i).copied().unwrap_or(0.0))
    }

    /// Payment rate of row `i`, in core-hours per hour of capping.
    #[must_use]
    pub fn payment(&self, i: usize) -> CoreHours {
        CoreHours::new(self.payments.get(i).copied().unwrap_or(0.0))
    }

    /// Total resource reduction across all rows, in cores.
    #[must_use]
    pub fn total_reduction(&self) -> f64 {
        self.reductions.iter().sum()
    }

    /// Total power reduction across all rows.
    #[must_use]
    pub fn total_power_reduction(&self) -> Watts {
        Watts::new(self.power_w.iter().sum())
    }

    /// Total payment rate `Σ q'_m · δ_m`, in core-hours per hour.
    #[must_use]
    pub fn total_payment_rate(&self) -> CoreHours {
        CoreHours::new(self.payments.iter().sum())
    }

    /// Unmet portion of the target. Exactly zero when
    /// [`Clearing::met_target`] holds, strictly positive otherwise.
    #[must_use]
    pub fn residual(&self) -> Watts {
        self.residual
    }

    /// Whether the clearing met its target (within numerical tolerance).
    #[must_use]
    pub fn met_target(&self) -> bool {
        self.residual == Watts::ZERO
    }

    /// Iteration/degradation counters.
    #[must_use]
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// Market rounds executed (shorthand for `diagnostics().iterations`).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.diagnostics.iterations
    }

    pub(crate) fn diagnostics_mut(&mut self) -> &mut Diagnostics {
        &mut self.diagnostics
    }
}

/// One clearing scheme over a borrowed [`InstanceView`] window of a
/// shared [`MarketInstance`].
///
/// `clear_view` takes `&mut self` because several mechanisms are stateful:
/// the interactive game owns bidding agents, resilient variants carry
/// quarantine state across clearings, and chains own their stages.
/// Clearing the whole instance is the identity window —
/// [`Mechanism::clear`] is provided sugar for
/// `clear_view(&instance.view(), target)`.
pub trait Mechanism: Send {
    /// Short scheme name for dispatch tables and reports (e.g.
    /// `"MPR-STAT"`).
    fn name(&self) -> &'static str;

    /// Validates and (optionally) pre-processes a view before clearing —
    /// the hook where index structures for batched/parallel clearing
    /// belong.
    ///
    /// # Errors
    ///
    /// [`MechanismError::DegenerateInstance`] when the view is empty or
    /// all bids supplied within it are non-finite.
    fn prepare(&mut self, view: &InstanceView<'_>) -> Result<(), MechanismError> {
        view.ensure_clearable()
    }

    /// Clears the view's rows for a power-reduction target. Every
    /// per-participant slice of the resulting [`Clearing`] is positional
    /// in *view* row order.
    ///
    /// # Errors
    ///
    /// * [`MechanismError::DegenerateInstance`] per [`Mechanism::prepare`].
    /// * [`MechanismError::Market`] for solver-level failures (strict
    ///   mechanisms propagate infeasibility; best-effort variants return a
    ///   capped [`Clearing`] with a positive residual instead).
    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError>;

    /// Clears the whole instance (the identity window).
    ///
    /// # Errors
    ///
    /// As [`Mechanism::clear_view`].
    fn clear(
        &mut self,
        instance: &MarketInstance,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        self.clear_view(&instance.view(), target)
    }
}

impl<M: Mechanism + ?Sized> Mechanism for &mut M {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn prepare(&mut self, view: &InstanceView<'_>) -> Result<(), MechanismError> {
        (**self).prepare(view)
    }
    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        (**self).clear_view(view, target)
    }
    fn clear(
        &mut self,
        instance: &MarketInstance,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        (**self).clear(instance, target)
    }
}

impl<M: Mechanism + ?Sized> Mechanism for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn prepare(&mut self, view: &InstanceView<'_>) -> Result<(), MechanismError> {
        (**self).prepare(view)
    }
    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        (**self).clear_view(view, target)
    }
    fn clear(
        &mut self,
        instance: &MarketInstance,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        (**self).clear(instance, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance() -> MarketInstance {
        (0..2)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)).with_bid(0.2))
            .collect()
    }

    #[test]
    fn residual_and_met_target_are_mutually_exclusive() {
        let inst = small_instance();
        let met = Clearing::build(
            &inst.view(),
            Watts::new(250.0),
            Price::new(0.5),
            vec![1.0, 1.0],
            None,
            None,
            Diagnostics::default(),
        );
        assert!(met.met_target());
        assert_eq!(met.residual(), Watts::ZERO);

        let short = Clearing::build(
            &inst.view(),
            Watts::new(250.0),
            Price::new(0.5),
            vec![0.5, 0.5],
            None,
            None,
            Diagnostics::default(),
        );
        assert!(!short.met_target());
        assert!(short.residual().get() > 0.0);
        assert!((short.residual().get() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn payments_default_to_price_times_reduction() {
        let inst = small_instance();
        let c = Clearing::build(
            &inst.view(),
            Watts::new(100.0),
            Price::new(0.4),
            vec![0.5, 1.0],
            None,
            None,
            Diagnostics::default(),
        );
        assert!((c.payment(0).get() - 0.2).abs() < 1e-12);
        assert!((c.payment(1).get() - 0.4).abs() < 1e-12);
        assert!((c.total_payment_rate().get() - 0.6).abs() < 1e-12);
        assert!((c.power_reduction(1).get() - 125.0).abs() < 1e-12);
        // Out-of-range rows read as zero instead of panicking.
        assert_eq!(c.payment(99), CoreHours::ZERO);
    }

    #[test]
    fn reduction_vectors_are_normalized_to_instance_length() {
        let inst = small_instance();
        let c = Clearing::build(
            &inst.view(),
            Watts::new(10.0),
            Price::new(0.1),
            vec![1.0],
            None,
            None,
            Diagnostics::default(),
        );
        assert_eq!(c.reductions().len(), 2);
        assert_eq!(c.reductions()[1], 0.0);
        assert_eq!(c.ids(), &[0, 1]);
        assert_eq!(c.power_reductions_w().len(), 2);
        assert!((c.power_reductions_w()[0] - 125.0).abs() < 1e-12);
    }

    #[test]
    fn negative_target_is_met_with_zero_residual() {
        let inst = small_instance();
        let c = Clearing::build(
            &inst.view(),
            Watts::new(-5.0),
            Price::ZERO,
            vec![0.0, 0.0],
            None,
            None,
            Diagnostics::default(),
        );
        assert!(c.met_target());
        assert_eq!(c.residual(), Watts::ZERO);
    }

    #[test]
    fn merge_of_the_identity_partition_is_the_flat_clearing_verbatim() {
        let inst = small_instance();
        let target = Watts::new(200.0);
        let mut mech = MclrMechanism::best_effort();
        let flat = mech.clear(&inst, target).unwrap();
        let views = inst.partition_by(&[5, 5]);
        let parts: Vec<(InstanceView<'_>, Clearing)> = views
            .into_iter()
            .map(|v| {
                let c = mech.clear_view(&v, target).unwrap();
                (v, c)
            })
            .collect();
        let merged = Clearing::merge(&inst, target, &parts);
        assert_eq!(merged.reductions(), flat.reductions());
        assert_eq!(merged.participant_prices(), flat.participant_prices());
        assert_eq!(merged.payment_rates(), flat.payment_rates());
        assert_eq!(merged.price(), flat.price());
        assert_eq!(merged.diagnostics(), flat.diagnostics());
    }

    #[test]
    fn merge_scatters_disjoint_parts_back_into_parent_order() {
        let inst: MarketInstance = (0..4)
            .map(|id| ParticipantSpec::new(id, 1.0 + id as f64, Watts::new(100.0)).with_bid(0.2))
            .collect();
        let views = inst.partition_by(&[1, 0, 1, 0]);
        let parts: Vec<(InstanceView<'_>, Clearing)> = views
            .into_iter()
            .map(|v| {
                let reductions: Vec<f64> = v.deltas().to_vec();
                let c = Clearing::build(
                    &v,
                    Watts::new(50.0),
                    Price::new(0.1 * (1.0 + f64::from(v.group().unwrap_or(0)))),
                    reductions,
                    None,
                    None,
                    Diagnostics::default(),
                );
                (v, c)
            })
            .collect();
        let merged = Clearing::merge(&inst, Watts::new(100.0), &parts);
        // Every row got its own delta back, in parent order.
        assert_eq!(merged.reductions(), &[1.0, 2.0, 3.0, 4.0]);
        // Headline price is the binding (maximum) part price.
        assert!((merged.price().get() - 0.2).abs() < 1e-12);
        // Per-row prices came from each row's own subtree market.
        assert!((merged.participant_prices()[0] - 0.2).abs() < 1e-12);
        assert!((merged.participant_prices()[1] - 0.1).abs() < 1e-12);
        assert_eq!(merged.target_watts(), Watts::new(100.0));
    }
}
