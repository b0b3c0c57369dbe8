//! The MClr (Market Clearing) problem of Eqns. (4)–(5): find the cheapest
//! price at which the aggregate supplied power reduction meets the target.
//!
//! Because MClr has a single optimization variable `q` and the aggregate
//! payoff is monotone in `q`, the optimum is
//! `q' = min { q : Σ_m P(δ_m(q)) = P(t) − C }`, solvable by bisection
//! (Section III-D, "Scalability"). This module implements exactly that,
//! reading the bids straight from a market's `Δ`, bid and watts-per-unit
//! columns; [`MclrMechanism`](crate::MclrMechanism) is its public entry.

use crate::error::MarketError;
use crate::numeric;
use crate::units::{Price, Watts};

/// Absolute floor for the clearing-price search bracket.
const PRICE_EPS: f64 = 1e-12;

/// The columns an MClr solve reads: row `i` offers to shed up to
/// `deltas[i]` units, bids `bids[i]`, and saves `watts_per_unit[i]` watts a
/// unit. A row takes part when its bid is finite and its `Δ` is finite and
/// non-negative; a negative bid counts as 0. Every fold visits the taking
/// rows in row order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BidColumns<'a> {
    deltas: &'a [f64],
    bids: &'a [f64],
    watts_per_unit: &'a [f64],
}

impl<'a> BidColumns<'a> {
    /// Borrows three parallel columns.
    pub(crate) fn new(deltas: &'a [f64], bids: &'a [f64], watts_per_unit: &'a [f64]) -> Self {
        debug_assert!(deltas.len() == bids.len() && bids.len() == watts_per_unit.len());
        Self {
            deltas,
            bids,
            watts_per_unit,
        }
    }

    /// `(Δ, b, w)` of every taking row, in row order.
    fn rows(self) -> impl Iterator<Item = (f64, f64, f64)> + 'a {
        self.deltas
            .iter()
            .zip(self.bids)
            .zip(self.watts_per_unit)
            .filter(|((d, b), _)| b.is_finite() && d.is_finite() && **d >= 0.0)
            .map(|((&d, &b), &w)| (d, b.max(0.0), w))
    }

    /// `true` when no row takes part.
    pub(crate) fn is_empty(self) -> bool {
        self.rows().next().is_none()
    }

    /// Aggregate power reduction supplied at price `q`.
    fn power(self, q: f64) -> f64 {
        self.rows().map(|(d, b, w)| supply(d, b, q) * w).sum()
    }

    /// Maximum aggregate power reduction (every row at its `Δ`).
    fn attainable(self) -> f64 {
        self.rows().map(|(d, _, w)| d * w).sum()
    }

    /// Each row's reduction `δ(q) = [Δ − b/q]⁺` at price `q`, 0 for a row
    /// that does not take part.
    pub(crate) fn reductions(self, price: Price) -> Vec<f64> {
        self.deltas
            .iter()
            .zip(self.bids)
            .map(|(&d, &b)| {
                if b.is_finite() && d.is_finite() && d >= 0.0 {
                    supply(d, b.max(0.0), price.get())
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// One row's supply `[Δ − b/q]⁺` at price `q`; nothing at `q ≤ 0`.
fn supply(delta: f64, bid: f64, q: f64) -> f64 {
    if q <= 0.0 {
        return 0.0;
    }
    (delta - bid / q).max(0.0)
}

/// Solves MClr: the minimum price `q'` such that the aggregate supplied
/// power reduction is at least `target`.
///
/// A non-positive target clears trivially at price 0 with no reductions.
///
/// The price is found by doubling an upper bracket and bisecting it. When
/// every taking row has a finite `w > 0`, the aggregate supply is
/// non-decreasing in the price bit for bit (correctly rounded `/`, `−`,
/// `max`, `×` and the in-order `+` fold are each monotone). Such markets
/// answer most of the search's queries from the tightest pair of exactly
/// evaluated prices, one short of the target and one reaching it, seeded
/// around a closed-form estimate: the search makes the same decisions, and
/// returns the same bits, as one that evaluates every query.
///
/// # Errors
///
/// * [`MarketError::NoParticipants`] if no row takes part and the target
///   is positive.
/// * [`MarketError::Infeasible`] if even the maximal supplies fall short of
///   the target, or if no price reaches it: the doubled bracket overflows,
///   or the aggregate supply stops rising while below the target. Callers
///   that prefer best-effort capping use [`clear_best_effort`].
pub(crate) fn solve(market: BidColumns<'_>, target: Watts) -> Result<Price, MarketError> {
    search(market, target).0
}

/// Newton steps spent on the seed estimate; an estimate that has not
/// settled by then is still verified before it is used.
const SEED_NEWTON_STEPS: usize = 16;

/// Relative distance of the first seed probe from the estimate, well
/// inside the bisection's 1e-12 stopping width.
const SEED_REL_STEP: f64 = 128.0 * f64::EPSILON;

/// Probes spent looking for the far side of the seed bracket; each one
/// widens the step 64-fold.
const SEED_PROBES: usize = 4;

/// [`solve`], also returning the number of O(n) supply folds it spent.
fn search(market: BidColumns<'_>, target: Watts) -> (Result<Price, MarketError>, usize) {
    if target <= Watts::ZERO {
        return (Ok(Price::ZERO), 0);
    }
    if market.is_empty() {
        return (Err(MarketError::NoParticipants), 0);
    }
    let attainable = market.attainable();
    let infeasible = MarketError::Infeasible {
        target_watts: target.get(),
        attainable_watts: attainable,
    };
    // Tolerance: supplies only reach Δ in the limit q → ∞, so accept targets
    // within a hair of the attainable maximum and clear them at a large price.
    if attainable < target.get() * (1.0 - 1e-9) {
        return (Err(infeasible), 0);
    }
    let scan = Scan::of(market);
    let mut power = Threshold::new(market, target.get(), scan.monotone);
    if scan.monotone {
        // Monotone supply never exceeds its limit at q → ∞, which is the
        // attainable fold bit for bit (b/∞ = 0).
        if attainable < target.get() {
            return (Err(infeasible), 0);
        }
        // Seeding pays for itself from a single row up (BENCHMARKS.md).
        if let Some(q) = scan.estimate(market, attainable, target.get()) {
            power.seed(q);
        }
    }

    // Find an upper bracket by doubling from the largest activation price.
    let hi = scan.max_activation.max(PRICE_EPS) * 2.0;
    let Some(hi) = upper_bracket(hi, !scan.monotone, |q| (power.reaches(q), power.last)) else {
        return (Err(infeasible), power.folds);
    };

    let q = numeric::bisect_by(PRICE_EPS, hi, 1e-12, |q| power.reaches(q));
    (q.map(Price::new), power.folds)
}

/// Doubles `hi` until `reaches` answers that the supply there is not short
/// of the target: the upper end of a clearing search's bracket. `reaches`
/// also returns the supply it found. `None` when no price reaches the
/// target: the bracket overflows, or, with `plateau_stop` (a market whose
/// supply nothing bounds), the supply stops rising.
fn upper_bracket(
    mut hi: f64,
    plateau_stop: bool,
    mut reaches: impl FnMut(f64) -> (Option<bool>, f64),
) -> Option<f64> {
    let mut last = None;
    loop {
        let (reached, supply) = reaches(hi);
        if reached != Some(false) {
            return Some(hi);
        }
        if plateau_stop {
            if last.is_some_and(|p| supply <= p) {
                return None;
            }
            last = Some(supply);
        }
        hi *= 2.0;
        if !hi.is_finite() {
            return None;
        }
    }
}

/// One pass over a market's taking rows: whether its supply is monotone in
/// the price, and the inputs of the clearing-price estimate.
struct Scan {
    /// Every taking row has a finite `w > 0` (its `Δ` and bid are finite
    /// and non-negative by the row filter).
    monotone: bool,
    /// The largest activation price `b/Δ`, at least [`PRICE_EPS`].
    max_activation: f64,
    /// `Σ w·b` over the rows with `Δ > 0`: the slope of `P(1/u)` at `u = 0`.
    bid_weight: f64,
    /// The number of rows with `Δ > 0`.
    active: usize,
}

impl Scan {
    fn of(market: BidColumns<'_>) -> Self {
        let mut scan = Self {
            monotone: true,
            max_activation: PRICE_EPS,
            bid_weight: 0.0,
            active: 0,
        };
        for (delta, bid, w) in market.rows() {
            scan.monotone &= w.is_finite() && w > 0.0;
            if delta > 0.0 {
                scan.max_activation = scan.max_activation.max(bid / delta);
                scan.bid_weight += w * bid;
                scan.active += 1;
            }
        }
        scan
    }

    /// An estimate of the clearing price: Newton's method on
    /// `P(u) = Σ w·[Δ − b·u]⁺`, the supply at price `1/u`, which is convex,
    /// non-increasing and piecewise linear in `u`. From `u = 0`, where
    /// every row supplies its Δ, each step lands on the root of the active
    /// rows' line, which never passes the true root; a step that keeps the
    /// active set has found it. `None` when no finite positive price
    /// results (a zero-bid market clears at any price).
    fn estimate(&self, market: BidColumns<'_>, attainable: f64, target: f64) -> Option<f64> {
        let (mut u, mut p, mut slope, mut active) =
            (0.0f64, attainable, self.bid_weight, self.active);
        for _ in 0..SEED_NEWTON_STEPS {
            if !(slope > 0.0 && p > target) {
                break;
            }
            u += (p - target) / slope;
            (p, slope) = (0.0, 0.0);
            let mut now_active = 0;
            for (delta, bid, w) in market.rows() {
                let d = delta - bid * u;
                if d > 0.0 {
                    p += w * d;
                    slope += w * bid;
                    now_active += 1;
                }
            }
            if now_active == active {
                break;
            }
            active = now_active;
        }
        let q = u.recip();
        (q.is_finite() && q > 0.0).then_some(q)
    }
}

/// The clearing search's `reaches` predicate, `power(q) ≥ target`. On a
/// monotone market it keeps the tightest pair of exactly evaluated prices
/// `(below, above)` and answers any query outside it without a fold: a
/// price at or under `below` falls short, one at or over `above` reaches.
struct Threshold<'a> {
    market: BidColumns<'a>,
    target: f64,
    replay: bool,
    /// Largest price known to fall short; `P(0) = 0` does.
    below: f64,
    /// Smallest price known to reach; `P(∞)`, the attainable supply, does
    /// once the caller has checked it.
    above: f64,
    /// The value of the latest fold.
    last: f64,
    /// Folds so far.
    folds: usize,
}

impl<'a> Threshold<'a> {
    fn new(market: BidColumns<'a>, target: f64, replay: bool) -> Self {
        Self {
            market,
            target,
            replay,
            below: 0.0,
            above: f64::INFINITY,
            last: f64::NAN,
            folds: 0,
        }
    }

    fn reaches(&mut self, q: f64) -> Option<bool> {
        if self.replay {
            if q <= self.below {
                return Some(false);
            }
            if q >= self.above {
                return Some(true);
            }
        }
        self.last = self.market.power(q);
        self.folds += 1;
        let reached = numeric::reaches(self.last, self.target);
        if self.replay {
            match reached {
                Some(true) => self.above = q,
                Some(false) => self.below = q,
                None => {}
            }
        }
        reached
    }

    /// Evaluates the estimate `q` and probes outward from it, widening the
    /// step, until the pair of known prices brackets the threshold or the
    /// probes run out. Every fact comes from an exact fold, so a poor
    /// estimate costs folds, never a different answer.
    fn seed(&mut self, q: f64) {
        let Some(first) = self.reaches(q) else {
            return;
        };
        let mut step = q * SEED_REL_STEP;
        let mut probe = q;
        for _ in 0..SEED_PROBES {
            probe = if first { probe - step } else { probe + step };
            if !(probe > 0.0 && probe.is_finite()) || self.reaches(probe) != Some(first) {
                return;
            }
            step *= 64.0;
        }
    }
}

/// Generic MClr over arbitrary [`Supply`](crate::supply::Supply) curves —
/// `items` pairs each curve with its watts-per-unit conversion — returning
/// the clearing price. Used by the supply-function ablation to clear
/// linear-supply markets with the same bisection machinery.
///
/// ```
/// use mpr_core::{mclr, LinearSupply, Watts};
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// // δ(q) = min(q, 1) at 125 W per unit: 62.5 W requires δ = 0.5 → q' = 0.5.
/// let items = [(LinearSupply::new(1.0, 1.0)?, 125.0)];
/// let price = mclr::solve_supplies(&items, Watts::new(62.5))?;
/// assert!((price.get() - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`MarketError::NoParticipants`] if `items` is empty and the target is
///   positive.
/// * [`MarketError::Infeasible`] if even the maximal supplies fall short of
///   the target, or once the doubled bracket overflows short of it.
pub fn solve_supplies<S: crate::supply::Supply>(
    items: &[(S, f64)],
    target: Watts,
) -> Result<Price, MarketError> {
    if target <= Watts::ZERO {
        return Ok(Price::ZERO);
    }
    if items.is_empty() {
        return Err(MarketError::NoParticipants);
    }
    let target_watts = target.get();
    let power_at = |q: f64| -> f64 { items.iter().map(|(s, w)| s.supply(q) * w).sum() };
    let attainable: f64 = items.iter().map(|(s, w)| s.delta_max() * w).sum();
    let infeasible = MarketError::Infeasible {
        target_watts,
        attainable_watts: attainable,
    };
    if attainable < target_watts * (1.0 - 1e-9) {
        return Err(infeasible);
    }
    // A supply may be zero up to any price, so only an overflowing bracket
    // shows that no price reaches the target.
    let Some(hi) = upper_bracket(1.0, false, |q| {
        let p = power_at(q);
        (numeric::reaches(p, target_watts), p)
    }) else {
        return Err(infeasible);
    };
    numeric::bisect_threshold(PRICE_EPS, hi, target_watts, 1e-12, power_at).map(Price::new)
}

/// Factor applied to the highest activation price to form the manager's
/// price ceiling in best-effort clearings. At the ceiling every supply is
/// within 0.1 % of its Δ, so raising the price further buys (almost)
/// nothing while the payoff `q·δ` grows without bound.
const PRICE_CEILING_FACTOR: f64 = 1000.0;

/// Best-effort variant of [`solve`] with a price ceiling: when the target
/// is infeasible — or only reachable at an absurd price because it sits
/// within a hair of the attainable maximum — the market clears at the
/// ceiling (1000× the highest activation price, at least 1), extracting
/// essentially every participant's Δ. The manager covers any remaining
/// shortfall with direct, market-bypassing power capping (Section III-F,
/// "Malicious users"), which the simulator models as escalation.
pub(crate) fn clear_best_effort(market: BidColumns<'_>, target: Watts) -> Price {
    // The scan's PRICE_EPS floor sits far below the ceiling's floor of 1.
    let ceiling = Price::new((PRICE_CEILING_FACTOR * Scan::of(market).max_activation).max(1.0));
    match solve(market, target) {
        Ok(price) if price <= ceiling => price,
        _ => ceiling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A market's owned `(Δ, b, w)` columns.
    #[derive(Debug, Default)]
    struct Market {
        deltas: Vec<f64>,
        bids: Vec<f64>,
        watts: Vec<f64>,
    }

    impl Market {
        fn of(rows: impl IntoIterator<Item = (f64, f64, f64)>) -> Self {
            let mut m = Self::default();
            for (d, b, w) in rows {
                m.deltas.push(d);
                m.bids.push(b);
                m.watts.push(w);
            }
            m
        }

        /// Rows of `(Δ, b)` at 125 W a unit.
        fn jobs(rows: &[(f64, f64)]) -> Self {
            Self::of(rows.iter().map(|&(d, b)| (d, b, 125.0)))
        }

        fn cols(&self) -> BidColumns<'_> {
            BidColumns::new(&self.deltas, &self.bids, &self.watts)
        }

        fn attainable(&self) -> Watts {
            Watts::new(self.cols().attainable())
        }

        fn power(&self, price: Price) -> Watts {
            Watts::new(self.cols().power(price.get()))
        }
    }

    fn w(x: f64) -> Watts {
        Watts::new(x)
    }

    #[test]
    fn power_is_supply_times_conversion() {
        let m = Market::of([(2.0, 0.5, 125.0)]);
        assert_eq!(m.attainable(), w(250.0));
        let q = Price::new(1.0);
        assert!((m.power(q).get() - (2.0 - 0.5) * 125.0).abs() < 1e-9);
        assert_eq!(m.power(Price::ZERO), Watts::ZERO);
        assert_eq!(m.cols().reductions(q), vec![1.5]);
    }

    #[test]
    fn trivial_target_clears_at_zero() {
        let m = Market::jobs(&[(1.0, 0.5)]);
        assert_eq!(solve(m.cols(), w(0.0)), Ok(Price::ZERO));
        assert_eq!(solve(m.cols(), w(-5.0)), Ok(Price::ZERO));
        assert_eq!(m.cols().reductions(Price::ZERO), vec![0.0]);
    }

    #[test]
    fn empty_market_with_positive_target_errs() {
        let empty = Market::default();
        assert_eq!(
            solve(empty.cols(), w(10.0)),
            Err(MarketError::NoParticipants)
        );
        // Rows the filter drops leave the market empty too.
        let dropped = Market::jobs(&[(1.0, f64::NAN), (-1.0, 0.2), (f64::NAN, 0.2)]);
        assert_eq!(
            solve(dropped.cols(), w(10.0)),
            Err(MarketError::NoParticipants)
        );
    }

    #[test]
    fn infeasible_target_errs_with_attainable() {
        let m = Market::jobs(&[(1.0, 0.1)]); // max 125 W
        match solve(m.cols(), w(500.0)) {
            Err(MarketError::Infeasible {
                target_watts,
                attainable_watts,
            }) => {
                assert_eq!(target_watts, 500.0);
                assert!((attainable_watts - 125.0).abs() < 1e-9);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn single_job_price_matches_closed_form() {
        // δ(q) = 1 − 0.5/q; want 125·δ = 62.5 → δ = 0.5 → q = 1.0.
        let m = Market::jobs(&[(1.0, 0.5)]);
        let price = solve(m.cols(), w(62.5)).unwrap();
        assert!((price.get() - 1.0).abs() < 1e-6, "price = {price}");
        assert!(m.power(price) >= w(62.5) * (1.0 - 1e-9));
    }

    #[test]
    fn cheaper_supplier_activates_first() {
        // Job 1 activates at q = 0.1, job 2 at q = 1.0. A small target should
        // clear below job 2's activation price: only job 1 reduces.
        let m = Market::jobs(&[(1.0, 0.1), (1.0, 1.0)]);
        let price = solve(m.cols(), w(30.0)).unwrap();
        assert!(price.get() < 1.0);
        let r = m.cols().reductions(price);
        assert_eq!(r[1], 0.0);
        assert!(r[0] > 0.0);
    }

    #[test]
    fn near_attainable_target_clears_at_high_price() {
        let m = Market::jobs(&[(1.0, 0.5)]);
        let attainable = m.attainable();
        let price = solve(m.cols(), attainable * (1.0 - 1e-10)).unwrap();
        assert!(m.power(price) >= attainable * (1.0 - 1e-6));
    }

    #[test]
    fn best_effort_caps_everyone_when_infeasible() {
        let m = Market::jobs(&[(1.0, 0.1), (2.0, 0.3)]);
        let price = clear_best_effort(m.cols(), w(1e9));
        let attainable = m.attainable();
        // The price ceiling extracts every Δ to within 0.1 %.
        assert!(m.power(price) >= attainable * (1.0 - 2e-3));
        // ...at a bounded price: 1000× the highest activation price.
        assert!(price.get() <= 1000.0 * 0.3 + 1e-9, "price = {price}");
    }

    #[test]
    fn best_effort_caps_absurd_feasible_prices_too() {
        // Target within 1e-12 of the attainable max: the exact clearing
        // price would be astronomical; the ceiling bounds it.
        let m = Market::jobs(&[(1.0, 0.5)]);
        let attainable = m.attainable();
        let price = clear_best_effort(m.cols(), attainable * (1.0 - 1e-12));
        assert!(price.get() <= 1000.0 * 0.5 + 1e-9);
        assert!(m.power(price) >= attainable * (1.0 - 2e-3));
    }

    #[test]
    fn best_effort_matches_solve_when_feasible() {
        let m = Market::jobs(&[(1.0, 0.5)]);
        let a = solve(m.cols(), w(62.5)).unwrap();
        let b = clear_best_effort(m.cols(), w(62.5));
        assert!((a.get() - b.get()).abs() < 1e-12);
    }

    #[test]
    fn zero_bids_clear_at_epsilon_price() {
        let m = Market::jobs(&[(1.0, 0.0), (1.0, 0.0)]);
        let price = solve(m.cols(), w(200.0)).unwrap();
        assert!(price.get() <= 1e-6, "price = {price}");
        assert!(m.power(price) >= w(200.0) * (1.0 - 1e-9));
    }

    #[test]
    fn generic_solve_matches_specialized_for_hyperbolic_supplies() {
        let rows = [(1.0, 0.2), (2.0, 0.5)];
        let m = Market::jobs(&rows);
        let items: Vec<(crate::supply::SupplyFunction, f64)> = rows
            .iter()
            .map(|&(d, b)| (crate::supply::SupplyFunction::new(d, b).unwrap(), 125.0))
            .collect();
        let a = solve(m.cols(), w(150.0)).unwrap();
        let b = solve_supplies(&items, w(150.0)).unwrap();
        assert!((a.get() - b.get()).abs() < 1e-9);
    }

    #[test]
    fn generic_solve_clears_linear_supplies() {
        use crate::supply::{LinearSupply, Supply};
        let items = vec![
            (LinearSupply::new(1.0, 1.0).unwrap(), 125.0),
            (LinearSupply::new(1.0, 2.0).unwrap(), 125.0),
        ];
        // At price q: supply = q + q/2 (pre-saturation); want 93.75 W
        // = 0.75 cores → q = 0.5.
        let price = solve_supplies(&items, w(93.75)).unwrap();
        assert!((price.get() - 0.5).abs() < 1e-6, "price = {price}");
        assert!((items[0].0.supply(price.get()) - 0.5).abs() < 1e-6);
        // Errors mirror the specialized solver.
        assert!(matches!(
            solve_supplies(&items, w(1e9)),
            Err(MarketError::Infeasible { .. })
        ));
        let empty: Vec<(LinearSupply, f64)> = Vec::new();
        assert!(matches!(
            solve_supplies(&empty, w(1.0)),
            Err(MarketError::NoParticipants)
        ));
        assert_eq!(solve_supplies(&items, w(0.0)), Ok(Price::ZERO));
    }

    #[test]
    fn generic_target_just_above_attainable_is_infeasible() {
        use crate::supply::LinearSupply;
        // Inside the 1e-9 tolerance, but the supply saturates at 125 W.
        let items = [(LinearSupply::new(1.0, 2.0).unwrap(), 125.0)];
        let res = solve_supplies(&items, w(125.0 * (1.0 + 5e-10)));
        assert!(
            matches!(res, Err(MarketError::Infeasible { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn target_just_above_attainable_is_infeasible_in_few_folds() {
        let target = w(125.0 * (1.0 + 5e-10));
        let (res, folds) = search(Market::jobs(&[(1.0, 0.5)]).cols(), target);
        assert!(
            matches!(res, Err(MarketError::Infeasible { .. })),
            "{res:?}"
        );
        assert!(folds <= 2, "{folds} folds");
        // A row with w = 0 leaves the monotone path; the doubling still
        // stops once the supply stops rising.
        let m = Market::of([(1.0, 0.5, 125.0), (1.0, 0.5, 0.0)]);
        let (res, folds) = search(m.cols(), target);
        assert!(
            matches!(res, Err(MarketError::Infeasible { .. })),
            "{res:?}"
        );
        assert!(folds <= 80, "{folds} folds");
        // Best effort still clears at the ceiling, 1000× the activation.
        assert_eq!(clear_best_effort(m.cols(), target), Price::new(500.0));
    }

    #[test]
    fn seeded_search_spends_few_folds() {
        let m = Market::of((0..128u32).map(|i| {
            let x = f64::from(i);
            (0.2 + (x * 0.37) % 0.8, (x * 0.61) % 0.9, 100.0 + x)
        }));
        let attainable = m.attainable();
        for frac in [0.01, 0.2, 0.5, 0.9] {
            let (res, folds) = search(m.cols(), attainable * frac);
            assert_eq!(res, plain_solve(m.cols(), attainable * frac));
            assert!(folds <= 12, "{folds} folds at {frac}");
        }
    }

    /// The search without replay: every query is a fresh fold, and the
    /// doubling stops with `Infeasible` once the bracket overflows or, on a
    /// market that is not monotone, once the supply stops rising.
    fn plain_solve(m: BidColumns<'_>, target: Watts) -> Result<Price, MarketError> {
        if target <= Watts::ZERO {
            return Ok(Price::ZERO);
        }
        if m.is_empty() {
            return Err(MarketError::NoParticipants);
        }
        let attainable = m.attainable();
        let infeasible = MarketError::Infeasible {
            target_watts: target.get(),
            attainable_watts: attainable,
        };
        if attainable < target.get() * (1.0 - 1e-9) {
            return Err(infeasible);
        }
        let monotone = m.rows().all(|(_, _, w)| w.is_finite() && w > 0.0);
        let mut hi = m
            .rows()
            .filter(|(d, _, _)| *d > 0.0)
            .fold(PRICE_EPS, |a, (d, b, _)| a.max(b / d))
            * 2.0;
        let mut last: Option<f64> = None;
        while m.power(hi) < target.get() {
            let p = m.power(hi);
            if !monotone && last.is_some_and(|l| p <= l) {
                return Err(infeasible);
            }
            last = Some(p);
            hi *= 2.0;
            if !hi.is_finite() {
                return Err(infeasible);
            }
        }
        numeric::bisect_threshold(PRICE_EPS, hi, target.get(), 1e-12, |q| m.power(q))
            .map(Price::new)
    }

    /// [`clear_best_effort`] over [`plain_solve`].
    fn plain_best_effort(m: BidColumns<'_>, target: Watts) -> Price {
        let max_activation = m
            .rows()
            .filter(|(d, _, _)| *d > 0.0)
            .fold(0.0f64, |a, (d, b, _)| a.max(b / d));
        let ceiling = Price::new((PRICE_CEILING_FACTOR * max_activation).max(1.0));
        match plain_solve(m, target) {
            Ok(price) if price <= ceiling => price,
            _ => ceiling,
        }
    }

    /// A market row: `kind` picks a zero Δ, a zero bid or one of three
    /// tied bids a fifth of the time each, else a free bid; `w` is
    /// 10^`log_w`.
    fn row(
        i: usize,
        (kind, delta, bid, log_w): (u8, f64, f64, f64),
        w_sign: f64,
    ) -> (f64, f64, f64) {
        let (delta, bid) = match kind {
            0 => (0.0, bid),
            1 => (delta, 0.0),
            2 => (delta, [0.1, 0.25, 0.5][i % 3] * delta),
            _ => (delta, bid),
        };
        (delta, bid, w_sign * 10f64.powf(log_w))
    }

    /// A target as a fraction of the attainable supply: 10^-9 up to 1,
    /// exactly 1, or above it.
    fn target_of(attainable: Watts, (pick, log_frac): (u8, f64)) -> Watts {
        match pick {
            0 => attainable,
            1 => attainable * (1.0 + 5e-10),
            2 => attainable * 1.5,
            3 => attainable * (1.0 - 1e-12),
            _ => attainable * 10f64.powf(log_frac),
        }
    }

    fn assert_same(
        a: &Result<Price, MarketError>,
        b: &Result<Price, MarketError>,
    ) -> Result<(), TestCaseError> {
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.get().to_bits(), y.get().to_bits()),
            _ => prop_assert_eq!(a, b),
        }
        Ok(())
    }

    /// Every row kind the filter drops: a non-finite bid, or a `Δ` that is
    /// negative or not finite.
    const DROPPED: [(f64, f64); 6] = [
        (1.0, f64::NAN),
        (1.0, f64::INFINITY),
        (1.0, f64::NEG_INFINITY),
        (-1.0, 0.2),
        (f64::NAN, 0.2),
        (f64::INFINITY, 0.2),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The replayed search decides every query as plain bisection
        /// does: the same price bits, the same errors.
        #[test]
        fn replayed_solve_equals_plain_bisection(
            rows in proptest::collection::vec((0u8..5, 0.01f64..2.0, 0.0f64..1.0, -3.0f64..4.0), 1..300),
            target in (0u8..10, -9.0f64..0.0),
        ) {
            let m = Market::of(rows.iter().enumerate().map(|(i, &r)| row(i, r, 1.0)));
            let target = target_of(m.attainable(), target);
            assert_same(&solve(m.cols(), target), &plain_solve(m.cols(), target))?;
            let (a, b) = (clear_best_effort(m.cols(), target), plain_best_effort(m.cols(), target));
            assert_same(&Ok(a), &Ok(b))?;
        }

        /// Markets with a non-positive or non-finite `w` leave the
        /// replay: their supply need not be monotone.
        #[test]
        fn unguarded_solve_equals_plain_bisection(
            rows in proptest::collection::vec((0u8..5, 0.01f64..2.0, 0.0f64..1.0, -3.0f64..4.0), 1..60),
            signs in proptest::collection::vec(0u8..4, 60),
            target in (0u8..10, -9.0f64..0.0),
        ) {
            let m = Market::of(
                rows.iter()
                    .zip(&signs)
                    .enumerate()
                    .map(|(i, (&r, &s))| row(i, r, [1.0, 1.0, -1.0, 0.0][usize::from(s)])),
            );
            let target = target_of(m.attainable(), target);
            assert_same(&solve(m.cols(), target), &plain_solve(m.cols(), target))?;
            let (a, b) = (clear_best_effort(m.cols(), target), plain_best_effort(m.cols(), target));
            assert_same(&Ok(a), &Ok(b))?;
        }

        /// Rows the filter drops change no bit of the clearing, and reduce
        /// nothing; a negative bid clears as a zero bid.
        #[test]
        fn dropped_rows_clear_as_if_absent(
            rows in proptest::collection::vec((0u8..5, 0.01f64..2.0, 0.0f64..1.0, -3.0f64..4.0), 1..60),
            dropped in proptest::collection::vec((0usize..6, 0usize..60), 0..8),
            negative in proptest::collection::vec(0usize..60, 0..4),
            target in (0u8..10, -9.0f64..0.0),
        ) {
            let kept: Vec<(f64, f64, f64)> =
                rows.iter().enumerate().map(|(i, &r)| row(i, r, 1.0)).collect();
            let mut mixed = kept.clone();
            for &i in &negative {
                if let Some(r) = mixed.get_mut(i) {
                    if r.1 == 0.0 {
                        r.1 = -0.5;
                    }
                }
            }
            let mut positions = Vec::new();
            for &(kind, at) in &dropped {
                let at = at.min(mixed.len());
                let (d, b) = DROPPED[kind];
                mixed.insert(at, (d, b, 125.0));
                positions.iter_mut().for_each(|p: &mut usize| if *p >= at { *p += 1 });
                positions.push(at);
            }
            let (kept, mixed) = (Market::of(kept), Market::of(mixed));
            let target = target_of(kept.attainable(), target);
            assert_same(&solve(mixed.cols(), target), &solve(kept.cols(), target))?;
            let price = clear_best_effort(mixed.cols(), target);
            assert_same(&Ok(price), &Ok(clear_best_effort(kept.cols(), target)))?;
            let reductions = mixed.cols().reductions(price);
            for &p in &positions {
                prop_assert_eq!(reductions[p], 0.0);
            }
        }
    }

    proptest! {
        /// The clearing price is minimal: slightly below it the market
        /// under-delivers; at it, the target is met.
        #[test]
        fn clearing_price_is_minimal(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..20),
            frac in 0.05f64..0.95,
        ) {
            let m = Market::jobs(&bids);
            let target = m.attainable() * frac;
            prop_assume!(target > Watts::ZERO);
            let price = solve(m.cols(), target).unwrap();
            prop_assert!(m.power(price) >= target * (1.0 - 1e-6));
            let below = m.power(price * (1.0 - 1e-6));
            prop_assert!(below <= target * (1.0 + 1e-6),
                "price not minimal: below={below} target={target}");
        }

        /// Feasible targets are met from above but not overshot: the
        /// aggregate supply is continuous in the price, so bisection lands
        /// within a tight band around the target.
        #[test]
        fn cleared_power_meets_target_within_tolerance(
            bids in proptest::collection::vec((0.01f64..2.0, 0.01f64..1.0), 1..30),
            frac in 0.05f64..0.95,
        ) {
            let m = Market::jobs(&bids);
            let target = m.attainable() * frac;
            prop_assume!(target > Watts::ZERO);
            let power = m.power(solve(m.cols(), target).unwrap());
            prop_assert!(
                power >= target * (1.0 - 1e-6),
                "under-delivered: {power} < {target}"
            );
            prop_assert!(
                power.get() <= target.get() * 1.01 + 1e-3,
                "overshot the minimal clearing: {power} vs {target}"
            );
        }

        /// The clearing price and the cleared power are monotone in the
        /// target: shedding more watts can never get cheaper.
        #[test]
        fn clearing_is_monotone_in_target(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..30),
            frac_lo in 0.05f64..0.95,
            frac_hi in 0.05f64..0.95,
        ) {
            let m = Market::jobs(&bids);
            let attainable = m.attainable();
            let (lo, hi) = if frac_lo <= frac_hi {
                (frac_lo, frac_hi)
            } else {
                (frac_hi, frac_lo)
            };
            let (t_lo, t_hi) = (attainable * lo, attainable * hi);
            prop_assume!(t_lo > Watts::ZERO);
            let a = solve(m.cols(), t_lo).unwrap();
            let b = solve(m.cols(), t_hi).unwrap();
            prop_assert!(
                a.get() <= b.get() * (1.0 + 1e-9) + 1e-9,
                "price not monotone: {a} @ {t_lo} vs {b} @ {t_hi}"
            );
            let (pa, pb) = (m.power(a), m.power(b));
            prop_assert!(
                pa.get() <= pb.get() + 1e-6,
                "power not monotone: {pa} vs {pb}"
            );
        }

        /// Best-effort clearing never pays above the price ceiling and,
        /// for infeasible targets, extracts (essentially) every Δ.
        #[test]
        fn best_effort_is_bounded_by_the_ceiling(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..30),
        ) {
            let m = Market::jobs(&bids);
            let attainable = m.attainable();
            let max_activation = bids.iter().fold(0.0f64, |a, (d, b)| a.max(b / d));
            let ceiling = (1000.0 * max_activation).max(1.0);
            let price = clear_best_effort(m.cols(), attainable * 2.0);
            prop_assert!(price.get() <= ceiling * (1.0 + 1e-12));
            let power = m.power(price);
            prop_assert!(
                power >= attainable * (1.0 - 2e-3),
                "ceiling must extract ~all supply: {power} of {attainable}"
            );
        }
    }
}
