//! The MClr (Market Clearing) problem of Eqns. (4)–(5): find the cheapest
//! price at which the aggregate supplied power reduction meets the target.
//!
//! Because MClr has a single optimization variable `q` and the aggregate
//! payoff is monotone in `q`, the optimum is
//! `q' = min { q : Σ_m P(δ_m(q)) = P(t) − C }`, solvable by bisection
//! (Section III-D, "Scalability"). This module implements exactly that.

use crate::error::MarketError;
use crate::numeric;
use crate::participant::Participant;
use crate::units::{Price, Watts};

/// Absolute floor for the clearing-price search bracket.
const PRICE_EPS: f64 = 1e-12;

/// Result of solving MClr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MclrSolution {
    /// The market clearing price `q'`.
    pub price: Price,
    /// Aggregate power reduction supplied at `q'`.
    pub power: Watts,
}

impl MclrSolution {
    const ZERO: Self = Self {
        price: Price::ZERO,
        power: Watts::ZERO,
    };
}

/// Aggregate power reduction supplied by `participants` at `price`.
#[must_use]
pub fn aggregate_power(participants: &[Participant], price: Price) -> Watts {
    participants.iter().map(|p| p.power_at(price)).sum()
}

/// Maximum aggregate power reduction attainable (every job at its `Δ`).
#[must_use]
pub fn attainable_power(participants: &[Participant]) -> Watts {
    participants.iter().map(Participant::max_power).sum()
}

/// Solves MClr: the minimum price `q'` such that the aggregate supplied
/// power reduction is at least `target`.
///
/// A non-positive target clears trivially at price 0 with no reductions.
///
/// ```
/// use mpr_core::mclr;
/// use mpr_core::{Participant, SupplyFunction, Watts};
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// // δ(q) = 1 − 0.5/q at 125 W per unit: 62.5 W requires δ = 0.5 → q' = 1.
/// let ps = [Participant::new(0, SupplyFunction::new(1.0, 0.5)?, Watts::new(125.0))];
/// let sol = mclr::solve(&ps, Watts::new(62.5))?;
/// assert!((sol.price.get() - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
///
/// The price is found by doubling an upper bracket and bisecting it. When
/// every row has a finite `Δ ≥ 0`, a finite `b ≥ 0` and a finite `w > 0`,
/// [`aggregate_power`] is non-decreasing in the price bit for bit
/// (correctly rounded `/`, `−`, `max`, `×` and the in-order `+` fold are
/// each monotone). Such markets answer most of the search's queries from
/// the tightest pair of exactly evaluated prices, one short of the target
/// and one reaching it, seeded around a closed-form estimate: the search
/// makes the same decisions, and returns the same bits, as one that
/// evaluates every query.
///
/// # Errors
///
/// * [`MarketError::NoParticipants`] if the market is empty and the target
///   is positive.
/// * [`MarketError::Infeasible`] if even the maximal supplies fall short of
///   the target, or if no price reaches it: the doubled bracket overflows,
///   or the aggregate supply stops rising while below the target. Callers
///   that prefer best-effort capping should catch this and use
///   [`clear_best_effort`].
pub fn solve(participants: &[Participant], target: Watts) -> Result<MclrSolution, MarketError> {
    search(participants, target).0
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

/// [`solve`], also returning the number of O(n) [`aggregate_power`] folds
/// it spent.
fn search(
    participants: &[Participant],
    target: Watts,
) -> (Result<MclrSolution, MarketError>, usize) {
    if target <= Watts::ZERO {
        return (Ok(MclrSolution::ZERO), 0);
    }
    if participants.is_empty() {
        return (Err(MarketError::NoParticipants), 0);
    }
    let attainable = attainable_power(participants);
    let infeasible = MarketError::Infeasible {
        target_watts: target.get(),
        attainable_watts: attainable.get(),
    };
    // Tolerance: supplies only reach Δ in the limit q → ∞, so accept targets
    // within a hair of the attainable maximum and clear them at a large price.
    if attainable < target * (1.0 - 1e-9) {
        return (Err(infeasible), 0);
    }
    let scan = Scan::of(participants);
    let mut power = Threshold::new(participants, target.get(), scan.monotone);
    if scan.monotone {
        // Monotone supply never exceeds its limit at q → ∞, which is the
        // attainable fold bit for bit (b/∞ = 0).
        if attainable < target {
            return (Err(infeasible), 0);
        }
        // Seeding pays for itself from a single row up (BENCHMARKS.md).
        if let Some(q) = scan.estimate(participants, attainable.get(), target.get()) {
            power.seed(q);
        }
    }

    // Find an upper bracket by doubling from the largest activation price.
    let hi = scan.max_activation.max(PRICE_EPS) * 2.0;
    let Some(hi) = upper_bracket(hi, !scan.monotone, |q| (power.reaches(q), power.last)) else {
        return (Err(infeasible), power.folds);
    };

    let q = match numeric::bisect_by(PRICE_EPS, hi, 1e-12, |q| power.reaches(q)) {
        Ok(q) => Price::new(q),
        Err(e) => return (Err(e), power.folds),
    };
    let sol = MclrSolution {
        price: q,
        power: aggregate_power(participants, q),
    };
    (Ok(sol), power.folds + 1)
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

/// One pass over a market's rows: whether its supply is monotone in the
/// price, and the inputs of the clearing-price estimate.
struct Scan {
    /// Every row has a finite `Δ ≥ 0`, a finite `b ≥ 0` and a finite
    /// `w > 0`.
    monotone: bool,
    /// The largest activation price `b/Δ`, at least [`PRICE_EPS`].
    max_activation: f64,
    /// `Σ w·b` over the rows with `Δ > 0`: the slope of `P(1/u)` at `u = 0`.
    bid_weight: f64,
    /// The number of rows with `Δ > 0`.
    active: usize,
}

impl Scan {
    fn of(participants: &[Participant]) -> Self {
        let mut scan = Self {
            monotone: true,
            max_activation: PRICE_EPS,
            bid_weight: 0.0,
            active: 0,
        };
        for p in participants {
            let (delta, bid, w) = (p.supply.delta_max(), p.supply.bid(), p.watts_per_unit);
            scan.monotone &= delta.is_finite()
                && delta >= 0.0
                && bid.is_finite()
                && bid >= 0.0
                && w.is_finite()
                && w > 0.0;
            if let Some(a) = p.supply.activation_price() {
                scan.max_activation = scan.max_activation.max(a.get());
            }
            if delta > 0.0 {
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
    fn estimate(&self, participants: &[Participant], attainable: f64, target: f64) -> Option<f64> {
        let (mut u, mut p, mut slope, mut active) =
            (0.0f64, attainable, self.bid_weight, self.active);
        for _ in 0..SEED_NEWTON_STEPS {
            if !(slope > 0.0 && p > target) {
                break;
            }
            u += (p - target) / slope;
            (p, slope) = (0.0, 0.0);
            let mut now_active = 0;
            for x in participants {
                let d = x.supply.delta_max() - x.supply.bid() * u;
                if d > 0.0 {
                    p += x.watts_per_unit * d;
                    slope += x.watts_per_unit * x.supply.bid();
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

/// The clearing search's `reaches` predicate, `aggregate_power(q) ≥
/// target`. On a monotone market it keeps the tightest pair of exactly
/// evaluated prices `(below, above)` and answers any query outside it
/// without a fold: a price at or under `below` falls short, one at or over
/// `above` reaches.
struct Threshold<'a> {
    participants: &'a [Participant],
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
    fn new(participants: &'a [Participant], target: f64, replay: bool) -> Self {
        Self {
            participants,
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
        self.last = aggregate_power(self.participants, Price::new(q)).get();
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

/// Precomputed index over a fixed set of bids for *exact, closed-form*
/// market clearing in `O(log M)` per overload.
///
/// With hyperbolic supplies the aggregate power reduction over the set of
/// participants active at price `q` (those with activation price
/// `b_i/Δ_i ≤ q`) is
///
/// ```text
/// P(q) = Σ wᵢ·(Δᵢ − bᵢ/q) = A_k − B_k / q
/// ```
///
/// where `A_k = Σ wᵢΔᵢ` and `B_k = Σ wᵢbᵢ` over the `k` cheapest
/// activation prices. Sorting once by activation price and keeping prefix
/// sums of `A` and `B` turns clearing into a binary search over segments
/// plus one division — no bisection, no tolerance. This is how a production
/// deployment would clear MPR-STAT markets at 100 kHz.
#[derive(Debug, Clone)]
pub struct ClearingIndex {
    /// Activation prices, ascending.
    activations: Vec<f64>,
    /// Prefix sums of `w·Δ` in activation order (entry `k` covers the
    /// first `k` participants).
    prefix_a: Vec<f64>,
    /// Prefix sums of `w·b` in activation order.
    prefix_b: Vec<f64>,
}

impl ClearingIndex {
    /// Builds the index over a set of participants.
    #[must_use]
    pub fn new(participants: &[Participant]) -> Self {
        // Sort (activation, participant) pairs directly — no index
        // round-trip, no NaN-hostile comparator (`new` validated the bids,
        // and a missing activation maps to +∞ which `total_cmp` orders
        // last).
        let mut entries: Vec<(f64, &Participant)> = participants
            .iter()
            .map(|p| {
                let act = p
                    .supply
                    .activation_price()
                    .map_or(f64::INFINITY, Price::get);
                (act, p)
            })
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut activations = Vec::with_capacity(entries.len());
        let mut prefix_a = Vec::with_capacity(entries.len() + 1);
        let mut prefix_b = Vec::with_capacity(entries.len() + 1);
        let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
        prefix_a.push(sum_a);
        prefix_b.push(sum_b);
        for (act, p) in entries {
            activations.push(act);
            sum_a += p.watts_per_unit * p.supply.delta_max();
            sum_b += p.watts_per_unit * p.supply.bid();
            prefix_a.push(sum_a);
            prefix_b.push(sum_b);
        }
        Self {
            activations,
            prefix_a,
            prefix_b,
        }
    }

    /// Aggregate power reduction at price `q` (closed form).
    #[must_use]
    pub fn power_at(&self, price: Price) -> Watts {
        let q = price.get();
        if q <= 0.0 {
            return Watts::ZERO;
        }
        // Number of participants with activation price <= q.
        let k = self.activations.partition_point(|&a| a <= q);
        let a = self.prefix_a.get(k).copied().unwrap_or(0.0);
        let b = self.prefix_b.get(k).copied().unwrap_or(0.0);
        Watts::new((a - b / q).max(0.0))
    }

    /// Solves MClr exactly: the minimal price meeting `target`.
    ///
    /// # Errors
    ///
    /// Mirrors [`solve`]: [`MarketError::NoParticipants`] and
    /// [`MarketError::Infeasible`].
    pub fn clear(&self, target: Watts) -> Result<MclrSolution, MarketError> {
        if target <= Watts::ZERO {
            return Ok(MclrSolution::ZERO);
        }
        let n = self.activations.len();
        if n == 0 {
            return Err(MarketError::NoParticipants);
        }
        let target_watts = target.get();
        let attainable = self.prefix_a.get(n).copied().unwrap_or(0.0);
        if attainable < target_watts * (1.0 - 1e-9) {
            return Err(MarketError::Infeasible {
                target_watts,
                attainable_watts: attainable,
            });
        }
        // Binary search for the first segment whose right-endpoint power
        // meets the target. Segment k spans [activations[k-1],
        // activations[k]) with k participants active; the final segment is
        // unbounded above.
        let segment_end_power = |k: usize| -> f64 {
            // Just below activations[k], k participants are active.
            match self.activations.get(k) {
                None => f64::INFINITY,
                Some(&q) => {
                    let a = self.prefix_a.get(k).copied().unwrap_or(0.0);
                    let b = self.prefix_b.get(k).copied().unwrap_or(0.0);
                    a - b / q
                }
            }
        };
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if segment_end_power(mid + 1) >= target_watts {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // Within segment `lo` (participants 0..=lo active): solve
        // A − B/q = target → q = B / (A − target).
        let k = lo + 1;
        let a = self.prefix_a.get(k).copied().unwrap_or(0.0);
        let b = self.prefix_b.get(k).copied().unwrap_or(0.0);
        let activation_lo = self.activations.get(lo).copied().unwrap_or(0.0);
        let price = if a > target_watts {
            (b / (a - target_watts)).max(activation_lo).max(PRICE_EPS)
        } else if b <= 0.0 {
            // Zero-bid segment (prefix sums are non-negative): full supply
            // at any price past activation.
            activation_lo.max(PRICE_EPS)
        } else {
            // Target only attainable in the limit within this (final)
            // segment: fall back to a large price.
            (b / (a * 1e-9).max(f64::MIN_POSITIVE)).max(activation_lo)
        };
        let price = Price::new(price);
        Ok(MclrSolution {
            price,
            power: self.power_at(price),
        })
    }
}

/// Generic MClr over arbitrary [`Supply`](crate::supply::Supply) curves —
/// `items` pairs each curve with its watts-per-unit conversion. Used by the
/// supply-function ablation to clear linear-supply markets with the same
/// bisection machinery.
///
/// # Errors
///
/// Same contract as [`solve`], except that a target no price reaches is
/// only found [`MarketError::Infeasible`] once the doubled bracket
/// overflows.
pub fn solve_supplies<S: crate::supply::Supply>(
    items: &[(S, f64)],
    target: Watts,
) -> Result<MclrSolution, MarketError> {
    if target <= Watts::ZERO {
        return Ok(MclrSolution::ZERO);
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
    let q = numeric::bisect_threshold(PRICE_EPS, hi, target_watts, 1e-12, power_at)?;
    Ok(MclrSolution {
        price: Price::new(q),
        power: Watts::new(power_at(q)),
    })
}

/// Factor applied to the highest activation price to form the manager's
/// price ceiling in best-effort clearings. At the ceiling every supply is
/// within 0.1 % of its Δ, so raising the price further buys (almost)
/// nothing while the payoff `q·δ` grows without bound.
const PRICE_CEILING_FACTOR: f64 = 1000.0;

/// Best-effort variant of [`solve`] with a price ceiling: when the target
/// is infeasible — or only reachable at an absurd price because it sits
/// within a hair of the attainable maximum — the market clears at the
/// ceiling (1000× the highest activation price), extracting essentially
/// every participant's Δ. The manager covers any remaining shortfall with
/// direct, market-bypassing power capping (Section III-F, "Malicious
/// users"), which the simulator models as escalation.
#[must_use]
pub fn clear_best_effort(participants: &[Participant], target: Watts) -> MclrSolution {
    let max_activation = participants
        .iter()
        .filter_map(|p| p.supply.activation_price())
        .fold(0.0f64, |m, a| m.max(a.get()));
    let ceiling = Price::new((PRICE_CEILING_FACTOR * max_activation).max(1.0));
    match solve(participants, target) {
        Ok(sol) if sol.price <= ceiling => sol,
        _ => MclrSolution {
            price: ceiling,
            power: aggregate_power(participants, ceiling),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::SupplyFunction;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn job(id: u64, delta: f64, bid: f64) -> Participant {
        Participant::new(
            id,
            SupplyFunction::new(delta, bid).unwrap(),
            Watts::new(125.0),
        )
    }

    fn w(x: f64) -> Watts {
        Watts::new(x)
    }

    #[test]
    fn trivial_target_clears_at_zero() {
        let ps = vec![job(0, 1.0, 0.5)];
        let sol = solve(&ps, w(0.0)).unwrap();
        assert_eq!(sol.price, Price::ZERO);
        assert_eq!(sol.power, Watts::ZERO);
        assert_eq!(solve(&ps, w(-5.0)).unwrap().price, Price::ZERO);
    }

    #[test]
    fn empty_market_with_positive_target_errs() {
        assert_eq!(solve(&[], w(10.0)), Err(MarketError::NoParticipants));
    }

    #[test]
    fn infeasible_target_errs_with_attainable() {
        let ps = vec![job(0, 1.0, 0.1)]; // max 125 W
        match solve(&ps, w(500.0)) {
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
        let ps = vec![job(0, 1.0, 0.5)];
        let sol = solve(&ps, w(62.5)).unwrap();
        assert!(
            (sol.price.get() - 1.0).abs() < 1e-6,
            "price = {}",
            sol.price
        );
        assert!(sol.power >= w(62.5) * (1.0 - 1e-9));
    }

    #[test]
    fn cheaper_supplier_activates_first() {
        // Job 1 activates at q = 0.1, job 2 at q = 1.0. A small target should
        // clear below job 2's activation price: only job 1 reduces.
        let ps = vec![job(1, 1.0, 0.1), job(2, 1.0, 1.0)];
        let sol = solve(&ps, w(30.0)).unwrap();
        assert!(sol.price.get() < 1.0);
        assert_eq!(ps[1].supply.supply(sol.price), 0.0);
        assert!(ps[0].supply.supply(sol.price) > 0.0);
    }

    #[test]
    fn near_attainable_target_clears_at_high_price() {
        let ps = vec![job(0, 1.0, 0.5)];
        let attainable = attainable_power(&ps);
        let sol = solve(&ps, attainable * (1.0 - 1e-10)).unwrap();
        assert!(sol.power >= attainable * (1.0 - 1e-6));
    }

    #[test]
    fn best_effort_caps_everyone_when_infeasible() {
        let ps = vec![job(0, 1.0, 0.1), job(1, 2.0, 0.3)];
        let sol = clear_best_effort(&ps, w(1e9));
        let attainable = attainable_power(&ps);
        // The price ceiling extracts every Δ to within 0.1 %.
        assert!(sol.power >= attainable * (1.0 - 2e-3));
        // ...at a bounded price: 1000× the highest activation price.
        assert!(
            sol.price.get() <= 1000.0 * 0.3 + 1e-9,
            "price = {}",
            sol.price
        );
    }

    #[test]
    fn best_effort_caps_absurd_feasible_prices_too() {
        // Target within 1e-12 of the attainable max: the exact clearing
        // price would be astronomical; the ceiling bounds it.
        let ps = vec![job(0, 1.0, 0.5)];
        let attainable = attainable_power(&ps);
        let sol = clear_best_effort(&ps, attainable * (1.0 - 1e-12));
        assert!(sol.price.get() <= 1000.0 * 0.5 + 1e-9);
        assert!(sol.power >= attainable * (1.0 - 2e-3));
    }

    #[test]
    fn best_effort_matches_solve_when_feasible() {
        let ps = vec![job(0, 1.0, 0.5)];
        let a = solve(&ps, w(62.5)).unwrap();
        let b = clear_best_effort(&ps, w(62.5));
        assert!((a.price.get() - b.price.get()).abs() < 1e-12);
    }

    #[test]
    fn zero_bids_clear_at_epsilon_price() {
        let ps = vec![job(0, 1.0, 0.0), job(1, 1.0, 0.0)];
        let sol = solve(&ps, w(200.0)).unwrap();
        assert!(sol.price.get() <= 1e-6, "price = {}", sol.price);
        assert!(sol.power >= w(200.0) * (1.0 - 1e-9));
    }

    #[test]
    fn index_matches_bisection_on_simple_market() {
        let ps = vec![job(0, 1.0, 0.2), job(1, 2.0, 0.5), job(2, 0.5, 0.1)];
        let idx = ClearingIndex::new(&ps);
        for target in [10.0, 50.0, 150.0, 300.0, 430.0] {
            let a = solve(&ps, w(target)).unwrap();
            let b = idx.clear(w(target)).unwrap();
            assert!(
                (a.price.get() - b.price.get()).abs() < 1e-6 * a.price.get().max(1.0),
                "target {target}: bisection {} vs closed form {}",
                a.price,
                b.price
            );
            assert!(b.power >= w(target) * (1.0 - 1e-9));
        }
    }

    #[test]
    fn index_error_cases_mirror_solve() {
        let idx = ClearingIndex::new(&[]);
        assert!(matches!(
            idx.clear(w(1.0)),
            Err(MarketError::NoParticipants)
        ));
        assert_eq!(idx.clear(w(0.0)).unwrap().price, Price::ZERO);
        let idx = ClearingIndex::new(&[job(0, 1.0, 0.2)]);
        assert!(matches!(
            idx.clear(w(1e6)),
            Err(MarketError::Infeasible { .. })
        ));
    }

    #[test]
    fn index_handles_zero_bids() {
        let ps = vec![job(0, 1.0, 0.0), job(1, 1.0, 0.0)];
        let idx = ClearingIndex::new(&ps);
        let sol = idx.clear(w(200.0)).unwrap();
        assert!(sol.power >= w(200.0) * (1.0 - 1e-9));
        assert!(sol.price.get() <= 1e-6);
    }

    #[test]
    fn index_survives_nan_poisoned_activation_order() {
        // A NaN watts_per_unit must not panic the index build (the old
        // `partial_cmp().unwrap()` comparator did); the poisoned entry
        // sorts deterministically via `total_cmp` instead.
        let mut ps = vec![job(0, 1.0, 0.2), job(1, 2.0, 0.5)];
        ps.push(Participant::new(
            2,
            SupplyFunction::new(1.0, 0.3).unwrap(),
            Watts::new(f64::NAN),
        ));
        let idx = ClearingIndex::new(&ps);
        // Clearing still answers (the NaN propagates into the power sums,
        // but building and querying the index is panic-free).
        let _ = idx.clear(w(50.0));
        let _ = idx.power_at(Price::new(1.0));
    }

    #[test]
    fn generic_solve_matches_specialized_for_hyperbolic_supplies() {
        let ps = vec![job(0, 1.0, 0.2), job(1, 2.0, 0.5)];
        let items: Vec<(crate::supply::SupplyFunction, f64)> =
            ps.iter().map(|p| (p.supply, p.watts_per_unit)).collect();
        let a = solve(&ps, w(150.0)).unwrap();
        let b = solve_supplies(&items, w(150.0)).unwrap();
        assert!((a.price.get() - b.price.get()).abs() < 1e-9);
        assert!((a.power.get() - b.power.get()).abs() < 1e-6);
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
        let sol = solve_supplies(&items, w(93.75)).unwrap();
        assert!(
            (sol.price.get() - 0.5).abs() < 1e-6,
            "price = {}",
            sol.price
        );
        assert!((items[0].0.supply(sol.price.get()) - 0.5).abs() < 1e-6);
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
        assert_eq!(solve_supplies(&items, w(0.0)).unwrap().price, Price::ZERO);
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
        let ps = vec![job(0, 1.0, 0.5)];
        let target = w(125.0 * (1.0 + 5e-10));
        let (res, folds) = search(&ps, target);
        assert!(
            matches!(res, Err(MarketError::Infeasible { .. })),
            "{res:?}"
        );
        assert!(folds <= 2, "{folds} folds");
        // A row with w = 0 leaves the monotone path; the doubling still
        // stops once the supply stops rising.
        let mut ps = ps;
        ps.push(Participant::new(
            1,
            SupplyFunction::new(1.0, 0.5).unwrap(),
            w(0.0),
        ));
        let (res, folds) = search(&ps, target);
        assert!(
            matches!(res, Err(MarketError::Infeasible { .. })),
            "{res:?}"
        );
        assert!(folds <= 80, "{folds} folds");
        // Best effort still clears at the ceiling, 1000× the activation.
        let sol = clear_best_effort(&ps, target);
        assert_eq!(sol.price, Price::new(500.0));
        assert_eq!(sol.power, aggregate_power(&ps, Price::new(500.0)));
    }

    #[test]
    fn seeded_search_spends_few_folds() {
        let ps: Vec<Participant> = (0..128u32)
            .map(|i| {
                let x = f64::from(i);
                Participant::new(
                    i.into(),
                    SupplyFunction::new(0.2 + (x * 0.37) % 0.8, (x * 0.61) % 0.9).unwrap(),
                    w(100.0 + x),
                )
            })
            .collect();
        let attainable = attainable_power(&ps);
        for frac in [0.01, 0.2, 0.5, 0.9] {
            let (res, folds) = search(&ps, attainable * frac);
            assert_eq!(res, plain_solve(&ps, attainable * frac));
            assert!(folds <= 12, "{folds} folds at {frac}");
        }
    }

    /// The search without replay: every query is a fresh fold, and the
    /// doubling stops with `Infeasible` once the bracket overflows or, on a
    /// market that is not monotone, once the supply stops rising.
    fn plain_solve(ps: &[Participant], target: Watts) -> Result<MclrSolution, MarketError> {
        if target <= Watts::ZERO {
            return Ok(MclrSolution::ZERO);
        }
        if ps.is_empty() {
            return Err(MarketError::NoParticipants);
        }
        let attainable = attainable_power(ps);
        let infeasible = MarketError::Infeasible {
            target_watts: target.get(),
            attainable_watts: attainable.get(),
        };
        if attainable < target * (1.0 - 1e-9) {
            return Err(infeasible);
        }
        let monotone = ps.iter().all(|p| {
            let (d, b, w) = (p.supply.delta_max(), p.supply.bid(), p.watts_per_unit);
            d.is_finite() && d >= 0.0 && b.is_finite() && b >= 0.0 && w.is_finite() && w > 0.0
        });
        let mut hi = ps
            .iter()
            .filter_map(|p| p.supply.activation_price())
            .fold(PRICE_EPS, |m, a| m.max(a.get()))
            .max(PRICE_EPS)
            * 2.0;
        let mut last: Option<Watts> = None;
        while aggregate_power(ps, Price::new(hi)) < target {
            let p = aggregate_power(ps, Price::new(hi));
            if !monotone && last.is_some_and(|l| p <= l) {
                return Err(infeasible);
            }
            last = Some(p);
            hi *= 2.0;
            if !hi.is_finite() {
                return Err(infeasible);
            }
        }
        let q = numeric::bisect_threshold(PRICE_EPS, hi, target.get(), 1e-12, |q| {
            aggregate_power(ps, Price::new(q)).get()
        })?;
        Ok(MclrSolution {
            price: Price::new(q),
            power: aggregate_power(ps, Price::new(q)),
        })
    }

    /// [`clear_best_effort`] over [`plain_solve`].
    fn plain_best_effort(ps: &[Participant], target: Watts) -> MclrSolution {
        let max_activation = ps
            .iter()
            .filter_map(|p| p.supply.activation_price())
            .fold(0.0f64, |m, a| m.max(a.get()));
        let ceiling = Price::new((PRICE_CEILING_FACTOR * max_activation).max(1.0));
        match plain_solve(ps, target) {
            Ok(sol) if sol.price <= ceiling => sol,
            _ => MclrSolution {
                price: ceiling,
                power: aggregate_power(ps, ceiling),
            },
        }
    }

    /// A market row: `kind` picks a zero Δ, a zero bid or one of three
    /// tied bids a fifth of the time each, else a free bid; `w` is
    /// 10^`log_w`.
    fn row(i: usize, (kind, delta, bid, log_w): (u8, f64, f64, f64), w_sign: f64) -> Participant {
        let (delta, bid) = match kind {
            0 => (0.0, bid),
            1 => (delta, 0.0),
            2 => (delta, [0.1, 0.25, 0.5][i % 3] * delta),
            _ => (delta, bid),
        };
        Participant::new(
            i as u64,
            SupplyFunction::new(delta, bid).unwrap(),
            Watts::new(w_sign * 10f64.powf(log_w)),
        )
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
        a: &Result<MclrSolution, MarketError>,
        b: &Result<MclrSolution, MarketError>,
    ) -> Result<(), TestCaseError> {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.price.get().to_bits(), y.price.get().to_bits());
                prop_assert_eq!(x.power.get().to_bits(), y.power.get().to_bits());
            }
            _ => prop_assert_eq!(a, b),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The replayed search decides every query as plain bisection
        /// does: the same price and power bits, the same errors.
        #[test]
        fn replayed_solve_equals_plain_bisection(
            rows in proptest::collection::vec((0u8..5, 0.01f64..2.0, 0.0f64..1.0, -3.0f64..4.0), 1..300),
            target in (0u8..10, -9.0f64..0.0),
        ) {
            let ps: Vec<Participant> = rows.iter().enumerate().map(|(i, &r)| row(i, r, 1.0)).collect();
            let target = target_of(attainable_power(&ps), target);
            assert_same(&solve(&ps, target), &plain_solve(&ps, target))?;
            let (a, b) = (clear_best_effort(&ps, target), plain_best_effort(&ps, target));
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
            let ps: Vec<Participant> = rows
                .iter()
                .zip(&signs)
                .enumerate()
                .map(|(i, (&r, &s))| row(i, r, [1.0, 1.0, -1.0, 0.0][usize::from(s)]))
                .collect();
            let target = target_of(attainable_power(&ps), target);
            assert_same(&solve(&ps, target), &plain_solve(&ps, target))?;
            let (a, b) = (clear_best_effort(&ps, target), plain_best_effort(&ps, target));
            assert_same(&Ok(a), &Ok(b))?;
        }
    }

    proptest! {
        /// The closed-form index clears identically to bisection on random
        /// markets.
        #[test]
        fn index_equals_bisection(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..30),
            frac in 0.05f64..0.95,
        ) {
            let ps: Vec<Participant> = bids
                .iter()
                .enumerate()
                .map(|(i, (delta, bid))| job(i as u64, *delta, *bid))
                .collect();
            let target = attainable_power(&ps) * frac;
            prop_assume!(target > Watts::ZERO);
            let a = solve(&ps, target).unwrap();
            let b = ClearingIndex::new(&ps).clear(target).unwrap();
            prop_assert!(
                (a.price.get() - b.price.get()).abs() < 1e-6 * a.price.get().max(1.0),
                "bisection {} vs closed form {}", a.price, b.price
            );
            prop_assert!(b.power >= target * (1.0 - 1e-6));
        }

        /// The clearing price is minimal: slightly below it the market
        /// under-delivers; at it, the target is met.
        #[test]
        fn clearing_price_is_minimal(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..20),
            frac in 0.05f64..0.95,
        ) {
            let ps: Vec<Participant> = bids
                .iter()
                .enumerate()
                .map(|(i, (delta, bid))| job(i as u64, *delta, *bid))
                .collect();
            let target = attainable_power(&ps) * frac;
            prop_assume!(target > Watts::ZERO);
            let sol = solve(&ps, target).unwrap();
            prop_assert!(sol.power >= target * (1.0 - 1e-6));
            let below = aggregate_power(&ps, sol.price * (1.0 - 1e-6));
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
            let ps: Vec<Participant> = bids
                .iter()
                .enumerate()
                .map(|(i, (delta, bid))| job(i as u64, *delta, *bid))
                .collect();
            let target = attainable_power(&ps) * frac;
            prop_assume!(target > Watts::ZERO);
            let sol = solve(&ps, target).unwrap();
            prop_assert!(
                sol.power >= target * (1.0 - 1e-6),
                "under-delivered: {} < {target}", sol.power
            );
            prop_assert!(
                sol.power.get() <= target.get() * 1.01 + 1e-3,
                "overshot the minimal clearing: {} vs {target}", sol.power
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
            let ps: Vec<Participant> = bids
                .iter()
                .enumerate()
                .map(|(i, (delta, bid))| job(i as u64, *delta, *bid))
                .collect();
            let attainable = attainable_power(&ps);
            let (lo, hi) = if frac_lo <= frac_hi {
                (frac_lo, frac_hi)
            } else {
                (frac_hi, frac_lo)
            };
            let (t_lo, t_hi) = (attainable * lo, attainable * hi);
            prop_assume!(t_lo > Watts::ZERO);
            let a = solve(&ps, t_lo).unwrap();
            let b = solve(&ps, t_hi).unwrap();
            prop_assert!(
                a.price.get() <= b.price.get() * (1.0 + 1e-9) + 1e-9,
                "price not monotone: {} @ {t_lo} vs {} @ {t_hi}", a.price, b.price
            );
            prop_assert!(
                a.power.get() <= b.power.get() + 1e-6,
                "power not monotone: {} vs {}", a.power, b.power
            );
        }

        /// Best-effort clearing never pays above the price ceiling and,
        /// for infeasible targets, extracts (essentially) every Δ.
        #[test]
        fn best_effort_is_bounded_by_the_ceiling(
            bids in proptest::collection::vec((0.01f64..2.0, 0.0f64..1.0), 1..30),
        ) {
            let ps: Vec<Participant> = bids
                .iter()
                .enumerate()
                .map(|(i, (delta, bid))| job(i as u64, *delta, *bid))
                .collect();
            let attainable = attainable_power(&ps);
            let max_activation = ps
                .iter()
                .filter_map(|p| p.supply.activation_price())
                .fold(0.0f64, |m, a| m.max(a.get()));
            let ceiling = (1000.0 * max_activation).max(1.0);
            let sol = clear_best_effort(&ps, attainable * 2.0);
            prop_assert!(sol.price.get() <= ceiling * (1.0 + 1e-12));
            prop_assert!(
                sol.power >= attainable * (1.0 - 2e-3),
                "ceiling must extract ~all supply: {} of {attainable}", sol.power
            );
        }
    }
}
