//! The shared struct-of-arrays market instance.
//!
//! Every clearing scheme in the paper — MClr/MPR-STAT, MPR-INT, OPT, EQL,
//! VCG — solves the *same* overload instance: a set of jobs, each with a
//! maximum reduction `Δ_m`, an optional static bid `b_m`, a watts-per-unit
//! conversion, a core count, and (for the cost-aware schemes) a private
//! cost curve. [`MarketInstance`] materializes that instance **once per
//! overload** as contiguous parallel arrays, so solvers read straight from
//! slices instead of each re-cloning its own array of row structs — the
//! single seam later PRs need for batched/parallel/sharded clearing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::CostModel;
use crate::mechanism::view::{GroupId, InstanceView};
use crate::mechanism::MechanismError;
use crate::units::Watts;

/// Identifier of a job participating in the market.
pub type JobId = u64;

/// Monotonic instance-identity counter; lets mechanisms cache per-instance
/// state (`prepare`) and detect staleness without hashing array contents.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// One participant's row of the instance, in builder form.
///
/// ```
/// use std::sync::Arc;
/// use mpr_core::mechanism::{MarketInstance, ParticipantSpec};
/// use mpr_core::{QuadraticCost, Watts};
///
/// let instance: MarketInstance = (0..4)
///     .map(|id| {
///         ParticipantSpec::new(id, 1.0, Watts::new(125.0))
///             .with_bid(0.2)
///             .with_cost(Arc::new(QuadraticCost::new(1.0, 1.0)))
///     })
///     .collect();
/// assert_eq!(instance.len(), 4);
/// ```
#[derive(Clone)]
pub struct ParticipantSpec {
    id: JobId,
    delta_max: f64,
    watts_per_unit: f64,
    bid: Option<f64>,
    cores: Option<f64>,
    cost: Option<Arc<dyn CostModel>>,
}

impl std::fmt::Debug for ParticipantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticipantSpec")
            .field("id", &self.id)
            .field("delta_max", &self.delta_max)
            .field("watts_per_unit", &self.watts_per_unit)
            .field("bid", &self.bid)
            .field("cores", &self.cores)
            .field("has_cost", &self.cost.is_some())
            .finish()
    }
}

impl ParticipantSpec {
    /// Creates a spec for job `id` with maximum reduction `delta_max`
    /// (cores) and the job's power yield per unit of reduction.
    #[must_use]
    pub fn new(id: JobId, delta_max: f64, watts_per_unit: Watts) -> Self {
        Self {
            id,
            delta_max,
            watts_per_unit: watts_per_unit.get(),
            bid: None,
            cores: None,
            cost: None,
        }
    }

    /// Sets the static bid `b_m` (Eqn. 3). Bid-driven mechanisms
    /// (MPR-STAT and the static fallback) ignore rows without one.
    #[must_use]
    pub fn with_bid(mut self, bid: f64) -> Self {
        self.bid = Some(bid);
        self
    }

    /// Sets the job's core count (EQL reduces a fraction of *cores*, not of
    /// `Δ_m`). Defaults to `delta_max` when unset.
    #[must_use]
    pub fn with_cores(mut self, cores: f64) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Attaches the job's private cost model (used by MPR-INT agents, OPT,
    /// and VCG).
    #[must_use]
    pub fn with_cost(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = Some(cost);
        self
    }
}

/// A struct-of-arrays snapshot of one overload instance, shared by every
/// mechanism (see the module docs).
///
/// Rows keep their build order; the index of a row is the participant's
/// position in every per-participant slice of a
/// [`Clearing`](crate::mechanism::Clearing).
#[derive(Clone)]
pub struct MarketInstance {
    ids: Vec<JobId>,
    delta_max: Vec<f64>,
    bids: Vec<f64>,
    watts_per_unit: Vec<f64>,
    cores: Vec<f64>,
    costs: Vec<Option<Arc<dyn CostModel>>>,
    /// Per-row "a bid was supplied at build time" mask. The bids column
    /// stores NaN both for "no bid" and for a supplied-but-NaN bid, so
    /// subset views need this mask to recompute their own degeneracy
    /// counters.
    supplied: Vec<bool>,
    bids_supplied: usize,
    finite_bids: usize,
    token: u64,
}

impl std::fmt::Debug for MarketInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarketInstance")
            .field("participants", &self.ids.len())
            .field("bids_supplied", &self.bids_supplied)
            .field("finite_bids", &self.finite_bids)
            .field("token", &self.token)
            .finish()
    }
}

impl MarketInstance {
    /// Builds an instance from participant specs (also available through
    /// `collect()`).
    #[must_use]
    pub fn from_specs<I: IntoIterator<Item = ParticipantSpec>>(specs: I) -> Self {
        specs.into_iter().collect()
    }

    /// Number of participants (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the instance has no participants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Job ids, in row order.
    #[must_use]
    pub fn ids(&self) -> &[JobId] {
        &self.ids
    }

    /// Maximum reductions `Δ_m` (cores), in row order.
    #[must_use]
    pub fn deltas(&self) -> &[f64] {
        &self.delta_max
    }

    /// Static bids `b_m`, in row order. Rows built without a bid hold NaN;
    /// use [`MarketInstance::bid`] for the checked view.
    #[must_use]
    pub fn bids(&self) -> &[f64] {
        &self.bids
    }

    /// Watts of power reduction per unit of resource reduction, in row
    /// order.
    #[must_use]
    pub fn watts_per_unit_slice(&self) -> &[f64] {
        &self.watts_per_unit
    }

    /// Core counts, in row order (defaulted to `Δ_m` where unspecified).
    #[must_use]
    pub fn cores(&self) -> &[f64] {
        &self.cores
    }

    /// Cost models, in row order (`None` for bid-only rows).
    #[must_use]
    pub fn costs(&self) -> &[Option<Arc<dyn CostModel>>] {
        &self.costs
    }

    /// The finite bid of row `i`, if one was supplied.
    #[must_use]
    pub fn bid(&self, i: usize) -> Option<f64> {
        self.bids.get(i).copied().filter(|b| b.is_finite())
    }

    /// Identity token for `prepare`-time caching; changes whenever a new
    /// instance (including a [`MarketInstance::with_bids`] patch) is built.
    #[must_use]
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Maximum attainable power reduction `Σ Δ_m · watts_per_unit`.
    #[must_use]
    pub fn attainable_watts(&self) -> Watts {
        Watts::new(
            self.delta_max
                .iter()
                .zip(&self.watts_per_unit)
                .map(|(d, w)| d * w)
                .sum(),
        )
    }

    /// Power drawn through the cores `Σ cores · watts_per_unit` — the pool
    /// EQL's uniform fraction is taken from.
    #[must_use]
    pub fn core_capacity_watts(&self) -> Watts {
        Watts::new(
            self.cores
                .iter()
                .zip(&self.watts_per_unit)
                .map(|(c, w)| c * w)
                .sum(),
        )
    }

    /// A copy of this instance with every bid replaced (used by fallback
    /// chains to re-clear over last-known bids). Cost models are shared via
    /// `Arc`, so the patch is cheap. Missing entries keep rows bid-less;
    /// extra entries are ignored.
    #[must_use]
    pub fn with_bids(&self, bids: &[f64]) -> MarketInstance {
        let mut patched = self.clone();
        let n = self.ids.len();
        patched.bids = bids.iter().copied().take(n).collect();
        patched.bids.resize(n, f64::NAN);
        patched.bids_supplied = bids.len().min(n);
        patched.supplied = (0..n).map(|i| i < patched.bids_supplied).collect();
        patched.finite_bids = patched.bids.iter().filter(|b| b.is_finite()).count();
        patched.token = NEXT_TOKEN.fetch_add(1, Ordering::SeqCst);
        patched
    }

    /// Whether row `i` was built with a bid (finite or not) — the checked
    /// companion of the NaN-encoded [`MarketInstance::bids`] column.
    #[must_use]
    pub fn bid_supplied(&self, i: usize) -> bool {
        self.supplied.get(i).copied().unwrap_or(false)
    }

    /// A borrowed full-width [`InstanceView`] over this instance — what
    /// every [`Mechanism`](crate::mechanism::Mechanism) clears.
    #[must_use]
    pub fn view(&self) -> InstanceView<'_> {
        InstanceView::full(self)
    }

    /// An index-mapped window over a subset of rows (parent row indices,
    /// ascending order not required but preserved). Out-of-range indices
    /// are dropped. A selection covering every row in order collapses to
    /// the borrowed full view — bit-identical to clearing the instance
    /// directly.
    #[must_use]
    pub fn select(&self, rows: &[u32]) -> InstanceView<'_> {
        InstanceView::subset(self, rows, None)
    }

    /// Partitions the instance into per-group subtree views.
    ///
    /// `groups[i]` names the group of row `i`; rows beyond `groups.len()`
    /// belong to no group and are dropped. Views come back sorted by
    /// ascending [`GroupId`], each with its rows in parent order. When a
    /// single group covers every row the lone view is the borrowed full
    /// view (the identity partition), so a one-group partition clears
    /// bit-identically to the flat instance.
    #[must_use]
    pub fn partition_by(&self, groups: &[GroupId]) -> Vec<InstanceView<'_>> {
        let mut by_group: std::collections::BTreeMap<GroupId, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (row, &g) in groups.iter().enumerate().take(self.len()) {
            if let Ok(idx) = u32::try_from(row) {
                by_group.entry(g).or_default().push(idx);
            }
        }
        by_group
            .into_iter()
            .map(|(g, rows)| InstanceView::subset(self, &rows, Some(g)))
            .collect()
    }

    /// Materializes the given parent rows as a standalone sub-instance
    /// (fresh token, per-subset degeneracy counters). Cost models are
    /// shared via `Arc`; out-of-range rows are skipped.
    #[must_use]
    pub(crate) fn gather(&self, rows: &[u32]) -> MarketInstance {
        let mut out = MarketInstance {
            ids: Vec::with_capacity(rows.len()),
            delta_max: Vec::with_capacity(rows.len()),
            bids: Vec::with_capacity(rows.len()),
            watts_per_unit: Vec::with_capacity(rows.len()),
            cores: Vec::with_capacity(rows.len()),
            costs: Vec::with_capacity(rows.len()),
            supplied: Vec::with_capacity(rows.len()),
            bids_supplied: 0,
            finite_bids: 0,
            token: NEXT_TOKEN.fetch_add(1, Ordering::SeqCst),
        };
        for &r in rows {
            let i = r as usize;
            let (Some(id), Some(delta), Some(bid), Some(wpu), Some(cores), Some(cost)) = (
                self.ids.get(i),
                self.delta_max.get(i),
                self.bids.get(i),
                self.watts_per_unit.get(i),
                self.cores.get(i),
                self.costs.get(i),
            ) else {
                continue;
            };
            out.ids.push(*id);
            out.delta_max.push(*delta);
            out.bids.push(*bid);
            out.watts_per_unit.push(*wpu);
            out.cores.push(*cores);
            out.costs.push(cost.clone());
            let was_supplied = self.bid_supplied(i);
            out.supplied.push(was_supplied);
            if was_supplied {
                out.bids_supplied += 1;
                if bid.is_finite() {
                    out.finite_bids += 1;
                }
            }
        }
        out
    }

    /// Rejects instances no mechanism can meaningfully clear: no
    /// participants at all, or bids were supplied but every one is
    /// non-finite (an all-NaN bid vector would otherwise clear as a silent
    /// zero-reduction success).
    ///
    /// # Errors
    ///
    /// [`MechanismError::DegenerateInstance`] with the offending condition.
    pub fn ensure_clearable(&self) -> Result<(), MechanismError> {
        if self.ids.is_empty() {
            return Err(MechanismError::DegenerateInstance {
                reason: "instance has no participants",
            });
        }
        if self.bids_supplied > 0 && self.finite_bids == 0 {
            return Err(MechanismError::DegenerateInstance {
                reason: "every supplied bid is non-finite",
            });
        }
        Ok(())
    }
}

impl FromIterator<ParticipantSpec> for MarketInstance {
    fn from_iter<I: IntoIterator<Item = ParticipantSpec>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let hint = iter.size_hint().0;
        let mut ids = Vec::with_capacity(hint);
        let mut delta_max = Vec::with_capacity(hint);
        let mut bids = Vec::with_capacity(hint);
        let mut watts_per_unit = Vec::with_capacity(hint);
        let mut cores = Vec::with_capacity(hint);
        let mut costs = Vec::with_capacity(hint);
        let mut supplied = Vec::with_capacity(hint);
        let mut bids_supplied = 0;
        let mut finite_bids = 0;
        for spec in iter {
            ids.push(spec.id);
            delta_max.push(spec.delta_max);
            watts_per_unit.push(spec.watts_per_unit);
            cores.push(spec.cores.unwrap_or(spec.delta_max));
            costs.push(spec.cost);
            supplied.push(spec.bid.is_some());
            match spec.bid {
                Some(b) => {
                    bids_supplied += 1;
                    if b.is_finite() {
                        finite_bids += 1;
                    }
                    bids.push(b);
                }
                None => bids.push(f64::NAN),
            }
        }
        MarketInstance {
            ids,
            delta_max,
            bids,
            watts_per_unit,
            cores,
            costs,
            supplied,
            bids_supplied,
            finite_bids,
            token: NEXT_TOKEN.fetch_add(1, Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;

    #[test]
    fn arrays_stay_parallel_and_defaults_apply() {
        let inst: MarketInstance = vec![
            ParticipantSpec::new(0, 1.0, Watts::new(125.0)).with_bid(0.2),
            ParticipantSpec::new(1, 2.0, Watts::new(100.0)).with_cores(16.0),
            ParticipantSpec::new(2, 0.5, Watts::new(50.0))
                .with_cost(Arc::new(QuadraticCost::new(1.0, 1.0))),
        ]
        .into_iter()
        .collect();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.ids(), &[0, 1, 2]);
        assert_eq!(inst.deltas(), &[1.0, 2.0, 0.5]);
        // Unset cores default to delta_max.
        assert_eq!(inst.cores(), &[1.0, 16.0, 0.5]);
        assert_eq!(inst.bid(0), Some(0.2));
        assert_eq!(inst.bid(1), None);
        assert!(inst.costs()[2].is_some());
        assert!((inst.attainable_watts().get() - (125.0 + 200.0 + 25.0)).abs() < 1e-12);
        assert!((inst.core_capacity_watts().get() - (125.0 + 1600.0 + 25.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_is_degenerate() {
        let inst = MarketInstance::from_specs(std::iter::empty());
        assert!(inst.is_empty());
        assert!(matches!(
            inst.ensure_clearable(),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    #[test]
    fn all_nan_bids_are_degenerate_but_bidless_rows_are_not() {
        let nan_bids: MarketInstance = (0..3)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)).with_bid(f64::NAN))
            .collect();
        assert!(matches!(
            nan_bids.ensure_clearable(),
            Err(MechanismError::DegenerateInstance { .. })
        ));

        // OPT/EQL instances carry no bids at all: clearable.
        let bidless: MarketInstance = (0..3)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)))
            .collect();
        assert!(bidless.ensure_clearable().is_ok());

        // One finite bid among NaNs: clearable (the NaN rows just sit out).
        let mixed: MarketInstance = vec![
            ParticipantSpec::new(0, 1.0, Watts::new(125.0)).with_bid(f64::NAN),
            ParticipantSpec::new(1, 1.0, Watts::new(125.0)).with_bid(0.3),
        ]
        .into_iter()
        .collect();
        assert!(mixed.ensure_clearable().is_ok());
    }

    #[test]
    fn with_bids_patches_and_changes_token() {
        let inst: MarketInstance = (0..3)
            .map(|id| ParticipantSpec::new(id, 1.0, Watts::new(125.0)))
            .collect();
        let old_token = inst.token();
        let patched = inst.with_bids(&[0.1, 0.2, 0.3]);
        assert_ne!(patched.token(), old_token);
        assert_eq!(patched.bid(2), Some(0.3));
        assert!(patched.ensure_clearable().is_ok());
        // Short patch leaves the tail bid-less.
        let short = inst.with_bids(&[0.5]);
        assert_eq!(short.bid(0), Some(0.5));
        assert_eq!(short.bid(2), None);
    }

    #[test]
    fn spec_with_bid_carries_the_bid() {
        let spec = ParticipantSpec::new(7, 2.0, Watts::new(125.0)).with_bid(0.4);
        let inst: MarketInstance = [spec].into_iter().collect();
        assert_eq!(inst.ids(), &[7]);
        assert_eq!(inst.bid(0), Some(0.4));
        assert_eq!(inst.deltas(), &[2.0]);
        assert_eq!(inst.watts_per_unit_slice(), &[125.0]);
    }
}
