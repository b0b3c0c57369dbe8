//! Borrowed, index-mapped windows over a [`MarketInstance`].
//!
//! An [`InstanceView`] is what every [`Mechanism`](crate::mechanism::Mechanism)
//! actually clears. The full view borrows the parent's SoA columns
//! directly; a subset view gathers its rows **once** into contiguous
//! columns (cost models shared via `Arc`) and keeps the row map back to
//! the parent, so per-subtree markets stay cache-friendly and their
//! [`Clearing`](crate::mechanism::Clearing)s can be folded back into
//! parent row order deterministically
//! ([`Clearing::merge`](crate::mechanism::Clearing::merge)).
//!
//! The identity partition is free and exact: selecting every row in order
//! collapses to the borrowed full view, so a one-group
//! [`MarketInstance::partition_by`] clears bit-identically to the flat
//! instance — the invariant the federated equivalence proptests pin down.

use std::sync::Arc;

use crate::cost::CostModel;
use crate::mechanism::JobId;
use crate::mechanism::{MarketInstance, MechanismError};
use crate::units::Watts;

/// Identifies one partition group (e.g. a rack-level subtree market) in
/// [`MarketInstance::partition_by`].
pub type GroupId = u32;

/// A window over a subset of a [`MarketInstance`]'s rows (possibly all of
/// them), presenting the same contiguous-column API the owned instance
/// has.
///
/// Row `i` of the view maps to parent row [`InstanceView::parent_row`]`(i)`;
/// every per-row slice of a [`Clearing`](crate::mechanism::Clearing)
/// produced from the view is positional in *view* order.
#[derive(Clone)]
pub struct InstanceView<'a> {
    source: &'a MarketInstance,
    /// `None` for the identity (full) view; otherwise view row → parent
    /// row, paired with the gathered sub-instance in `gathered`.
    rows: Option<Arc<[u32]>>,
    gathered: Option<MarketInstance>,
    group: Option<GroupId>,
}

impl std::fmt::Debug for InstanceView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceView")
            .field("rows", &self.len())
            .field("of", &self.source.len())
            .field("full", &self.is_full())
            .field("group", &self.group)
            .finish()
    }
}

impl<'a> InstanceView<'a> {
    /// The identity view: every parent row, borrowed (no gather).
    #[must_use]
    pub fn full(source: &'a MarketInstance) -> Self {
        Self {
            source,
            rows: None,
            gathered: None,
            group: None,
        }
    }

    /// A subset view over the given parent rows. Out-of-range indices are
    /// dropped; a selection naming every parent row in ascending order
    /// collapses to the full view.
    pub(crate) fn subset(source: &'a MarketInstance, rows: &[u32], group: Option<GroupId>) -> Self {
        let n = source.len();
        let in_range: Vec<u32> = rows.iter().copied().filter(|&r| (r as usize) < n).collect();
        let identity =
            in_range.len() == n && in_range.iter().enumerate().all(|(i, &r)| i == r as usize);
        if identity {
            return Self {
                group,
                ..Self::full(source)
            };
        }
        let gathered = source.gather(&in_range);
        Self {
            source,
            rows: Some(in_range.into()),
            gathered: Some(gathered),
            group,
        }
    }

    /// The columns backing this view: the parent for the full view, the
    /// gathered sub-instance for subsets.
    fn cols(&self) -> &MarketInstance {
        self.gathered.as_ref().unwrap_or(self.source)
    }

    /// The parent instance this view windows into.
    #[must_use]
    pub fn parent(&self) -> &'a MarketInstance {
        self.source
    }

    /// `true` when the view covers every parent row in order (no gather,
    /// no index mapping).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rows.is_none()
    }

    /// The partition group this view was produced for, if any.
    #[must_use]
    pub fn group(&self) -> Option<GroupId> {
        self.group
    }

    /// Parent row index of view row `i` (identity for the full view;
    /// out-of-range reads as `i` itself).
    #[must_use]
    pub fn parent_row(&self, i: usize) -> usize {
        match &self.rows {
            None => i,
            Some(rows) => rows.get(i).map_or(i, |&r| r as usize),
        }
    }

    /// Number of rows in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols().len()
    }

    /// `true` when the view has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols().is_empty()
    }

    /// Job ids, in view-row order.
    #[must_use]
    pub fn ids(&self) -> &[JobId] {
        self.cols().ids()
    }

    /// Maximum reductions `Δ_m` (cores), in view-row order.
    #[must_use]
    pub fn deltas(&self) -> &[f64] {
        self.cols().deltas()
    }

    /// Static bids `b_m` (NaN where unsupplied), in view-row order.
    #[must_use]
    pub fn bids(&self) -> &[f64] {
        self.cols().bids()
    }

    /// Watts per unit of reduction, in view-row order.
    #[must_use]
    pub fn watts_per_unit_slice(&self) -> &[f64] {
        self.cols().watts_per_unit_slice()
    }

    /// Core counts, in view-row order.
    #[must_use]
    pub fn cores(&self) -> &[f64] {
        self.cols().cores()
    }

    /// Cost models, in view-row order.
    #[must_use]
    pub fn costs(&self) -> &[Option<Arc<dyn CostModel>>] {
        self.cols().costs()
    }

    /// The finite bid of view row `i`, if one was supplied.
    #[must_use]
    pub fn bid(&self, i: usize) -> Option<f64> {
        self.cols().bid(i)
    }

    /// Whether view row `i` was built with a bid (finite or not).
    #[must_use]
    pub fn bid_supplied(&self, i: usize) -> bool {
        self.cols().bid_supplied(i)
    }

    /// Instance-identity token for `prepare`-time caching. The full view
    /// shares the parent's token; a gathered subset is a distinct
    /// instance with its own token.
    #[must_use]
    pub fn token(&self) -> u64 {
        self.cols().token()
    }

    /// Maximum attainable power reduction over the view's rows.
    #[must_use]
    pub fn attainable_watts(&self) -> Watts {
        self.cols().attainable_watts()
    }

    /// Power drawn through the view's cores (the EQL pool).
    #[must_use]
    pub fn core_capacity_watts(&self) -> Watts {
        self.cols().core_capacity_watts()
    }

    /// Degeneracy check scoped to the view's rows: empty, or bids were
    /// supplied but every one in the window is non-finite.
    ///
    /// # Errors
    ///
    /// [`MechanismError::DegenerateInstance`] with the offending condition.
    pub fn ensure_clearable(&self) -> Result<(), MechanismError> {
        self.cols().ensure_clearable()
    }

    /// A standalone instance of this view's rows with every bid replaced
    /// (positional in view order) — how a
    /// [`FallbackChain`](crate::mechanism::FallbackChain) re-clears a
    /// window over fresher bids.
    #[must_use]
    pub fn with_bids(&self, bids: &[f64]) -> MarketInstance {
        self.cols().with_bids(bids)
    }

    /// Materializes the view as an owned sub-instance (fresh token).
    #[must_use]
    pub fn to_instance(&self) -> MarketInstance {
        match &self.gathered {
            Some(g) => g.clone(),
            None => self.source.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::mechanism::ParticipantSpec;

    fn instance() -> MarketInstance {
        vec![
            ParticipantSpec::new(10, 1.0, Watts::new(100.0)).with_bid(0.2),
            ParticipantSpec::new(11, 2.0, Watts::new(125.0)),
            ParticipantSpec::new(12, 0.5, Watts::new(50.0))
                .with_bid(f64::NAN)
                .with_cores(8.0),
            ParticipantSpec::new(13, 4.0, Watts::new(75.0))
                .with_cost(Arc::new(QuadraticCost::new(1.0, 1.0))),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn full_view_borrows_and_shares_the_token() {
        let inst = instance();
        let v = inst.view();
        assert!(v.is_full());
        assert_eq!(v.len(), 4);
        assert_eq!(v.ids(), inst.ids());
        assert_eq!(v.token(), inst.token());
        assert_eq!(v.parent_row(2), 2);
        assert!(v.ensure_clearable().is_ok());
    }

    #[test]
    fn identity_selection_collapses_to_the_full_view() {
        let inst = instance();
        let v = inst.select(&[0, 1, 2, 3]);
        assert!(v.is_full());
        assert_eq!(v.token(), inst.token());
    }

    #[test]
    fn subset_view_gathers_rows_and_maps_back() {
        let inst = instance();
        let v = inst.select(&[3, 0]);
        assert!(!v.is_full());
        assert_eq!(v.len(), 2);
        assert_eq!(v.ids(), &[13, 10]);
        assert_eq!(v.parent_row(0), 3);
        assert_eq!(v.parent_row(1), 0);
        assert_eq!(v.deltas(), &[4.0, 1.0]);
        assert_eq!(v.bid(1), Some(0.2));
        assert!(v.costs()[0].is_some());
        assert_ne!(v.token(), inst.token());
        assert!((v.attainable_watts().get() - (4.0 * 75.0 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn subset_degeneracy_is_scoped_to_the_window() {
        let inst = instance();
        // Row 2's supplied bid is NaN: alone it is degenerate ...
        assert!(matches!(
            inst.select(&[2]).ensure_clearable(),
            Err(MechanismError::DegenerateInstance { .. })
        ));
        // ... rows without bids are not ...
        assert!(inst.select(&[1, 3]).ensure_clearable().is_ok());
        // ... and a finite bid rescues the NaN row.
        assert!(inst.select(&[0, 2]).ensure_clearable().is_ok());
        // Empty selection is degenerate.
        assert!(matches!(
            inst.select(&[]).ensure_clearable(),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    #[test]
    fn out_of_range_rows_are_dropped() {
        let inst = instance();
        let v = inst.select(&[1, 99]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.ids(), &[11]);
    }

    #[test]
    fn partition_by_orders_groups_and_keeps_row_order() {
        let inst = instance();
        let views = inst.partition_by(&[2, 0, 2, 0]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].group(), Some(0));
        assert_eq!(views[0].ids(), &[11, 13]);
        assert_eq!(views[1].group(), Some(2));
        assert_eq!(views[1].ids(), &[10, 12]);
    }

    #[test]
    fn one_group_partition_is_the_identity() {
        let inst = instance();
        let views = inst.partition_by(&[7, 7, 7, 7]);
        assert_eq!(views.len(), 1);
        assert!(views[0].is_full());
        assert_eq!(views[0].group(), Some(7));
        assert_eq!(views[0].token(), inst.token());
    }

    #[test]
    fn short_group_vector_drops_the_tail() {
        let inst = instance();
        let views = inst.partition_by(&[1, 1]);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].ids(), &[10, 11]);
    }

    #[test]
    fn view_with_bids_patches_the_window() {
        let inst = instance();
        let patched = inst.select(&[3, 1]).with_bids(&[0.9, 0.8]);
        assert_eq!(patched.ids(), &[13, 11]);
        assert_eq!(patched.bid(0), Some(0.9));
        assert_eq!(patched.bid(1), Some(0.8));
    }
}
