//! Infrastructure fault injection for the power tree.
//!
//! A [`GridFaultPlan`] is the infrastructure sibling of the agent, network,
//! sensor and disk fault plans: a seeded ChaCha8 schedule of UPS failures,
//! ATS transfers with derated capacity, PDU breaker trips and gradual
//! capacity deratings, each with a scheduled repair time. The schedule is a
//! **pure function** of `(plan, topology)` — no mutable fault state exists
//! anywhere — so checkpoints stay format-stable, resume is bit-identical,
//! and every consumer (engine, chaos oracles, proptests) reconstructs the
//! exact same fault timeline independently.
//!
//! A [`TopologyState`] is the mutable-in-time view the plan induces over an
//! immutable [`TopologySpec`] at one instant: per-node liveness (a dead
//! node kills its whole subtree) and per-node derate factors. Federated
//! clearing fences dead subtrees out of the [`PowerHierarchy`] it builds
//! ([`TopologyState::to_hierarchy_scaled`] prunes them), reassigns their
//! jobs to the nearest surviving sibling rack
//! ([`TopologyState::reassign_rack`]), and clears the survivors against
//! derated capacities. Once every fault is repaired the state compares
//! bit-identical to the healthy spec, so post-repair clearing is ULP-exact
//! with the never-faulted run — one of the chaos oracles' invariants.

use std::borrow::Cow;

use mpr_core::Watts;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::hierarchy::{LevelKind, PowerHierarchy};
use crate::topology::{TopologyError, TopologySpec};

/// Per-node stream separator so each node's fault draws are independent of
/// every other node's (adding a node never reshuffles existing schedules).
const NODE_SEED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded schedule of infrastructure faults over a power tree.
///
/// Probabilities are **per node of the matching kind**: each UPS fails with
/// `ups_failure_prob`, each ATS transfers onto its derated alternate feed
/// with `ats_derate_prob`, each PDU trips its breaker with `pdu_trip_prob`,
/// and every node (any kind) gradually derates with `derate_prob`. Onsets
/// are drawn uniformly from `[onset_secs, onset_secs + window_secs)` and
/// each fault repairs after `repair_secs · [0.5, 1.5)`. All draws come from
/// a per-node ChaCha8 stream, so the schedule is deterministic, bit-stable
/// across thread counts, and insensitive to unrelated nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridFaultPlan {
    /// Seed of the fault schedule (independent of the simulation seed).
    pub seed: u64,
    /// Probability each UPS suffers a hard failure (subtree dead until
    /// repair).
    pub ups_failure_prob: f64,
    /// Probability each ATS transfers to its alternate feed at derated
    /// capacity.
    pub ats_derate_prob: f64,
    /// Remaining capacity fraction while an ATS runs on its alternate feed.
    pub ats_derate_frac: f64,
    /// Probability each PDU trips its breaker (subtree dead until repair).
    pub pdu_trip_prob: f64,
    /// Probability each node (any kind) gradually derates.
    pub derate_prob: f64,
    /// Capacity fraction a gradual derating ramps down to.
    pub derate_floor: f64,
    /// Earliest fault onset, seconds.
    pub onset_secs: f64,
    /// Width of the onset window, seconds (onsets uniform inside it).
    pub window_secs: f64,
    /// Base repair duration, seconds; each fault repairs after
    /// `repair_secs · [0.5, 1.5)`. `f64::INFINITY` means never repaired.
    pub repair_secs: f64,
}

impl Default for GridFaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x6772_6964_5eed,
            ups_failure_prob: 0.0,
            ats_derate_prob: 0.0,
            ats_derate_frac: 0.6,
            pdu_trip_prob: 0.0,
            derate_prob: 0.0,
            derate_floor: 0.7,
            onset_secs: 0.0,
            window_secs: 3600.0,
            repair_secs: 1800.0,
        }
    }
}

impl GridFaultPlan {
    /// A plan failing each UPS with the given probability (the chaos
    /// matrix's canonical infrastructure fault).
    #[must_use]
    pub fn ups_outage(prob: f64) -> Self {
        Self {
            ups_failure_prob: prob.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// **Test-only.** A plan that fails every UPS at `t = 0` and never
    /// repairs it — the chaos harness's planted infrastructure bug.
    #[must_use]
    pub fn always_on_ups_failure() -> Self {
        Self {
            ups_failure_prob: 1.0,
            onset_secs: 0.0,
            window_secs: 0.0,
            repair_secs: f64::INFINITY,
            ..Self::default()
        }
    }

    /// `true` when at least one fault class can fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.ups_failure_prob > 0.0
            || self.ats_derate_prob > 0.0
            || self.pdu_trip_prob > 0.0
            || self.derate_prob > 0.0
    }

    /// The per-node fault RNG: seeded from the plan seed and the node
    /// index only, so one node's schedule never depends on another's.
    fn node_rng(&self, node: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed ^ (node as u64 + 1).wrapping_mul(NODE_SEED_MUL))
    }

    /// The full fault schedule this plan induces over `spec`, in node
    /// order (at most two faults per node: its class fault, then a gradual
    /// derating).
    #[must_use]
    pub fn schedule(&self, spec: &TopologySpec) -> Vec<GridFault> {
        let mut out = Vec::new();
        if !self.is_active() {
            return out;
        }
        for (i, node) in spec.nodes.iter().enumerate() {
            let mut rng = self.node_rng(i);
            // Fixed draw order per node: class roll/onset/duration, then
            // derate roll/onset/duration — consumed unconditionally so a
            // probability change never reshuffles the other draws.
            let class_roll: f64 = rng.gen();
            let class_onset: f64 = rng.gen();
            let class_dur: f64 = rng.gen();
            let derate_roll: f64 = rng.gen();
            let derate_onset: f64 = rng.gen();
            let derate_dur: f64 = rng.gen();
            let (class_prob, kind) = match node.kind {
                LevelKind::Ups => (self.ups_failure_prob, GridFaultKind::UpsFailure),
                LevelKind::Ats => (
                    self.ats_derate_prob,
                    GridFaultKind::AtsDerate {
                        frac: self.ats_derate_frac.clamp(0.01, 1.0),
                    },
                ),
                LevelKind::Pdu => (self.pdu_trip_prob, GridFaultKind::PduTrip),
                LevelKind::Rack => (0.0, GridFaultKind::PduTrip),
            };
            if class_roll < class_prob {
                let start = self.onset_secs + class_onset * self.window_secs;
                out.push(GridFault {
                    node: i,
                    kind,
                    start_secs: start,
                    end_secs: start + self.repair_secs * (0.5 + class_dur),
                });
            }
            if derate_roll < self.derate_prob {
                let start = self.onset_secs + derate_onset * self.window_secs;
                out.push(GridFault {
                    node: i,
                    kind: GridFaultKind::GradualDerate {
                        floor: self.derate_floor.clamp(0.01, 1.0),
                    },
                    start_secs: start,
                    end_secs: start + self.repair_secs * (0.5 + derate_dur),
                });
            }
        }
        out
    }

    /// The instant every fault is repaired (0 when the schedule is empty;
    /// infinite for never-repaired plans).
    #[must_use]
    pub fn last_repair_secs(&self, spec: &TopologySpec) -> f64 {
        last_repair(&self.schedule(spec))
    }

    /// The topology state this plan induces over `spec` at time `t_secs`.
    #[must_use]
    pub fn state_at<'s>(&self, spec: &'s TopologySpec, t_secs: f64) -> TopologyState<'s> {
        state_under(&self.schedule(spec), spec, t_secs)
    }
}

/// The instant every fault of `schedule` is repaired.
fn last_repair(schedule: &[GridFault]) -> f64 {
    schedule.iter().map(|f| f.end_secs).fold(0.0, f64::max)
}

/// The topology state `schedule` induces over `spec` at time `t_secs`.
fn state_under<'s>(
    schedule: &[GridFault],
    spec: &'s TopologySpec,
    t_secs: f64,
) -> TopologyState<'s> {
    let mut state = TopologyState::healthy(spec);
    for fault in schedule {
        if !fault.is_active_at(t_secs) {
            continue;
        }
        match fault.kind {
            GridFaultKind::UpsFailure | GridFaultKind::PduTrip => {
                if let Some(a) = state.own_alive.get_mut(fault.node) {
                    *a = false;
                }
            }
            GridFaultKind::AtsDerate { frac } => {
                if let Some(f) = state.factor.get_mut(fault.node) {
                    *f *= frac;
                }
            }
            GridFaultKind::GradualDerate { floor } => {
                if let Some(f) = state.factor.get_mut(fault.node) {
                    *f *= fault.ramp_factor(t_secs, floor);
                }
            }
        }
    }
    state.close_over_ancestors();
    state
}

/// One scheduled infrastructure fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridFault {
    /// Spec index of the faulted node.
    pub node: usize,
    /// What failed and how.
    pub kind: GridFaultKind,
    /// Fault onset, seconds.
    pub start_secs: f64,
    /// Repair/restore instant, seconds (exclusive).
    pub end_secs: f64,
}

impl GridFault {
    /// `true` while the fault is in force at `t`.
    #[must_use]
    pub fn is_active_at(&self, t_secs: f64) -> bool {
        t_secs >= self.start_secs && t_secs < self.end_secs
    }

    /// Gradual-derate ramp: capacity falls linearly from 1.0 at onset to
    /// `floor` at the window's midpoint, holds there, then snaps back to
    /// 1.0 at repair.
    fn ramp_factor(&self, t_secs: f64, floor: f64) -> f64 {
        match self.ramp_progress(t_secs) {
            Some(progress) => 1.0 - (1.0 - floor) * progress,
            None => floor,
        }
    }

    /// How far the ramp has run at `t`, in `[0, 1]`; `None` for an empty
    /// or unbounded window, which sits at its floor from onset.
    fn ramp_progress(&self, t_secs: f64) -> Option<f64> {
        let half = (self.end_secs - self.start_secs) * 0.5;
        if half <= 0.0 || !half.is_finite() {
            return None;
        }
        Some(((t_secs - self.start_secs) / half).clamp(0.0, 1.0))
    }

    /// `true` when this is a gradual derating whose factor may still
    /// change after `t`. Progress never falls as `t` grows, so a ramp
    /// that has reached 1 at `t` holds its factor until repair.
    fn ramps_after(&self, t_secs: f64) -> bool {
        matches!(self.kind, GridFaultKind::GradualDerate { .. })
            && self
                .ramp_progress(t_secs)
                .is_some_and(|p| p.is_nan() || p < 1.0)
    }
}

/// The fault class of a [`GridFault`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridFaultKind {
    /// Hard UPS failure: the subtree is dead until repair.
    UpsFailure,
    /// ATS transfer onto the alternate feed at derated capacity.
    AtsDerate {
        /// Remaining capacity fraction while on the alternate feed.
        frac: f64,
    },
    /// PDU breaker trip: the subtree is dead until repair.
    PduTrip,
    /// Gradual capacity derating ramping down to a floor.
    GradualDerate {
        /// Capacity fraction the ramp bottoms out at.
        floor: f64,
    },
}

/// A [`GridFaultPlan`] compiled over one spec for repeated lookups.
///
/// The fault state only changes at a fault's onset or repair, so the
/// schedule is built once, every `start_secs` and `end_secs` is sorted
/// into one list of edges, and each interval between two edges keeps
/// the state [`GridFaultPlan::state_at`] gives at the interval's start,
/// with its health and `capacity_frac`. A fault's end is exclusive, so a
/// lookup exactly on an edge lands in the interval that edge opens. An
/// interval in which a gradual derating is still ramping changes with
/// `t` and is computed live on every lookup. Lookups are bit-identical
/// to [`GridFaultPlan::state_at`].
#[derive(Debug)]
pub struct CompiledGridFaults<'s> {
    spec: &'s TopologySpec,
    schedule: Vec<GridFault>,
    /// Every fault onset and repair instant, ascending, without repeats.
    edges: Vec<f64>,
    /// Interval `k` covers `[edges[k - 1], edges[k])`, unbounded below
    /// for the first and above for the last; `None` while a ramp moves.
    intervals: Vec<Option<GridSnapshot<'s>>>,
    last_repair_secs: f64,
}

impl<'s> CompiledGridFaults<'s> {
    /// Builds the schedule of `plan` over `spec` and caches the state of
    /// every interval between fault edges.
    #[must_use]
    pub fn compile(plan: &GridFaultPlan, spec: &'s TopologySpec) -> Self {
        let schedule = plan.schedule(spec);
        // A NaN instant never compares true, so such an edge never moves
        // a fault in or out of force.
        let mut edges: Vec<f64> = schedule
            .iter()
            .flat_map(|f| [f.start_secs, f.end_secs])
            .filter(|e| !e.is_nan())
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| a == b);
        let intervals = std::iter::once(f64::NEG_INFINITY)
            .chain(edges.iter().copied())
            .map(|start| {
                let ramping = schedule
                    .iter()
                    .any(|f| f.is_active_at(start) && f.ramps_after(start));
                (!ramping).then(|| GridSnapshot::new(state_under(&schedule, spec, start)))
            })
            .collect();
        Self {
            spec,
            last_repair_secs: last_repair(&schedule),
            schedule,
            edges,
            intervals,
        }
    }

    /// The fault state at `t_secs`: borrowed from its interval, or
    /// computed live while a ramp moves.
    #[must_use]
    pub fn at(&self, t_secs: f64) -> Cow<'_, GridSnapshot<'s>> {
        let interval = self.edges.partition_point(|&e| e <= t_secs);
        match self.intervals.get(interval) {
            Some(Some(snapshot)) => Cow::Borrowed(snapshot),
            _ => Cow::Owned(GridSnapshot::new(state_under(
                &self.schedule,
                self.spec,
                t_secs,
            ))),
        }
    }

    /// The instant every fault is repaired, as
    /// [`GridFaultPlan::last_repair_secs`] gives it.
    #[must_use]
    pub fn last_repair_secs(&self) -> f64 {
        self.last_repair_secs
    }
}

/// A [`TopologyState`] with its health and usable-capacity fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSnapshot<'s> {
    state: TopologyState<'s>,
    healthy: bool,
    capacity_frac: f64,
}

impl<'s> GridSnapshot<'s> {
    /// Derives the health and capacity fraction of `state`.
    #[must_use]
    pub fn new(state: TopologyState<'s>) -> Self {
        Self {
            healthy: state.is_healthy(),
            capacity_frac: state.capacity_frac(),
            state,
        }
    }

    /// The topology state.
    #[must_use]
    pub fn state(&self) -> &TopologyState<'s> {
        &self.state
    }

    /// [`TopologyState::is_healthy`] of the state.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// [`TopologyState::capacity_frac`] of the state.
    #[must_use]
    pub fn capacity_frac(&self) -> f64 {
        self.capacity_frac
    }
}

/// The per-instant health of a power tree: liveness and derate factors
/// layered over an immutable [`TopologySpec`].
///
/// Liveness is ancestor-closed: a node is alive only if it and every
/// ancestor are alive, so a dead UPS fences its whole subtree. Derate
/// factors are per-node (a node's own capacity constraint shrinks; its
/// descendants keep their own capacities and are constrained through the
/// parent as usual).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyState<'s> {
    spec: &'s TopologySpec,
    /// Per-node own liveness (before ancestor closure).
    own_alive: Vec<bool>,
    /// Effective liveness after ancestor closure.
    alive: Vec<bool>,
    /// Per-node own capacity factor in `(0, 1]`.
    factor: Vec<f64>,
}

impl<'s> TopologyState<'s> {
    /// The all-healthy state: every node alive at full capacity.
    #[must_use]
    pub fn healthy(spec: &'s TopologySpec) -> Self {
        let n = spec.nodes.len();
        Self {
            spec,
            own_alive: vec![true; n],
            alive: vec![true; n],
            factor: vec![1.0; n],
        }
    }

    /// Recomputes effective liveness from own liveness (parents precede
    /// children in a valid spec, so one forward pass closes the relation).
    fn close_over_ancestors(&mut self) {
        for i in 0..self.spec.nodes.len() {
            let parent_alive = match self.spec.nodes.get(i).and_then(|n| n.parent) {
                Some(p) => self.alive.get(p).copied().unwrap_or(false),
                None => true,
            };
            let own = self.own_alive.get(i).copied().unwrap_or(false);
            if let Some(a) = self.alive.get_mut(i) {
                *a = own && parent_alive;
            }
        }
    }

    /// The spec this state is layered over.
    #[must_use]
    pub fn spec(&self) -> &'s TopologySpec {
        self.spec
    }

    /// `true` when no fault is in force: every node alive at a factor of
    /// exactly 1.0 (bitwise — the post-repair oracle relies on this).
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.alive.iter().all(|&a| a) && self.factor.iter().all(|f| f.to_bits() == 1.0f64.to_bits())
    }

    /// Effective liveness of a node (its whole ancestor chain is up).
    #[must_use]
    pub fn alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// The node's own capacity factor (1.0 when clean).
    #[must_use]
    pub fn factor(&self, node: usize) -> f64 {
        self.factor.get(node).copied().unwrap_or(1.0)
    }

    /// The node's capacity under its current derate factor.
    #[must_use]
    pub fn derated_capacity(&self, node: usize) -> Watts {
        let cap = self
            .spec
            .nodes
            .get(node)
            .map_or(Watts::ZERO, |n| n.capacity);
        cap * self.factor(node)
    }

    /// Number of fenced (dead) nodes.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        self.alive.iter().filter(|&&a| !a).count()
    }

    /// Number of alive nodes running below full capacity.
    #[must_use]
    pub fn derated_count(&self) -> usize {
        self.alive
            .iter()
            .zip(&self.factor)
            .filter(|&(&a, f)| a && f.to_bits() != 1.0f64.to_bits())
            .count()
    }

    /// Spec indices of the racks still alive, ascending.
    #[must_use]
    pub fn alive_racks(&self) -> Vec<usize> {
        self.spec
            .rack_ids()
            .into_iter()
            .filter(|&r| self.alive(r))
            .collect()
    }

    /// `true` when `node` lies inside the spec subtree rooted at `root`.
    fn is_under(&self, node: usize, root: usize) -> bool {
        let mut cursor = Some(node);
        let mut hops = 0usize;
        while let Some(id) = cursor {
            if id == root {
                return true;
            }
            hops += 1;
            if hops > self.spec.nodes.len() {
                return false;
            }
            cursor = self.spec.nodes.get(id).and_then(|n| n.parent);
        }
        false
    }

    /// The deterministic reassignment target for a job on a dead rack: the
    /// lowest-id alive rack under the nearest ancestor that still has one
    /// (same PDU first, then the same UPS, widening to the whole tree).
    /// `None` when no rack anywhere survives — the job is quarantined.
    #[must_use]
    pub fn reassign_rack(&self, dead_rack: usize) -> Option<usize> {
        let alive = self.alive_racks();
        if alive.is_empty() {
            return None;
        }
        let mut ancestor = self.spec.nodes.get(dead_rack).and_then(|n| n.parent);
        while let Some(a) = ancestor {
            if let Some(&r) = alive.iter().find(|&&r| self.is_under(r, a)) {
                return Some(r);
            }
            ancestor = self.spec.nodes.get(a).and_then(|n| n.parent);
        }
        alive.first().copied()
    }

    /// The tree's usable capacity under the current state: a min-cut walk
    /// where a dead node contributes nothing, a rack contributes its
    /// derated capacity, and an inner node contributes the smaller of its
    /// derated capacity and its children's total.
    #[must_use]
    pub fn usable_capacity(&self) -> Watts {
        let n = self.spec.nodes.len();
        let mut usable = vec![0.0f64; n];
        let mut child_sum = vec![0.0f64; n];
        let mut has_children = vec![false; n];
        for node in &self.spec.nodes {
            if let Some(p) = node.parent {
                if let Some(h) = has_children.get_mut(p) {
                    *h = true;
                }
            }
        }
        for i in (0..n).rev() {
            let u = if !self.alive(i) {
                0.0
            } else {
                let cap = self.derated_capacity(i).get();
                match (has_children.get(i), self.spec.nodes.get(i)) {
                    (Some(true), _) => cap.min(child_sum.get(i).copied().unwrap_or(0.0)),
                    (_, Some(node)) if node.kind == LevelKind::Rack => cap,
                    _ => 0.0,
                }
            };
            if let Some(slot) = usable.get_mut(i) {
                *slot = u;
            }
            if let Some(p) = self.spec.nodes.get(i).and_then(|nd| nd.parent) {
                if let Some(s) = child_sum.get_mut(p) {
                    *s += u;
                }
            }
        }
        Watts::new(usable.first().copied().unwrap_or(0.0))
    }

    /// Usable capacity as a fraction of the healthy tree's — the factor
    /// the engine derates its flat power budget by. Exactly 1.0 (bitwise)
    /// when the state is healthy.
    #[must_use]
    pub fn capacity_frac(&self) -> f64 {
        if self.is_healthy() {
            return 1.0;
        }
        let healthy = TopologyState::healthy(self.spec).usable_capacity().get();
        if healthy <= 0.0 {
            return 0.0;
        }
        (self.usable_capacity().get() / healthy).clamp(0.0, 1.0)
    }

    /// Builds the surviving hierarchy: dead subtrees pruned, derated
    /// capacities, everything multiplied by `scale`. Returns the hierarchy
    /// plus the spec-index → hierarchy-id map (`None` for fenced nodes).
    /// On a healthy state this is bit-identical to
    /// [`TopologySpec::to_hierarchy_scaled`] with an identity map.
    ///
    /// # Errors
    ///
    /// [`TopologyError::Hierarchy`] when a surviving edge violates the
    /// nesting rules (impossible for a spec that already validated).
    pub fn to_hierarchy_scaled(
        &self,
        scale: f64,
    ) -> Result<(PowerHierarchy, Vec<Option<usize>>), TopologyError> {
        let mut h = PowerHierarchy::new();
        let mut map: Vec<Option<usize>> = vec![None; self.spec.nodes.len()];
        for (i, node) in self.spec.nodes.iter().enumerate() {
            if !self.alive(i) {
                continue;
            }
            let capacity = node.capacity * self.factor(i) * scale;
            let id = match node.parent {
                None => h.add_root(node.name.clone(), node.kind, capacity),
                Some(p) => {
                    // Alive children of dead parents cannot exist (the
                    // closure above fences whole subtrees).
                    let Some(&Some(parent_id)) = map.get(p) else {
                        continue;
                    };
                    h.add_child(node.name.clone(), node.kind, capacity, parent_id)?
                }
            };
            if let Some(slot) = map.get_mut(i) {
                *slot = Some(id);
            }
        }
        Ok((h, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two UPS feeds, one PDU each; PDU-a carries two racks so a rack
    /// fault has a same-PDU sibling to fail over to.
    fn spec() -> TopologySpec {
        TopologySpec::parse(
            r#"{
              "name": "grid-test",
              "nodes": [
                {"name": "ats", "kind": "ats", "capacity_w": 12000.0, "parent": null},
                {"name": "ups-a", "kind": "ups", "capacity_w": 3000.0, "parent": 0},
                {"name": "ups-b", "kind": "ups", "capacity_w": 3000.0, "parent": 0},
                {"name": "pdu-a", "kind": "pdu", "capacity_w": 4000.0, "parent": 1},
                {"name": "pdu-b", "kind": "pdu", "capacity_w": 4000.0, "parent": 2},
                {"name": "rack-a1", "kind": "rack", "capacity_w": 1500.0, "parent": 3},
                {"name": "rack-a2", "kind": "rack", "capacity_w": 1500.0, "parent": 3},
                {"name": "rack-b", "kind": "rack", "capacity_w": 2500.0, "parent": 4}
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn default_plan_is_inactive_and_leaves_the_tree_healthy() {
        let plan = GridFaultPlan::default();
        assert!(!plan.is_active());
        let s = spec();
        assert!(plan.schedule(&s).is_empty());
        let state = plan.state_at(&s, 1234.5);
        assert!(state.is_healthy());
        assert_eq!(state.dead_count(), 0);
        assert_eq!(state.capacity_frac().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let s = spec();
        let plan = GridFaultPlan {
            ups_failure_prob: 0.7,
            pdu_trip_prob: 0.5,
            derate_prob: 0.4,
            ..GridFaultPlan::default()
        };
        let a = plan.schedule(&s);
        let b = plan.schedule(&s);
        assert_eq!(a, b, "schedule is a pure function of (plan, spec)");
        let reseeded = GridFaultPlan {
            seed: plan.seed ^ 1,
            ..plan
        };
        assert_ne!(reseeded.schedule(&s), a, "seed changes the schedule");
        // Node order: faults are emitted in ascending node index.
        assert!(a.windows(2).all(|w| w[0].node <= w[1].node));
    }

    #[test]
    fn ups_failure_fences_the_whole_subtree() {
        let s = spec();
        let plan = GridFaultPlan::always_on_ups_failure();
        let state = plan.state_at(&s, 10.0);
        // Both UPS feeds are down: everything below them is fenced.
        assert!(state.alive(0), "the ATS itself stays alive");
        for node in 1..s.nodes.len() {
            assert!(!state.alive(node), "node {node} should be fenced");
        }
        assert_eq!(state.dead_count(), 7);
        assert!(state.alive_racks().is_empty());
        assert_eq!(state.reassign_rack(5), None, "no rack survives anywhere");
        assert_eq!(state.usable_capacity(), Watts::ZERO);
        // Never repaired: still dead arbitrarily far in the future.
        assert!(!plan.state_at(&s, 1e12).alive(1));
        assert!(plan.last_repair_secs(&s).is_infinite());
    }

    #[test]
    fn reassignment_prefers_the_nearest_surviving_sibling() {
        let s = spec();
        // Kill only ups-a by planting its own fault directly.
        let mut state = TopologyState::healthy(&s);
        state.own_alive[1] = false;
        state.close_over_ancestors();
        assert!(!state.alive(5) && !state.alive(6), "ups-a racks fenced");
        assert!(state.alive(7));
        // Nothing survives under pdu-a or ups-a; the search widens to the
        // tree and lands on rack-b.
        assert_eq!(state.reassign_rack(5), Some(7));
        assert_eq!(state.reassign_rack(6), Some(7));
        // A dead rack with a same-PDU sibling fails over locally.
        let mut rack_fault = TopologyState::healthy(&s);
        rack_fault.own_alive[5] = false;
        rack_fault.close_over_ancestors();
        assert_eq!(rack_fault.reassign_rack(5), Some(6));
    }

    #[test]
    fn gradual_derate_ramps_down_and_repairs_exactly() {
        let fault = GridFault {
            node: 3,
            kind: GridFaultKind::GradualDerate { floor: 0.5 },
            start_secs: 100.0,
            end_secs: 300.0,
        };
        // Ramp reaches the floor at the midpoint and holds.
        assert_eq!(fault.ramp_factor(100.0, 0.5).to_bits(), 1.0f64.to_bits());
        let mid = fault.ramp_factor(150.0, 0.5);
        assert!(mid < 1.0 && mid > 0.5, "mid-ramp factor: {mid}");
        assert_eq!(fault.ramp_factor(200.0, 0.5), 0.5);
        assert_eq!(fault.ramp_factor(299.0, 0.5), 0.5);
        assert!(!fault.is_active_at(300.0), "repair restores at end");
    }

    #[test]
    fn post_repair_state_is_bit_identical_to_healthy() {
        let s = spec();
        let plan = GridFaultPlan {
            ups_failure_prob: 1.0,
            ats_derate_prob: 1.0,
            pdu_trip_prob: 1.0,
            derate_prob: 1.0,
            window_secs: 600.0,
            repair_secs: 900.0,
            ..GridFaultPlan::default()
        };
        let last = plan.last_repair_secs(&s);
        assert!(last.is_finite() && last > 0.0);
        let mid = plan.state_at(&s, plan.onset_secs + 650.0);
        assert!(!mid.is_healthy(), "faults are in force mid-window");
        let repaired = plan.state_at(&s, last + 1.0);
        let healthy = TopologyState::healthy(&s);
        assert!(repaired.is_healthy());
        assert_eq!(repaired, healthy);
        for i in 0..s.nodes.len() {
            assert_eq!(
                repaired.derated_capacity(i).get().to_bits(),
                s.nodes[i].capacity.get().to_bits(),
                "node {i} capacity must restore ULP-exact"
            );
        }
    }

    #[test]
    fn pruned_hierarchy_excludes_dead_nodes_and_derates_survivors() {
        let s = spec();
        let mut state = TopologyState::healthy(&s);
        state.own_alive[1] = false; // ups-a dead
        state.factor[2] = 0.5; // ups-b derated
        state.close_over_ancestors();
        let (h, map) = state.to_hierarchy_scaled(2.0).unwrap();
        // Fenced: ups-a, pdu-a, rack-a1, rack-a2.
        assert_eq!(h.len(), 4);
        assert_eq!(map[1], None);
        assert_eq!(map[3], None);
        assert_eq!(map[5], None);
        let ups_b = map[2].unwrap();
        assert_eq!(h.capacity_of(ups_b), Watts::new(3000.0 * 0.5 * 2.0));
        let rack_b = map[7].unwrap();
        assert_eq!(h.capacity_of(rack_b), Watts::new(2500.0 * 2.0));
        assert_eq!(h.kind_of(rack_b), Some(LevelKind::Rack));
        // Healthy state: identity map, bit-identical to the spec build.
        let (hh, hmap) = TopologyState::healthy(&s).to_hierarchy_scaled(1.0).unwrap();
        let plain = s.to_hierarchy().unwrap();
        assert_eq!(hh.len(), plain.len());
        for (i, m) in hmap.iter().enumerate() {
            assert_eq!(*m, Some(i));
            assert_eq!(
                hh.capacity_of(i).get().to_bits(),
                plain.capacity_of(i).get().to_bits()
            );
        }
    }

    #[test]
    fn compiled_plan_caches_settled_intervals_and_ramps_live() {
        let s = spec();
        let plan = GridFaultPlan {
            ats_derate_prob: 1.0,
            derate_prob: 1.0,
            ..GridFaultPlan::default()
        };
        let compiled = CompiledGridFaults::compile(&plan, &s);
        assert!(compiled.edges.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(compiled.intervals.len(), compiled.edges.len() + 1);
        let ramp = plan
            .schedule(&s)
            .into_iter()
            .find(|f| matches!(f.kind, GridFaultKind::GradualDerate { .. }))
            .unwrap();
        let mid_ramp = ramp.start_secs + (ramp.end_secs - ramp.start_secs) * 0.25;
        assert!(matches!(compiled.at(mid_ramp), Cow::Owned(_)));
        let repaired = compiled.last_repair_secs();
        assert!(matches!(compiled.at(repaired), Cow::Borrowed(_)));
        assert!(compiled.at(repaired).is_healthy());
        // No fault class can fire: one healthy interval, no edges.
        let idle = CompiledGridFaults::compile(&GridFaultPlan::default(), &s);
        assert!(idle.edges.is_empty());
        assert!(idle.at(0.0).is_healthy());
        assert_eq!(idle.last_repair_secs().to_bits(), 0.0f64.to_bits());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_plan() -> impl Strategy<Value = GridFaultPlan> {
            (
                0u64..=u64::MAX,
                (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
                (0.05f64..=1.0, 0.05f64..=1.0),
                (0.0f64..1000.0, 0.0f64..7200.0, 60.0f64..7200.0),
            )
                .prop_map(
                    |(seed, (ups, ats, pdu, derate), (frac, floor), (onset, window, repair))| {
                        GridFaultPlan {
                            seed,
                            ups_failure_prob: ups,
                            ats_derate_prob: ats,
                            ats_derate_frac: frac,
                            pdu_trip_prob: pdu,
                            derate_prob: derate,
                            derate_floor: floor,
                            onset_secs: onset,
                            window_secs: window,
                            repair_secs: repair,
                        }
                    },
                )
        }

        /// [`arb_plan`], with the repair pushed to infinity in half the
        /// cases.
        fn arb_plan_maybe_unrepaired() -> impl Strategy<Value = GridFaultPlan> {
            (arb_plan(), prop::bool::ANY).prop_map(|(plan, unrepaired)| GridFaultPlan {
                repair_secs: if unrepaired {
                    f64::INFINITY
                } else {
                    plan.repair_secs
                },
                ..plan
            })
        }

        /// The compiled lookup at `t` equals `state_at` bit for bit.
        fn same_as_state_at(
            plan: &GridFaultPlan,
            compiled: &CompiledGridFaults<'_>,
            s: &TopologySpec,
            t: f64,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            let want = plan.state_at(s, t);
            let got = compiled.at(t);
            prop_assert_eq!(&got.state().alive, &want.alive, "alive at {}", t);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&got.state().factor),
                bits(&want.factor),
                "factors at {}",
                t
            );
            prop_assert_eq!(got.is_healthy(), want.is_healthy(), "health at {}", t);
            prop_assert_eq!(
                got.capacity_frac().to_bits(),
                want.capacity_frac().to_bits(),
                "capacity_frac at {}",
                t
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The compiled plan equals `state_at` on every edge, one ulp
            /// either side of it, one 60 s slot after it and at random
            /// instants, and it keeps the same last repair instant.
            #[test]
            fn compiled_lookup_equals_state_at_bit_for_bit(
                plan in arb_plan_maybe_unrepaired(),
                ts in prop::collection::vec(0.0f64..25_000.0, 16),
            ) {
                let s = spec();
                let compiled = CompiledGridFaults::compile(&plan, &s);
                prop_assert_eq!(
                    compiled.last_repair_secs().to_bits(),
                    plan.last_repair_secs(&s).to_bits()
                );
                for &edge in &compiled.edges {
                    for t in [edge, edge.next_down(), edge.next_up(), edge + 60.0] {
                        same_as_state_at(&plan, &compiled, &s, t)?;
                    }
                }
                for t in ts {
                    same_as_state_at(&plan, &compiled, &s, t)?;
                }
            }

            /// Satellite invariant (a): under any fault plan at any instant,
            /// every node's derated capacity stays within its spec capacity,
            /// factors stay in `(0, 1]`, liveness stays ancestor-closed, and
            /// the min-cut never exceeds the healthy tree's.
            #[test]
            fn derated_capacity_bounds_hold_at_every_level(
                plan in arb_plan(),
                t in 0.0f64..25_000.0,
            ) {
                let s = spec();
                let state = plan.state_at(&s, t);
                for i in 0..s.nodes.len() {
                    let f = state.factor(i);
                    prop_assert!(f > 0.0 && f <= 1.0, "node {i} factor {f}");
                    prop_assert!(
                        state.derated_capacity(i) <= s.nodes[i].capacity,
                        "node {i} derated above spec capacity"
                    );
                    if state.alive(i) {
                        if let Some(p) = s.nodes[i].parent {
                            prop_assert!(state.alive(p), "alive node {i} under dead parent {p}");
                        }
                    }
                }
                let healthy = TopologyState::healthy(&s).usable_capacity();
                prop_assert!(state.usable_capacity() <= healthy);
                let frac = state.capacity_frac();
                prop_assert!((0.0..=1.0).contains(&frac), "capacity_frac {frac}");
            }

            /// Satellite invariant (b): once the last fault repairs, the
            /// state is healthy and the hierarchy it builds is bit-identical
            /// (ULP-exact capacities, identity node map) to the flat spec
            /// build — the foundation of the post-repair chaos oracle.
            #[test]
            fn repair_restores_ulp_exact_flat_equivalence(plan in arb_plan()) {
                let s = spec();
                let last = plan.last_repair_secs(&s);
                prop_assert!(last.is_finite());
                let repaired = plan.state_at(&s, last + 1.0);
                prop_assert!(repaired.is_healthy(), "faults must clear after the last repair");
                let (h, map) = repaired.to_hierarchy_scaled(1.0).unwrap();
                let flat = s.to_hierarchy().unwrap();
                prop_assert_eq!(h.len(), flat.len());
                for (i, m) in map.iter().enumerate() {
                    prop_assert_eq!(*m, Some(i));
                    prop_assert_eq!(
                        h.capacity_of(i).get().to_bits(),
                        flat.capacity_of(i).get().to_bits(),
                        "node {} capacity must restore ULP-exact", i
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_frac_reflects_the_min_cut() {
        let s = spec();
        // Healthy min-cut: racks 1500+1500 cap pdu-a at 3000 → ups-a 3000;
        // rack-b 2500 → ups-b 2500; root min(12000, 5500) = 5500.
        let healthy = TopologyState::healthy(&s);
        assert_eq!(healthy.usable_capacity(), Watts::new(5500.0));
        let mut state = TopologyState::healthy(&s);
        state.own_alive[1] = false;
        state.close_over_ancestors();
        assert_eq!(state.usable_capacity(), Watts::new(2500.0));
        assert!((state.capacity_frac() - 2500.0 / 5500.0).abs() < 1e-12);
    }
}
