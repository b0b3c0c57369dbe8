//! On-disk power-tree specifications for federated clearing.
//!
//! A [`TopologySpec`] is the JSON description of a [`PowerHierarchy`]
//! (`examples/tree.json` in the repo root is the canonical sample): a flat
//! node list in id order, each naming its kind, capacity and parent index.
//! Documents are read with the workspace's shared JSON codec
//! ([`mpr_core::json`]), which keeps the first value of a repeated key,
//! and written so that the output re-parses to an identical spec.
//! Capacities use Rust's shortest round-trip float formatting, so
//! [`TopologySpec::fingerprint`] — the value the checkpoint fingerprint
//! folds in, fencing resume under a different tree — is stable across
//! encode/decode cycles.

use std::fmt::Write as _;

use mpr_core::codec::{fnv1a64, Enc};
use mpr_core::json::{self, Value};
use mpr_core::Watts;

use crate::hierarchy::{HierarchyError, LevelKind, PowerHierarchy};

/// One node of a topology spec, in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Display name (also used in per-level reports).
    pub name: String,
    /// The node's level kind.
    pub kind: LevelKind,
    /// Capacity in watts.
    pub capacity: Watts,
    /// Parent index within the spec's node list; `None` for the root.
    pub parent: Option<usize>,
}

/// A parsed power-tree specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Topology name (free-form, shows up in reports).
    pub name: String,
    /// Nodes in id order; index 0 must be the root.
    pub nodes: Vec<NodeSpec>,
}

/// Why a topology document was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The document is not valid JSON (byte offset + description).
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What was expected or found.
        message: String,
    },
    /// A required field is missing or has the wrong type.
    Schema {
        /// Description of the schema violation.
        message: String,
    },
    /// The node list violates tree structure (bad root/parent ordering).
    Structure {
        /// Description of the structural violation.
        message: String,
    },
    /// The nesting rules of [`PowerHierarchy`] rejected an edge.
    Hierarchy(HierarchyError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Parse { at, message } => {
                write!(f, "topology JSON error at byte {at}: {message}")
            }
            TopologyError::Schema { message } => write!(f, "topology schema error: {message}"),
            TopologyError::Structure { message } => {
                write!(f, "topology structure error: {message}")
            }
            TopologyError::Hierarchy(e) => write!(f, "topology hierarchy error: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<HierarchyError> for TopologyError {
    fn from(e: HierarchyError) -> Self {
        TopologyError::Hierarchy(e)
    }
}

fn schema_err(message: impl Into<String>) -> TopologyError {
    TopologyError::Schema {
        message: message.into(),
    }
}

fn structure_err(message: impl Into<String>) -> TopologyError {
    TopologyError::Structure {
        message: message.into(),
    }
}

impl TopologySpec {
    /// Parses and validates a topology document.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on malformed JSON, schema violations, or a node
    /// list that is not a single well-ordered tree with at least one rack.
    pub fn parse(text: &str) -> Result<Self, TopologyError> {
        let doc = json::parse(text).map_err(|e| TopologyError::Parse {
            at: e.at,
            message: e.message,
        })?;
        let Value::Obj(top) = doc else {
            return Err(schema_err("top level must be an object"));
        };
        let name = match top.get("name") {
            Some(Value::Str(s)) => s.clone(),
            Some(_) => return Err(schema_err("`name` must be a string")),
            None => return Err(schema_err("missing field `name`")),
        };
        let Some(Value::Arr(raw_nodes)) = top.get("nodes") else {
            return Err(schema_err("missing array field `nodes`"));
        };
        let mut nodes = Vec::with_capacity(raw_nodes.len());
        for (i, raw) in raw_nodes.iter().enumerate() {
            let Value::Obj(fields) = raw else {
                return Err(schema_err(format!("node {i} must be an object")));
            };
            let node_name = match fields.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(schema_err(format!("node {i}: `name` must be a string"))),
            };
            let kind = match fields.get("kind") {
                Some(Value::Str(s)) => parse_kind(s)
                    .ok_or_else(|| schema_err(format!("node {i}: unknown kind `{s}`")))?,
                _ => return Err(schema_err(format!("node {i}: `kind` must be a string"))),
            };
            let capacity = match fields.get("capacity_w") {
                Some(Value::Num(w)) if w.is_finite() && *w > 0.0 => Watts::new(*w),
                _ => {
                    return Err(schema_err(format!(
                        "node {i}: `capacity_w` must be a positive finite number"
                    )))
                }
            };
            let parent = match fields.get("parent") {
                None | Some(Value::Null) => None,
                Some(Value::Num(p)) if *p >= 0.0 && p.is_finite() && *p == p.trunc() => {
                    Some(*p as usize)
                }
                _ => {
                    return Err(schema_err(format!(
                        "node {i}: `parent` must be a non-negative integer or null"
                    )))
                }
            };
            nodes.push(NodeSpec {
                name: node_name,
                kind,
                capacity,
                parent,
            });
        }
        let spec = Self { name, nodes };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation: one root at index 0, parents precede
    /// children, at least one rack, and every edge passes the
    /// ATS → UPS → PDU → rack nesting rules.
    fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes.is_empty() {
            return Err(structure_err("topology has no nodes"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.parent {
                None if i != 0 => {
                    return Err(structure_err(format!(
                        "node {i} is a second root (only index 0 may omit `parent`)"
                    )))
                }
                Some(_) if i == 0 => {
                    return Err(structure_err("node 0 must be the root (no `parent`)"))
                }
                Some(p) if p >= i => {
                    return Err(structure_err(format!(
                        "node {i}: parent {p} does not precede it"
                    )))
                }
                _ => {}
            }
        }
        if !self.nodes.iter().any(|n| n.kind == LevelKind::Rack) {
            return Err(structure_err("topology has no racks to attach load to"));
        }
        // Dry-build to surface nesting violations at parse time.
        self.to_hierarchy()?;
        Ok(())
    }

    /// Builds the [`PowerHierarchy`] this spec describes. Node ids in the
    /// hierarchy equal spec indices.
    ///
    /// # Errors
    ///
    /// [`TopologyError::Hierarchy`] when an edge violates the nesting
    /// rules.
    pub fn to_hierarchy(&self) -> Result<PowerHierarchy, TopologyError> {
        self.to_hierarchy_scaled(1.0)
    }

    /// Builds the hierarchy with every capacity multiplied by `scale` —
    /// how the simulator fits a relative topology onto its configured
    /// power budget (`scale = budget / root_capacity`).
    ///
    /// # Errors
    ///
    /// [`TopologyError::Hierarchy`] when an edge violates the nesting
    /// rules.
    pub fn to_hierarchy_scaled(&self, scale: f64) -> Result<PowerHierarchy, TopologyError> {
        let mut h = PowerHierarchy::new();
        for node in &self.nodes {
            let capacity = node.capacity * scale;
            match node.parent {
                None => {
                    h.add_root(node.name.clone(), node.kind, capacity);
                }
                Some(p) => {
                    h.add_child(node.name.clone(), node.kind, capacity, p)?;
                }
            }
        }
        Ok(h)
    }

    /// The root's capacity (the whole tree's power budget).
    #[must_use]
    pub fn root_capacity(&self) -> Watts {
        self.nodes.first().map_or(Watts::ZERO, |n| n.capacity)
    }

    /// Indices of the rack nodes, ascending — the leaf markets jobs are
    /// assigned to.
    #[must_use]
    pub fn rack_ids(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == LevelKind::Rack)
            .map(|(i, _)| i)
            .collect()
    }

    /// FNV-1a digest of the canonical encoding — what the checkpoint
    /// fingerprint folds in, so resume under a different tree is fenced.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut e = Enc::default();
        e.raw(self.name.as_bytes());
        e.usize(self.nodes.len());
        for node in &self.nodes {
            e.raw(node.name.as_bytes());
            e.u8(kind_tag(node.kind));
            e.f64(node.capacity.get());
            e.u64(node.parent.map_or(u64::MAX, |p| p as u64));
        }
        fnv1a64(e.as_bytes())
    }

    /// Renders the spec as a JSON document that parses back to an
    /// identical spec (capacities use shortest round-trip formatting).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"name\": \"{}\",", json::escape(&self.name));
        let _ = writeln!(out, "  \"nodes\": [");
        for (i, node) in self.nodes.iter().enumerate() {
            let parent = node
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.nodes.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"capacity_w\": {:?}, \"parent\": {parent}}}{comma}",
                json::escape(&node.name),
                kind_str(node.kind),
                node.capacity.get(),
            );
        }
        let _ = writeln!(out, "  ]");
        out.push('}');
        out
    }
}

fn parse_kind(s: &str) -> Option<LevelKind> {
    match s {
        "ats" => Some(LevelKind::Ats),
        "ups" => Some(LevelKind::Ups),
        "pdu" => Some(LevelKind::Pdu),
        "rack" => Some(LevelKind::Rack),
        _ => None,
    }
}

fn kind_str(kind: LevelKind) -> &'static str {
    match kind {
        LevelKind::Ats => "ats",
        LevelKind::Ups => "ups",
        LevelKind::Pdu => "pdu",
        LevelKind::Rack => "rack",
    }
}

fn kind_tag(kind: LevelKind) -> u8 {
    match kind {
        LevelKind::Ats => 0,
        LevelKind::Ups => 1,
        LevelKind::Pdu => 2,
        LevelKind::Rack => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        r#"{
          "name": "two-ups",
          "nodes": [
            {"name": "ats", "kind": "ats", "capacity_w": 12000.0, "parent": null},
            {"name": "ups-a", "kind": "ups", "capacity_w": 3000.0, "parent": 0},
            {"name": "ups-b", "kind": "ups", "capacity_w": 3000.5, "parent": 0},
            {"name": "pdu-a", "kind": "pdu", "capacity_w": 4000.0, "parent": 1},
            {"name": "pdu-b", "kind": "pdu", "capacity_w": 4000.0, "parent": 2},
            {"name": "rack-a", "kind": "rack", "capacity_w": 2500.0, "parent": 3},
            {"name": "rack-b", "kind": "rack", "capacity_w": 2500.0, "parent": 4}
          ]
        }"#
    }

    #[test]
    fn parses_and_builds_the_hierarchy() {
        let spec = TopologySpec::parse(sample()).unwrap();
        assert_eq!(spec.name, "two-ups");
        assert_eq!(spec.nodes.len(), 7);
        assert_eq!(spec.root_capacity(), Watts::new(12000.0));
        assert_eq!(spec.rack_ids(), vec![5, 6]);
        let h = spec.to_hierarchy().unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(h.kind_of(0), Some(LevelKind::Ats));
        assert_eq!(h.parent(5), Some(3));
        assert_eq!(h.capacity_of(2), Watts::new(3000.5));
    }

    #[test]
    fn json_round_trip_is_identical_and_fingerprint_stable() {
        let spec = TopologySpec::parse(sample()).unwrap();
        let round = TopologySpec::parse(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
        assert_eq!(round.fingerprint(), spec.fingerprint());
        let double = TopologySpec::parse(&round.to_json()).unwrap();
        assert_eq!(double.to_json(), spec.to_json());
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let doc = r#"{"name": "first", "nodes": [
          {"name": "a", "kind": "ats", "capacity_w": 10.0, "capacity_w": 99.0, "parent": null},
          {"name": "b", "kind": "ups", "capacity_w": 5.0, "parent": 0},
          {"name": "c", "kind": "pdu", "capacity_w": 5.0, "parent": 1},
          {"name": "r", "kind": "rack", "kind": "ats", "capacity_w": 5.0, "parent": 2}
        ], "name": "second"}"#;
        let spec = TopologySpec::parse(doc).unwrap();
        assert_eq!(spec.name, "first");
        assert_eq!(spec.root_capacity(), Watts::new(10.0));
        assert_eq!(spec.rack_ids(), vec![3]);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_field() {
        let base = TopologySpec::parse(sample()).unwrap();
        let mut renamed = base.clone();
        renamed.name = "other".to_owned();
        assert_ne!(renamed.fingerprint(), base.fingerprint());
        let mut capacity = base.clone();
        capacity.nodes[1].capacity = Watts::new(3001.0);
        assert_ne!(capacity.fingerprint(), base.fingerprint());
        let mut reparented = base.clone();
        reparented.nodes[4].parent = Some(1);
        assert_ne!(reparented.fingerprint(), base.fingerprint());
        let mut rekinded = base.clone();
        rekinded.nodes[6].name = "rack-c".to_owned();
        assert_ne!(rekinded.fingerprint(), base.fingerprint());
    }

    #[test]
    fn scaling_multiplies_every_capacity() {
        let spec = TopologySpec::parse(sample()).unwrap();
        let h = spec.to_hierarchy_scaled(0.5).unwrap();
        assert_eq!(h.capacity_of(0), Watts::new(6000.0));
        assert_eq!(h.capacity_of(5), Watts::new(1250.0));
    }

    #[test]
    fn structural_violations_are_rejected() {
        // Two roots.
        let two_roots = r#"{"name": "bad", "nodes": [
          {"name": "a", "kind": "ats", "capacity_w": 1.0, "parent": null},
          {"name": "b", "kind": "ats", "capacity_w": 1.0, "parent": null}
        ]}"#;
        assert!(matches!(
            TopologySpec::parse(two_roots),
            Err(TopologyError::Structure { .. })
        ));
        // Parent after child.
        let bad_order = r#"{"name": "bad", "nodes": [
          {"name": "a", "kind": "ats", "capacity_w": 1.0, "parent": null},
          {"name": "b", "kind": "ups", "capacity_w": 1.0, "parent": 2},
          {"name": "c", "kind": "ups", "capacity_w": 1.0, "parent": 0}
        ]}"#;
        assert!(matches!(
            TopologySpec::parse(bad_order),
            Err(TopologyError::Structure { .. })
        ));
        // No racks.
        let no_racks = r#"{"name": "bad", "nodes": [
          {"name": "a", "kind": "ats", "capacity_w": 1.0, "parent": null},
          {"name": "b", "kind": "ups", "capacity_w": 1.0, "parent": 0}
        ]}"#;
        assert!(matches!(
            TopologySpec::parse(no_racks),
            Err(TopologyError::Structure { .. })
        ));
        // Nesting violation: rack under ATS.
        let bad_nest = r#"{"name": "bad", "nodes": [
          {"name": "a", "kind": "ats", "capacity_w": 1.0, "parent": null},
          {"name": "b", "kind": "rack", "capacity_w": 1.0, "parent": 0}
        ]}"#;
        assert!(matches!(
            TopologySpec::parse(bad_nest),
            Err(TopologyError::Hierarchy(_))
        ));
        // Empty node list.
        assert!(matches!(
            TopologySpec::parse(r#"{"name": "bad", "nodes": []}"#),
            Err(TopologyError::Structure { .. })
        ));
    }

    #[test]
    fn schema_violations_are_rejected() {
        for bad in [
            r#"[1, 2]"#,
            r#"{"nodes": []}"#,
            r#"{"name": "x"}"#,
            r#"{"name": "x", "nodes": [{"kind": "ats", "capacity_w": 1.0}]}"#,
            r#"{"name": "x", "nodes": [{"name": "a", "kind": "nope", "capacity_w": 1.0}]}"#,
            r#"{"name": "x", "nodes": [{"name": "a", "kind": "ats", "capacity_w": -2.0}]}"#,
            r#"{"name": "x", "nodes": [{"name": "a", "kind": "ats", "capacity_w": 1.0, "parent": 1.5}]}"#,
        ] {
            assert!(
                matches!(TopologySpec::parse(bad), Err(TopologyError::Schema { .. })),
                "{bad}"
            );
        }
        for malformed in ["{", "{\"name\": }", "", "{} extra", "{\"name\" \"x\"}"] {
            assert!(
                matches!(
                    TopologySpec::parse(malformed),
                    Err(TopologyError::Parse { .. })
                ),
                "{malformed}"
            );
        }
    }
}
