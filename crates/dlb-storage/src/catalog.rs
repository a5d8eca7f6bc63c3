//! Catalog: the registry of relations, their layouts and homes.

use crate::partition::{PartitionLayout, RelationHome};
use crate::relation::RelationDef;
use dlb_common::{DlbError, NodeId, RelationId, Result};
use std::collections::BTreeMap;

/// The catalog of one database instance: every base relation with its
/// definition and physical layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    relations: BTreeMap<u32, (RelationDef, PartitionLayout)>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a relation and its layout. Replaces any previous entry with
    /// the same id.
    pub fn register(&mut self, def: RelationDef, layout: PartitionLayout) {
        self.relations.insert(def.id.0, (def, layout));
    }

    /// Registers a relation fully partitioned (unskewed) across `nodes` nodes
    /// with `disks_per_node` disks each — the evaluation assumption of the
    /// paper.
    pub fn register_fully_partitioned(
        &mut self,
        def: RelationDef,
        nodes: u32,
        disks_per_node: u32,
    ) {
        let layout =
            PartitionLayout::compute(&def, RelationHome::all_nodes(nodes), disks_per_node, 0.0);
        self.register(def, layout);
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Looks up a relation definition.
    pub fn relation(&self, id: RelationId) -> Result<&RelationDef> {
        self.relations
            .get(&id.0)
            .map(|(def, _)| def)
            .ok_or_else(|| DlbError::not_found(format!("relation {id}")))
    }

    /// Looks up a relation layout.
    pub fn layout(&self, id: RelationId) -> Result<&PartitionLayout> {
        self.relations
            .get(&id.0)
            .map(|(_, layout)| layout)
            .ok_or_else(|| DlbError::not_found(format!("relation {id}")))
    }

    /// Home of a relation.
    pub fn home(&self, id: RelationId) -> Result<&RelationHome> {
        Ok(self.layout(id)?.home())
    }

    /// Iterates over all relations in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelationDef, &PartitionLayout)> {
        self.relations.values().map(|(d, l)| (d, l))
    }

    /// Total base-data volume in tuples.
    pub fn total_tuples(&self) -> u64 {
        self.relations
            .values()
            .map(|(def, _)| def.cardinality)
            .sum()
    }

    /// Tuples of all relations stored on `node`.
    pub fn tuples_on_node(&self, node: NodeId) -> u64 {
        self.relations
            .values()
            .map(|(_, layout)| layout.tuples_on(node))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::SizeClass;

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..3u32 {
            let def = RelationDef::new(
                RelationId::new(i),
                format!("R{i}"),
                1_000 * (i as u64 + 1),
                SizeClass::Small,
            );
            cat.register_fully_partitioned(def, 4, 2);
        }
        cat
    }

    #[test]
    fn register_and_lookup() {
        let cat = sample_catalog();
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
        let r1 = cat.relation(RelationId::new(1)).unwrap();
        assert_eq!(r1.cardinality, 2_000);
        assert_eq!(cat.home(RelationId::new(1)).unwrap().len(), 4);
        assert!(cat.relation(RelationId::new(9)).is_err());
        assert!(cat.layout(RelationId::new(9)).is_err());
    }

    #[test]
    fn totals_and_node_volumes() {
        let cat = sample_catalog();
        assert_eq!(cat.total_tuples(), 6_000);
        // Fully partitioned without skew: each of 4 nodes holds 1/4.
        assert_eq!(cat.tuples_on_node(NodeId::new(0)), 1_500);
        assert_eq!(cat.tuples_on_node(NodeId::new(3)), 1_500);
        assert_eq!(cat.iter().count(), 3);
    }

    #[test]
    fn re_register_replaces() {
        let mut cat = sample_catalog();
        let def = RelationDef::new(RelationId::new(0), "R0", 42, SizeClass::Small);
        cat.register_fully_partitioned(def, 2, 1);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.relation(RelationId::new(0)).unwrap().cardinality, 42);
        assert_eq!(cat.home(RelationId::new(0)).unwrap().len(), 2);
    }
}
