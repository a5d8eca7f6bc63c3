//! Horizontal partitioning of relations across SM-nodes and disks.
//!
//! Relations are horizontally partitioned across nodes and, within each node,
//! across disks (paper §2.1). Partitioning is based on a hash function applied
//! to the partitioning attribute; the *home* of a relation is the set of
//! SM-nodes storing its partitions. The evaluation assumes every relation is
//! fully partitioned across all SM-nodes; the layout type nevertheless
//! supports arbitrary homes so that operator homes (§2.2) can be exercised.
//!
//! Tuple-placement / attribute-value skew makes partitions unequal; this is
//! modelled by splitting the cardinality with a Zipf distribution over the
//! home nodes (and uniformly across the disks within a node, since the paper
//! attributes intra-node imbalance to bucket-level skew, not disk placement).

use crate::relation::RelationDef;
use dlb_common::config::CostConstants;
use dlb_common::{DiskId, NodeId, ZipfDistribution};

/// The set of SM-nodes holding partitions of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationHome {
    nodes: Vec<NodeId>,
}

impl RelationHome {
    /// Creates a home from a list of nodes (deduplicated, order preserved).
    pub fn new(mut nodes: Vec<NodeId>) -> Self {
        let mut seen = std::collections::HashSet::new();
        nodes.retain(|n| seen.insert(*n));
        Self { nodes }
    }

    /// Home spanning nodes `0..nodes` (the "fully partitioned" assumption of
    /// the paper's evaluation).
    pub fn all_nodes(nodes: u32) -> Self {
        Self {
            nodes: (0..nodes).map(NodeId::new).collect(),
        }
    }

    /// Nodes of the home.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes in the home.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the home is empty (an invalid configuration).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when `node` belongs to this home.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Intersection with another home (used for join operator homes).
    pub fn union(&self, other: &RelationHome) -> RelationHome {
        let mut nodes = self.nodes.clone();
        nodes.extend(other.nodes.iter().copied());
        RelationHome::new(nodes)
    }
}

/// Number of tuples of one relation stored on one node, split across disks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePartition {
    /// Node holding this partition.
    pub node: NodeId,
    /// Tuples per disk of the node (index = local disk id).
    pub tuples_per_disk: Vec<u64>,
}

impl NodePartition {
    /// Total tuples on this node.
    pub fn tuples(&self) -> u64 {
        self.tuples_per_disk.iter().sum()
    }

    /// Disk holding the largest share.
    pub fn max_disk_tuples(&self) -> u64 {
        self.tuples_per_disk.iter().copied().max().unwrap_or(0)
    }
}

/// The physical layout of one relation: how many tuples live on each node and
/// disk of its home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionLayout {
    home: RelationHome,
    partitions: Vec<NodePartition>,
}

impl PartitionLayout {
    /// Computes the layout of `relation` over `home`, spreading tuples with a
    /// Zipf distribution of parameter `placement_skew` across home nodes
    /// (0 = perfectly balanced) and uniformly across `disks_per_node` disks.
    pub fn compute(
        relation: &RelationDef,
        home: RelationHome,
        disks_per_node: u32,
        placement_skew: f64,
    ) -> Self {
        assert!(
            !home.is_empty(),
            "relation home must contain at least one node"
        );
        assert!(disks_per_node > 0, "need at least one disk per node");
        let zipf = ZipfDistribution::new(home.len(), placement_skew);
        let per_node = zipf.split(relation.cardinality);
        let partitions = home
            .nodes()
            .iter()
            .zip(per_node)
            .map(|(&node, tuples)| {
                let uniform = ZipfDistribution::new(disks_per_node as usize, 0.0);
                NodePartition {
                    node,
                    tuples_per_disk: uniform.split(tuples),
                }
            })
            .collect();
        Self { home, partitions }
    }

    /// Assembles a layout from an explicit home and partition list (used by
    /// re-homing, which redistributes an existing layout rather than
    /// splitting a relation afresh).
    pub(crate) fn from_parts(home: RelationHome, partitions: Vec<NodePartition>) -> Self {
        Self { home, partitions }
    }

    /// The relation home.
    pub fn home(&self) -> &RelationHome {
        &self.home
    }

    /// Per-node partitions.
    pub fn partitions(&self) -> &[NodePartition] {
        &self.partitions
    }

    /// Tuples stored on `node` (zero if the node is not in the home).
    pub fn tuples_on(&self, node: NodeId) -> u64 {
        self.partitions
            .iter()
            .find(|p| p.node == node)
            .map(|p| p.tuples())
            .unwrap_or(0)
    }

    /// Tuples stored on a given disk.
    pub fn tuples_on_disk(&self, disk: DiskId) -> u64 {
        self.partitions
            .iter()
            .find(|p| p.node == disk.node)
            .and_then(|p| p.tuples_per_disk.get(disk.local as usize).copied())
            .unwrap_or(0)
    }

    /// Total tuples across all partitions (equals the relation cardinality).
    pub fn total_tuples(&self) -> u64 {
        self.partitions.iter().map(|p| p.tuples()).sum()
    }

    /// Pages stored on `node` under the given cost constants.
    pub fn pages_on(&self, node: NodeId, costs: &CostConstants) -> u64 {
        costs.pages_for_tuples(self.tuples_on(node))
    }

    /// Ratio of the largest node partition to the average (1.0 = perfectly
    /// balanced; larger = more placement skew).
    pub fn imbalance(&self) -> f64 {
        if self.partitions.is_empty() {
            return 1.0;
        }
        let total = self.total_tuples() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let avg = total / self.partitions.len() as f64;
        let max = self
            .partitions
            .iter()
            .map(|p| p.tuples())
            .max()
            .unwrap_or(0) as f64;
        max / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::SizeClass;
    use dlb_common::RelationId;

    fn rel(card: u64) -> RelationDef {
        RelationDef::new(RelationId::new(0), "R", card, SizeClass::Medium)
    }

    #[test]
    fn home_construction_and_membership() {
        let h = RelationHome::all_nodes(4);
        assert_eq!(h.len(), 4);
        assert!(h.contains(NodeId::new(3)));
        assert!(!h.contains(NodeId::new(4)));
        let dedup = RelationHome::new(vec![NodeId::new(1), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(dedup.len(), 2);
        let u = dedup.union(&RelationHome::new(vec![NodeId::new(3)]));
        assert_eq!(u.len(), 3);
        assert!(!u.is_empty());
    }

    #[test]
    fn balanced_layout_conserves_and_splits_evenly() {
        let layout = PartitionLayout::compute(&rel(4_000), RelationHome::all_nodes(4), 2, 0.0);
        assert_eq!(layout.total_tuples(), 4_000);
        for node in 0..4 {
            assert_eq!(layout.tuples_on(NodeId::new(node)), 1_000);
            assert_eq!(
                layout.tuples_on_disk(DiskId::new(NodeId::new(node), 0)),
                500
            );
        }
        assert!((layout.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_layout_is_unbalanced_but_conserves() {
        let layout = PartitionLayout::compute(&rel(100_000), RelationHome::all_nodes(4), 1, 0.8);
        assert_eq!(layout.total_tuples(), 100_000);
        assert!(layout.imbalance() > 1.5, "imbalance {}", layout.imbalance());
    }

    #[test]
    fn nodes_outside_home_hold_nothing() {
        let home = RelationHome::new(vec![NodeId::new(0), NodeId::new(2)]);
        let layout = PartitionLayout::compute(&rel(1_000), home, 1, 0.0);
        assert_eq!(layout.tuples_on(NodeId::new(1)), 0);
        assert_eq!(layout.tuples_on(NodeId::new(0)), 500);
        assert_eq!(layout.tuples_on_disk(DiskId::new(NodeId::new(1), 0)), 0);
    }

    #[test]
    fn pages_on_node_uses_cost_constants() {
        let costs = CostConstants::default();
        let layout = PartitionLayout::compute(&rel(8_100), RelationHome::all_nodes(1), 1, 0.0);
        assert_eq!(layout.pages_on(NodeId::new(0), &costs), 100);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_home_rejected() {
        let _ = PartitionLayout::compute(&rel(10), RelationHome::new(vec![]), 1, 0.0);
    }
}
