//! Bushy join trees.
//!
//! The paper concentrates on bushy trees "because they offer the best
//! opportunities to minimize the size of intermediate results and to exploit
//! all kinds of parallelism" (§2.2). A [`JoinTree`] is a binary tree whose
//! leaves are base relations and whose internal nodes are hash joins; every
//! node carries its estimated output cardinality. The *build* side of a join
//! is its smaller input (standard hash-join practice), the *probe* side the
//! larger one.

use dlb_common::{round_u64, RelationId};
use std::collections::BTreeSet;

/// A bushy join tree annotated with estimated cardinalities.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinTree {
    /// A base relation scan.
    Leaf {
        /// The scanned relation.
        relation: RelationId,
        /// Cardinality of the relation.
        cardinality: u64,
    },
    /// A hash join of two subtrees.
    Join {
        /// Build side (hash table built on this input; the smaller one).
        build: Box<JoinTree>,
        /// Probe side (streamed against the hash table).
        probe: Box<JoinTree>,
        /// Estimated output cardinality.
        cardinality: u64,
    },
}

impl JoinTree {
    /// Creates a leaf.
    pub fn leaf(relation: RelationId, cardinality: u64) -> Self {
        JoinTree::Leaf {
            relation,
            cardinality,
        }
    }

    /// Creates a join node, putting the smaller input on the build side.
    pub fn join(a: JoinTree, b: JoinTree, selectivity: f64) -> Self {
        let card =
            round_u64((a.cardinality() as f64) * (b.cardinality() as f64) * selectivity).max(1);
        let (build, probe) = if a.cardinality() <= b.cardinality() {
            (a, b)
        } else {
            (b, a)
        };
        JoinTree::Join {
            build: Box::new(build),
            probe: Box::new(probe),
            cardinality: card,
        }
    }

    /// Estimated output cardinality of this subtree.
    pub fn cardinality(&self) -> u64 {
        match self {
            JoinTree::Leaf { cardinality, .. } | JoinTree::Join { cardinality, .. } => *cardinality,
        }
    }

    /// The set of base relations appearing in this subtree.
    pub fn relations(&self) -> BTreeSet<RelationId> {
        let mut out = BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut BTreeSet<RelationId>) {
        match self {
            JoinTree::Leaf { relation, .. } => {
                out.insert(*relation);
            }
            JoinTree::Join { build, probe, .. } => {
                build.collect_relations(out);
                probe.collect_relations(out);
            }
        }
    }

    /// Number of joins (internal nodes).
    pub fn join_count(&self) -> usize {
        match self {
            JoinTree::Leaf { .. } => 0,
            JoinTree::Join { build, probe, .. } => 1 + build.join_count() + probe.join_count(),
        }
    }

    /// Number of leaves (base relations, counting duplicates).
    pub fn leaf_count(&self) -> usize {
        match self {
            JoinTree::Leaf { .. } => 1,
            JoinTree::Join { build, probe, .. } => build.leaf_count() + probe.leaf_count(),
        }
    }

    /// Height of the tree (a leaf has height 1).
    pub fn height(&self) -> usize {
        match self {
            JoinTree::Leaf { .. } => 1,
            JoinTree::Join { build, probe, .. } => 1 + build.height().max(probe.height()),
        }
    }

    /// Sum of the cardinalities of all intermediate results (the classic
    /// optimizer objective: smaller is better).
    pub fn intermediate_size(&self) -> u64 {
        match self {
            JoinTree::Leaf { .. } => 0,
            JoinTree::Join {
                build,
                probe,
                cardinality,
            } => cardinality + build.intermediate_size() + probe.intermediate_size(),
        }
    }

    /// True when the tree is a left-deep chain (every probe side is a leaf or
    /// every build side is a leaf); used to characterize generated shapes.
    pub fn is_bushy(&self) -> bool {
        match self {
            JoinTree::Leaf { .. } => false,
            JoinTree::Join { build, probe, .. } => {
                let both_joins = matches!(**build, JoinTree::Join { .. })
                    && matches!(**probe, JoinTree::Join { .. });
                both_joins || build.is_bushy() || probe.is_bushy()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RelationId {
        RelationId::new(i)
    }

    #[test]
    fn join_puts_smaller_input_on_build_side() {
        let small = JoinTree::leaf(r(0), 100);
        let big = JoinTree::leaf(r(1), 10_000);
        let j = JoinTree::join(big.clone(), small.clone(), 1.0 / 10_000.0);
        match &j {
            JoinTree::Join { build, probe, .. } => {
                assert_eq!(build.cardinality(), 100);
                assert_eq!(probe.cardinality(), 10_000);
            }
            _ => panic!("expected join"),
        }
        // 100 * 10_000 * 1e-4 = 100
        assert_eq!(j.cardinality(), 100);
    }

    #[test]
    fn tree_statistics() {
        let t = JoinTree::join(
            JoinTree::join(
                JoinTree::leaf(r(0), 1_000),
                JoinTree::leaf(r(1), 2_000),
                1.0 / 2_000.0,
            ),
            JoinTree::join(
                JoinTree::leaf(r(2), 500),
                JoinTree::leaf(r(3), 4_000),
                1.0 / 4_000.0,
            ),
            1.0 / 1_000.0,
        );
        assert_eq!(t.join_count(), 3);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.height(), 3);
        assert_eq!(t.relations().len(), 4);
        assert!(t.is_bushy());
        assert!(t.intermediate_size() > 0);
        // cardinality never reported as zero
        assert!(t.cardinality() >= 1);
    }

    #[test]
    fn left_deep_tree_is_not_bushy() {
        let t = JoinTree::join(
            JoinTree::join(JoinTree::leaf(r(0), 10), JoinTree::leaf(r(1), 20), 0.05),
            JoinTree::leaf(r(2), 30),
            0.05,
        );
        assert!(!t.is_bushy());
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn cardinality_is_at_least_one() {
        let j = JoinTree::join(JoinTree::leaf(r(0), 10), JoinTree::leaf(r(1), 10), 1e-9);
        assert_eq!(j.cardinality(), 1);
    }
}
