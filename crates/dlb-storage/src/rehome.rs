//! Partition re-homing after a topology change.
//!
//! When an SM-node leaves the machine (failure or drain), every partition it
//! held — base-relation fragments as well as in-flight operator state such as
//! hash-table partitions — must move to the surviving nodes. Two classic
//! re-partitioning disciplines are provided, selected with [`RehomePolicy`]:
//!
//! * **Consistent hashing** — each key picks its survivor by
//!   highest-random-weight (rendezvous) hashing, so re-homing a second failed
//!   node moves only the dead node's keys and never reshuffles keys between
//!   survivors.
//! * **Range re-partitioning** — the dead node's keys are split into
//!   contiguous ranges assigned to the survivors in order, minimizing the
//!   number of distinct (source, destination) transfer streams at the cost of
//!   reshuffling when the survivor set changes again.
//!
//! Both are pure functions of `(key, survivor set)`, so the execution engine
//! and the storage layer re-home the same key to the same survivor without
//! coordination — and deterministically, which the co-simulated fault
//! injection of `dlb-exec` relies on for bit-identical replays.

use crate::partition::{NodePartition, PartitionLayout};
use dlb_common::NodeId;

/// How the contents of a departed node are redistributed over the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RehomePolicy {
    /// Highest-random-weight (rendezvous) hashing: minimal movement across
    /// successive topology changes.
    #[default]
    ConsistentHash,
    /// Contiguous range split over the survivors, in node order.
    Range,
}

impl RehomePolicy {
    /// Stable label used in scenario JSON and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RehomePolicy::ConsistentHash => "consistent-hash",
            RehomePolicy::Range => "range",
        }
    }

    /// Parses a [`Self::label`] spelling.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "consistent-hash" => Some(RehomePolicy::ConsistentHash),
            "range" => Some(RehomePolicy::Range),
            _ => None,
        }
    }

    /// Picks the surviving node for item `key` of `total` keyed items being
    /// re-homed. `survivors` must be non-empty; the choice is a pure function
    /// of the inputs.
    ///
    /// Under [`RehomePolicy::Range`], `key` is interpreted as a position in
    /// `0..total` and mapped to a contiguous range per survivor; under
    /// [`RehomePolicy::ConsistentHash`], `total` is ignored and the key picks
    /// the survivor with the highest rendezvous weight.
    pub fn survivor(&self, key: u64, total: u64, survivors: &[NodeId]) -> NodeId {
        assert!(
            !survivors.is_empty(),
            "re-homing needs at least one survivor"
        );
        match self {
            RehomePolicy::ConsistentHash => *survivors
                .iter()
                .max_by_key(|n| mix64(key ^ mix64(n.index() as u64 + 1)))
                .expect("non-empty survivor set"),
            RehomePolicy::Range => {
                let total = total.max(1);
                let slot = ((key.min(total - 1) as u128 * survivors.len() as u128) / total as u128)
                    as usize;
                survivors[slot.min(survivors.len() - 1)]
            }
        }
    }
}

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixing function.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The outcome of re-homing one layout after a node departure: the new
/// layout plus the movement accounting the caller reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RehomeOutcome {
    /// The layout with the departed node's tuples folded into the survivors.
    pub layout: PartitionLayout,
    /// Tuples that moved off the departed node.
    pub moved_tuples: u64,
}

impl PartitionLayout {
    /// Re-homes this layout after `departed` leaves: its tuples are
    /// redistributed over the remaining home nodes according to `policy`
    /// (disk-uniform within each receiving node, like the initial layout).
    /// Returns `None` when the departed node held no partition of this
    /// layout, or when it was the layout's only home (nothing survives to
    /// receive the data — the caller must treat the partition as lost or
    /// re-create it elsewhere).
    pub fn rehome(&self, departed: NodeId, policy: RehomePolicy) -> Option<RehomeOutcome> {
        if !self.home().contains(departed) || self.home().len() < 2 {
            return None;
        }
        let survivors: Vec<NodeId> = self
            .home()
            .nodes()
            .iter()
            .copied()
            .filter(|&n| n != departed)
            .collect();
        let moved_tuples = self.tuples_on(departed);
        // Split the departed node's tuples into per-survivor shares: walk the
        // tuples in fixed-size units so both policies see a keyed stream.
        let mut share = vec![0u64; survivors.len()];
        const UNIT: u64 = 1 << 10;
        let units = moved_tuples.div_ceil(UNIT).max(1);
        let mut remaining = moved_tuples;
        for unit in 0..units {
            let chunk = remaining.min(UNIT);
            remaining -= chunk;
            let dest = policy.survivor(unit, units, &survivors);
            let slot = survivors.iter().position(|&n| n == dest).expect("survivor");
            share[slot] += chunk;
        }
        let partitions: Vec<NodePartition> = self
            .partitions()
            .iter()
            .filter(|p| p.node != departed)
            .map(|p| {
                let gained = share[survivors.iter().position(|&n| n == p.node).expect("home")];
                if gained == 0 {
                    return p.clone();
                }
                // Spread the gained tuples uniformly over the node's disks,
                // like the initial disk split.
                let disks = p.tuples_per_disk.len().max(1) as u64;
                let per_disk = gained / disks;
                let mut rem = gained - per_disk * disks;
                let tuples_per_disk = p
                    .tuples_per_disk
                    .iter()
                    .map(|&t| {
                        let extra = if rem > 0 {
                            rem -= 1;
                            1
                        } else {
                            0
                        };
                        t + per_disk + extra
                    })
                    .collect();
                NodePartition {
                    node: p.node,
                    tuples_per_disk,
                }
            })
            .collect();
        Some(RehomeOutcome {
            layout: PartitionLayout::from_parts(
                crate::partition::RelationHome::new(survivors),
                partitions,
            ),
            moved_tuples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RelationHome;
    use crate::relation::{RelationDef, SizeClass};
    use dlb_common::RelationId;

    fn layout(nodes: u32, card: u64) -> PartitionLayout {
        let rel = RelationDef::new(RelationId::new(0), "R", card, SizeClass::Medium);
        PartitionLayout::compute(&rel, RelationHome::all_nodes(nodes), 2, 0.0)
    }

    #[test]
    fn labels_round_trip() {
        for p in [RehomePolicy::ConsistentHash, RehomePolicy::Range] {
            assert_eq!(RehomePolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(RehomePolicy::from_label("nope"), None);
        assert_eq!(RehomePolicy::default(), RehomePolicy::ConsistentHash);
    }

    #[test]
    fn survivor_choice_is_deterministic_and_in_set() {
        let survivors: Vec<NodeId> = [0usize, 2, 3].into_iter().map(NodeId::from).collect();
        for policy in [RehomePolicy::ConsistentHash, RehomePolicy::Range] {
            for key in 0..64 {
                let a = policy.survivor(key, 64, &survivors);
                let b = policy.survivor(key, 64, &survivors);
                assert_eq!(a, b, "{policy:?} key {key}");
                assert!(survivors.contains(&a));
            }
        }
    }

    #[test]
    fn consistent_hash_moves_only_the_departed_nodes_keys() {
        // Keys mapped to a survivor keep their placement when another node
        // leaves — the defining property of rendezvous hashing.
        let all: Vec<NodeId> = (0..4usize).map(NodeId::from).collect();
        let without_3: Vec<NodeId> = (0..3usize).map(NodeId::from).collect();
        let policy = RehomePolicy::ConsistentHash;
        for key in 0..256 {
            let before = policy.survivor(key, 256, &all);
            let after = policy.survivor(key, 256, &without_3);
            if before != NodeId::from(3usize) {
                assert_eq!(before, after, "key {key} reshuffled between survivors");
            } else {
                assert!(without_3.contains(&after));
            }
        }
    }

    #[test]
    fn range_policy_assigns_contiguous_blocks() {
        let survivors: Vec<NodeId> = [0usize, 1, 2].into_iter().map(NodeId::from).collect();
        let picks: Vec<NodeId> = (0..9)
            .map(|k| RehomePolicy::Range.survivor(k, 9, &survivors))
            .collect();
        // Three contiguous runs of three.
        assert_eq!(picks[0..3], [NodeId::from(0usize); 3]);
        assert_eq!(picks[3..6], [NodeId::from(1usize); 3]);
        assert_eq!(picks[6..9], [NodeId::from(2usize); 3]);
    }

    #[test]
    fn rehome_conserves_tuples_and_shrinks_the_home() {
        for policy in [RehomePolicy::ConsistentHash, RehomePolicy::Range] {
            let before = layout(4, 40_000);
            let dead = NodeId::from(1usize);
            let moved = before.tuples_on(dead);
            let out = before.rehome(dead, policy).expect("multi-node home");
            assert_eq!(out.moved_tuples, moved);
            assert_eq!(out.layout.total_tuples(), before.total_tuples());
            assert_eq!(out.layout.home().len(), 3);
            assert!(!out.layout.home().contains(dead));
            assert_eq!(out.layout.tuples_on(dead), 0);
            // Every survivor holds at least what it held before.
            for n in out.layout.home().nodes() {
                assert!(
                    out.layout.tuples_on(*n) >= before.tuples_on(*n),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn rehome_of_foreign_or_last_node_is_none() {
        let single = layout(1, 1_000);
        assert!(single
            .rehome(NodeId::from(0usize), RehomePolicy::Range)
            .is_none());
        let multi = layout(2, 1_000);
        assert!(multi
            .rehome(NodeId::from(7usize), RehomePolicy::Range)
            .is_none());
    }
}
