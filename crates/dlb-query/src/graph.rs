//! Predicate connection graphs.
//!
//! A multi-join query is described by its *predicate connection graph*: one
//! vertex per base relation and one edge per join predicate, labelled with the
//! join selectivity factor. The paper's workload generator only produces
//! acyclic connected graphs (i.e. trees), because "most multi-join queries in
//! practice tend to have simple join predicates", but the structure here
//! accepts arbitrary connected graphs.

use dlb_common::{DlbError, RelationId, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One join predicate between two relations, with its selectivity factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEdge {
    /// One endpoint.
    pub left: RelationId,
    /// The other endpoint.
    pub right: RelationId,
    /// Join selectivity factor: `|L ⋈ R| = selectivity * |L| * |R|`.
    pub selectivity: f64,
}

impl JoinEdge {
    /// True when this edge connects `a` and `b` (in either order).
    pub fn connects(&self, a: RelationId, b: RelationId) -> bool {
        (self.left == a && self.right == b) || (self.left == b && self.right == a)
    }

    /// The endpoint that is not `r`, if `r` is an endpoint.
    pub fn other(&self, r: RelationId) -> Option<RelationId> {
        if self.left == r {
            Some(self.right)
        } else if self.right == r {
            Some(self.left)
        } else {
            None
        }
    }
}

/// The predicate connection graph of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateGraph {
    relations: Vec<RelationId>,
    edges: Vec<JoinEdge>,
}

impl PredicateGraph {
    /// Creates a graph over the given relations with no edges yet.
    pub fn new(relations: Vec<RelationId>) -> Self {
        Self {
            relations,
            edges: Vec::new(),
        }
    }

    /// Adds a join edge. Panics if either endpoint is not a vertex or the
    /// selectivity is not positive and finite.
    pub fn add_edge(&mut self, left: RelationId, right: RelationId, selectivity: f64) {
        assert!(
            self.relations.contains(&left) && self.relations.contains(&right),
            "both endpoints must be relations of the graph"
        );
        assert!(
            left != right,
            "self-joins are expressed with distinct relation ids"
        );
        assert!(
            selectivity.is_finite() && selectivity > 0.0,
            "selectivity must be positive"
        );
        self.edges.push(JoinEdge {
            left,
            right,
            selectivity,
        });
    }

    /// Relations (vertices) of the graph.
    pub fn relations(&self) -> &[RelationId] {
        &self.relations
    }

    /// Join edges of the graph.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the graph has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Relations adjacent to `r`.
    pub fn neighbours(&self, r: RelationId) -> Vec<RelationId> {
        self.edges.iter().filter_map(|e| e.other(r)).collect()
    }

    /// Selectivity of the edge between `a` and `b`, if any.
    pub fn selectivity_between(&self, a: RelationId, b: RelationId) -> Option<f64> {
        self.edges
            .iter()
            .find(|e| e.connects(a, b))
            .map(|e| e.selectivity)
    }

    /// True when the graph is connected (every relation reachable from the
    /// first one through join edges).
    pub fn is_connected(&self) -> bool {
        if self.relations.is_empty() {
            return true;
        }
        let mut adjacency: BTreeMap<RelationId, Vec<RelationId>> = BTreeMap::new();
        for e in &self.edges {
            adjacency.entry(e.left).or_default().push(e.right);
            adjacency.entry(e.right).or_default().push(e.left);
        }
        let mut visited = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(self.relations[0]);
        visited.insert(self.relations[0]);
        while let Some(r) = queue.pop_front() {
            if let Some(next) = adjacency.get(&r) {
                for &n in next {
                    if visited.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        visited.len() == self.relations.len()
    }

    /// True when the graph is acyclic (edge count is vertex count minus one
    /// for a connected graph; more generally checked per connected component).
    pub fn is_acyclic(&self) -> bool {
        // Union-find over relations; a cycle appears when an edge joins two
        // vertices already in the same set.
        let mut parent: BTreeMap<RelationId, RelationId> =
            self.relations.iter().map(|&r| (r, r)).collect();
        fn find(parent: &mut BTreeMap<RelationId, RelationId>, r: RelationId) -> RelationId {
            let p = parent[&r];
            if p == r {
                r
            } else {
                let root = find(parent, p);
                parent.insert(r, root);
                root
            }
        }
        for e in &self.edges {
            let a = find(&mut parent, e.left);
            let b = find(&mut parent, e.right);
            if a == b {
                return false;
            }
            parent.insert(a, b);
        }
        true
    }
}

/// A predicate graph in bitmask form, for join enumeration.
///
/// Bit `i` of a `u64` mask stands for the `i`-th relation of the order the
/// masks were built over, and a set of relations is the OR of its bits. Each
/// predicate edge becomes a `(left, right, selectivity)` triple whose masks
/// hold the bits of its two endpoints, kept in the graph's edge order. A
/// relation id listed twice in the order maps to both bits, and an endpoint
/// outside the order maps to no bit, so a mask test answers exactly what a
/// set-membership test over relation ids would.
#[derive(Debug)]
pub struct EdgeMasks {
    relations: Vec<RelationId>,
    edges: Vec<(u64, u64, f64)>,
}

impl EdgeMasks {
    /// Most relations a mask can hold: one bit of a `u64` each.
    pub const MAX_RELATIONS: usize = u64::BITS as usize;

    /// Builds the masks of `graph`'s edges over `relations` (bit `i` is
    /// `relations[i]`). Fails when there are more than
    /// [`Self::MAX_RELATIONS`] relations.
    pub fn new(graph: &PredicateGraph, relations: &[RelationId]) -> Result<Self> {
        if relations.len() > Self::MAX_RELATIONS {
            return Err(DlbError::plan(format!(
                "query has {} relations; join enumeration supports at most {}",
                relations.len(),
                Self::MAX_RELATIONS
            )));
        }
        let edges = graph
            .edges()
            .iter()
            .map(|e| {
                let bits = |id| bits_of(relations, id);
                (bits(e.left), bits(e.right), e.selectivity)
            })
            .collect();
        Ok(Self {
            relations: relations.to_vec(),
            edges,
        })
    }

    /// The mask of a set of relations.
    pub fn mask(&self, relations: &BTreeSet<RelationId>) -> u64 {
        relations
            .iter()
            .fold(0, |mask, &r| mask | bits_of(&self.relations, r))
    }

    /// Combined selectivity of all predicate edges linking a relation of
    /// `left` with a relation of `right`: the product of the individual edge
    /// selectivities, taken in edge order. Returns `None` when no edge
    /// crosses the two sets, i.e. joining them would be a Cartesian product.
    pub fn crossing_selectivity(&self, left: u64, right: u64) -> Option<f64> {
        let mut product = 1.0;
        let mut found = false;
        for &(l, r, selectivity) in &self.edges {
            if (l & left != 0 && r & right != 0) || (r & left != 0 && l & right != 0) {
                product *= selectivity;
                found = true;
            }
        }
        found.then_some(product)
    }
}

/// The bits standing for relation `id` in a mask over `relations`.
fn bits_of(relations: &[RelationId], id: RelationId) -> u64 {
    relations
        .iter()
        .enumerate()
        .filter(|(_, &r)| r == id)
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RelationId {
        RelationId::new(i)
    }

    fn chain_graph(n: u32) -> PredicateGraph {
        let mut g = PredicateGraph::new((0..n).map(r).collect());
        for i in 1..n {
            g.add_edge(r(i - 1), r(i), 0.001);
        }
        g
    }

    #[test]
    fn edge_helpers() {
        let e = JoinEdge {
            left: r(0),
            right: r(1),
            selectivity: 0.5,
        };
        assert!(e.connects(r(0), r(1)));
        assert!(e.connects(r(1), r(0)));
        assert!(!e.connects(r(0), r(2)));
        assert_eq!(e.other(r(0)), Some(r(1)));
        assert_eq!(e.other(r(2)), None);
    }

    #[test]
    fn chain_is_connected_and_acyclic() {
        let g = chain_graph(5);
        assert_eq!(g.len(), 5);
        assert!(g.is_connected());
        assert!(g.is_acyclic());
        assert_eq!(g.neighbours(r(2)), vec![r(1), r(3)]);
        assert_eq!(g.selectivity_between(r(0), r(1)), Some(0.001));
        assert_eq!(g.selectivity_between(r(0), r(2)), None);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = PredicateGraph::new(vec![r(0), r(1), r(2)]);
        g.add_edge(r(0), r(1), 0.1);
        assert!(!g.is_connected());
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycle_detected() {
        let mut g = chain_graph(3);
        g.add_edge(r(2), r(0), 0.1);
        assert!(g.is_connected());
        assert!(!g.is_acyclic());
    }

    #[test]
    fn crossing_selectivity_multiplies_edges() {
        let mut g = PredicateGraph::new(vec![r(0), r(1), r(2), r(3)]);
        g.add_edge(r(0), r(2), 0.1);
        g.add_edge(r(1), r(3), 0.2);
        g.add_edge(r(0), r(1), 0.5);
        let masks = EdgeMasks::new(&g, g.relations()).unwrap();
        let set = |ids: &[u32]| masks.mask(&ids.iter().map(|&i| r(i)).collect());
        let left = set(&[0, 1]);
        assert_eq!(left, 0b0011);
        let sel = masks.crossing_selectivity(left, set(&[2, 3])).unwrap();
        assert!((sel - 0.1 * 0.2).abs() < 1e-12);
        // The (0,1) edge is internal to `left` and must not contribute.
        let sel2 = masks.crossing_selectivity(left, set(&[3])).unwrap();
        assert!((sel2 - 0.2).abs() < 1e-12);
        assert!(masks.crossing_selectivity(set(&[3]), set(&[2])).is_none());
    }

    #[test]
    fn masks_follow_the_given_order_and_bound_the_relation_count() {
        let g = chain_graph(3);
        // Bit i is the i-th relation of the order, not of the graph.
        let masks = EdgeMasks::new(&g, &[r(2), r(0), r(1)]).unwrap();
        assert_eq!(masks.mask(&[r(2)].into_iter().collect()), 0b001);
        assert_eq!(masks.mask(&[r(0), r(1)].into_iter().collect()), 0b110);
        assert_eq!(masks.crossing_selectivity(0b001, 0b100), Some(0.001));
        assert_eq!(masks.crossing_selectivity(0b001, 0b010), None);
        // A relation outside the order has no bit and crosses nothing.
        let partial = EdgeMasks::new(&g, &[r(0), r(1)]).unwrap();
        assert_eq!(partial.mask(&[r(2)].into_iter().collect()), 0);
        assert_eq!(partial.crossing_selectivity(0b010, 0b100), None);

        let wide = chain_graph(65);
        let err = EdgeMasks::new(&wide, wide.relations()).unwrap_err();
        assert!(err.to_string().contains("at most 64"), "{err}");
        assert!(EdgeMasks::new(&wide, &wide.relations()[..64]).is_ok());
    }

    #[test]
    #[should_panic(expected = "selectivity must be positive")]
    fn bad_selectivity_rejected() {
        let mut g = PredicateGraph::new(vec![r(0), r(1)]);
        g.add_edge(r(0), r(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-joins")]
    fn self_edge_rejected() {
        let mut g = PredicateGraph::new(vec![r(0)]);
        g.add_edge(r(0), r(0), 0.5);
    }

    #[test]
    fn empty_graph_is_connected_and_acyclic() {
        let g = PredicateGraph::new(vec![]);
        assert!(g.is_connected());
        assert!(g.is_acyclic());
        assert!(g.is_empty());
    }
}
