//! Operator trees: macro-expansion of join trees.
//!
//! Following §2.2, a join tree is macro-expanded into an *operator tree*
//! whose nodes are the atomic operators (scan, build, probe) and whose edges
//! describe dataflow. Two kinds of edges are distinguished:
//!
//! * **pipelinable** edges — tuples are consumed one at a time (scan → build,
//!   scan → probe, probe → build, probe → probe),
//! * **blocking** edges — the producer's output must be fully materialized
//!   before the consumer starts; the only blocking edge of a hash join is
//!   build → probe (the hash table).
//!
//! The operator tree is then decomposed into *maximum pipeline chains*
//! (§2.2): maximal sequences of operators linked by pipelinable edges. Each
//! chain starts at a scan and ends either at a build or at the root probe.

use crate::jointree::JoinTree;
use dlb_common::{OperatorId, PipelineChainId, RelationId};
use std::collections::BTreeMap;

/// The kind of an atomic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Scan of a base relation.
    Scan {
        /// The scanned relation.
        relation: RelationId,
    },
    /// Build phase of hash join number `join`.
    Build {
        /// Join index within the query (0-based, in expansion order).
        join: u32,
    },
    /// Probe phase of hash join number `join`.
    Probe {
        /// Join index within the query (0-based, in expansion order).
        join: u32,
    },
}

impl OperatorKind {
    /// True for scan operators.
    pub fn is_scan(self) -> bool {
        matches!(self, OperatorKind::Scan { .. })
    }

    /// True for build operators.
    pub fn is_build(self) -> bool {
        matches!(self, OperatorKind::Build { .. })
    }

    /// True for probe operators.
    pub fn is_probe(self) -> bool {
        matches!(self, OperatorKind::Probe { .. })
    }

    /// Short label used in reports ("scan", "build", "probe").
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Scan { .. } => "scan",
            OperatorKind::Build { .. } => "build",
            OperatorKind::Probe { .. } => "probe",
        }
    }
}

/// Kind of a dataflow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Tuples may be consumed one at a time as they are produced.
    Pipelinable,
    /// The whole output must be produced before consumption starts.
    Blocking,
}

/// One atomic operator of a parallel execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Identifier (index into the operator tree).
    pub id: OperatorId,
    /// What the operator does.
    pub kind: OperatorKind,
    /// The operator consuming this operator's pipelined output, if any. Build
    /// operators have no pipelined consumer (their output is the hash table,
    /// connected to the probe through `hash_source`), and the root probe has
    /// none either.
    pub consumer: Option<OperatorId>,
    /// For probe operators, the build operator whose hash table is probed.
    pub hash_source: Option<OperatorId>,
    /// True (estimated-by-the-optimizer) number of input tuples.
    pub input_tuples: u64,
    /// True number of output tuples (for a build, the hash-table
    /// cardinality; for a probe, the join result cardinality).
    pub output_tuples: u64,
    /// Pipeline chain this operator belongs to.
    pub chain: PipelineChainId,
}

impl Operator {
    /// The kind of the edge from this operator to its consumer.
    pub fn output_edge(&self) -> EdgeKind {
        if self.kind.is_build() {
            EdgeKind::Blocking
        } else {
            EdgeKind::Pipelinable
        }
    }
}

/// A maximum pipeline chain: operators executed in pipeline, listed from the
/// leading scan to the terminating build (or root probe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineChain {
    /// Identifier of the chain.
    pub id: PipelineChainId,
    /// Operators of the chain, in dataflow order.
    pub operators: Vec<OperatorId>,
}

impl PipelineChain {
    /// First operator of the chain (always a scan).
    pub fn first(&self) -> OperatorId {
        self.operators[0]
    }

    /// Last operator of the chain (a build, or the root probe).
    pub fn last(&self) -> OperatorId {
        *self.operators.last().expect("chains are never empty")
    }

    /// Number of operators in the chain.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// True when the chain has no operators (never happens for valid plans).
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }
}

/// The operator tree produced by macro-expanding a join tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorTree {
    operators: Vec<Operator>,
    chains: Vec<PipelineChain>,
    root: OperatorId,
}

impl OperatorTree {
    /// Macro-expands a join tree into scan/build/probe operators, assigns
    /// pipeline chains and returns the resulting tree.
    pub fn from_join_tree(tree: &JoinTree) -> Self {
        let mut builder = TreeBuilder::default();
        let root = builder.expand(tree);
        let mut optree = OperatorTree {
            operators: builder.operators,
            chains: Vec::new(),
            root,
        };
        optree.assign_chains();
        optree
    }

    /// All operators, indexed by their id.
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// The operator with identifier `id`.
    pub fn operator(&self, id: OperatorId) -> &Operator {
        &self.operators[id.index()]
    }

    /// The root operator (the probe producing the final query result, or the
    /// single scan of a one-relation query).
    pub fn root(&self) -> OperatorId {
        self.root
    }

    /// The pipeline chains, in construction order.
    pub fn chains(&self) -> &[PipelineChain] {
        &self.chains
    }

    /// The chain containing operator `id`.
    pub fn chain_of(&self, id: OperatorId) -> &PipelineChain {
        &self.chains[self.operator(id).chain.index()]
    }

    /// Operators producing pipelined input for `id` (its children across
    /// pipelinable edges).
    pub fn pipelined_producers(&self, id: OperatorId) -> Vec<OperatorId> {
        self.operators
            .iter()
            .filter(|op| op.consumer == Some(id))
            .map(|op| op.id)
            .collect()
    }

    /// Number of scan operators.
    pub fn scan_count(&self) -> usize {
        self.operators.iter().filter(|o| o.kind.is_scan()).count()
    }

    /// Number of joins (build/probe pairs).
    pub fn join_count(&self) -> usize {
        self.operators.iter().filter(|o| o.kind.is_build()).count()
    }

    /// Total number of result tuples produced by the root operator.
    pub fn result_tuples(&self) -> u64 {
        self.operator(self.root).output_tuples
    }

    fn assign_chains(&mut self) {
        // A chain starts at each scan and follows pipelinable consumer edges.
        let scans: Vec<OperatorId> = self
            .operators
            .iter()
            .filter(|o| o.kind.is_scan())
            .map(|o| o.id)
            .collect();
        let mut chains = Vec::new();
        for (chain_idx, scan) in scans.into_iter().enumerate() {
            let chain_id = PipelineChainId::from(chain_idx);
            let mut members = vec![scan];
            let mut current = scan;
            loop {
                let op = &self.operators[current.index()];
                // Stop after a build (blocking output) or at the root.
                if op.output_edge() == EdgeKind::Blocking {
                    break;
                }
                match op.consumer {
                    Some(next) => {
                        members.push(next);
                        current = next;
                    }
                    None => break,
                }
            }
            for &m in &members {
                self.operators[m.index()].chain = chain_id;
            }
            chains.push(PipelineChain {
                id: chain_id,
                operators: members,
            });
        }
        self.chains = chains;
    }

    /// Map from join index to its (build, probe) operator pair.
    pub fn joins(&self) -> BTreeMap<u32, (OperatorId, OperatorId)> {
        let mut map: BTreeMap<u32, (Option<OperatorId>, Option<OperatorId>)> = BTreeMap::new();
        for op in &self.operators {
            match op.kind {
                OperatorKind::Build { join } => map.entry(join).or_default().0 = Some(op.id),
                OperatorKind::Probe { join } => map.entry(join).or_default().1 = Some(op.id),
                OperatorKind::Scan { .. } => {}
            }
        }
        map.into_iter()
            .map(|(j, (b, p))| (j, (b.expect("build exists"), p.expect("probe exists"))))
            .collect()
    }
}

#[derive(Default)]
struct TreeBuilder {
    operators: Vec<Operator>,
    next_join: u32,
}

impl TreeBuilder {
    fn push(&mut self, kind: OperatorKind, input: u64, output: u64) -> OperatorId {
        let id = OperatorId::from(self.operators.len());
        self.operators.push(Operator {
            id,
            kind,
            consumer: None,
            hash_source: None,
            input_tuples: input,
            output_tuples: output,
            chain: PipelineChainId::new(0),
        });
        id
    }

    /// Expands a subtree, returning the operator producing its output.
    fn expand(&mut self, tree: &JoinTree) -> OperatorId {
        match tree {
            JoinTree::Leaf {
                relation,
                cardinality,
            } => self.push(
                OperatorKind::Scan {
                    relation: *relation,
                },
                *cardinality,
                *cardinality,
            ),
            JoinTree::Join {
                build,
                probe,
                cardinality,
            } => {
                let build_input = self.expand(build);
                let probe_input = self.expand(probe);
                let join = self.next_join;
                self.next_join += 1;

                let build_op = self.push(
                    OperatorKind::Build { join },
                    build.cardinality(),
                    build.cardinality(),
                );
                let probe_op = self.push(
                    OperatorKind::Probe { join },
                    probe.cardinality(),
                    *cardinality,
                );
                self.operators[build_input.index()].consumer = Some(build_op);
                self.operators[probe_input.index()].consumer = Some(probe_op);
                self.operators[probe_op.index()].hash_source = Some(build_op);
                probe_op
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

    /// The bushy tree of the paper's Figure 2: (R ⋈ S) ⋈ (T ⋈ U).
    fn figure2_tree() -> JoinTree {
        let rs = JoinTree::join(
            JoinTree::leaf(r(0), 1_000),
            JoinTree::leaf(r(1), 2_000),
            1.0 / 2_000.0,
        );
        let tu = JoinTree::join(
            JoinTree::leaf(r(2), 1_500),
            JoinTree::leaf(r(3), 3_000),
            1.0 / 3_000.0,
        );
        JoinTree::join(rs, tu, 1.0 / 1_500.0)
    }

    #[test]
    fn expansion_creates_three_operators_per_join_plus_scans() {
        let ot = OperatorTree::from_join_tree(&figure2_tree());
        assert_eq!(ot.scan_count(), 4);
        assert_eq!(ot.join_count(), 3);
        assert_eq!(ot.operators().len(), 4 + 2 * 3);
        assert!(ot.operator(ot.root()).kind.is_probe());
    }

    #[test]
    fn every_probe_has_a_hash_source_and_builds_have_none() {
        let ot = OperatorTree::from_join_tree(&figure2_tree());
        for op in ot.operators() {
            match op.kind {
                OperatorKind::Probe { .. } => assert!(op.hash_source.is_some()),
                _ => assert!(op.hash_source.is_none()),
            }
        }
        let joins = ot.joins();
        assert_eq!(joins.len(), 3);
        for (build, probe) in joins.values() {
            assert!(ot.operator(*build).kind.is_build());
            assert!(ot.operator(*probe).kind.is_probe());
            assert_eq!(ot.operator(*probe).hash_source, Some(*build));
        }
    }

    #[test]
    fn chains_match_figure2_decomposition() {
        // Expected chains: {scanR, build}, {scanS, probe1, build-top},
        // {scanT, build2}, {scanU, probe2, probe-top}.
        let ot = OperatorTree::from_join_tree(&figure2_tree());
        assert_eq!(ot.chains().len(), 4);
        let lens: Vec<usize> = ot.chains().iter().map(|c| c.len()).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 2, 3, 3]);
        // Each chain starts with a scan.
        for chain in ot.chains() {
            assert!(ot.operator(chain.first()).kind.is_scan());
            assert!(!chain.is_empty());
            // Intermediate operators of a chain are probes; the last is a
            // build or the root probe.
            for &op in &chain.operators[1..chain.len() - 1] {
                assert!(ot.operator(op).kind.is_probe());
            }
            let last = ot.operator(chain.last());
            assert!(last.kind.is_build() || last.id == ot.root());
        }
        // Every operator belongs to exactly one chain.
        let mut seen = std::collections::HashSet::new();
        for chain in ot.chains() {
            for &op in &chain.operators {
                assert!(seen.insert(op), "operator in two chains");
                assert_eq!(ot.operator(op).chain, chain.id);
                assert_eq!(ot.chain_of(op).id, chain.id);
            }
        }
        assert_eq!(seen.len(), ot.operators().len());
    }

    #[test]
    fn blocking_edges_only_out_of_builds() {
        let ot = OperatorTree::from_join_tree(&figure2_tree());
        for op in ot.operators() {
            match op.kind {
                OperatorKind::Build { .. } => {
                    assert_eq!(op.output_edge(), EdgeKind::Blocking);
                    assert!(op.consumer.is_none());
                }
                _ => assert_eq!(op.output_edge(), EdgeKind::Pipelinable),
            }
        }
    }

    #[test]
    fn pipelined_producers_are_symmetric_with_consumers() {
        let ot = OperatorTree::from_join_tree(&figure2_tree());
        for op in ot.operators() {
            if let Some(consumer) = op.consumer {
                assert!(ot.pipelined_producers(consumer).contains(&op.id));
            }
        }
    }

    #[test]
    fn single_relation_tree_expands_to_one_scan() {
        let ot = OperatorTree::from_join_tree(&JoinTree::leaf(r(9), 500));
        assert_eq!(ot.operators().len(), 1);
        assert_eq!(ot.scan_count(), 1);
        assert_eq!(ot.chains().len(), 1);
        assert_eq!(ot.result_tuples(), 500);
        assert_eq!(ot.root(), OperatorId::new(0));
    }

    #[test]
    fn cardinalities_propagate_from_join_tree() {
        let tree = figure2_tree();
        let ot = OperatorTree::from_join_tree(&tree);
        assert_eq!(ot.result_tuples(), tree.cardinality());
        // Build input equals the build-side subtree cardinality.
        for op in ot.operators() {
            if op.kind.is_build() {
                assert_eq!(op.input_tuples, op.output_tuples);
            }
        }
    }
}
