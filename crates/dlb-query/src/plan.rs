//! Parallel execution plans.
//!
//! A parallel execution plan (§2.2) is an operator tree adorned with
//! *operator scheduling* — a partial order over operators where `A < B` means
//! B cannot start before A has terminated — and *operator homes* — the set of
//! SM-nodes allowed to execute each operator.
//!
//! The partial order always contains the hash constraints
//! (`build_i < probe_i`). Two optional heuristics from the paper's Figure 2
//! are supported:
//!
//! 1. a pipeline chain starts only when all the hash tables it probes are
//!    ready (`build < first-scan-of-chain`),
//! 2. pipeline chains execute one at a time (`last-of-chain_k <
//!    first-of-chain_{k+1}` for a dependency-compatible chain order).
//!
//! Operator homes respect the constraints of §2.2: the home of a scan is the
//! home of the scanned relation, and the build and probe of the same join
//! share their home.

use crate::optree::{OperatorTree, PipelineChain};
use dlb_common::{DlbError, NodeId, OperatorId, QueryId, Result};
use dlb_storage::partition::RelationHome;
use dlb_storage::Catalog;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One precedence constraint: `after` cannot start before `before` ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleConstraint {
    /// The operator that must terminate first.
    pub before: OperatorId,
    /// The operator that must wait.
    pub after: OperatorId,
}

/// The home (set of SM-nodes) of every operator of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorHomes {
    homes: BTreeMap<u32, RelationHome>,
}

impl OperatorHomes {
    /// Homes every operator on all `nodes` SM-nodes — the assumption of the
    /// paper's evaluation ("all SM-nodes are allocated to all operators").
    pub fn all_nodes(tree: &OperatorTree, nodes: u32) -> Self {
        let homes = tree
            .operators()
            .iter()
            .map(|op| (op.id.0, RelationHome::all_nodes(nodes)))
            .collect();
        Self { homes }
    }

    /// Derives homes from a catalog: a scan is homed where its relation is
    /// stored; a join's build and probe share the union of their inputs'
    /// homes (which guarantees the §2.2 constraints by construction).
    pub fn from_catalog(tree: &OperatorTree, catalog: &Catalog, fallback_nodes: u32) -> Self {
        let mut output_home: BTreeMap<u32, RelationHome> = BTreeMap::new();
        let mut homes: BTreeMap<u32, RelationHome> = BTreeMap::new();

        // Operators are stored in expansion order: children always precede
        // their consumers, so one forward pass suffices.
        for op in tree.operators() {
            match op.kind {
                crate::optree::OperatorKind::Scan { relation } => {
                    let home = catalog
                        .home(relation)
                        .cloned()
                        .unwrap_or_else(|_| RelationHome::all_nodes(fallback_nodes));
                    homes.insert(op.id.0, home.clone());
                    output_home.insert(op.id.0, home);
                }
                crate::optree::OperatorKind::Build { .. } => {
                    // Resolved when the matching probe is visited.
                }
                crate::optree::OperatorKind::Probe { .. } => {
                    let build = op.hash_source.expect("probe has a hash source");
                    let build_producer = tree.pipelined_producers(build);
                    let probe_producer = tree.pipelined_producers(op.id);
                    let build_in = build_producer
                        .first()
                        .and_then(|p| output_home.get(&p.0))
                        .cloned()
                        .unwrap_or_else(|| RelationHome::all_nodes(fallback_nodes));
                    let probe_in = probe_producer
                        .first()
                        .and_then(|p| output_home.get(&p.0))
                        .cloned()
                        .unwrap_or_else(|| RelationHome::all_nodes(fallback_nodes));
                    let join_home = build_in.union(&probe_in);
                    homes.insert(build.0, join_home.clone());
                    homes.insert(op.id.0, join_home.clone());
                    output_home.insert(op.id.0, join_home);
                }
            }
        }
        Self { homes }
    }

    /// Home of operator `op`.
    pub fn home(&self, op: OperatorId) -> &RelationHome {
        &self.homes[&op.0]
    }

    /// True when `node` may execute `op`.
    pub fn allows(&self, op: OperatorId, node: NodeId) -> bool {
        self.homes
            .get(&op.0)
            .map(|h| h.contains(node))
            .unwrap_or(false)
    }

    /// Number of operators with a recorded home.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// True when no homes are recorded.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }
}

/// Scheduling policy for pipeline chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainScheduling {
    /// Heuristics 1 and 2: chains wait for their hash tables and run one at a
    /// time (the paper's evaluation assumption).
    OneAtATime,
    /// Heuristic 1 only: chains wait for their hash tables but may run
    /// concurrently (more concurrent operators, more memory).
    Concurrent,
}

/// A complete parallel execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelPlan {
    /// The query this plan answers.
    pub query: QueryId,
    /// The operator tree.
    pub tree: OperatorTree,
    /// Operator scheduling: a partial order over operators.
    pub schedule: Vec<ScheduleConstraint>,
    /// Operator homes.
    pub homes: OperatorHomes,
    /// How pipeline chains were scheduled.
    pub chain_scheduling: ChainScheduling,
}

impl ParallelPlan {
    /// Builds a plan from an operator tree: computes the schedule constraints
    /// (hash constraints plus the requested chain heuristics) and validates
    /// the result.
    pub fn build(
        query: QueryId,
        tree: OperatorTree,
        homes: OperatorHomes,
        chain_scheduling: ChainScheduling,
    ) -> Result<Self> {
        let mut schedule = Vec::new();

        // Hash constraints: build_i < probe_i.
        for (build, probe) in tree.joins().values() {
            schedule.push(ScheduleConstraint {
                before: *build,
                after: *probe,
            });
        }

        // Heuristic 1: a chain starts only when all hash tables probed along
        // it are ready.
        for chain in tree.chains() {
            let first = chain.first();
            for &op in &chain.operators {
                if let Some(build) = tree.operator(op).hash_source {
                    if build != first {
                        schedule.push(ScheduleConstraint {
                            before: build,
                            after: first,
                        });
                    }
                }
            }
        }

        // Heuristic 2: chains one at a time, in a dependency-compatible order.
        if chain_scheduling == ChainScheduling::OneAtATime {
            let order = chain_dependency_order(&tree)?;
            for pair in order.windows(2) {
                let prev = &tree.chains()[pair[0].index()];
                let next = &tree.chains()[pair[1].index()];
                schedule.push(ScheduleConstraint {
                    before: prev.last(),
                    after: next.first(),
                });
            }
        }

        schedule.sort_unstable();
        schedule.dedup();

        let plan = Self {
            query,
            tree,
            schedule,
            homes,
            chain_scheduling,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Operators that must terminate before `op` may start.
    pub fn blocked_by(&self, op: OperatorId) -> Vec<OperatorId> {
        self.schedule
            .iter()
            .filter(|c| c.after == op)
            .map(|c| c.before)
            .collect()
    }

    /// Operators whose start is gated by the termination of `op`.
    pub fn blocks(&self, op: OperatorId) -> Vec<OperatorId> {
        self.schedule
            .iter()
            .filter(|c| c.before == op)
            .map(|c| c.after)
            .collect()
    }

    /// Checks structural invariants: the schedule partial order is acyclic
    /// and consistent with dataflow, every operator has a home, and the
    /// build/probe of each join share their home.
    pub fn validate(&self) -> Result<()> {
        let n = self.tree.operators().len();
        if n == 0 {
            return Err(DlbError::plan("plan has no operators"));
        }
        // Every operator must have a home.
        for op in self.tree.operators() {
            if !self
                .homes
                .homes
                .get(&op.id.0)
                .map(|h| !h.is_empty())
                .unwrap_or(false)
            {
                return Err(DlbError::plan(format!("operator {} has no home", op.id)));
            }
        }
        // Build and probe of the same join share their home.
        for (build, probe) in self.tree.joins().values() {
            if self.homes.home(*build) != self.homes.home(*probe) {
                return Err(DlbError::plan(format!(
                    "join operators {build} and {probe} have different homes"
                )));
            }
        }
        // The schedule (plus pipelined dataflow edges, which also impose
        // ordering of *starts*) must be acyclic over operators.
        let mut indegree = vec![0usize; n];
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &self.schedule {
            if c.before.index() >= n || c.after.index() >= n {
                return Err(DlbError::plan("schedule references unknown operator"));
            }
            adjacency[c.before.index()].push(c.after.index());
            indegree[c.after.index()] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop_front() {
            visited += 1;
            for &j in &adjacency[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if visited != n {
            return Err(DlbError::plan("schedule constraints contain a cycle"));
        }
        Ok(())
    }

    /// The pipeline chains of the plan.
    pub fn chains(&self) -> &[PipelineChain] {
        self.tree.chains()
    }

    /// Total tuples flowing through the plan (inputs of every operator),
    /// a rough measure of total work used by reports.
    pub fn total_input_tuples(&self) -> u64 {
        self.tree.operators().iter().map(|o| o.input_tuples).sum()
    }
}

/// Orders chains so that a chain producing a hash table precedes every chain
/// probing that table; ties are broken by chain id (deterministic).
fn chain_dependency_order(tree: &OperatorTree) -> Result<Vec<dlb_common::PipelineChainId>> {
    let chains = tree.chains();
    let k = chains.len();
    // deps[x] = set of chains that must run before chain x.
    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); k];
    for (idx, chain) in chains.iter().enumerate() {
        for &op in &chain.operators {
            if let Some(build) = tree.operator(op).hash_source {
                let producer_chain = tree.operator(build).chain.index();
                if producer_chain != idx {
                    deps[idx].insert(producer_chain);
                }
            }
        }
    }
    let mut order = Vec::with_capacity(k);
    let mut done: BTreeSet<usize> = BTreeSet::new();
    while order.len() < k {
        // Pick the smallest-id chain whose dependencies are all done.
        let next = (0..k)
            .find(|i| !done.contains(i) && deps[*i].iter().all(|d| done.contains(d)))
            .ok_or_else(|| DlbError::plan("cyclic dependency between pipeline chains"))?;
        done.insert(next);
        order.push(dlb_common::PipelineChainId::from(next));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jointree::JoinTree;
    use crate::optree::OperatorKind;
    use dlb_common::RelationId;

    fn r(i: u32) -> RelationId {
        RelationId::new(i)
    }

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

    fn figure2_plan(chain_scheduling: ChainScheduling) -> ParallelPlan {
        let tree = OperatorTree::from_join_tree(&figure2_tree());
        let homes = OperatorHomes::all_nodes(&tree, 3);
        ParallelPlan::build(QueryId::new(0), tree, homes, chain_scheduling).unwrap()
    }

    #[test]
    fn hash_constraints_present_for_every_join() {
        let plan = figure2_plan(ChainScheduling::Concurrent);
        for (build, probe) in plan.tree.joins().values() {
            assert!(plan.blocked_by(*probe).contains(build));
        }
    }

    #[test]
    fn heuristic1_gates_chains_on_their_hash_tables() {
        let plan = figure2_plan(ChainScheduling::Concurrent);
        for chain in plan.chains() {
            let first = chain.first();
            for &op in &chain.operators {
                if let Some(build) = plan.tree.operator(op).hash_source {
                    if build != first {
                        assert!(
                            plan.blocked_by(first).contains(&build),
                            "chain start {first} not gated on {build}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_at_a_time_scheduling_orders_all_chains() {
        let plan = figure2_plan(ChainScheduling::OneAtATime);
        // With k chains there must be at least k-1 chain-ordering constraints
        // beyond the hash constraints (some may coincide with heuristic 1).
        assert!(plan.schedule.len() >= plan.chains().len() - 1 + plan.tree.joins().len());
        plan.validate().unwrap();
        // The schedule is acyclic and the plan validates; additionally the
        // root's chain must come last: its first operator is blocked by some
        // operator of every other chain's terminating build (transitively).
        let root_chain = plan.tree.chain_of(plan.tree.root()).id;
        let order = chain_dependency_order(&plan.tree).unwrap();
        assert_eq!(*order.last().unwrap(), root_chain);
    }

    #[test]
    fn concurrent_scheduling_has_fewer_constraints() {
        let one = figure2_plan(ChainScheduling::OneAtATime);
        let conc = figure2_plan(ChainScheduling::Concurrent);
        assert!(conc.schedule.len() <= one.schedule.len());
    }

    #[test]
    fn homes_all_nodes_cover_every_operator() {
        let plan = figure2_plan(ChainScheduling::OneAtATime);
        assert_eq!(plan.homes.len(), plan.tree.operators().len());
        for op in plan.tree.operators() {
            assert!(plan.homes.allows(op.id, NodeId::new(0)));
            assert!(plan.homes.allows(op.id, NodeId::new(2)));
            assert!(!plan.homes.allows(op.id, NodeId::new(3)));
        }
        assert!(!plan.homes.is_empty());
    }

    #[test]
    fn homes_from_catalog_respect_scan_placement_and_join_equality() {
        use dlb_storage::partition::PartitionLayout;
        use dlb_storage::relation::{RelationDef, SizeClass};

        let tree = OperatorTree::from_join_tree(&figure2_tree());
        let mut catalog = Catalog::new();
        // R and S on node 0, T and U on node 1.
        for (i, node) in [(0u32, 0u32), (1, 0), (2, 1), (3, 1)] {
            let def = RelationDef::new(r(i), format!("R{i}"), 1_000, SizeClass::Small);
            let layout =
                PartitionLayout::compute(&def, RelationHome::new(vec![NodeId::new(node)]), 1, 0.0);
            catalog.register(def, layout);
        }
        let homes = OperatorHomes::from_catalog(&tree, &catalog, 2);
        // Scan homes follow the relation placement.
        for op in tree.operators() {
            if let OperatorKind::Scan { relation } = op.kind {
                assert_eq!(
                    homes.home(op.id),
                    catalog.home(relation).unwrap(),
                    "scan home must equal relation home"
                );
            }
        }
        // Build/probe pairs share a home, and the top join spans both nodes.
        let plan =
            ParallelPlan::build(QueryId::new(1), tree, homes, ChainScheduling::OneAtATime).unwrap();
        let root_home = plan.homes.home(plan.tree.root());
        assert_eq!(root_home.len(), 2);
    }

    #[test]
    fn validation_rejects_cyclic_schedules() {
        let mut plan = figure2_plan(ChainScheduling::Concurrent);
        let a = plan.tree.operators()[0].id;
        let b = plan.tree.operators()[1].id;
        plan.schedule.push(ScheduleConstraint {
            before: a,
            after: b,
        });
        plan.schedule.push(ScheduleConstraint {
            before: b,
            after: a,
        });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn blocks_is_inverse_of_blocked_by() {
        let plan = figure2_plan(ChainScheduling::OneAtATime);
        for c in &plan.schedule {
            assert!(plan.blocks(c.before).contains(&c.after));
            assert!(plan.blocked_by(c.after).contains(&c.before));
        }
        assert!(plan.total_input_tuples() > 0);
    }
}
