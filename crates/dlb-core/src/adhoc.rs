//! Ad-hoc query construction.
//!
//! While the paper's evaluation runs randomly generated workloads, a
//! downstream user typically wants to describe a concrete multi-join query:
//! relations with cardinalities, join predicates with (optional) selectivity,
//! and get back optimized parallel plans ready to execute on a
//! [`HierarchicalSystem`].

use crate::system::HierarchicalSystem;
use dlb_common::{DlbError, QueryId, RelationId, Result};
use dlb_query::cost::CostModel;
use dlb_query::generator::Query;
use dlb_query::graph::PredicateGraph;
use dlb_query::optimizer::{Optimizer, OptimizerParams};
use dlb_query::optree::OperatorTree;
use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};
use dlb_storage::relation::{RelationDef, SizeClass};

/// A user-described multi-join query.
#[derive(Debug, Clone)]
pub struct AdHocQuery {
    name: String,
    relations: Vec<(String, u64, f64)>,
    joins: Vec<(String, String, Option<f64>)>,
    chain_scheduling: ChainScheduling,
    keep_best: usize,
}

impl AdHocQuery {
    /// Starts a new query description.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            relations: Vec::new(),
            joins: Vec::new(),
            chain_scheduling: ChainScheduling::OneAtATime,
            keep_best: 1,
        }
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a relation with the given cardinality.
    pub fn relation(mut self, name: impl Into<String>, cardinality: u64) -> Self {
        self.relations.push((name.into(), cardinality, 0.0));
        self
    }

    /// Adds a relation whose join attribute is skewed (Zipf theta).
    pub fn skewed_relation(mut self, name: impl Into<String>, cardinality: u64, skew: f64) -> Self {
        self.relations.push((name.into(), cardinality, skew));
        self
    }

    /// Adds an equi-join between two relations. The selectivity defaults to
    /// `1 / max(|L|, |R|)` (a key/foreign-key join).
    pub fn join(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.joins.push((left.into(), right.into(), None));
        self
    }

    /// Adds a join with an explicit selectivity factor.
    pub fn join_with_selectivity(
        mut self,
        left: impl Into<String>,
        right: impl Into<String>,
        selectivity: f64,
    ) -> Self {
        self.joins
            .push((left.into(), right.into(), Some(selectivity)));
        self
    }

    /// Allows pipeline chains to execute concurrently instead of one at a
    /// time.
    pub fn concurrent_chains(mut self) -> Self {
        self.chain_scheduling = ChainScheduling::Concurrent;
        self
    }

    /// Number of alternative plans to produce (default 1).
    pub fn keep_best(mut self, n: usize) -> Self {
        self.keep_best = n.max(1);
        self
    }

    fn size_class(cardinality: u64) -> SizeClass {
        if cardinality <= 20_000 {
            SizeClass::Small
        } else if cardinality <= 200_000 {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }

    /// Turns the description into a [`Query`] (relations + predicate graph).
    pub fn to_query(&self) -> Result<Query> {
        if self.relations.is_empty() {
            return Err(DlbError::plan("query has no relations"));
        }
        let relations: Vec<RelationDef> = self
            .relations
            .iter()
            .enumerate()
            .map(|(i, (name, card, skew))| {
                RelationDef::new(
                    RelationId::from(i),
                    name.clone(),
                    *card,
                    Self::size_class(*card),
                )
                .with_skew(*skew)
            })
            .collect();
        let find = |name: &str| -> Result<RelationId> {
            relations
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.id)
                .ok_or_else(|| DlbError::not_found(format!("relation '{name}'")))
        };
        let mut graph = PredicateGraph::new(relations.iter().map(|r| r.id).collect());
        for (l, r, sel) in &self.joins {
            let left = find(l)?;
            let right = find(r)?;
            let lc = relations[left.index()].cardinality;
            let rc = relations[right.index()].cardinality;
            let selectivity = sel.unwrap_or(1.0 / lc.max(rc).max(1) as f64);
            graph.add_edge(left, right, selectivity);
        }
        let query = Query {
            id: QueryId::new(0),
            relations,
            graph,
        };
        if !query.graph.is_connected() {
            return Err(DlbError::plan(
                "join graph is not connected: every relation must be joined (directly or \
                 transitively) with every other",
            ));
        }
        Ok(query)
    }

    /// Optimizes the query and builds parallel plans for `system`.
    pub fn compile(&self, system: &HierarchicalSystem) -> Result<Vec<ParallelPlan>> {
        let query = self.to_query()?;
        let cost = CostModel::new(
            system.config().costs,
            system.config().disk,
            system.config().cpu,
        );
        let optimizer = Optimizer::new(
            OptimizerParams {
                keep_best: self.keep_best,
                ..OptimizerParams::default()
            },
            cost,
        );
        let trees = optimizer.optimize(&query)?;
        trees
            .into_iter()
            .map(|tree| {
                let optree = OperatorTree::from_join_tree(&tree);
                let homes = OperatorHomes::all_nodes(&optree, system.nodes());
                ParallelPlan::build(query.id, optree, homes, self.chain_scheduling)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_exec::Strategy;

    fn star_query() -> AdHocQuery {
        AdHocQuery::new("star")
            .relation("fact", 50_000)
            .relation("dim_a", 2_000)
            .relation("dim_b", 3_000)
            .relation("dim_c", 1_000)
            .join("fact", "dim_a")
            .join("fact", "dim_b")
            .join("fact", "dim_c")
    }

    #[test]
    fn query_construction_and_compilation() {
        let system = HierarchicalSystem::shared_memory(4);
        let plans = star_query().keep_best(2).compile(&system).unwrap();
        assert!(!plans.is_empty() && plans.len() <= 2);
        for plan in &plans {
            assert_eq!(plan.tree.scan_count(), 4);
            assert_eq!(plan.tree.join_count(), 3);
            plan.validate().unwrap();
        }
    }

    #[test]
    fn compiled_plan_runs_on_the_system() {
        let system = HierarchicalSystem::hierarchical(2, 2);
        let plans = star_query().compile(&system).unwrap();
        let report = system.run(&plans[0], Strategy::dynamic()).unwrap();
        assert!(report.response_time.as_secs_f64() > 0.0);
        assert!(report.tuples_processed > 50_000);
    }

    #[test]
    fn default_selectivity_is_key_foreign_key() {
        let q = AdHocQuery::new("kfk")
            .relation("orders", 10_000)
            .relation("customers", 1_000)
            .join("orders", "customers")
            .to_query()
            .unwrap();
        let sel = q.graph.edges()[0].selectivity;
        assert!((sel - 1.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_selectivity_is_respected() {
        let q = AdHocQuery::new("x")
            .relation("a", 100)
            .relation("b", 100)
            .join_with_selectivity("a", "b", 0.5)
            .to_query()
            .unwrap();
        assert_eq!(q.graph.edges()[0].selectivity, 0.5);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let err = AdHocQuery::new("bad")
            .relation("a", 100)
            .join("a", "missing")
            .to_query()
            .unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let err = AdHocQuery::new("bad")
            .relation("a", 100)
            .relation("b", 100)
            .to_query()
            .unwrap_err();
        assert!(err.to_string().contains("connected"));
    }

    #[test]
    fn queries_over_64_relations_fail_to_compile_with_a_plan_error() {
        let chain = |n: usize| {
            (1..n).fold(AdHocQuery::new("wide").relation("r0", 100), |q, i| {
                q.relation(format!("r{i}"), 100)
                    .join(format!("r{}", i - 1), format!("r{i}"))
            })
        };
        let system = HierarchicalSystem::shared_memory(2);
        assert_eq!(chain(64).compile(&system).unwrap()[0].tree.scan_count(), 64);
        let err = chain(65).compile(&system).unwrap_err();
        assert!(matches!(err, DlbError::InvalidPlan(_)), "{err:?}");
        assert!(err.to_string().contains("at most 64"), "{err}");
    }

    #[test]
    fn empty_query_is_rejected() {
        assert!(AdHocQuery::new("empty").to_query().is_err());
    }

    #[test]
    fn skewed_relation_and_concurrent_chains_options() {
        let system = HierarchicalSystem::shared_memory(2);
        let q = AdHocQuery::new("skewed")
            .skewed_relation("a", 5_000, 0.8)
            .relation("b", 5_000)
            .join("a", "b")
            .concurrent_chains();
        let query = q.to_query().unwrap();
        assert_eq!(query.relations[0].attribute_skew, 0.8);
        let plans = q.compile(&system).unwrap();
        assert_eq!(plans[0].chain_scheduling, ChainScheduling::Concurrent);
    }
}
