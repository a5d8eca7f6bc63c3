//! Random workload generator (paper §5.1.2).
//!
//! The paper generates 20 queries, each involving 12 relations:
//!
//! 1. the predicate connection graph is a random acyclic connected graph
//!    (i.e. a random tree),
//! 2. each relation's cardinality is drawn from one of the small
//!    (10 K–20 K), medium (100 K–200 K) or large (1 M–2 M) classes,
//! 3. the join selectivity of edge (R,S) is drawn uniformly in
//!    `[0.5, 1.5] / max(|R|, |S|)`, so that a join result stays commensurate
//!    with its larger input,
//! 4. plans whose sequential response time falls outside a band are rejected
//!    and regenerated (the paper constrains 30–60 minutes of sequential
//!    time; the equivalent band under a scale factor is applied here).
//!
//! A global `scale` shrinks cardinalities so the same workload shape can run
//! at CI speed; `scale = 1.0` reproduces paper-size relations.

use crate::graph::PredicateGraph;
use dlb_common::rng::{stream_rng, uniform_f64, uniform_u64};
use dlb_common::{QueryId, RelationId};
use dlb_storage::relation::{RelationDef, SizeClass};
use rand::prelude::IndexedRandom;
use rand::Rng;

/// A generated multi-join query: its relations and predicate graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Identifier of the query within its workload.
    pub id: QueryId,
    /// The base relations referenced by the query.
    pub relations: Vec<RelationDef>,
    /// The predicate connection graph over those relations.
    pub graph: PredicateGraph,
}

impl Query {
    /// Looks up a relation definition of this query.
    pub fn relation(&self, id: RelationId) -> Option<&RelationDef> {
        self.relations.iter().find(|r| r.id == id)
    }

    /// Number of joins in the query (edges of the acyclic graph).
    pub fn join_count(&self) -> usize {
        self.graph.edges().len()
    }

    /// Total number of base tuples read by the query.
    pub fn base_tuples(&self) -> u64 {
        self.relations.iter().map(|r| r.cardinality).sum()
    }
}

/// Parameters of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Number of queries to generate (paper: 20).
    pub queries: usize,
    /// Relations per query (paper: 12).
    pub relations_per_query: usize,
    /// Scale factor applied to the paper's cardinality classes. 1.0 is paper
    /// scale; the default 0.01 keeps CI runs fast while preserving the
    /// relative class sizes.
    pub scale: f64,
    /// Attribute/redistribution skew factor recorded on every relation
    /// (0 = uniform). Engines may also override skew per experiment.
    pub skew: f64,
    /// Master seed: the whole workload is a pure function of this seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            queries: 20,
            relations_per_query: 12,
            scale: 0.01,
            skew: 0.0,
            seed: 0xD1B_1996,
        }
    }
}

impl WorkloadParams {
    /// Paper-scale parameters (20 × 12-relation queries over full-size
    /// relations). Slow: intended for the figure harness, not CI.
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            ..Self::default()
        }
    }

    /// A small workload for tests: `queries` queries of `relations` relations
    /// at 1/1000 scale.
    pub fn tiny(queries: usize, relations: usize, seed: u64) -> Self {
        Self {
            queries,
            relations_per_query: relations,
            scale: 0.001,
            skew: 0.0,
            seed,
        }
    }
}

/// The workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    params: WorkloadParams,
}

impl WorkloadGenerator {
    /// Creates a generator with the given parameters.
    pub fn new(params: WorkloadParams) -> Self {
        Self { params }
    }

    /// Parameters in force.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Generates the whole workload.
    pub fn generate(&self) -> Vec<Query> {
        (0..self.params.queries)
            .map(|q| self.generate_query(QueryId::new(q as u32)))
            .collect()
    }

    /// Generates one query of the workload.
    pub fn generate_query(&self, id: QueryId) -> Query {
        let mut rng = stream_rng(self.params.seed, 0x5157_0000 + id.0 as u64);
        let n = self.params.relations_per_query.max(1);

        // 1. Relations: pick a size class uniformly, then a cardinality
        //    uniformly inside the (scaled) class range.
        let relations: Vec<RelationDef> = (0..n)
            .map(|i| {
                let class = *SizeClass::all()
                    .choose(&mut rng)
                    .expect("non-empty classes");
                let (lo, hi) = class.range();
                let lo = ((lo as f64) * self.params.scale).max(16.0) as u64;
                let hi = ((hi as f64) * self.params.scale).max(32.0) as u64;
                let cardinality = uniform_u64(&mut rng, lo, hi);
                RelationDef::new(
                    RelationId::new((id.0 * 1_000) + i as u32),
                    format!("Q{}_R{}", id.0, i),
                    cardinality,
                    class,
                )
                .with_skew(self.params.skew)
            })
            .collect();

        // 2. Predicate graph: a random tree built by attaching each new
        //    relation to a uniformly chosen, already connected relation. This
        //    yields acyclic connected graphs with varied shapes (chains,
        //    stars and everything in between).
        let mut graph = PredicateGraph::new(relations.iter().map(|r| r.id).collect());
        for i in 1..n {
            let attach_to = rng.random_range(0..i);
            let a = relations[attach_to].id;
            let b = relations[i].id;
            let max_card = relations[attach_to]
                .cardinality
                .max(relations[i].cardinality) as f64;
            // 3. Selectivity in [0.5, 1.5] / max(|R|, |S|).
            let selectivity = uniform_f64(&mut rng, 0.5, 1.5) / max_card;
            graph.add_edge(a, b, selectivity);
        }

        Query {
            id,
            relations,
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_requested_shape() {
        let params = WorkloadParams {
            queries: 5,
            relations_per_query: 12,
            ..WorkloadParams::default()
        };
        let queries = WorkloadGenerator::new(params).generate();
        assert_eq!(queries.len(), 5);
        for q in &queries {
            assert_eq!(q.relations.len(), 12);
            assert_eq!(q.join_count(), 11, "acyclic connected graph has n-1 edges");
            assert!(q.graph.is_connected());
            assert!(q.graph.is_acyclic());
            assert!(q.base_tuples() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let params = WorkloadParams::tiny(3, 6, 42);
        let a = WorkloadGenerator::new(params).generate();
        let b = WorkloadGenerator::new(params).generate();
        assert_eq!(a, b);
        let c = WorkloadGenerator::new(WorkloadParams::tiny(3, 6, 43)).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn cardinalities_respect_scaled_class_ranges() {
        let params = WorkloadParams {
            queries: 10,
            relations_per_query: 8,
            scale: 0.01,
            ..WorkloadParams::default()
        };
        let queries = WorkloadGenerator::new(params).generate();
        for q in &queries {
            for r in &q.relations {
                let (lo, hi) = r.size_class.range();
                let lo = ((lo as f64) * 0.01).max(16.0) as u64;
                let hi = ((hi as f64) * 0.01).max(32.0) as u64;
                assert!(
                    (lo..=hi).contains(&r.cardinality),
                    "{} not in [{lo},{hi}] for {:?}",
                    r.cardinality,
                    r.size_class
                );
            }
        }
    }

    #[test]
    fn selectivities_keep_join_results_commensurate() {
        let queries = WorkloadGenerator::new(WorkloadParams::default()).generate();
        for q in &queries {
            for e in q.graph.edges() {
                let left = q.relation(e.left).unwrap().cardinality as f64;
                let right = q.relation(e.right).unwrap().cardinality as f64;
                let result = e.selectivity * left * right;
                let smaller_bound = 0.5 * left.min(right);
                let larger_bound = 1.5 * left.max(right);
                assert!(
                    result >= smaller_bound * 0.99 && result <= larger_bound * 1.01,
                    "join result {result} out of band [{smaller_bound}, {larger_bound}]"
                );
            }
        }
    }

    #[test]
    fn relation_lookup_by_id() {
        let q = WorkloadGenerator::new(WorkloadParams::tiny(1, 4, 7))
            .generate()
            .remove(0);
        let first = q.relations[0].id;
        assert!(q.relation(first).is_some());
        assert!(q.relation(RelationId::new(999_999)).is_none());
    }

    #[test]
    fn queries_with_skew_record_it_on_relations() {
        let params = WorkloadParams {
            skew: 0.8,
            queries: 1,
            ..WorkloadParams::default()
        };
        let q = WorkloadGenerator::new(params).generate().remove(0);
        assert!(q.relations.iter().all(|r| r.attribute_skew == 0.8));
    }
}
