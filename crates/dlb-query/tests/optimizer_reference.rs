//! The bitmask optimizer against a set-based reference model.
//!
//! The reference model below is the optimizer's earlier enumeration, kept
//! as it was: components are `BTreeSet`s of relation ids, every merge step
//! re-enumerates every pair with a scan over all edges, and the ranking
//! sorts boxed candidate trees, deduplicates and truncates. The property
//! test checks that the optimizer returns exactly the same trees on random
//! connected predicate graphs, including cyclic ones (extra and parallel
//! edges), where a join's selectivity is a product over several edges: the
//! generated workloads are acyclic and never reach that product.

use dlb_common::rng::{rng_from_seed, stream_rng};
use dlb_common::{round_u64, DlbError, QueryId, RelationId, Result};
use dlb_query::{CostModel, JoinTree, Optimizer, OptimizerParams, PredicateGraph, Query};
use dlb_storage::relation::{RelationDef, SizeClass};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

/// Combined selectivity of all predicate edges linking a relation of set
/// `left` with a relation of set `right`, or `None` for a Cartesian product.
fn crossing_selectivity(
    graph: &PredicateGraph,
    left: &BTreeSet<RelationId>,
    right: &BTreeSet<RelationId>,
) -> Option<f64> {
    let mut product = 1.0;
    let mut found = false;
    for e in graph.edges() {
        let crosses = (left.contains(&e.left) && right.contains(&e.right))
            || (left.contains(&e.right) && right.contains(&e.left));
        if crosses {
            product *= e.selectivity;
            found = true;
        }
    }
    found.then_some(product)
}

/// The reference `Optimizer::optimize`.
fn reference_optimize(
    params: &OptimizerParams,
    cost: &CostModel,
    query: &Query,
) -> Result<Vec<JoinTree>> {
    if !query.graph.is_connected() {
        return Err(DlbError::plan(format!(
            "query {} has a disconnected predicate graph",
            query.id
        )));
    }
    if query.relations.is_empty() {
        return Err(DlbError::plan("query has no relations"));
    }

    let mut candidates = Vec::with_capacity(params.candidates + 1);
    candidates.push(reference_build_tree::<rand::rngs::StdRng>(query, None)?);
    let mut rng = stream_rng(params.seed, query.id.0 as u64);
    for _ in 0..params.candidates {
        candidates.push(reference_build_tree(query, Some(&mut rng))?);
    }

    // Rank by intermediate size, then by estimated sequential time as a
    // tie-breaker, and deduplicate identical shapes.
    candidates.sort_by(|a, b| {
        (a.intermediate_size(), cost.tree_cost(a).instructions)
            .cmp(&(b.intermediate_size(), cost.tree_cost(b).instructions))
    });
    candidates.dedup();
    candidates.truncate(params.keep_best.max(1));
    Ok(candidates)
}

/// The reference candidate construction. With `rng = None` the construction
/// is greedy (always join the connected pair with the smallest output);
/// otherwise the pair is chosen at random among connected pairs.
fn reference_build_tree<R: Rng>(query: &Query, mut rng: Option<&mut R>) -> Result<JoinTree> {
    // Each component is (set of relations, subtree).
    let mut components: Vec<(BTreeSet<_>, JoinTree)> = query
        .relations
        .iter()
        .map(|r| {
            let mut set = BTreeSet::new();
            set.insert(r.id);
            (set, JoinTree::leaf(r.id, r.cardinality))
        })
        .collect();

    while components.len() > 1 {
        // Enumerate joinable (connected) pairs.
        let mut pairs: Vec<(usize, usize, f64, u64)> = Vec::new();
        for i in 0..components.len() {
            for j in (i + 1)..components.len() {
                if let Some(sel) =
                    crossing_selectivity(&query.graph, &components[i].0, &components[j].0)
                {
                    let out = ((components[i].1.cardinality() as f64)
                        * (components[j].1.cardinality() as f64)
                        * sel)
                        .round()
                        .max(1.0) as u64;
                    pairs.push((i, j, sel, out));
                }
            }
        }
        if pairs.is_empty() {
            return Err(DlbError::plan(
                "no connected pair of components: predicate graph is disconnected",
            ));
        }
        let chosen = match rng.as_deref_mut() {
            None => pairs
                .iter()
                .min_by_key(|(_, _, _, out)| *out)
                .copied()
                .expect("pairs not empty"),
            Some(rng) => pairs[rng.random_range(0..pairs.len())],
        };
        let (i, j, sel, _) = chosen;
        // Remove j first (larger index) to keep i valid.
        let (set_j, tree_j) = components.remove(j);
        let (set_i, tree_i) = components.remove(i);
        let mut merged = set_i;
        merged.extend(set_j);
        components.push((merged, JoinTree::join(tree_i, tree_j, sel)));
    }

    Ok(components.pop().expect("at least one component").1)
}

/// A random connected query over `n` relations: a random spanning tree plus
/// `extra` further edges between random distinct relations (cycles, and
/// parallel edges when a pair is drawn twice). Relation ids are scattered
/// and the graph lists its vertices in a different order than the query, so
/// neither order can stand in for the other.
fn random_query(n: usize, extra: usize, seed: u64) -> Query {
    let mut rng = rng_from_seed(seed);
    let mut ids: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
    shuffle(&mut ids, &mut rng);
    let relations: Vec<RelationDef> = ids
        .iter()
        .map(|&id| {
            // Small relations make equal-output pairs (greedy ties) common.
            let cardinality = if rng.random_range(0..3) == 0 {
                rng.random_range(1..40)
            } else {
                rng.random_range(16..2_000_000)
            };
            RelationDef::new(
                RelationId::new(id),
                format!("R{id}"),
                cardinality,
                SizeClass::Small,
            )
        })
        .collect();
    let mut vertices: Vec<RelationId> = relations.iter().map(|r| r.id).collect();
    shuffle(&mut vertices, &mut rng);
    let mut graph = PredicateGraph::new(vertices);
    let selectivity = |rng: &mut rand::rngs::StdRng, a: usize, b: usize| {
        let max_card = relations[a].cardinality.max(relations[b].cardinality) as f64;
        // The generator's band keeps results commensurate with the larger
        // input; the tighter band makes one-tuple outputs (ties) common.
        if rng.random_range(0..2) == 0 {
            rng.random_range(0.5..1.5) / max_card
        } else {
            rng.random_range(0.01..1.0) / max_card
        }
    };
    for i in 1..n {
        let attach_to = rng.random_range(0..i);
        let sel = selectivity(&mut rng, attach_to, i);
        graph.add_edge(relations[attach_to].id, relations[i].id, sel);
    }
    if n > 1 {
        for _ in 0..extra {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..n)) % n;
            let sel = selectivity(&mut rng, a, b);
            graph.add_edge(relations[a].id, relations[b].id, sel);
        }
    }
    Query {
        id: QueryId::new(rng.random_range(0..1_000)),
        relations,
        graph,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_matches_the_set_based_reference(
        relations in 1usize..41,
        extra in 0usize..24,
        graph_seed in any::<u64>(),
        candidates in 0usize..20,
        keep_best in 1usize..6,
        seed in any::<u64>(),
    ) {
        let query = random_query(relations, extra, graph_seed);
        let params = OptimizerParams { candidates, keep_best, seed };
        let cost = CostModel::default();
        let got = Optimizer::new(params, cost).optimize(&query).unwrap();
        let want = reference_optimize(&params, &cost, &query).unwrap();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn reference_agrees_on_a_dense_cyclic_graph() {
    // A complete graph: every merge after the first crosses several edges,
    // so every pair selectivity is a multi-edge product.
    let mut query = random_query(10, 0, 0xC7C1E);
    for (a, left) in query.relations.iter().enumerate() {
        for right in &query.relations[a + 1..] {
            let max_card = left.cardinality.max(right.cardinality) as f64;
            let sel = (0.5 + 0.1 * a as f64) / max_card;
            query.graph.add_edge(left.id, right.id, sel);
        }
    }
    let params = OptimizerParams::default();
    let cost = CostModel::default();
    assert_eq!(
        Optimizer::new(params, cost).optimize(&query).unwrap(),
        reference_optimize(&params, &cost, &query).unwrap()
    );
}

#[test]
fn reference_agrees_where_the_edge_order_decides_a_cardinality() {
    // Relations A, B, C with two parallel A–C predicates. Joining {A, B}
    // with C multiplies the crossing edges in edge order, (s1 · s2) · s3.
    // Multiplying A's old row by B's, (s1 · s3) · s2, differs in the last
    // bit, and at this output size that moves the rounded cardinality.
    let (s1, s2, s3) = (0.9080631795600157, 0.5903631899619688, 0.7908000818312331);
    let (x, y) = (40_000_003u64, 50_000_017u64);
    let edge_order = round_u64(x as f64 * y as f64 * (s1 * s2 * s3));
    assert_ne!(edge_order, round_u64(x as f64 * y as f64 * (s1 * s3 * s2)));

    let relation = |id: u32, cardinality: u64| {
        RelationDef::new(
            RelationId::new(id),
            format!("R{id}"),
            cardinality,
            SizeClass::Large,
        )
    };
    let relations = vec![relation(0, x), relation(1, 1), relation(2, y)];
    let [a, b, c] = [0, 1, 2].map(RelationId::new);
    let mut graph = PredicateGraph::new(vec![a, b, c]);
    graph.add_edge(a, b, 1.0);
    graph.add_edge(a, c, s1);
    graph.add_edge(b, c, s2);
    graph.add_edge(a, c, s3);
    let query = Query {
        id: QueryId::new(0),
        relations,
        graph,
    };
    // Keep every distinct tree, so the one joining A and B first is there.
    let params = OptimizerParams {
        keep_best: 49,
        ..OptimizerParams::default()
    };
    let cost = CostModel::default();
    let got = Optimizer::new(params, cost).optimize(&query).unwrap();
    assert!(got.iter().any(|t| t.cardinality() == edge_order));
    assert_eq!(got, reference_optimize(&params, &cost, &query).unwrap());
}
