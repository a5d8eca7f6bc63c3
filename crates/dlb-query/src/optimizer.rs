//! Bushy-tree optimizer.
//!
//! The paper runs each generated query through the DBS3 optimizer and keeps
//! the two best bushy operator trees (§5.1.2). This module reproduces that
//! step with a randomized enumerator:
//!
//! * candidate trees are built bottom-up by repeatedly joining two
//!   *connected* components of the predicate graph (never introducing a
//!   Cartesian product),
//! * a greedy candidate always joins the pair with the smallest estimated
//!   output, randomized candidates pick among connected pairs at random,
//! * candidates are ranked by the sum of intermediate result sizes (the
//!   classical objective that bushy trees are meant to minimize) and the
//!   requested number of best trees is retained.
//!
//! The enumeration works on bitmasks ([`EdgeMasks`]): a component is the
//! `u64` mask of its relations, and a pair-selectivity matrix over component
//! slots is filled once per query. A merge recomputes only the merged
//! component's row, as an edge-order product, so every selectivity is the
//! same float a set-based scan would compute. A candidate is recorded as its
//! merge history plus its ranking key, summed merge by merge; `JoinTree`s are
//! built only for the candidates that make the cut.

use crate::cost::CostModel;
use crate::generator::Query;
use crate::graph::EdgeMasks;
use crate::jointree::JoinTree;
use dlb_common::rng::stream_rng;
use dlb_common::{round_u64, DlbError, Result};
use rand::Rng;

/// Parameters of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerParams {
    /// Number of randomized candidates enumerated per query (in addition to
    /// the greedy candidate).
    pub candidates: usize,
    /// Number of best trees retained per query (paper: 2).
    pub keep_best: usize,
    /// Seed of the randomized enumeration.
    pub seed: u64,
}

impl Default for OptimizerParams {
    fn default() -> Self {
        Self {
            candidates: 48,
            keep_best: 2,
            seed: 0x0BB_5EED,
        }
    }
}

/// The bushy-tree optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    params: OptimizerParams,
    cost: CostModel,
}

impl Optimizer {
    /// Creates an optimizer.
    pub fn new(params: OptimizerParams, cost: CostModel) -> Self {
        Self { params, cost }
    }

    /// Creates an optimizer with default parameters and cost model.
    pub fn with_defaults() -> Self {
        Self::new(OptimizerParams::default(), CostModel::default())
    }

    /// The cost model used for ranking.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Optimizes a query, returning its `keep_best` best bushy trees (best
    /// first). Fails if the predicate graph is not connected or the query
    /// has more than [`EdgeMasks::MAX_RELATIONS`] relations.
    pub fn optimize(&self, query: &Query) -> Result<Vec<JoinTree>> {
        if !query.graph.is_connected() {
            return Err(DlbError::plan(format!(
                "query {} has a disconnected predicate graph",
                query.id
            )));
        }
        if query.relations.is_empty() {
            return Err(DlbError::plan("query has no relations"));
        }
        let ids: Vec<_> = query.relations.iter().map(|r| r.id).collect();
        let masks = EdgeMasks::new(&query.graph, &ids)?;

        let mut search = Enumeration::new(query, &masks, &self.cost);
        let mut keys = Vec::with_capacity(self.params.candidates + 1);
        keys.push(search.candidate::<rand::rngs::StdRng>(None)?);
        let mut rng = stream_rng(self.params.seed, query.id.0 as u64);
        for _ in 0..self.params.candidates {
            keys.push(search.candidate(Some(&mut rng))?);
        }

        // Rank by intermediate size, then by estimated sequential work as a
        // tie-breaker (a stable sort, so equal keys keep enumeration order),
        // and skip a tree equal to the one just kept.
        let mut ranked: Vec<usize> = (0..keys.len()).collect();
        ranked.sort_by_key(|&c| keys[c]);
        let keep = self.params.keep_best.max(1);
        let mut best: Vec<JoinTree> = Vec::with_capacity(keep.min(ranked.len()));
        for c in ranked {
            let tree = search.tree(c);
            if best.last() == Some(&tree) {
                continue;
            }
            best.push(tree);
            if best.len() == keep {
                break;
            }
        }
        Ok(best)
    }
}

/// One merge of a candidate's construction: join the components at
/// positions `i < j` of the component list with selectivity `sel`. The
/// operands are removed (`j` first) and the join is appended at the end.
#[derive(Debug, Clone, Copy)]
struct Merge {
    i: usize,
    j: usize,
    sel: f64,
}

/// The per-query state of the enumeration: the initial pair-selectivity
/// matrix, the working state of the candidate being built, and the merge
/// histories of all candidates built so far.
struct Enumeration<'a> {
    query: &'a Query,
    masks: &'a EdgeMasks,
    cost: &'a CostModel,
    /// Number of relations, which is also the number of component slots.
    n: usize,
    /// Leaf-pair adjacency (bit `b` of row `a`: an edge crosses the two) and
    /// selectivities, row-major `n × n`, filled once per query.
    init_adj: Vec<u64>,
    init_sel: Vec<f64>,
    /// Scan work of the leaves, common to every candidate.
    scans: u64,
    /// Slots of the live components, in component-list order. A merged
    /// component takes over the slot of its first operand.
    order: Vec<usize>,
    /// Relation mask, cardinality, adjacency row and selectivity row of
    /// each slot.
    mask: Vec<u64>,
    card: Vec<u64>,
    adj: Vec<u64>,
    sel: Vec<f64>,
    /// Merge histories, `n - 1` merges per candidate.
    history: Vec<Merge>,
}

impl<'a> Enumeration<'a> {
    fn new(query: &'a Query, masks: &'a EdgeMasks, cost: &'a CostModel) -> Self {
        let n = query.relations.len();
        let mut init_adj = vec![0u64; n];
        let mut init_sel = vec![0.0; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                if let Some(sel) = masks.crossing_selectivity(1 << a, 1 << b) {
                    init_adj[a] |= 1 << b;
                    init_adj[b] |= 1 << a;
                    init_sel[a * n + b] = sel;
                    init_sel[b * n + a] = sel;
                }
            }
        }
        Self {
            query,
            masks,
            cost,
            n,
            init_adj,
            init_sel,
            scans: query
                .relations
                .iter()
                .map(|r| cost.scan_cost(r.cardinality).instructions)
                .sum(),
            order: Vec::with_capacity(n),
            mask: vec![0; n],
            card: vec![0; n],
            adj: vec![0; n],
            sel: vec![0.0; n * n],
            history: Vec::new(),
        }
    }

    /// Builds one candidate, appending its merges to the history, and
    /// returns its ranking key `(intermediate size, tree instructions)`.
    /// With `rng = None` the construction is greedy (always join the
    /// connected pair with the smallest output, the first one on ties);
    /// otherwise the pair is drawn uniformly among the connected pairs in
    /// component-list order.
    fn candidate<R: Rng>(&mut self, mut rng: Option<&mut R>) -> Result<(u64, u64)> {
        let n = self.n;
        self.order.clear();
        self.order.extend(0..n);
        for (slot, r) in self.query.relations.iter().enumerate() {
            self.mask[slot] = 1 << slot;
            self.card[slot] = r.cardinality;
        }
        self.adj.copy_from_slice(&self.init_adj);
        self.sel.copy_from_slice(&self.init_sel);
        let (mut intermediate, mut instructions) = (0u64, self.scans);

        while self.order.len() > 1 {
            let chosen = match rng.as_deref_mut() {
                None => self.pairs().min_by_key(|&(i, j)| self.output(i, j)),
                Some(rng) => {
                    let count: u32 = self.order.iter().map(|&s| self.adj[s].count_ones()).sum();
                    let k = (count > 0).then(|| rng.random_range(0..count as usize / 2));
                    k.and_then(|k| self.pairs().nth(k))
                }
            };
            let Some((i, j)) = chosen else {
                return Err(DlbError::plan(
                    "no connected pair of components: predicate graph is disconnected",
                ));
            };
            let (a, b) = (self.order[i], self.order[j]);
            let sel = self.sel[a * n + b];
            let out = self.output(i, j);
            let (build, probe) = if self.card[a] <= self.card[b] {
                (self.card[a], self.card[b])
            } else {
                (self.card[b], self.card[a])
            };
            intermediate += out;
            instructions += self.cost.build_cost(build).instructions
                + self.cost.probe_cost(probe, out).instructions;
            self.history.push(Merge { i, j, sel });

            self.order.remove(j);
            self.order.remove(i);
            self.order.push(a);
            self.mask[a] |= self.mask[b];
            self.card[a] = out;
            // Only the merged row changes: recompute it against every other
            // live component.
            self.adj[a] = 0;
            for &t in &self.order[..self.order.len() - 1] {
                self.adj[t] &= !(1 << a | 1 << b);
                if let Some(s) = self.masks.crossing_selectivity(self.mask[a], self.mask[t]) {
                    self.adj[a] |= 1 << t;
                    self.adj[t] |= 1 << a;
                    self.sel[a * n + t] = s;
                    self.sel[t * n + a] = s;
                }
            }
        }
        Ok((intermediate, instructions))
    }

    /// The connected pairs `(i, j)`, `i < j`, of the component list, in
    /// list order.
    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let order = &self.order;
        order.iter().enumerate().flat_map(move |(i, &a)| {
            order
                .iter()
                .enumerate()
                .skip(i + 1)
                .filter(move |&(_, &b)| self.adj[a] & 1 << b != 0)
                .map(move |(j, _)| (i, j))
        })
    }

    /// Estimated output of joining the components at positions `i` and
    /// `j`: the cardinality [`JoinTree::join`] gives the join node.
    fn output(&self, i: usize, j: usize) -> u64 {
        let (a, b) = (self.order[i], self.order[j]);
        let product = (self.card[a] as f64) * (self.card[b] as f64) * self.sel[a * self.n + b];
        round_u64(product).max(1)
    }

    /// Replays candidate `c`'s merges into its join tree.
    fn tree(&self, c: usize) -> JoinTree {
        let steps = self.n - 1;
        let mut components: Vec<JoinTree> = self
            .query
            .relations
            .iter()
            .map(|r| JoinTree::leaf(r.id, r.cardinality))
            .collect();
        for m in &self.history[c * steps..(c + 1) * steps] {
            let tree_j = components.remove(m.j);
            let tree_i = components.remove(m.i);
            components.push(JoinTree::join(tree_i, tree_j, m.sel));
        }
        components.pop().expect("at least one component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadGenerator, WorkloadParams};

    fn sample_query(relations: usize, seed: u64) -> Query {
        WorkloadGenerator::new(WorkloadParams::tiny(1, relations, seed))
            .generate()
            .remove(0)
    }

    #[test]
    fn optimizer_returns_requested_number_of_trees() {
        let q = sample_query(8, 11);
        let trees = Optimizer::with_defaults().optimize(&q).unwrap();
        assert_eq!(trees.len(), 2);
        for t in &trees {
            assert_eq!(t.leaf_count(), 8);
            assert_eq!(t.join_count(), 7);
            assert_eq!(t.relations().len(), 8);
        }
    }

    #[test]
    fn best_tree_is_ranked_first() {
        let q = sample_query(10, 3);
        let trees = Optimizer::with_defaults().optimize(&q).unwrap();
        assert!(trees[0].intermediate_size() <= trees[1].intermediate_size());
    }

    #[test]
    fn greedy_tree_never_beaten_by_explicitly_bad_choice() {
        // The greedy candidate is always part of the enumeration, so the best
        // returned tree can never be worse than it.
        let q = sample_query(9, 21);
        let greedy_only = OptimizerParams {
            candidates: 0,
            ..OptimizerParams::default()
        };
        let greedy = Optimizer::new(greedy_only, CostModel::default())
            .optimize(&q)
            .unwrap()
            .remove(0);
        let best = Optimizer::with_defaults().optimize(&q).unwrap().remove(0);
        assert!(best.intermediate_size() <= greedy.intermediate_size());
    }

    #[test]
    fn optimization_is_deterministic() {
        let q = sample_query(12, 5);
        let a = Optimizer::with_defaults().optimize(&q).unwrap();
        let b = Optimizer::with_defaults().optimize(&q).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_relation_query_yields_a_leaf() {
        let q = sample_query(1, 2);
        let trees = Optimizer::with_defaults().optimize(&q).unwrap();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].join_count(), 0);
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut q = sample_query(3, 9);
        // Break connectivity by replacing the graph with an edgeless one.
        q.graph = crate::graph::PredicateGraph::new(q.relations.iter().map(|r| r.id).collect());
        assert!(Optimizer::with_defaults().optimize(&q).is_err());
    }

    #[test]
    fn queries_over_64_relations_are_a_plan_error() {
        let at_limit = sample_query(EdgeMasks::MAX_RELATIONS, 4);
        assert_eq!(
            Optimizer::with_defaults().optimize(&at_limit).unwrap()[0].leaf_count(),
            EdgeMasks::MAX_RELATIONS
        );
        let over = sample_query(EdgeMasks::MAX_RELATIONS + 1, 4);
        let err = Optimizer::with_defaults().optimize(&over).unwrap_err();
        assert!(matches!(err, DlbError::InvalidPlan(_)), "{err:?}");
        assert!(err.to_string().contains("65 relations"), "{err}");
    }

    #[test]
    fn no_cartesian_products_in_produced_trees() {
        // Every join node must have at least one predicate edge crossing its
        // two children.
        fn check(tree: &JoinTree, masks: &EdgeMasks) {
            if let JoinTree::Join { build, probe, .. } = tree {
                let sel = masks.crossing_selectivity(
                    masks.mask(&build.relations()),
                    masks.mask(&probe.relations()),
                );
                assert!(sel.is_some(), "cartesian product found");
                check(build, masks);
                check(probe, masks);
            }
        }
        let q = sample_query(12, 17);
        let masks = EdgeMasks::new(&q.graph, q.graph.relations()).unwrap();
        for t in Optimizer::with_defaults().optimize(&q).unwrap() {
            check(&t, &masks);
        }
    }
}
