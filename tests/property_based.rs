//! Property-based tests over the query, planning and execution layers.

use hierdb::raw::common::rng::rng_from_seed;
use hierdb::raw::common::{QueryId, ZipfDistribution};
use hierdb::raw::exec::{ExecOptions, OutputRouter, Strategy};
use hierdb::raw::query::generator::{WorkloadGenerator, WorkloadParams};
use hierdb::raw::query::graph::EdgeMasks;
use hierdb::raw::query::jointree::JoinTree;
use hierdb::raw::query::optimizer::Optimizer;
use hierdb::raw::query::optree::OperatorTree;
use hierdb::raw::query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};
use hierdb::SystemConfig;
use proptest::prelude::*;
use rand::Rng;

/// Generates a random small query via the workload generator (itself seeded),
/// so the shrunken cases stay meaningful.
fn arbitrary_query(relations: usize, seed: u64) -> hierdb::Query {
    WorkloadGenerator::new(WorkloadParams {
        queries: 1,
        relations_per_query: relations,
        scale: 0.005,
        skew: 0.0,
        seed,
    })
    .generate_query(QueryId::new(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Zipf split conserves the total for any item count, skew and total.
    #[test]
    fn zipf_split_conserves_totals(
        n in 1usize..512,
        theta in 0.0f64..1.0,
        total in 0u64..2_000_000,
    ) {
        let dist = ZipfDistribution::new(n, theta);
        let parts = dist.split(total);
        prop_assert_eq!(parts.len(), n);
        prop_assert_eq!(parts.iter().sum::<u64>(), total);
    }

    /// The deficit router conserves tuples and respects its slot count.
    #[test]
    fn router_conserves_and_stays_in_range(
        slots in 1usize..64,
        theta in 0.0f64..1.0,
        batches in proptest::collection::vec(1u64..4_096, 1..200),
    ) {
        let mut router = OutputRouter::new(slots, theta, 7);
        let mut per_slot = vec![0u64; slots];
        for &b in &batches {
            let slot = router.route(b);
            prop_assert!(slot < slots);
            per_slot[slot] += b;
        }
        prop_assert_eq!(per_slot.iter().sum::<u64>(), batches.iter().sum::<u64>());
        prop_assert_eq!(router.total(), batches.iter().sum::<u64>());
    }

    /// Optimizer output is structurally sound for arbitrary generated queries:
    /// every relation appears exactly once, no Cartesian products, and the
    /// tree cardinalities are positive.
    #[test]
    fn optimizer_trees_are_well_formed(relations in 1usize..10, seed in 0u64..5_000) {
        let query = arbitrary_query(relations, seed);
        let trees = Optimizer::with_defaults().optimize(&query).unwrap();
        prop_assert!(!trees.is_empty());
        for tree in &trees {
            prop_assert_eq!(tree.leaf_count(), relations);
            prop_assert_eq!(tree.relations().len(), relations);
            prop_assert_eq!(tree.join_count(), relations - 1);
            prop_assert!(tree.cardinality() >= 1);
            assert_no_cartesian(tree, &query);
        }
    }

    /// Macro-expansion and scheduling produce valid plans: chains partition
    /// the operators, the schedule is acyclic (validate checks it), and every
    /// probe is gated on its build.
    #[test]
    fn plans_are_valid_for_arbitrary_queries(
        relations in 1usize..10,
        seed in 0u64..5_000,
        nodes in 1u32..5,
        one_at_a_time in proptest::bool::ANY,
    ) {
        let query = arbitrary_query(relations, seed);
        let tree = Optimizer::with_defaults().optimize(&query).unwrap().remove(0);
        let optree = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&optree, nodes);
        let scheduling = if one_at_a_time {
            ChainScheduling::OneAtATime
        } else {
            ChainScheduling::Concurrent
        };
        let plan = ParallelPlan::build(query.id, optree, homes, scheduling).unwrap();
        plan.validate().unwrap();

        // Chains partition operators.
        let mut seen = std::collections::HashSet::new();
        for chain in plan.chains() {
            for &op in &chain.operators {
                prop_assert!(seen.insert(op));
            }
        }
        prop_assert_eq!(seen.len(), plan.tree.operators().len());

        // Every probe waits for its build.
        for (build, probe) in plan.tree.joins().values() {
            prop_assert!(plan.blocked_by(*probe).contains(build));
        }
    }

    /// Executing arbitrary small plans under DP and FP terminates and
    /// conserves the logical work (tuples processed ≈ plan volume) on both
    /// shared-memory and hierarchical machines.
    #[test]
    fn execution_conserves_work(
        relations in 2usize..7,
        seed in 0u64..1_000,
        nodes in 1u32..4,
        procs in 1u32..5,
        skew in 0.0f64..1.0,
    ) {
        let query = arbitrary_query(relations, seed);
        let tree = Optimizer::with_defaults().optimize(&query).unwrap().remove(0);
        let optree = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&optree, nodes);
        let plan = ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime).unwrap();
        let config = SystemConfig::hierarchical(nodes, procs);
        let options = ExecOptions { skew, ..ExecOptions::default() };

        for strategy in [Strategy::dynamic(), Strategy::fixed(0.2)] {
            let report = hierdb::raw::exec::execute(&plan, &config, strategy, &options).unwrap();
            let expected = plan.total_input_tuples();
            let tolerance = expected / 10 + 64;
            prop_assert!(
                report.tuples_processed.abs_diff(expected) <= tolerance,
                "strategy {:?}: processed {} expected {}",
                strategy, report.tuples_processed, expected
            );
            prop_assert!(report.response_time.as_nanos() > 0);
        }
    }

    /// Co-simulating a single query is not an approximation: for arbitrary
    /// plans, machines, skews and strategies, the one-lane co-simulated run
    /// produces a report bit-identical to the plain engine's.
    #[test]
    fn cosim_single_query_matches_plain_engine(
        relations in 2usize..6,
        seed in 0u64..500,
        nodes in 1u32..4,
        procs in 1u32..4,
        skew in 0.0f64..1.0,
        fixed in proptest::bool::ANY,
    ) {
        use hierdb::raw::exec::{execute, execute_cosimulated, CoSimQuery};
        let query = arbitrary_query(relations, seed);
        let tree = Optimizer::with_defaults().optimize(&query).unwrap().remove(0);
        let optree = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&optree, nodes);
        let plan = ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime).unwrap();
        let config = SystemConfig::hierarchical(nodes, procs);
        let options = ExecOptions { skew, ..ExecOptions::default() };
        let strategy = if fixed {
            Strategy::fixed(0.15)
        } else {
            Strategy::dynamic()
        };
        let plain = execute(&plan, &config, strategy, &options).unwrap();
        let co = execute_cosimulated(
            &[CoSimQuery {
                plan: &plan,
                arrival_secs: 0.0,
                priority: 1,
                skew,
                mask: None,
                memory_bytes: 0,
            }],
            &config,
            strategy,
            &options,
        )
        .unwrap();
        prop_assert_eq!(&co.aggregate, &plain);
        prop_assert_eq!(co.queries.len(), 1);
        prop_assert_eq!(co.queries[0].response_secs, plain.response_time.as_secs_f64());
        prop_assert_eq!(co.queries[0].tuples_processed, plain.tuples_processed);
    }

    /// Under FCFS processor sharing, adding one more concurrent query never
    /// speeds up any existing query: per-query response times are monotone
    /// non-decreasing in the concurrent-query count.
    #[test]
    fn fcfs_responses_are_monotone_in_concurrency(
        count in 2usize..8,
        nodes in 1u32..4,
        seed in 0u64..1_000,
    ) {
        use hierdb::raw::exec::mix::{schedule_mix, MixJob, MixPolicy};
        let mut rng = rng_from_seed(seed);
        let jobs: Vec<MixJob> = (0..count)
            .map(|_| MixJob {
                arrival_secs: rng.random_range(0.0..5.0),
                priority: rng.random_range(1u32..4),
                solo_secs: rng.random_range(0.1..20.0),
                memory_bytes: 1 << 20,
            })
            .collect();
        // Generous memory: responses change only through processor sharing.
        let memory = 1u64 << 40;
        let mut previous: Option<Vec<f64>> = None;
        for k in 1..=count {
            let schedule = schedule_mix(&jobs[..k], nodes, memory, MixPolicy::Fcfs).unwrap();
            let responses: Vec<f64> = schedule.queries.iter().map(|q| q.response_secs).collect();
            if let Some(prev) = &previous {
                for (q, (&old, &new)) in prev.iter().zip(&responses).enumerate() {
                    prop_assert!(
                        new >= old - 1e-9,
                        "query {q}: response fell from {old} to {new} when going \
                         from {} to {k} concurrent queries",
                        k - 1
                    );
                }
            }
            previous = Some(responses);
        }
    }

    /// The composed scheduler conserves memory — `schedule_mix` verifies
    /// internally that every node's free memory is back at
    /// `memory_per_node` once all queries completed and errors on a leak —
    /// and never records a negative admission wait or response, for
    /// arbitrary job sets, placements and priorities.
    #[test]
    fn composed_mix_conserves_memory_and_waits_are_nonnegative(
        count in 1usize..10,
        nodes in 1u32..5,
        seed in 0u64..2_000,
        policy_pick in 0usize..3,
    ) {
        use hierdb::raw::exec::mix::{schedule_mix, MixJob, MixPolicy};
        let policy = [MixPolicy::Fcfs, MixPolicy::RoundRobin, MixPolicy::LoadAware][policy_pick];
        let placement = match policy {
            MixPolicy::Fcfs => nodes as u64,
            _ => 1,
        };
        let memory = 1u64 << 20;
        let mut rng = rng_from_seed(seed);
        let jobs: Vec<MixJob> = (0..count)
            .map(|_| MixJob {
                arrival_secs: rng.random_range(0.0..10.0),
                priority: rng.random_range(1u32..4),
                solo_secs: rng.random_range(0.0..20.0),
                // Up to the whole placement's memory: admission really bites.
                memory_bytes: rng.random_range(0..=memory * placement),
            })
            .collect();
        let s = schedule_mix(&jobs, nodes, memory, policy).unwrap();
        prop_assert_eq!(s.queries.len(), count);
        for q in &s.queries {
            prop_assert!(q.wait_secs >= 0.0, "query {} waited {}", q.query, q.wait_secs);
            prop_assert!(q.response_secs >= 0.0);
            prop_assert!(q.admitted_secs >= q.arrival_secs);
        }
        prop_assert!(s.mean_wait_secs >= 0.0);
    }

    /// A co-simulated single-query mix — under ANY placement policy — is the
    /// plain engine run: one query pinned by round-robin or load-aware
    /// placement lands alone on node 0 with the same routers as its solo
    /// capture, so the response matches exactly and nothing ever waits.
    #[test]
    fn cosim_single_query_mix_equals_plain_engine_under_any_policy(
        nodes in 1u32..4,
        procs in 1u32..4,
        seed in 0u64..200,
        policy_pick in 0usize..3,
    ) {
        use hierdb::{Experiment, HierarchicalSystem, MixEntry, MixMode, MixPolicy, QueryMix};
        use hierdb::raw::query::generator::WorkloadParams;
        use std::sync::Arc;
        let policy = [MixPolicy::Fcfs, MixPolicy::RoundRobin, MixPolicy::LoadAware][policy_pick];
        let exp = Experiment::builder()
            .system(HierarchicalSystem::hierarchical(nodes, procs))
            .workload(WorkloadParams {
                queries: 1,
                relations_per_query: 3,
                scale: 0.005,
                skew: 0.0,
                seed,
            })
            .build()
            .unwrap();
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), vec![MixEntry::default()]).unwrap();
        let run = exp
            .run_mix(&mix, policy, MixMode::CoSimulated, Strategy::dynamic())
            .unwrap();
        let outcome = &run.schedule.queries[0];
        prop_assert_eq!(outcome.response_secs, run.solo[0].report.response_secs());
        prop_assert_eq!(outcome.wait_secs, 0.0);
        prop_assert_eq!(outcome.slowdown, 1.0);
    }

    /// Co-simulated memory admission never admits past the per-node limit:
    /// reconstructing residency from the reported admission/completion
    /// intervals, the per-node shares of concurrently admitted queries
    /// never exceed the machine's memory, waits are non-negative, and FCFS
    /// admission follows arrival order.
    #[test]
    fn cosim_admission_never_exceeds_the_per_node_memory_limit(
        count in 2usize..6,
        seed in 0u64..200,
    ) {
        use hierdb::raw::exec::{execute_cosimulated, CoSimQuery};
        let query = arbitrary_query(3, seed);
        let tree = Optimizer::with_defaults().optimize(&query).unwrap().remove(0);
        let optree = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&optree, 2);
        let plan =
            ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime).unwrap();
        let mut config = SystemConfig::hierarchical(2, 2);
        const LIMIT: u64 = 1_000;
        config.machine.memory_per_node_bytes = LIMIT;
        let mut rng = rng_from_seed(seed ^ 0xC051);
        let queries: Vec<CoSimQuery<'_>> = (0..count)
            .map(|_| CoSimQuery {
                plan: &plan,
                arrival_secs: rng.random_range(0.0..0.05),
                priority: 1,
                skew: 0.0,
                mask: None,
                // Up to the full two-node budget: per-node share ≤ LIMIT, so
                // every query is feasible but several rarely fit at once.
                memory_bytes: rng.random_range(0..=2 * LIMIT),
            })
            .collect();
        let co =
            execute_cosimulated(&queries, &config, Strategy::dynamic(), &ExecOptions::default())
                .unwrap();
        for q in &co.queries {
            prop_assert!(q.wait_secs >= 0.0);
            prop_assert!(q.admitted_secs >= q.arrival_secs - 1e-12);
        }
        // FCFS: admission instants follow arrival order (ties by mix index).
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by(|&a, &b| {
            queries[a]
                .arrival_secs
                .total_cmp(&queries[b].arrival_secs)
                .then(a.cmp(&b))
        });
        for w in order.windows(2) {
            prop_assert!(
                co.queries[w[0]].admitted_secs <= co.queries[w[1]].admitted_secs + 1e-9,
                "FCFS admission out of order: {} before {}",
                w[1],
                w[0]
            );
        }
        // At every admission instant the resident per-node demand fits.
        for q in &co.queries {
            let t = q.admitted_secs;
            let resident: u64 = co
                .queries
                .iter()
                .enumerate()
                .filter(|(_, r)| r.admitted_secs <= t && t < r.completion_secs)
                .map(|(i, _)| queries[i].memory_bytes.div_ceil(2))
                .sum();
            prop_assert!(
                resident <= LIMIT,
                "resident {resident} bytes exceed the {LIMIT}-byte per-node limit at t={t}"
            );
        }
    }

    /// Re-home-and-resume conserves work for arbitrary plans, machines,
    /// strategies and failure times: no activation is lost or duplicated by
    /// the migration, so the faulted run processes and produces exactly the
    /// clean run's tuples (the failure work-conservation satellite).
    #[test]
    fn failure_rehoming_conserves_activations_and_tuples(
        relations in 2usize..6,
        seed in 0u64..300,
        nodes in 2u32..5,
        procs in 1u32..4,
        frac in 0.05f64..0.95,
        fixed in proptest::bool::ANY,
    ) {
        use hierdb::raw::exec::{
            execute_cosimulated, execute_cosimulated_faulted, CoSimQuery, TopologyEvent,
        };
        let query = arbitrary_query(relations, seed);
        let tree = Optimizer::with_defaults().optimize(&query).unwrap().remove(0);
        let optree = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&optree, nodes);
        let plan = ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime).unwrap();
        let config = SystemConfig::hierarchical(nodes, procs);
        let options = ExecOptions::default();
        let strategy = if fixed {
            Strategy::fixed(0.15)
        } else {
            Strategy::dynamic()
        };
        let mk = |arrival: f64| CoSimQuery {
            plan: &plan,
            arrival_secs: arrival,
            priority: 1,
            skew: 0.0,
            mask: None,
            memory_bytes: 0,
        };
        let queries = [mk(0.0), mk(0.01)];
        let clean = execute_cosimulated(&queries, &config, strategy, &options).unwrap();
        let topo = [TopologyEvent::fail(
            clean.makespan_secs() * frac,
            nodes as usize - 1,
        )];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, strategy, &options, &topo).unwrap();
        prop_assert_eq!(faulted.faults.failures, 1);
        // Resume never loses state nor redoes work...
        prop_assert_eq!(faulted.faults.tuples_lost, 0);
        prop_assert_eq!(faulted.faults.tuples_redone, 0);
        // ...so re-homing neither drops nor duplicates activations.
        prop_assert_eq!(
            faulted.aggregate.tuples_processed,
            clean.aggregate.tuples_processed
        );
        prop_assert_eq!(faulted.aggregate.result_tuples, clean.aggregate.result_tuples);
        // Per-query outputs are conserved too, not just the aggregate.
        for (f, c) in faulted.queries.iter().zip(&clean.queries) {
            prop_assert_eq!(f.tuples_processed, c.tuples_processed);
        }
    }

    /// Random byte-mutations of bundled scenario specs never panic the JSON
    /// front door: `ScenarioSpec::from_json` either accepts the (possibly
    /// still valid) document or returns a clean `DlbError` (the spec-file
    /// hardening satellite).
    #[test]
    fn mutated_spec_json_never_panics_the_parser(
        positions in proptest::collection::vec(0usize..100_000, 1..16),
        values in proptest::collection::vec(0u16..256, 1..16),
        spec_pick in 0usize..64,
    ) {
        use hierdb::scenario::{self, ScenarioSpec};
        let specs = scenario::registry();
        let spec = &specs[spec_pick % specs.len()];
        let mut bytes = spec.to_json().into_bytes();
        for (&pos, &val) in positions.iter().zip(&values) {
            let n = bytes.len();
            bytes[pos % n] = val as u8;
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = ScenarioSpec::from_json(&text) {
            prop_assert!(!format!("{e}").is_empty());
        }
    }

    /// Truncating a bundled spec mid-document always yields
    /// `DlbError::Parse` — the root object never closes, so the parser must
    /// reject the prefix rather than panic or accept it.
    #[test]
    fn truncated_spec_json_is_a_parse_error(
        cut in 0usize..100_000,
        spec_pick in 0usize..64,
    ) {
        use hierdb::raw::common::DlbError;
        use hierdb::scenario::{self, ScenarioSpec};
        let specs = scenario::registry();
        let spec = &specs[spec_pick % specs.len()];
        let text = spec.to_json();
        let body = text.trim_end();
        let prefix = String::from_utf8_lossy(&body.as_bytes()[..cut % body.len()]);
        let err = ScenarioSpec::from_json(&prefix).unwrap_err();
        prop_assert!(
            matches!(err, DlbError::Parse(_)),
            "expected a parse error for a truncated spec, got {err}"
        );
    }

    /// Slab keys are never handed out twice while live: under arbitrary
    /// interleavings of inserts and removes, an issued key addresses its own
    /// value until removed, and the arena's capacity tracks peak concurrent
    /// liveness — not throughput (the slab-backed calendar and heap-entry
    /// layout rely on exactly this stability).
    #[test]
    fn slab_keys_are_stable_and_never_reused_while_live(
        ops in 1usize..800,
        seed in 0u64..2_000,
    ) {
        use hierdb::raw::common::Slab;
        use std::collections::HashMap;
        let mut rng = rng_from_seed(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut live: HashMap<u32, u64> = HashMap::new();
        let mut peak = 0usize;
        let mut next_value = 0u64;
        for _ in 0..ops {
            if live.is_empty() || rng.random_bool(0.55) {
                let key = slab.insert(next_value);
                prop_assert!(
                    live.insert(key, next_value).is_none(),
                    "key {key} reissued while live"
                );
                next_value += 1;
            } else {
                let pick = rng.random_range(0..live.len());
                let &key = live.keys().nth(pick).unwrap();
                let expected = live.remove(&key).unwrap();
                prop_assert_eq!(slab.remove(key), Some(expected));
                prop_assert_eq!(slab.remove(key), None);
            }
            peak = peak.max(live.len());
            prop_assert_eq!(slab.len(), live.len());
            // Every live key still addresses its own value.
            for (&key, &value) in &live {
                prop_assert_eq!(slab.get(key), Some(&value));
            }
        }
        prop_assert_eq!(slab.capacity(), peak);
    }

    /// `drain_into` conserves activations and tuples under arbitrary
    /// interleavings of pushes and partial drains: nothing is lost,
    /// duplicated or double-counted between the queue's O(1) counters, the
    /// per-call [`DrainOutcome`]s and the drained activations themselves.
    #[test]
    fn drain_into_conserves_activations_and_tuples(
        capacity in 1usize..32,
        ops in 1usize..300,
        seed in 0u64..2_000,
    ) {
        use hierdb::raw::exec::{Activation, ActivationQueue};
        use hierdb::raw::common::OperatorId;
        let mut rng = rng_from_seed(seed);
        let mut queue = ActivationQueue::new(capacity);
        let mut out = Vec::new();
        let mut pushed_count = 0u64;
        let mut pushed_tuples = 0u64;
        let mut drained_count = 0u64;
        let mut drained_tuples = 0u64;
        for _ in 0..ops {
            if rng.random_bool(0.6) {
                let tuples = rng.random_range(0u64..10_000);
                if queue.push(Activation::data(OperatorId::new(0), tuples)) {
                    pushed_count += 1;
                    pushed_tuples += tuples;
                }
            } else {
                let before = out.len();
                let max = rng.random_range(0usize..=capacity + 2);
                let outcome = queue.drain_into(max, &mut out);
                prop_assert!(outcome.count <= max);
                // The outcome agrees with what actually landed in `out`.
                prop_assert_eq!(out.len() - before, outcome.count);
                let moved: u64 = out[before..].iter().map(|a| a.tuples).sum();
                prop_assert_eq!(moved, outcome.tuples);
                drained_count += outcome.count as u64;
                drained_tuples += outcome.tuples;
            }
            // Conservation at every step, not just at the end.
            prop_assert_eq!(queue.len() as u64, pushed_count - drained_count);
            prop_assert_eq!(queue.queued_tuples(), pushed_tuples - drained_tuples);
        }
        prop_assert_eq!(queue.total_enqueued(), pushed_count);
        prop_assert_eq!(queue.total_dequeued(), drained_count);
    }

    /// Random interleavings of queue operations keep the bounded activation
    /// queue consistent (length never exceeds capacity, counters add up).
    #[test]
    fn activation_queue_invariants(capacity in 1usize..32, ops in 1usize..500, seed in 0u64..1_000) {
        use hierdb::raw::exec::{Activation, ActivationQueue};
        use hierdb::raw::common::OperatorId;
        let mut rng = rng_from_seed(seed);
        let mut queue = ActivationQueue::new(capacity);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for _ in 0..ops {
            if rng.random_bool(0.6) {
                if queue.push(Activation::data(OperatorId::new(0), 1)) {
                    pushed += 1;
                }
            } else if queue.pop().is_some() {
                popped += 1;
            }
            prop_assert!(queue.len() <= capacity);
        }
        prop_assert_eq!(queue.total_enqueued(), pushed);
        prop_assert_eq!(queue.total_dequeued(), popped);
        prop_assert_eq!(queue.len() as u64, pushed - popped);
    }
}

/// Regression pin for the batched event loop: an `execute_open` run over
/// 10 000 queries keeps live engine state bounded by the lane-slot pool,
/// exactly as before the slab/bitset refactor. Offered load is ~50× the
/// service capacity, so the waiting room grows into the thousands while
/// `peak_live` must stay pinned at `concurrency` — O(total queries) state
/// anywhere in the loop (calendar payloads, per-lane operator state) would
/// show up here first.
#[test]
fn open_system_peak_live_stays_bounded_at_10k_queries() {
    use hierdb::{ArrivalKind, ArrivalSpec, Experiment, HierarchicalSystem, Strategy};
    let experiment = Experiment::builder()
        .system(HierarchicalSystem::shared_memory(2))
        .workload(WorkloadParams {
            queries: 1,
            relations_per_query: 2,
            scale: 0.005,
            skew: 0.0,
            seed: 7,
        })
        .build()
        .expect("tiny workload compiles");
    let concurrency = 8;
    let arrivals = ArrivalSpec {
        kind: ArrivalKind::Poisson,
        rate_qps: 400.0,
        burstiness: 0.0,
        queries: 10_000,
        templates: 1,
        priority_classes: 1,
        seed: 99,
        template_skew: 0.0,
    };
    let run = experiment
        .run_open(&arrivals, concurrency, Strategy::dynamic())
        .expect("open run");
    assert_eq!(run.report.completed, 10_000);
    assert!(
        run.report.peak_live <= concurrency,
        "peak live {} exceeds the {concurrency} lane slots",
        run.report.peak_live
    );
    // Under heavy overload the slot pool must actually saturate — a
    // trivially low peak would mean the bound above tested nothing.
    assert_eq!(run.report.peak_live, concurrency);
}

/// Helper: every join node of a tree must be backed by at least one predicate
/// edge between its two sides.
fn assert_no_cartesian(tree: &JoinTree, query: &hierdb::Query) {
    fn check(tree: &JoinTree, masks: &EdgeMasks) {
        if let JoinTree::Join { build, probe, .. } = tree {
            assert!(
                masks
                    .crossing_selectivity(
                        masks.mask(&build.relations()),
                        masks.mask(&probe.relations())
                    )
                    .is_some(),
                "cartesian product in optimizer output"
            );
            check(build, masks);
            check(probe, masks);
        }
    }
    check(
        tree,
        &EdgeMasks::new(&query.graph, query.graph.relations()).unwrap(),
    );
}
