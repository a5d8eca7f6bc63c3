use super::*;
use dlb_common::{Duration, QueryId, RelationId};
use dlb_query::jointree::JoinTree;
use dlb_query::optree::OperatorTree;
use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};

fn two_join_plan(nodes: u32) -> ParallelPlan {
    let tree = JoinTree::join(
        JoinTree::join(
            JoinTree::leaf(RelationId::new(0), 4_000),
            JoinTree::leaf(RelationId::new(1), 8_000),
            1.0 / 8_000.0,
        ),
        JoinTree::leaf(RelationId::new(2), 6_000),
        1.0 / 6_000.0,
    );
    let ot = OperatorTree::from_join_tree(&tree);
    let homes = OperatorHomes::all_nodes(&ot, nodes);
    ParallelPlan::build(QueryId::new(7), ot, homes, ChainScheduling::OneAtATime).unwrap()
}

fn bushy_plan(nodes: u32) -> ParallelPlan {
    let left = JoinTree::join(
        JoinTree::leaf(RelationId::new(0), 5_000),
        JoinTree::leaf(RelationId::new(1), 10_000),
        1.0 / 10_000.0,
    );
    let right = JoinTree::join(
        JoinTree::leaf(RelationId::new(2), 4_000),
        JoinTree::leaf(RelationId::new(3), 12_000),
        1.0 / 12_000.0,
    );
    let tree = JoinTree::join(left, right, 1.0 / 5_000.0);
    let ot = OperatorTree::from_join_tree(&tree);
    let homes = OperatorHomes::all_nodes(&ot, nodes);
    ParallelPlan::build(QueryId::new(8), ot, homes, ChainScheduling::OneAtATime).unwrap()
}

fn solo(plan: &ParallelPlan, arrival: f64, priority: u32, skew: f64) -> CoSimQuery<'_> {
    CoSimQuery {
        plan,
        arrival_secs: arrival,
        priority,
        skew,
        mask: None,
        memory_bytes: 0,
    }
}

/// A closed engine over `plan` alone, built as [`execute`] builds it.
fn closed_engine(plan: &ParallelPlan, config: SystemConfig, strategy: Strategy) -> QueueEngine<'_> {
    let queries = [solo(plan, 0.0, 1, 0.0)];
    let source = LaneSource::Closed {
        queries: &queries,
        topology: &[],
    };
    QueueEngine::new(source, config, strategy, ExecOptions::default()).unwrap()
}

#[test]
fn dp_single_node_executes_to_completion() {
    let plan = two_join_plan(1);
    let config = SystemConfig::shared_memory(4);
    let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
    assert!(r.response_time > Duration::ZERO);
    assert!(r.activations > 0);
    assert!(
        r.tuples_processed >= 18_000,
        "tuples {}",
        r.tuples_processed
    );
    assert_eq!(r.messages, 0, "single node must not use the network");
    assert_eq!(r.lb_bytes, 0);
    assert!(r.utilization > 0.0 && r.utilization <= 1.0);
}

#[test]
fn dp_more_processors_is_faster() {
    let plan = bushy_plan(1);
    let opts = ExecOptions::default();
    let t2 = execute(
        &plan,
        &SystemConfig::shared_memory(2),
        Strategy::dynamic(),
        &opts,
    )
    .unwrap()
    .response_time;
    let t8 = execute(
        &plan,
        &SystemConfig::shared_memory(8),
        Strategy::dynamic(),
        &opts,
    )
    .unwrap()
    .response_time;
    assert!(t8 < t2, "8 procs ({t8}) should beat 2 procs ({t2})");
    let speedup = t2.as_secs_f64() / t8.as_secs_f64();
    assert!(speedup > 1.5, "speedup {speedup}");
}

#[test]
fn dp_is_deterministic() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let opts = ExecOptions::with_skew(0.5);
    let a = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
    let b = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(a.response_time, b.response_time);
    assert_eq!(a.activations, b.activations);
    assert_eq!(a.network_bytes, b.network_bytes);
}

#[test]
fn dp_hierarchical_execution_uses_the_network_but_completes() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
    assert!(r.messages > 0, "pipelined tuples must cross nodes");
    assert!(r.network_bytes > 0);
    assert!(r.result_tuples > 0);
}

#[test]
fn fp_executes_and_is_not_faster_than_dp_under_skew() {
    let plan = bushy_plan(1);
    let opts = ExecOptions::with_skew(0.8);
    let config = SystemConfig::shared_memory(8);
    let dp = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
    let fp = execute(&plan, &config, Strategy::fixed(0.0), &opts).unwrap();
    assert!(
        fp.response_time >= dp.response_time,
        "FP ({}) should not beat DP ({}) with skewed data",
        fp.response_time,
        dp.response_time
    );
}

#[test]
fn fp_with_cost_errors_is_no_faster_than_exact_fp() {
    let plan = two_join_plan(1);
    let config = SystemConfig::shared_memory(8);
    let opts = ExecOptions::default();
    let exact = execute(&plan, &config, Strategy::fixed(0.0), &opts).unwrap();
    let wrong = execute(&plan, &config, Strategy::fixed(0.3), &opts).unwrap();
    // Allocation with distorted estimates can only be as good or worse.
    assert!(wrong.response_time.as_secs_f64() >= exact.response_time.as_secs_f64() * 0.99);
}

#[test]
fn processed_tuples_match_plan_volume_for_dp() {
    let plan = bushy_plan(1);
    let config = SystemConfig::shared_memory(4);
    let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
    // Every operator input must be processed exactly once; allow a small
    // slack for rounding of probe outputs.
    let expected = plan.total_input_tuples();
    let tolerance = expected / 50 + 10;
    assert!(
        r.tuples_processed.abs_diff(expected) <= tolerance,
        "processed {} expected {expected}",
        r.tuples_processed
    );
    // The result cardinality is close to the optimizer estimate.
    let est = plan.tree.result_tuples();
    assert!(r.result_tuples.abs_diff(est) <= est / 10 + 16);
}

#[test]
fn global_load_balancing_kicks_in_under_heavy_skew() {
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let opts = ExecOptions {
        skew: 0.9,
        ..ExecOptions::default()
    };
    let r = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
    assert!(
        r.lb_requests > 0,
        "skewed hierarchical run should starve some node"
    );
}

#[test]
fn single_scan_plan_terminates() {
    let ot = OperatorTree::from_join_tree(&JoinTree::leaf(RelationId::new(0), 2_000));
    let homes = OperatorHomes::all_nodes(&ot, 1);
    let plan =
        ParallelPlan::build(QueryId::new(1), ot, homes, ChainScheduling::OneAtATime).unwrap();
    let r = execute(
        &plan,
        &SystemConfig::shared_memory(2),
        Strategy::dynamic(),
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(r.result_tuples, 2_000);
    assert!(r.response_time > Duration::ZERO);
}

#[test]
fn invalid_machine_rejected() {
    let plan = two_join_plan(1);
    let mut config = SystemConfig::shared_memory(4);
    config.machine.nodes = 0;
    assert!(execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).is_err());
}

// ------------------------------------------------------------------ //
// Co-simulated (multi-query) mode
// ------------------------------------------------------------------ //

#[test]
fn cosim_single_query_matches_the_plain_engine_exactly() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    for (strategy, skew) in [
        (Strategy::dynamic(), 0.0),
        (Strategy::dynamic(), 0.6),
        (Strategy::fixed(0.1), 0.6),
    ] {
        let opts = ExecOptions::with_skew(skew);
        let plain = execute(&plan, &config, strategy, &opts).unwrap();
        let co =
            execute_cosimulated(&[solo(&plan, 0.0, 1, skew)], &config, strategy, &opts).unwrap();
        assert_eq!(co.aggregate, plain, "{strategy:?} skew {skew}");
        assert_eq!(co.queries.len(), 1);
        let q = &co.queries[0];
        assert_eq!(q.response_secs, plain.response_time.as_secs_f64());
        assert_eq!(q.activations, plain.activations);
        assert_eq!(q.tuples_processed, plain.tuples_processed);
        assert_eq!(q.result_tuples, plain.result_tuples);
    }
}

#[test]
fn cosim_interleaves_queries_and_slows_both_down() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    let alone = execute(&plan, &config, Strategy::dynamic(), &opts)
        .unwrap()
        .response_time
        .as_secs_f64();
    let co = execute_cosimulated(
        &[solo(&plan, 0.0, 1, 0.0), solo(&plan, 0.0, 1, 0.0)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    assert_eq!(co.queries.len(), 2);
    // Two simultaneous copies share the processors: neither can beat its
    // solo run, and the work counters double.
    for q in &co.queries {
        assert!(
            q.response_secs >= alone * 0.999,
            "query {} finished in {} but alone takes {alone}",
            q.query,
            q.response_secs
        );
    }
    assert!(co.queries.iter().any(|q| q.response_secs > alone * 1.2));
    assert_eq!(
        co.aggregate.tuples_processed,
        co.queries.iter().map(|q| q.tuples_processed).sum::<u64>()
    );
    assert!(co.makespan_secs() >= co.mean_response_secs());
}

#[test]
fn cosim_is_deterministic() {
    let plan_a = bushy_plan(2);
    let plan_b = two_join_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let opts = ExecOptions::default();
    let queries = [solo(&plan_a, 0.0, 2, 0.4), solo(&plan_b, 0.5, 1, 0.8)];
    let a = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let b = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(a, b);
}

#[test]
fn cosim_respects_arrival_offsets() {
    let plan = two_join_plan(1);
    let config = SystemConfig::shared_memory(4);
    let opts = ExecOptions::default();
    let arrival = 5.0;
    let co = execute_cosimulated(
        &[solo(&plan, 0.0, 1, 0.0), solo(&plan, arrival, 1, 0.0)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    assert_eq!(co.queries[1].arrival_secs, arrival);
    assert!(
        co.queries[1].completion_secs >= arrival,
        "a query cannot finish before it arrives"
    );
    // With a gap longer than the solo run, the first query runs alone.
    let alone = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
    if alone.response_time.as_secs_f64() < arrival {
        assert_eq!(
            co.queries[0].response_secs,
            alone.response_time.as_secs_f64(),
            "a disjoint first query runs at solo speed"
        );
    }
}

#[test]
fn cosim_priority_favors_the_high_priority_query() {
    let plan = two_join_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let co = execute_cosimulated(
        &[solo(&plan, 0.0, 3, 0.0), solo(&plan, 0.0, 1, 0.0)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    assert!(
        co.queries[0].completion_secs <= co.queries[1].completion_secs,
        "priority 3 ({}) must not finish after priority 1 ({})",
        co.queries[0].completion_secs,
        co.queries[1].completion_secs
    );
}

#[test]
fn cosim_steals_see_cross_query_load() {
    // Two skewed queries on a hierarchical machine: global load
    // balancing still fires with interleaved queries, and the aggregate
    // accounts all of it.
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let opts = ExecOptions::with_skew(0.9);
    let co = execute_cosimulated(
        &[solo(&plan, 0.0, 1, 0.9), solo(&plan, 0.0, 1, 0.9)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    assert!(co.aggregate.lb_requests > 0);
    assert!(co.aggregate.result_tuples > 0);
}

#[test]
fn cosim_placement_mask_rehomes_a_lane_onto_its_nodes() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    for strategy in [Strategy::dynamic(), Strategy::fixed(0.0)] {
        let mask = [NodeId::from(1usize)];
        let co = execute_cosimulated(
            &[CoSimQuery {
                mask: Some(&mask),
                ..solo(&plan, 0.0, 1, 0.0)
            }],
            &config,
            strategy,
            &opts,
        )
        .unwrap();
        // All work lands on the masked node; the other node never
        // executes an activation (scheduling, steals and FP allocations
        // are all restricted to the mask).
        assert_eq!(
            co.aggregate.per_node_busy[0],
            Duration::ZERO,
            "{strategy:?}: node 0 is outside the mask"
        );
        assert!(co.aggregate.per_node_busy[1] > Duration::ZERO);
        assert!(co.queries[0].result_tuples > 0);
    }
}

#[test]
fn cosim_mask_validation_rejects_bad_masks() {
    let plan = two_join_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    let empty: [NodeId; 0] = [];
    assert!(execute_cosimulated(
        &[CoSimQuery {
            mask: Some(&empty),
            ..solo(&plan, 0.0, 1, 0.0)
        }],
        &config,
        Strategy::dynamic(),
        &opts
    )
    .is_err());
    let out_of_range = [NodeId::from(5usize)];
    assert!(execute_cosimulated(
        &[CoSimQuery {
            mask: Some(&out_of_range),
            ..solo(&plan, 0.0, 1, 0.0)
        }],
        &config,
        Strategy::dynamic(),
        &opts
    )
    .is_err());
}

#[test]
fn cosim_memory_admission_serializes_and_keeps_fcfs_order() {
    let plan = two_join_plan(1);
    let mut config = SystemConfig::shared_memory(4);
    config.machine.memory_per_node_bytes = 1_010;
    let opts = ExecOptions::default();
    let with_mem = |mem: u64| CoSimQuery {
        memory_bytes: mem,
        ..solo(&plan, 0.0, 1, 0.0)
    };

    // q0 holds 1000 of the 1010 bytes; q1 (1000) blocks; q2 (10) would
    // fit but must not jump the blocked head of the FCFS queue.
    let co = execute_cosimulated(
        &[with_mem(1_000), with_mem(1_000), with_mem(10)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    let [q0, q1, q2] = [&co.queries[0], &co.queries[1], &co.queries[2]];
    assert_eq!(q0.wait_secs, 0.0, "the first arrival admits immediately");
    assert!(q1.wait_secs > 0.0, "q1 must wait for q0's release");
    assert_eq!(
        q1.admitted_secs, q0.completion_secs,
        "q1 is admitted by q0's QueryRelease"
    );
    assert!(
        q2.wait_secs > 0.0 && q2.admitted_secs >= q1.admitted_secs,
        "q2 fits from the start but never jumps the blocked head \
         (admitted {} vs {})",
        q2.admitted_secs,
        q1.admitted_secs
    );
    // Serialized q0/q1 stretch the makespan beyond the concurrent case.
    let generous = execute_cosimulated(
        &[with_mem(0), with_mem(0), with_mem(0)],
        &config,
        Strategy::dynamic(),
        &opts,
    )
    .unwrap();
    assert!(generous.queries.iter().all(|q| q.wait_secs == 0.0));
    assert_eq!(generous.mean_wait_secs(), 0.0);
    assert!(co.mean_wait_secs() > 0.0);
    // Serialized admission orders completions by admission instant.
    assert!(q1.completion_secs >= q0.completion_secs);
    assert!(
        q1.response_secs > q1.wait_secs,
        "waits are part of response"
    );

    // A demand that can never fit errors up front instead of stalling
    // the event loop.
    let err =
        execute_cosimulated(&[with_mem(2_000)], &config, Strategy::dynamic(), &opts).unwrap_err();
    assert!(
        matches!(err, DlbError::InvalidConfig(ref m) if m.contains("never be admitted")),
        "{err}"
    );
}

#[test]
fn fp_shared_realization_is_the_default_and_per_node_differs_on_hierarchies() {
    // With error injection on a multi-node machine the two realizations
    // draw different allocations; on exact estimates they coincide.
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let strategy = Strategy::fixed(0.3);
    let shared = ExecOptions::default();
    assert_eq!(shared.fp_realization, ErrorRealization::Shared);
    let per_node = ExecOptions {
        fp_realization: ErrorRealization::PerNode,
        ..ExecOptions::default()
    };
    let a = execute(&plan, &config, strategy, &shared).unwrap();
    let b = execute(&plan, &config, strategy, &per_node).unwrap();
    // Both complete the same logical work...
    assert_eq!(a.result_tuples, b.result_tuples);
    // ...and with exact estimates the knob is a no-op.
    let exact = Strategy::fixed(0.0);
    let ea = execute(&plan, &config, exact, &shared).unwrap();
    let eb = execute(&plan, &config, exact, &per_node).unwrap();
    assert_eq!(ea, eb);
}

// ------------------------------------------------------------------ //
// Fault injection (topology events)
// ------------------------------------------------------------------ //

#[test]
fn failover_rehome_resume_conserves_work_and_accounts_rebalance() {
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let opts = ExecOptions::with_skew(0.3);
    let queries = [solo(&plan, 0.0, 1, 0.3), solo(&plan, 0.05, 1, 0.3)];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.3, 3)];
    let faulted =
        execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo).unwrap();
    assert_eq!(faulted.faults.failures, 1);
    assert_eq!(faulted.faults.tuples_lost, 0, "resume never loses state");
    assert_eq!(faulted.faults.tuples_redone, 0, "resume never redoes work");
    assert!(
        faulted.faults.tuples_rehomed > 0,
        "a mid-run failure must find state to migrate"
    );
    assert!(faulted.faults.rebalance_bytes > 0);
    // Work conservation: re-homing moves activations, it neither drops
    // nor duplicates them.
    assert_eq!(
        faulted.aggregate.tuples_processed, clean.aggregate.tuples_processed,
        "re-home-and-resume conserves processed tuples exactly"
    );
    assert_eq!(
        faulted.aggregate.result_tuples,
        clean.aggregate.result_tuples
    );
    // Losing a quarter of the machine mid-run cannot speed things up.
    assert!(
        faulted.aggregate.response_time >= clean.aggregate.response_time,
        "faulted {} vs clean {}",
        faulted.aggregate.response_time,
        clean.aggregate.response_time
    );
    // The dead node never works again.
    assert_eq!(faulted.aggregate.per_node_busy.len(), 4);
}

#[test]
fn failover_lose_restart_discards_and_redoes_work() {
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let mut opts = ExecOptions::with_skew(0.3);
    opts.recovery.policy = RecoveryPolicy::LoseRestart;
    let queries = [solo(&plan, 0.0, 1, 0.3), solo(&plan, 0.05, 1, 0.3)];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.5, 3)];
    let faulted =
        execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo).unwrap();
    assert!(faulted.faults.tuples_lost > 0, "failure must lose state");
    assert!(
        faulted.faults.tuples_redone > 0,
        "a needed hash table must be rebuilt"
    );
    // Redone build work inflates the processed-tuple count.
    assert!(
        faulted.aggregate.tuples_processed > clean.aggregate.tuples_processed,
        "faulted {} vs clean {}",
        faulted.aggregate.tuples_processed,
        clean.aggregate.tuples_processed
    );
    // The answer itself is unchanged: lost input is regenerated.
    assert_eq!(
        faulted.aggregate.result_tuples,
        clean.aggregate.result_tuples
    );
}

#[test]
fn drain_migrates_without_loss_even_under_lose_restart() {
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let mut opts = ExecOptions::with_skew(0.3);
    opts.recovery.policy = RecoveryPolicy::LoseRestart;
    let queries = [solo(&plan, 0.0, 1, 0.3)];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let topo = [TopologyEvent::drain(clean.makespan_secs() * 0.3, 2)];
    let faulted =
        execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo).unwrap();
    assert_eq!(faulted.faults.drains, 1);
    assert_eq!(faulted.faults.failures, 0);
    assert_eq!(faulted.faults.tuples_lost, 0, "drains migrate, never lose");
    assert_eq!(faulted.faults.tuples_redone, 0);
    assert_eq!(
        faulted.aggregate.tuples_processed,
        clean.aggregate.tuples_processed
    );
    assert_eq!(
        faulted.aggregate.result_tuples,
        clean.aggregate.result_tuples
    );
}

#[test]
fn faulted_cosim_replays_bit_identically() {
    let plan_a = bushy_plan(4);
    let plan_b = two_join_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let opts = ExecOptions::with_skew(0.6);
    let queries = [solo(&plan_a, 0.0, 2, 0.6), solo(&plan_b, 0.02, 1, 0.6)];
    let topo = [
        TopologyEvent::fail(0.05, 3),
        TopologyEvent::join(0.25, 3),
        TopologyEvent::drain(0.4, 1),
    ];
    for strategy in [Strategy::dynamic(), Strategy::fixed(0.1)] {
        let a = execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
        let b = execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
        assert_eq!(a, b, "{strategy:?}");
        assert_eq!(a.faults.failures, 1);
        assert_eq!(a.faults.joins, 1);
        assert!(a.queries.iter().all(|q| q.result_tuples > 0));
    }
}

#[test]
fn failed_node_rejoins_and_the_run_completes() {
    let plan = bushy_plan(4);
    let config = SystemConfig::hierarchical(4, 2);
    let opts = ExecOptions::default();
    let queries = [solo(&plan, 0.0, 1, 0.0), solo(&plan, 0.1, 1, 0.0)];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let m = clean.makespan_secs();
    let topo = [
        TopologyEvent::fail(m * 0.2, 3),
        TopologyEvent::join(m * 0.5, 3),
    ];
    let faulted =
        execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo).unwrap();
    assert_eq!(faulted.faults.failures, 1);
    assert_eq!(faulted.faults.joins, 1);
    assert_eq!(
        faulted.aggregate.result_tuples,
        clean.aggregate.result_tuples
    );
    assert_eq!(
        faulted.aggregate.tuples_processed,
        clean.aggregate.tuples_processed
    );
}

#[test]
fn masked_lane_survives_death_of_its_only_node() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    let mask = [NodeId::from(1usize)];
    let queries = [CoSimQuery {
        mask: Some(&mask),
        ..solo(&plan, 0.0, 1, 0.0)
    }];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.4, 1)];
    for strategy in [Strategy::dynamic(), Strategy::fixed(0.0)] {
        let faulted =
            execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
        // The whole lane re-homed onto node 0 and finished there.
        assert!(
            faulted.aggregate.per_node_busy[0] > Duration::ZERO,
            "{strategy:?}: the survivor must take over the pinned lane"
        );
        assert_eq!(
            faulted.queries[0].result_tuples,
            clean.queries[0].result_tuples
        );
        assert!(faulted.faults.tuples_rehomed > 0);
    }
}

#[test]
fn waiting_query_that_cannot_fit_after_failure_errors_clearly() {
    let plan = two_join_plan(2);
    let mut config = SystemConfig::hierarchical(2, 2);
    config.machine.memory_per_node_bytes = 1_010;
    let opts = ExecOptions::default();
    let with_mem = |mem: u64| CoSimQuery {
        memory_bytes: mem,
        ..solo(&plan, 0.0, 1, 0.0)
    };
    // q0 takes 1000 of the 1010 bytes per node; q1 (750 per node across
    // both) waits. Node 1 dies before q0 releases: q1's demand collapses
    // onto node 0 as 1500 > 1010.
    let queries = [with_mem(2_000), with_mem(1_500)];
    let topo = [TopologyEvent::fail(1e-4, 1)];
    let err = execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
        .unwrap_err();
    assert!(
        matches!(err, DlbError::ExecutionError(ref m)
            if m.contains("never be admitted after the topology change")),
        "{err}"
    );
    // Without the failure the same mix runs fine.
    assert!(execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).is_ok());
}

#[test]
fn post_completion_topology_events_change_nothing_material() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    let queries = [solo(&plan, 0.0, 1, 0.0)];
    let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
    // The simulation ends with the last query: a failure scheduled past
    // that instant never takes effect and the report is bit-identical.
    let topo = [TopologyEvent::fail(clean.makespan_secs() + 1.0, 0)];
    let faulted =
        execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo).unwrap();
    assert_eq!(faulted, clean);
}

#[test]
fn faulted_cosim_rejects_invalid_topology_streams() {
    let plan = two_join_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::default();
    let queries = [solo(&plan, 0.0, 1, 0.0)];
    for topo in [
        vec![TopologyEvent::fail(0.1, 9)],
        vec![TopologyEvent::join(0.1, 0)],
        vec![TopologyEvent::fail(0.1, 0), TopologyEvent::fail(0.2, 1)],
        vec![TopologyEvent::fail(f64::NAN, 0)],
    ] {
        assert!(
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .is_err(),
            "{topo:?}"
        );
    }
}

#[test]
fn cosim_rejects_invalid_inputs() {
    let plan = two_join_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    assert!(execute_cosimulated(&[], &config, Strategy::dynamic(), &opts).is_err());
    assert!(execute_cosimulated(
        &[solo(&plan, 0.0, 0, 0.0)],
        &config,
        Strategy::dynamic(),
        &opts
    )
    .is_err());
    assert!(execute_cosimulated(
        &[solo(&plan, -1.0, 1, 0.0)],
        &config,
        Strategy::dynamic(),
        &opts
    )
    .is_err());
    assert!(execute_cosimulated(
        &[solo(&plan, 0.0, 1, 2.0)],
        &config,
        Strategy::dynamic(),
        &opts
    )
    .is_err());
    assert!(execute_cosimulated(
        &[solo(&plan, 0.0, 1, 0.0)],
        &config,
        Strategy::synchronous(),
        &opts
    )
    .is_err());
}

// ------------------------------------------------------------------ //
// Open-system mode
// ------------------------------------------------------------------ //

use dlb_traffic::ArrivalKind;

/// A small two-relation join: 4 operators (2 scans, build, probe).
fn tiny_plan(nodes: u32) -> ParallelPlan {
    let tree = JoinTree::join(
        JoinTree::leaf(RelationId::new(0), 120),
        JoinTree::leaf(RelationId::new(1), 240),
        1.0 / 240.0,
    );
    let ot = OperatorTree::from_join_tree(&tree);
    let homes = OperatorHomes::all_nodes(&ot, nodes);
    ParallelPlan::build(QueryId::new(9), ot, homes, ChainScheduling::OneAtATime).unwrap()
}

fn arrivals(kind: ArrivalKind, queries: usize, rate_qps: f64, burstiness: f64) -> ArrivalSpec {
    ArrivalSpec {
        kind,
        rate_qps,
        burstiness,
        queries,
        templates: 1,
        template_skew: 0.0,
        priority_classes: 1,
        seed: 0xD1B_1996,
    }
}

fn template(plan: &ParallelPlan) -> OpenTemplate<'_> {
    OpenTemplate {
        plan,
        memory_bytes: 0,
        solo_secs: 0.0,
    }
}

#[test]
fn open_single_arrival_matches_the_plain_engine_exactly() {
    // One arrival through the open machinery is the closed engine,
    // time-translated to the arrival instant: response (and hence
    // slowdown against the solo baseline) must be bit-identical.
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    for (strategy, skew) in [
        (Strategy::dynamic(), 0.0),
        (Strategy::dynamic(), 0.6),
        (Strategy::fixed(0.1), 0.6),
    ] {
        let opts = ExecOptions::with_skew(skew);
        let plain = execute(&plan, &config, strategy, &opts).unwrap();
        let traffic = OpenTraffic {
            templates: vec![OpenTemplate {
                plan: &plan,
                memory_bytes: 0,
                solo_secs: plain.response_time.as_secs_f64(),
            }],
            arrivals: arrivals(ArrivalKind::Poisson, 1, 0.25, 0.0),
            concurrency: 3,
            frontend: FrontendConfig::default(),
        };
        let open = execute_open(&traffic, &config, strategy, &opts).unwrap();
        assert_eq!(open.completed, 1, "{strategy:?} skew {skew}");
        assert_eq!(open.peak_live, 1);
        assert_eq!(
            open.response.max(),
            plain.response_time.as_secs_f64(),
            "{strategy:?} skew {skew}: open response vs plain"
        );
        assert_eq!(open.wait.max(), 0.0, "an uncontended arrival never waits");
        assert_eq!(open.slowdown.max(), 1.0, "response / solo must be exact");
    }
}

#[test]
fn open_runs_are_deterministic() {
    let plan = tiny_plan(2);
    let bushy = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::with_skew(0.5);
    let traffic = OpenTraffic {
        templates: vec![template(&plan), template(&bushy)],
        arrivals: ArrivalSpec {
            templates: 2,
            priority_classes: 3,
            ..arrivals(ArrivalKind::Bursty, 120, 20.0, 0.5)
        },
        concurrency: 4,
        frontend: FrontendConfig::default(),
    };
    for strategy in [Strategy::dynamic(), Strategy::fixed(0.2)] {
        let a = execute_open(&traffic, &config, strategy, &opts).unwrap();
        let b = execute_open(&traffic, &config, strategy, &opts).unwrap();
        assert_eq!(a, b, "{strategy:?}");
        assert_eq!(a.completed, 120);
        assert!(a.throughput_qps > 0.0);
    }
}

#[test]
fn open_live_state_is_bounded_by_concurrency_at_10k_queries() {
    // Saturating arrival stream: offered load far above capacity, so the
    // waiting room grows into the thousands while live engine state must
    // stay pinned at `concurrency` lane slots.
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let concurrency = 8;
    let traffic = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: arrivals(ArrivalKind::Poisson, 10_000, 400.0, 0.0),
        concurrency,
        frontend: FrontendConfig::default(),
    };
    let (mut engine, mut open) =
        QueueEngine::open_run(&traffic, config, Strategy::dynamic(), opts).unwrap();
    // Op state is O(concurrency × max_ops) by construction, not O(total).
    assert_eq!(engine.ops.len(), concurrency * 4);
    engine.run_loop(&mut open).unwrap();
    assert_eq!(open.completed, 10_000);
    assert_eq!(open.response.count(), 10_000);
    assert!(
        open.peak_live <= concurrency,
        "peak live {} exceeds the {concurrency} lane slots",
        open.peak_live
    );
    // Under 50x overload the slot pool must actually fill up...
    assert_eq!(open.peak_live, concurrency);
    // ...and queries behind the pool must have waited.
    assert!(open.wait.quantile(0.5).unwrap() > 0.0);
    // Every retired query's operator state was dropped, not retained.
    assert!(engine.lanes.iter().all(|l| !l.started));
    assert!(engine
        .op_nodes
        .iter()
        .all(|row| row.iter().all(|cell| cell.is_none())));
    assert!(engine.ops.iter().all(|o| o.terminated && o.home.is_empty()));
}

#[test]
fn open_bursty_and_diurnal_streams_complete() {
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(4);
    let opts = ExecOptions::default();
    for (kind, burstiness) in [(ArrivalKind::Bursty, 0.7), (ArrivalKind::Diurnal, 0.0)] {
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(kind, 50, 30.0, burstiness),
            concurrency: 2,
            frontend: FrontendConfig::default(),
        };
        let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(r.completed, 50, "{kind:?}");
        assert_eq!(r.response.count(), 50);
        assert!(r.response.quantile(0.99).unwrap() > 0.0);
    }
}

#[test]
fn open_multi_node_run_with_skew_and_memory_admission_completes() {
    // Multi-node, skewed, memory-constrained: exercises steal episodes
    // racing slot recycling (the epoch guard) and in-loop admission.
    let plan = tiny_plan(2);
    let bushy = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::with_skew(0.8);
    let mem = config.machine.memory_per_node_bytes;
    let traffic = OpenTraffic {
        templates: vec![
            OpenTemplate {
                plan: &plan,
                memory_bytes: mem,
                solo_secs: 0.01,
            },
            OpenTemplate {
                plan: &bushy,
                memory_bytes: mem / 2,
                solo_secs: 0.05,
            },
        ],
        arrivals: ArrivalSpec {
            templates: 2,
            priority_classes: 2,
            ..arrivals(ArrivalKind::Bursty, 150, 40.0, 0.6)
        },
        concurrency: 3,
        frontend: FrontendConfig::default(),
    };
    for strategy in [Strategy::dynamic(), Strategy::fixed(0.2)] {
        let r = execute_open(&traffic, &config, strategy, &opts).unwrap();
        assert_eq!(r.completed, 150, "{strategy:?}");
        assert!(r.slowdown.count() == 150);
        // The working sets force queueing: someone must have waited.
        assert!(r.wait.max() > 0.0);
    }
}

#[test]
fn open_priority_classes_partition_the_response_sketch() {
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let traffic = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: ArrivalSpec {
            priority_classes: 3,
            ..arrivals(ArrivalKind::Poisson, 200, 50.0, 0.0)
        },
        concurrency: 4,
        frontend: FrontendConfig::default(),
    };
    let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(r.response_by_class.len(), 3);
    let per_class: u64 = r.response_by_class.iter().map(|h| h.count()).sum();
    assert_eq!(per_class, r.completed);
    assert!(r.response_by_class.iter().all(|h| h.count() > 0));
    let classes = r.class_summaries();
    assert_eq!(classes.len(), 3);
    assert_eq!(classes[0].0, 1);
    assert_eq!(classes[2].0, 3);
}

#[test]
fn open_result_cache_serves_repeats_without_engine_work() {
    // One template, infinite TTL, arrivals spaced far beyond the solo
    // response time: the first arrival executes and populates the cache,
    // every later arrival is a hit retiring at the fan-out cost.
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let traffic = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: arrivals(ArrivalKind::Poisson, 60, 2.0, 0.0),
        concurrency: 2,
        frontend: FrontendConfig {
            cache_capacity: 1,
            cache_ttl_secs: f64::INFINITY,
            coalesce: false,
            fanout_cost_secs: 0.001,
        },
    };
    let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(r.completed, 60);
    assert_eq!(r.frontend.engine_queries, 1, "only the first miss executes");
    assert_eq!(r.frontend.cache_hits, 59);
    assert_eq!(r.frontend.cache_misses, 1);
    assert_eq!(r.frontend.coalesced, 0);
    assert_eq!(r.response_cache_hit.count(), 59);
    assert_eq!(r.response_cache_hit.max(), 0.001, "hits cost the fan-out");
    assert_eq!(r.response_engine.count(), 1);
    assert_eq!(r.engine_by_template, vec![1]);
    assert_eq!(r.qps_multiplier(), 60.0);
    assert!((r.hit_ratio() - 59.0 / 60.0).abs() < 1e-12);
    // Decomposition: every completion is exactly one outcome.
    assert_eq!(
        r.response.count(),
        r.response_engine.count() + r.response_cache_hit.count() + r.response_coalesced.count()
    );
}

#[test]
fn open_coalescing_subscribes_concurrent_identical_arrivals() {
    // One template under heavy overload with the cache off: the first
    // arrival leads, everyone arriving while it is in flight attaches,
    // and the whole stream is served by a handful of engine executions.
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let traffic = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: arrivals(ArrivalKind::Poisson, 200, 400.0, 0.0),
        concurrency: 4,
        frontend: FrontendConfig {
            cache_capacity: 0,
            cache_ttl_secs: f64::INFINITY,
            coalesce: true,
            fanout_cost_secs: 0.0005,
        },
    };
    let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(r.completed, 200);
    assert!(r.frontend.coalesced > 0, "overload must coalesce");
    assert_eq!(
        r.frontend.engine_queries + r.frontend.coalesced,
        r.completed,
        "every arrival either executed or followed a leader"
    );
    assert_eq!(r.frontend.cache_bypass, 200, "cache off: all bypass");
    assert_eq!(r.frontend.cache_hits, 0);
    assert_eq!(r.response_coalesced.count(), r.frontend.coalesced);
    assert_eq!(
        r.engine_by_template.iter().sum::<u64>(),
        r.frontend.engine_queries,
        "followers add zero engine admissions"
    );
    assert!(r.qps_multiplier() > 1.0);
    // Determinism holds with the front end on.
    let again = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(r, again);
}

#[test]
fn open_inert_frontend_is_bit_identical_to_no_frontend() {
    // Setting the knobs that don't enable anything (TTL, fan-out cost)
    // must not perturb the run: the report is equal field for field.
    let plan = tiny_plan(2);
    let bushy = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 2);
    let opts = ExecOptions::with_skew(0.5);
    let mut traffic = OpenTraffic {
        templates: vec![template(&plan), template(&bushy)],
        arrivals: ArrivalSpec {
            templates: 2,
            priority_classes: 2,
            ..arrivals(ArrivalKind::Bursty, 80, 30.0, 0.5)
        },
        concurrency: 3,
        frontend: FrontendConfig::default(),
    };
    let base = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    traffic.frontend = FrontendConfig {
        cache_capacity: 0,
        cache_ttl_secs: 0.25,
        coalesce: false,
        fanout_cost_secs: 0.5,
    };
    let inert = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
    assert_eq!(base, inert);
    assert_eq!(
        base.frontend,
        FrontendStats {
            engine_queries: 80,
            ..FrontendStats::default()
        },
        "engine executions are counted even without a front end"
    );
    assert_eq!(base.qps_multiplier(), 1.0, "no front end: no multiplier");
}

#[test]
fn open_rejects_invalid_inputs() {
    let plan = tiny_plan(1);
    let config = SystemConfig::shared_memory(2);
    let opts = ExecOptions::default();
    let good = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: arrivals(ArrivalKind::Poisson, 10, 5.0, 0.0),
        concurrency: 2,
        frontend: FrontendConfig::default(),
    };
    // SP has no queues to interleave.
    assert!(execute_open(&good, &config, Strategy::synchronous(), &opts).is_err());
    // No templates.
    let mut bad = good.clone();
    bad.templates.clear();
    bad.arrivals.templates = 0;
    assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
    // Zero concurrency.
    let mut bad = good.clone();
    bad.concurrency = 0;
    assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
    // Arrival spec draws from more templates than supplied.
    let mut bad = good.clone();
    bad.arrivals.templates = 2;
    assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
    // A working set that can never fit is a configuration error, not a
    // deadlock.
    let mut bad = good.clone();
    bad.templates[0].memory_bytes = 3 * config.machine.memory_per_node_bytes;
    assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
    // Invalid solo baseline.
    let mut bad = good.clone();
    bad.templates[0].solo_secs = f64::NAN;
    assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
}

/// The plan's `pipelined_producers` of every in-use op slot, in global
/// indices, against the list installed on the operator; placeholder
/// slots carry none.
fn assert_producers_match_plan(engine: &QueueEngine<'_>) {
    for op in 0..engine.ops.len() {
        let installed = &engine.ops[op].producers;
        if !engine.slot_in_use(op) {
            assert!(installed.is_empty(), "placeholder slot {op} has producers");
            continue;
        }
        let lane = &engine.lanes[engine.ops[op].lane];
        let expected: Vec<usize> = lane
            .plan
            .tree
            .pipelined_producers(OperatorId::from(op - lane.base))
            .iter()
            .map(|p| lane.base + p.index())
            .collect();
        assert_eq!(installed, &expected, "op slot {op}");
    }
}

#[test]
fn installed_producers_match_the_plan() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let engine = closed_engine(&plan, config, Strategy::dynamic());
    assert!(engine.ops.iter().any(|o| !o.producers.is_empty()));
    assert_producers_match_plan(&engine);

    // Open mode: a single lane slot recycled between two templates of
    // different sizes, checked once the second admission installed its
    // plan over the slot the first retired from.
    let tiny = tiny_plan(2);
    let mut spec = arrivals(ArrivalKind::Poisson, 6, 50.0, 0.0);
    spec.templates = 2;
    let traffic = OpenTraffic {
        templates: vec![template(&tiny), template(&plan)],
        arrivals: spec,
        concurrency: 1,
        frontend: FrontendConfig::default(),
    };
    let (mut engine, mut open) = QueueEngine::open_run(
        &traffic,
        config,
        Strategy::dynamic(),
        ExecOptions::default(),
    )
    .unwrap();
    let mut recycled = 0;
    while let Some((_, event)) = engine.calendar.pop() {
        engine.dispatch(event, &mut open).unwrap();
        if open.completed > recycled && engine.lanes[0].started {
            recycled = open.completed;
            assert_producers_match_plan(&engine);
        }
    }
    assert!(recycled >= 2, "the slot was recycled only {recycled} times");
}

#[test]
fn stall_error_lists_the_unterminated_operators() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let mut engine = closed_engine(&plan, config, Strategy::dynamic());
    // Drop every scheduled event: the seeded triggers stay queued and
    // nothing can ever run them.
    while engine.calendar.pop().is_some() {}
    let n_ops = plan.tree.operators().len();
    let msg = engine.run_loop(&mut Closed).unwrap_err().to_string();
    assert!(
        msg.contains(&format!(
            "simulation stalled: 0 of {n_ops} operators terminated"
        )),
        "{msg}"
    );
    // Up to eight operators, each with its phase counts and per-home
    // queue state; the rest are counted.
    assert_eq!(msg.matches("lane 0 op ").count(), STALL_REPORT_OPS, "{msg}");
    assert!(
        msg.contains(&format!("; and {} more", n_ops - STALL_REPORT_OPS)),
        "{msg}"
    );
    assert!(
        msg.contains("lane 0 op 0 (phase-1 0/2, phase-2 0/2, node 0: "),
        "{msg}"
    );
    let queued = engine.op_nodes[0][1].as_ref().unwrap().queued_activations();
    assert!(queued > 0);
    assert!(
        msg.contains(&format!("node 1: {queued} queued 0 parked 0 processing)")),
        "{msg}"
    );
    assert!(!msg.contains(" token "), "no episode is in flight: {msg}");

    // A closed lane that never started still counts: the second query
    // of this mix arrives later, and its QueryStart is dropped with the
    // rest of the calendar.
    let second = two_join_plan(2);
    let queries = [solo(&plan, 0.0, 1, 0.0), solo(&second, 1.0, 1, 0.0)];
    let source = LaneSource::Closed {
        queries: &queries,
        topology: &[],
    };
    let mut engine =
        QueueEngine::new(source, config, Strategy::dynamic(), ExecOptions::default()).unwrap();
    assert!(!engine.lanes[1].started);
    while engine.calendar.pop().is_some() {}
    let total = n_ops + second.tree.operators().len();
    let msg = engine.run_loop(&mut Closed).unwrap_err().to_string();
    assert!(
        msg.contains(&format!(
            "simulation stalled: 0 of {total} operators terminated"
        )),
        "{msg}"
    );

    // A steal request still collecting its replies is listed with its
    // node, token and reply count.
    let mut engine = closed_engine(&plan, config, Strategy::dynamic());
    while !engine.node_lb.iter().any(|lb| lb.starving_outstanding) {
        let (_, event) = engine.calendar.pop().expect("a node starves mid-run");
        engine.dispatch(event, &mut Closed).unwrap();
    }
    while engine.calendar.pop().is_some() {}
    let msg = engine.run_loop(&mut Closed).unwrap_err().to_string();
    let (node, lb) = engine
        .node_lb
        .iter()
        .enumerate()
        .find(|(_, lb)| lb.starving_outstanding)
        .unwrap();
    assert!(lb.replies_received < lb.replies_expected);
    assert!(
        msg.contains(&format!(
            "; node {node} token {}: steal {}/{} replies",
            lb.current_token, lb.replies_received, lb.replies_expected
        )),
        "{msg}"
    );
}

#[test]
fn budget_error_reports_progress_and_the_unterminated_operators() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let mut engine = closed_engine(&plan, config, Strategy::dynamic());
    for _ in 0..200 {
        let (_, event) = engine.calendar.pop().unwrap();
        engine.dispatch(event, &mut Closed).unwrap();
    }
    let now = engine.calendar.now();
    assert!(now > SimTime::ZERO);
    let pending = engine.calendar.pending();
    assert!(pending > 0);
    let terminated = engine.ops.iter().filter(|o| o.terminated).count();
    let n_ops = plan.tree.operators().len();
    assert!(terminated < n_ops);
    let msg = engine.budget_error().to_string();
    assert!(
        msg.contains(&format!(
            "event budget exhausted: 200 events processed, now {now}, \
             {pending} events pending; {terminated} of {n_ops} operators terminated; \
             unterminated: lane 0 op "
        )),
        "{msg}"
    );
    // The same per-operator summary the stall error gives.
    assert!(msg.ends_with(&engine.unterminated_summary()), "{msg}");
    assert!(engine
        .stall_error()
        .to_string()
        .ends_with(&engine.unterminated_summary()));

    // Episodes in flight close the summary: an FP request names the
    // operators it targets, a Threshold push probe is flagged.
    for (strategy, episode) in [
        (Strategy::fixed(0.0), "targets lane 0 op "),
        (Strategy::threshold(100.0, 10.0), "push probe"),
    ] {
        let mut engine = closed_engine(&plan, config, strategy);
        while !engine
            .node_lb
            .iter()
            .any(|lb| !lb.fp_outstanding.is_empty() || lb.push_outstanding)
        {
            let (_, event) = engine.calendar.pop().expect("an episode starts mid-run");
            engine.dispatch(event, &mut Closed).unwrap();
        }
        let msg = engine.budget_error().to_string();
        let (node, lb) = engine
            .node_lb
            .iter()
            .enumerate()
            .find(|(_, lb)| !lb.fp_outstanding.is_empty() || lb.push_outstanding)
            .unwrap();
        assert!(
            msg.contains(&format!("; node {node} token {}: ", lb.current_token)),
            "{msg}"
        );
        assert!(msg.contains(episode), "{msg}");
    }
}

#[test]
fn open_stall_error_counts_only_in_use_slots() {
    let plan = bushy_plan(2);
    let config = SystemConfig::hierarchical(2, 4);
    let traffic = OpenTraffic {
        templates: vec![template(&plan)],
        arrivals: arrivals(ArrivalKind::Poisson, 3, 0.5, 0.0),
        concurrency: 4,
        frontend: FrontendConfig::default(),
    };
    let (mut engine, mut open) = QueueEngine::open_run(
        &traffic,
        config,
        Strategy::dynamic(),
        ExecOptions::default(),
    )
    .unwrap();
    // Run up to the first admission, then drop everything else.
    while !engine.lanes.iter().any(|l| l.started) {
        let (_, event) = engine.calendar.pop().unwrap();
        engine.dispatch(event, &mut open).unwrap();
    }
    while engine.calendar.pop().is_some() {}
    let n_ops = plan.tree.operators().len();
    assert!(engine.ops.len() > n_ops);
    let msg = engine.run_loop(&mut open).unwrap_err().to_string();
    assert!(
        msg.contains(&format!(
            "simulation stalled: 0 of {n_ops} operators terminated"
        )),
        "{msg}"
    );
}

#[test]
fn events_stay_24_bytes() {
    // The calendar stores and moves every event; a wider variant would
    // grow all of them.
    assert_eq!(std::mem::size_of::<Event>(), 24);
}
