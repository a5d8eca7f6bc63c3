//! Pins the engine's work selection on wide plans and wide nodes: plans of
//! about 70 operators (more than one 64-bit word of operator ids per lane)
//! on nodes of 72 and 96 threads (more than one word of thread ids per
//! node). Each case runs one engine entry point and compares an FNV-1a
//! digest of the full report's `Debug` rendering against the value captured
//! when the pin was written, so any change to what the wide paths select,
//! in what order, moves a digest.

use hierdb::raw::exec::{
    execute, execute_cosimulated, execute_open, CoSimQuery, OpenTemplate, OpenTraffic,
};
use hierdb::{
    ArrivalKind, ArrivalSpec, CompiledWorkload, ExecOptions, FrontendConfig, HierarchicalSystem,
    ParallelPlan, Strategy, WorkloadParams,
};

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two best plans of one generated 24-relation query at scale 0.02,
/// homed on every node of `system`.
fn wide_plans(system: &HierarchicalSystem) -> Vec<ParallelPlan> {
    let params = WorkloadParams {
        queries: 1,
        relations_per_query: 24,
        scale: 0.02,
        skew: 0.0,
        seed: 219_879_830,
    };
    let workload = CompiledWorkload::generate(params, system).expect("workload compiles");
    let plans: Vec<ParallelPlan> = workload.iter_plans().cloned().collect();
    assert_eq!(plans.len(), 2);
    for plan in &plans {
        assert!(plan.tree.operators().len() > 64, "a plan spans two words");
    }
    plans
}

/// Skewed routing, so work piles up on a few queues and threads also take
/// from queues other than their own.
fn options() -> ExecOptions {
    ExecOptions::builder().skew(0.6).build()
}

fn check(case: &str, report: &impl std::fmt::Debug, expected: u64) {
    let digest = fnv1a(&format!("{report:?}"));
    assert_eq!(digest, expected, "{case}: digest {digest:#018x}");
}

#[test]
fn wide_plans_on_wide_nodes_select_the_same_work() {
    let (dp, fp) = (Strategy::dynamic(), Strategy::fixed(0.0));
    let cases: [(&str, u32, u32, Strategy, u64); 4] = [
        ("1x96 DP", 1, 96, dp, 0x105e_2b1b_c864_88ef),
        ("1x96 FP", 1, 96, fp, 0x77cb_98ec_d7c0_0239),
        ("2x72 DP", 2, 72, dp, 0x85cc_464a_6bc1_0ce9),
        ("2x72 FP", 2, 72, fp, 0xe030_7ada_5d26_cdd0),
    ];
    for (case, nodes, procs, strategy, expected) in cases {
        let system = HierarchicalSystem::hierarchical(nodes, procs);
        let plan = &wide_plans(&system)[0];
        let report = execute(plan, system.config(), strategy, &options()).unwrap();
        check(case, &report, expected);
    }
}

#[test]
fn two_wide_lanes_cosimulate_the_same_way() {
    // The second lane's operator ids start at 70, mid-word.
    let system = HierarchicalSystem::hierarchical(2, 72);
    let plans = wide_plans(&system);
    let queries: Vec<CoSimQuery<'_>> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| CoSimQuery {
            plan,
            arrival_secs: 0.05 * i as f64,
            priority: 1 + i as u32,
            skew: 0.6,
            mask: None,
            memory_bytes: 0,
        })
        .collect();
    let report =
        execute_cosimulated(&queries, system.config(), Strategy::fixed(0.0), &options()).unwrap();
    check("2x72 FP co-simulated", &report, 0xca43_d40a_f707_9631);
}

#[test]
fn wide_open_lanes_admit_and_retire_the_same_way() {
    let system = HierarchicalSystem::hierarchical(1, 96);
    let plans = wide_plans(&system);
    let traffic = OpenTraffic {
        templates: plans
            .iter()
            .map(|plan| OpenTemplate {
                plan,
                memory_bytes: 0,
                solo_secs: 0.0,
            })
            .collect(),
        arrivals: ArrivalSpec {
            kind: ArrivalKind::Poisson,
            rate_qps: 20.0,
            burstiness: 0.0,
            queries: 4,
            templates: 2,
            template_skew: 0.0,
            priority_classes: 1,
            seed: 0xD1B_1996,
        },
        concurrency: 2,
        frontend: FrontendConfig::default(),
    };
    let report = execute_open(&traffic, system.config(), Strategy::dynamic(), &options()).unwrap();
    check("1x96 DP open", &report, 0x5655_b806_a559_b216);
}
