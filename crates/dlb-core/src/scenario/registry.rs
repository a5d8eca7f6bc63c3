//! Bundled scenario specs: every figure of the paper's evaluation (§5),
//! expressed declaratively.
//!
//! The registry is the single source of truth `all_figures` and the
//! `scenario` runner draw from; adding a scenario here (or shipping a JSON
//! spec file) is how the evaluation grows new workloads.

use super::spec::{
    Axis, Metric, MixSpec, OpenSpec, Presentation, Reference, RowFmt, ScenarioSpec, TableStyle,
    WorkloadSpec,
};
use dlb_common::{DlbError, Result};
use dlb_exec::{ExecOptions, MixMode, MixPolicy, Strategy, TopologyEvent};
use dlb_traffic::ArrivalKind;

const DP: Strategy = Strategy::dynamic();
const FP: Strategy = Strategy::fixed(0.0);
const SP: Strategy = Strategy::synchronous();
const DIFFUSION: Strategy = Strategy::diffusion(1.0);
const THRESHOLD: Strategy = Strategy::threshold(2048.0, 256.0);

/// Every bundled scenario, in `all_figures` presentation order.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        fig6(),
        fig7(),
        fig8(),
        fig9(),
        fig10(),
        chain53(),
        mix_contention(),
        mix_memory(),
        mix_cosim(),
        mix_cosim_placement(),
        mix_cosim_memory(),
        mix_failover(),
        mix_failover_frac(),
        open_poisson(),
        open_burst(),
        open_cache(),
        open_cache_skew(),
        strategy_tournament(),
        paper_base(),
    ]
}

/// Looks up a bundled scenario by name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// The names of the bundled scenarios, in registry order.
pub fn names() -> Vec<String> {
    registry().into_iter().map(|s| s.name).collect()
}

/// Exports the bundled scenario `name` as its normalized JSON spec text.
///
/// Every failure is a [`DlbError`] — an unknown name is
/// [`DlbError::NotFound`], a spec that does not validate (e.g. one using an
/// axis its workload does not support) surfaces the validation error — so
/// front ends like `scenario --export` report cleanly instead of panicking.
pub fn export(name: &str) -> Result<String> {
    let spec = find(name).ok_or_else(|| {
        DlbError::not_found(format!(
            "scenario {name:?} (registered: {})",
            names().join(", ")
        ))
    })?;
    spec.validate()?;
    Ok(spec.to_json())
}

fn table(row_header: &str, row_fmt: RowFmt, row_width: usize, cell_width: usize) -> TableStyle {
    TableStyle {
        row_header: row_header.to_string(),
        row_fmt,
        row_width,
        cell_width,
        headers: Vec::new(),
    }
}

/// Figure 6 — relative performance of SP, DP and FP on a single
/// shared-memory node, without data skew, for 16/32/64 processors (SP is the
/// reference).
pub fn fig6() -> ScenarioSpec {
    ScenarioSpec::builder("fig6")
        .title("Figure 6")
        .description("relative performance of SP, DP, FP (shared memory, no skew)")
        .machine(1, 16)
        .strategies([SP, DP, FP])
        .rows(Axis::ProcessorsPerNode, [16.0, 32.0, 64.0])
        .reference(Reference::SamePoint(SP))
        .metric(Metric::Relative)
        .presentation(Presentation::Table(table("procs", RowFmt::Int, 6, 8)))
        .notes(
            "paper: SP = 1.0 (best); DP within a few percent of SP; FP clearly worse,\n\
             and worse with fewer processors (discretization errors).",
        )
        .build()
        .expect("bundled fig6 spec is valid")
}

/// Figure 7 — impact of cost-model errors on Fixed Processing: relative
/// degradation versus error rate (0–30 %) for 8/16/32/64 processors. The
/// reference response time is SP's, as in the paper.
pub fn fig7() -> ScenarioSpec {
    ScenarioSpec::builder("fig7")
        .title("Figure 7")
        .description("impact of cost-model errors on FP (shared memory)")
        .machine(1, 8)
        .strategies([FP])
        .rows(Axis::ErrorRate, [0.0, 0.05, 0.10, 0.20, 0.30])
        .columns(Axis::ProcessorsPerNode, [8.0, 16.0, 32.0, 64.0])
        .reference(Reference::SamePoint(SP))
        .metric(Metric::Relative)
        .presentation(Presentation::Grid(table("error", RowFmt::Percent, 8, 8)))
        .notes(
            "paper: FP degrades as the error rate grows; with few processors the degradation\n\
             explodes past ~20% error, with many processors it grows more steadily.",
        )
        .build()
        .expect("bundled fig7 spec is valid")
}

/// Figure 8 — speed-up of SP, DP and FP on a single shared-memory node from
/// 1 to 64 processors (no skew).
pub fn fig8() -> ScenarioSpec {
    ScenarioSpec::builder("fig8")
        .title("Figure 8")
        .description("speed-up of SP, DP, FP (shared memory, no skew)")
        .machine(1, 1)
        .strategies([SP, DP, FP])
        .rows(Axis::ProcessorsPerNode, [1.0, 8.0, 16.0, 32.0, 48.0, 64.0])
        .reference(Reference::FirstRow)
        .metric(Metric::Speedup)
        .presentation(Presentation::Table(table("procs", RowFmt::Int, 6, 8)))
        .notes(
            "paper: SP and DP show near-linear speed-up to 32 processors and bend beyond\n\
             (memory-hierarchy overhead); FP stays clearly below both.",
        )
        .build()
        .expect("bundled fig8 spec is valid")
}

/// Figure 9 — impact of redistribution skew on Dynamic Processing with 64
/// processors: relative degradation versus Zipf factor 0 → 1 (reference is
/// the unskewed run).
pub fn fig9() -> ScenarioSpec {
    let style = TableStyle {
        headers: vec!["degradation".to_string()],
        ..table("skew", RowFmt::Fixed1, 6, 14)
    };
    ScenarioSpec::builder("fig9")
        .title("Figure 9")
        .description("impact of redistribution skew on DP (64 processors)")
        .machine(1, 64)
        .strategies([DP])
        .rows(Axis::Skew, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        .reference(Reference::FirstRow)
        .metric(Metric::Relative)
        .presentation(Presentation::Table(style))
        .notes(
            "paper: the impact of skew on DP is insignificant (well under 10% even at\n\
             skew factor 1), thanks to high fragmentation and shared activation queues.",
        )
        .build()
        .expect("bundled fig9 spec is valid")
}

/// Figure 10 — relative performance of DP versus FP on 4×8, 4×12 and 4×16
/// hierarchical configurations with redistribution skew 0.6 (DP is the
/// reference), plus the load-balancing traffic of each strategy.
pub fn fig10() -> ScenarioSpec {
    ScenarioSpec::builder("fig10")
        .title("Figure 10")
        .description("relative performance of FP and DP on hierarchical configurations (skew 0.6)")
        .machine(4, 8)
        .options(ExecOptions::with_skew(0.6))
        .strategies([DP, FP])
        .rows(Axis::ProcessorsPerNode, [8.0, 12.0, 16.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Balance(table(
            "config",
            RowFmt::NodesByProcs,
            8,
            8,
        )))
        .notes(
            "paper: FP is 14-39% slower than DP, its load-balancing traffic is 2-4x higher,\n\
             and its processor idle time is significant while DP's is almost null.",
        )
        .build()
        .expect("bundled fig10 spec is valid")
}

/// The §5.3 text experiment — a single maximum pipeline chain of five
/// operators on the 4×8 configuration with skew 0.8; the paper measured
/// roughly 9 MB of load-balancing traffic for FP versus 2.5 MB for DP.
pub fn chain53() -> ScenarioSpec {
    ScenarioSpec::builder("chain53")
        .title("§5.3 experiment")
        .description("5-operator pipeline chain")
        .machine(4, 8)
        .options(ExecOptions::with_skew(0.8))
        .workload(WorkloadSpec::Chain {
            relations: 5,
            build_rows: 20_000,
            probe_rows: 60_000,
        })
        .strategies([DP, FP])
        .rows(Axis::Skew, [0.8])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Chain)
        .build()
        .expect("bundled chain53 spec is valid")
}

/// Inter-query contention — DP versus FP as the number of concurrent
/// queries sharing the 4×8 machine grows, under load-aware placement with
/// mixed priorities and per-query skew profiles. The surveys motivating the
/// mix layer (Mandal & Pal; DynaHash) observe that strategy rankings shift
/// under concurrent competing workloads; this scenario measures exactly
/// that shift.
pub fn mix_contention() -> ScenarioSpec {
    ScenarioSpec::builder("mix-contention")
        .title("Mix contention")
        .description("DP vs FP under N concurrent queries (load-aware placement)")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            queries: 4,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::LoadAware,
            mode: MixMode::Composed,
            priorities: vec![2, 1],
            skews: vec![0.0, 0.3, 0.6, 0.9],
            topology: Vec::new(),
        }))
        .strategies([DP, FP])
        .rows(Axis::ConcurrentQueries, [2.0, 4.0, 6.0, 8.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("queries", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: FP's per-query disadvantage compounds as concurrency grows —\n\
             its longer solo times occupy the shared nodes longer, so every FP query\n\
             also waits longer behind the others.",
        )
        .build()
        .expect("bundled mix-contention spec is valid")
}

/// Inter-query memory admission — six simultaneous queries admitted FCFS
/// onto the whole 4×8 machine while the per-node memory limit shrinks: with
/// generous memory all queries share the machine at once, with tight memory
/// admission serializes them and response times stretch (the first row is
/// the generous-memory baseline).
pub fn mix_memory() -> ScenarioSpec {
    ScenarioSpec::builder("mix-memory")
        .title("Mix memory admission")
        .description("FCFS mix under a shrinking per-node memory limit")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            // Half scale: large enough working sets (a few hundred KB per
            // node and query) for MB-granular admission limits to bite.
            queries: 6,
            relations: 10,
            scale: 0.5,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::Fcfs,
            mode: MixMode::Composed,
            priorities: Vec::new(),
            skews: Vec::new(),
            topology: Vec::new(),
        }))
        .strategies([DP, FP])
        .rows(Axis::MemoryPerNode, [64.0, 8.0, 3.0, 2.0])
        .reference(Reference::FirstRow)
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("mem MB", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: 1.0 while every working set fits. Once the per-node limit\n\
             bites, admission waits appear (wait columns) — and partially serializing\n\
             the mix can even improve MEAN response versus full processor sharing,\n\
             while FP holds memory far longer than DP (its solo runs are slower).",
        )
        .build()
        .expect("bundled mix-memory spec is valid")
}

/// Inter-query co-simulation — the same contention question as
/// `mix-contention`, answered at full fidelity: 2→8 concurrent FCFS queries
/// are interleaved **inside one engine event loop** (query-tagged
/// activations, priority-aware local scheduling, steal decisions that see
/// cross-query load) instead of composing solo runs with the analytic
/// processor-sharing model. The rendering carries, per strategy, both the
/// co-simulated response times and the ratio against the composed model of
/// the *same* mix (`vs comp` columns), so the two fidelities are contrasted
/// row by row.
pub fn mix_cosim() -> ScenarioSpec {
    ScenarioSpec::builder("mix-cosim")
        .title("Mix co-simulation")
        .description("DP vs FP with N concurrent queries interleaved in one event loop")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            queries: 4,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::Fcfs,
            mode: MixMode::CoSimulated,
            priorities: vec![2, 1],
            skews: vec![0.0, 0.3, 0.6, 0.9],
            topology: Vec::new(),
        }))
        .strategies([DP, FP])
        .rows(Axis::ConcurrentQueries, [2.0, 4.0, 6.0, 8.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("queries", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: vs comp < 1 and falling with concurrency — composing solo runs\n\
             OVERestimates contention, because a solo run leaves processors idle (I/O,\n\
             pipeline stalls) that interleaved queries fill; meanwhile FP falls further\n\
             behind DP than the composed model predicts, its static thread allocations\n\
             colliding across queries where DP's shared queues absorb the mix.",
        )
        .build()
        .expect("bundled mix-cosim spec is valid")
}

/// Co-simulated pinning placements — the same concurrency sweep as
/// `mix-cosim`, but under **load-aware pinning**: each query is re-homed
/// onto one SM-node (its placement mask) inside the shared event loop, so
/// pinned queries really collide in their node's queues while other nodes
/// stay untouched. The `vs comp` columns contrast the co-simulation against
/// the analytic composition of the *same* placements, closing the
/// placement corner that was previously analytic-only (DynaHash studies
/// exactly this data-placement question for shared-nothing systems).
pub fn mix_cosim_placement() -> ScenarioSpec {
    ScenarioSpec::builder("mix-cosim-placement")
        .title("Mix co-sim placement")
        .description("DP vs FP with N queries pinned per node inside one event loop")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            queries: 4,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::LoadAware,
            mode: MixMode::CoSimulated,
            priorities: vec![2, 1],
            skews: vec![0.0, 0.3, 0.6, 0.9],
            topology: Vec::new(),
        }))
        .strategies([DP, FP])
        .rows(Axis::ConcurrentQueries, [2.0, 4.0, 6.0, 8.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("queries", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: pinning isolates queries while N <= nodes (vs comp ~ 1, no\n\
             cross-node interference to mis-model), then queries start sharing nodes and\n\
             the composed model drifts from the interleaved truth — idle-time filling\n\
             pushes vs comp below 1 exactly as in the whole-machine mix-cosim scenario.",
        )
        .build()
        .expect("bundled mix-cosim-placement spec is valid")
}

/// Co-simulated memory admission — the `mix-memory` question at full
/// fidelity: six simultaneous FCFS queries on the whole 4×8 machine while
/// the per-node memory limit shrinks, with admission running **inside** the
/// engine event loop (`QueryAdmit`/`QueryRelease` events, head-of-line FCFS
/// queueing against per-node free memory). The first row is the
/// generous-memory baseline; the `vs comp` columns show how far the
/// analytic admission model drifts from the simulated one once waits
/// appear.
pub fn mix_cosim_memory() -> ScenarioSpec {
    ScenarioSpec::builder("mix-cosim-memory")
        .title("Mix co-sim memory")
        .description("co-simulated FCFS admission under a shrinking per-node memory limit")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            // Half scale, like mix-memory: working sets of a few hundred KB
            // per node and query, so MB-granular admission limits bite.
            queries: 6,
            relations: 10,
            scale: 0.5,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::Fcfs,
            mode: MixMode::CoSimulated,
            priorities: Vec::new(),
            skews: Vec::new(),
            topology: Vec::new(),
        }))
        .strategies([DP, FP])
        .rows(Axis::MemoryPerNode, [64.0, 8.0, 3.0, 2.0])
        .reference(Reference::FirstRow)
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("mem MB", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: 1.0 while every working set fits. Once the limit bites, the\n\
             engine's in-loop admission produces real waits (wait columns) — smaller than\n\
             the composed model predicts, because interleaved queries finish (and release\n\
             memory) earlier than the analytic processor-sharing model assumes.",
        )
        .build()
        .expect("bundled mix-cosim-memory spec is valid")
}

/// Failover timing — a four-query co-simulated mix on the 4×8 machine while
/// node 3 crashes, swept over *when* the crash strikes (early, mid-build,
/// late). Cells carry the fault accounting and the fault-free contrast of
/// the same mix, so the rendering reports per-strategy response inflation
/// (`vs clean`), rebalance traffic and redone work. DP's shared activation
/// queues absorb the survivors' extra load; FP's static per-operator thread
/// allocations cannot, so the two strategies degrade differently.
pub fn mix_failover() -> ScenarioSpec {
    ScenarioSpec::builder("mix-failover")
        .title("Mix failover timing")
        .description("DP vs FP while node 3 crashes mid-mix, swept over the failure time")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            queries: 4,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::Fcfs,
            mode: MixMode::CoSimulated,
            priorities: vec![2, 1],
            skews: vec![0.0, 0.3, 0.6, 0.9],
            topology: vec![TopologyEvent::fail(0.15, 3)],
        }))
        .strategies([DP, FP])
        .rows(Axis::FailureTime, [0.05, 0.15, 0.4])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("fail t", RowFmt::Fixed2, 8, 8)))
        .notes(
            "expectation: the earlier the crash, the more pending work is re-homed and\n\
             the larger the response inflation (vs clean); a crash after a query's\n\
             builds finish only re-homes probe activations. FP inflates more than DP —\n\
             its static allocations concentrate the dead node's share on fewer threads.",
        )
        .build()
        .expect("bundled mix-failover spec is valid")
}

/// Failover extent — the same co-simulated mix while 1, 2 or 3 of the 4
/// nodes crash simultaneously mid-run (the [`Axis::FailedNodes`] sweep
/// replaces the stream with that many failures at the base stream's event
/// time, highest node indices first). Degradation accounting shows the
/// rebalance traffic and response inflation growing with the failed
/// fraction, down to a single surviving node.
pub fn mix_failover_frac() -> ScenarioSpec {
    ScenarioSpec::builder("mix-failover-frac")
        .title("Mix failover extent")
        .description("DP vs FP while 1-3 of 4 nodes crash mid-mix")
        .machine(4, 8)
        .workload(WorkloadSpec::Mix(MixSpec {
            queries: 4,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::Fcfs,
            mode: MixMode::CoSimulated,
            priorities: vec![2, 1],
            skews: vec![0.0, 0.3, 0.6, 0.9],
            topology: vec![TopologyEvent::fail(0.15, 3)],
        }))
        .strategies([DP, FP])
        .rows(Axis::FailedNodes, [1.0, 2.0, 3.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Mix(table("failed", RowFmt::Int, 8, 8)))
        .notes(
            "expectation: rebalance traffic grows with the failed fraction — each crash\n\
             re-homes its queued activations and build state onto the shrinking survivor\n\
             set, and with 3 of 4 nodes down the whole mix serializes onto one node's\n\
             processors. Response inflation is noisier: re-homing reshapes the\n\
             interleaving, so individual points can even beat the clean run.",
        )
        .build()
        .expect("bundled mix-failover-frac spec is valid")
}

/// Open-system arrivals — DP versus FP on a 2×4 machine under a seeded
/// Poisson stream, swept over the offered arrival rate. Queries draw from a
/// small template pool, wait in the engine's FCFS admission queue for a lane
/// slot, and retire on completion; the rendering reports per-strategy
/// response percentiles (p50/p95/p99), mean admission wait, mean slowdown
/// against the solo baseline, and sustained throughput. As the offered rate
/// approaches saturation, queueing delay — not service time — dominates the
/// tail, and FP's longer service times push it into saturation first.
pub fn open_poisson() -> ScenarioSpec {
    ScenarioSpec::builder("open-poisson")
        .title("Open Poisson arrivals")
        .description("DP vs FP under a Poisson arrival stream, swept over the offered rate")
        .machine(2, 4)
        .workload(WorkloadSpec::Open(OpenSpec {
            kind: ArrivalKind::Poisson,
            rate_qps: 20.0,
            burstiness: 0.0,
            queries: 120,
            concurrency: 4,
            priority_classes: 1,
            templates: 3,
            relations: 8,
            scale: 0.05,
            seed: 0xD1B_1996,
            ..OpenSpec::default()
        }))
        .strategies([DP, FP])
        .rows(Axis::ArrivalRate, [10.0, 20.0, 40.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Open(table("rate", RowFmt::Fixed1, 8, 8)))
        .notes(
            "expectation: at low offered rates both strategies serve near their solo\n\
             times (slowdown ~ 1, waits ~ 0). As the rate climbs toward saturation the\n\
             admission queue builds, p95/p99 stretch far ahead of p50, and FP — whose\n\
             service times are longer — saturates earlier, inflating every percentile.",
        )
        .build()
        .expect("bundled open-poisson spec is valid")
}

/// Open-system burstiness — the same machine and template pool as
/// `open-poisson` at a fixed mean rate, swept over the burstiness of a
/// two-state MMPP arrival process (0 = Poisson, higher = longer and hotter
/// bursts at the same mean rate). Burstiness moves the tail percentiles
/// while the mean rate — and so the long-run utilization — stays fixed.
pub fn open_burst() -> ScenarioSpec {
    ScenarioSpec::builder("open-burst")
        .title("Open bursty arrivals")
        .description("DP vs FP under MMPP bursts at a fixed mean rate, swept over burstiness")
        .machine(2, 4)
        .workload(WorkloadSpec::Open(OpenSpec {
            kind: ArrivalKind::Bursty,
            rate_qps: 20.0,
            burstiness: 0.5,
            queries: 120,
            concurrency: 4,
            priority_classes: 1,
            templates: 3,
            relations: 8,
            scale: 0.05,
            seed: 0xD1B_1996,
            ..OpenSpec::default()
        }))
        .strategies([DP, FP])
        .rows(Axis::Burstiness, [0.0, 0.5, 0.8])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Open(table("burst", RowFmt::Fixed2, 8, 8)))
        .notes(
            "expectation: the mean rate is fixed, so mean-centric metrics move little —\n\
             the damage is in the tail. Bursts overrun the lane slots, queueing delay\n\
             concentrates inside burst windows, and p99 grows with burstiness while p50\n\
             barely moves; the burst queue punishes FP's longer service times hardest.",
        )
        .build()
        .expect("bundled open-burst spec is valid")
}

/// Open-system front end — the `open-poisson` machine and template pool with
/// a result cache and single-flight coalescing above the engine, swept over
/// the offered arrival rate. Repeats within the TTL window are answered from
/// the cache at the (small) fan-out cost, and concurrent identical arrivals
/// ride one engine execution as followers; the rendering adds the per-point
/// hit ratio and the effective-QPS multiplier (completed / engine queries).
pub fn open_cache() -> ScenarioSpec {
    ScenarioSpec::builder("open-cache")
        .title("Open front-end cache")
        .description("DP vs FP behind a result cache + coalescing, swept over the offered rate")
        .machine(2, 4)
        .workload(WorkloadSpec::Open(OpenSpec {
            kind: ArrivalKind::Poisson,
            rate_qps: 20.0,
            burstiness: 0.0,
            queries: 120,
            concurrency: 4,
            priority_classes: 1,
            templates: 3,
            relations: 8,
            scale: 0.05,
            seed: 0xD1B_1996,
            cache_capacity: 4,
            cache_ttl_secs: 0.8,
            coalesce: true,
            fanout_cost_secs: 0.002,
            ..OpenSpec::default()
        }))
        .strategies([DP, FP])
        .rows(Axis::ArrivalRate, [10.0, 20.0, 40.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Open(table("rate", RowFmt::Fixed1, 8, 8)))
        .notes(
            "expectation: with the template pool cached for most of each TTL window,\n\
             over half the stream is answered at the fan-out cost — p50 collapses to\n\
             milliseconds while p95/p99 stay engine-bound. The effective-QPS\n\
             multiplier grows with the offered rate (more arrivals share each engine\n\
             execution), so the engine sees a near-constant residual stream while\n\
             offered load quadruples, and FP's saturation point moves out with it.",
        )
        .build()
        .expect("bundled open-cache spec is valid")
}

/// Open-system hot-template skew — a single-entry cache with an unbounded
/// TTL over a larger template pool, swept over the probability that an
/// arrival targets the hot template 0. Skew concentrates arrivals on the one
/// cached template, so the hit ratio tracks the skew and the residual stream
/// the engine must execute shifts toward the cold templates — moving the
/// DP-vs-FP balance on what remains.
pub fn open_cache_skew() -> ScenarioSpec {
    ScenarioSpec::builder("open-cache-skew")
        .title("Open cache under template skew")
        .description("DP vs FP behind a hot-template cache, swept over template skew")
        .machine(2, 4)
        .workload(WorkloadSpec::Open(OpenSpec {
            kind: ArrivalKind::Poisson,
            rate_qps: 20.0,
            burstiness: 0.0,
            queries: 120,
            concurrency: 4,
            priority_classes: 1,
            templates: 6,
            relations: 8,
            scale: 0.05,
            seed: 0xD1B_1996,
            cache_capacity: 1,
            coalesce: true,
            fanout_cost_secs: 0.002,
            ..OpenSpec::default()
        }))
        .strategies([DP, FP])
        .rows(Axis::TemplateSkew, [0.0, 0.5, 0.9])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Open(table("t-skew", RowFmt::Fixed2, 8, 8)))
        .notes(
            "expectation: the single cache entry pins whichever template ran last, so\n\
             the hit ratio tracks the skew — the cold templates contend for the slot\n\
             at t-skew 0, while at 0.9 the hot template owns it and most of the\n\
             stream retires at the fan-out cost. The engine's residual work shifts\n\
             to the cold templates, and the DP-vs-FP ratio moves with the residual\n\
             mix rather than the offered one.",
        )
        .build()
        .expect("bundled open-cache-skew spec is valid")
}

/// Strategy tournament — every queue-based policy of the registered zoo side
/// by side on the paper's 4×8 machine, swept over redistribution skew, with
/// DP as the reference column. The error-rate dimension rides in the
/// strategy list as FP's two error realizations (`FP` / `FP@0.2` / `FP@0.5`),
/// so one table ranks the paper's strategies against the related-work
/// policies (Diffusion nearest-neighbour pulls, Threshold sender-initiated
/// pushes) under both dimensions the paper varies. SP is absent by
/// construction: it only defines itself on a single shared-memory node.
pub fn strategy_tournament() -> ScenarioSpec {
    ScenarioSpec::builder("strategy-tournament")
        .title("Strategy tournament")
        .description("the registered policy zoo ranked across skew, DP as reference")
        .machine(4, 8)
        .strategies([
            DP,
            FP,
            Strategy::fixed(0.2),
            Strategy::fixed(0.5),
            DIFFUSION,
            THRESHOLD,
        ])
        .rows(Axis::Skew, [0.0, 0.3, 0.6, 0.9])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .presentation(Presentation::Table(table("skew", RowFmt::Fixed1, 6, 10)))
        .notes(
            "expectation: DP = 1.0 by construction. FP trails and degrades with its\n\
             error rate; Diffusion tracks DP at low skew but pays for ring-limited\n\
             providers as skew concentrates load; Threshold's pushes help under heavy\n\
             skew but its passive receivers forgo DP's demand-driven steals.",
        )
        .build()
        .expect("bundled strategy-tournament spec is valid")
}

/// The paper's base hierarchical configuration (4×8, no skew), DP versus FP:
/// the nightly 1-vs-auto-thread determinism check and a template for user
/// specs.
pub fn paper_base() -> ScenarioSpec {
    ScenarioSpec::builder("paper-base")
        .title("Paper base configuration")
        .description("DP vs FP on the paper's 4x8 hierarchical base system")
        .machine(4, 8)
        .strategies([DP, FP])
        .rows(Axis::Skew, [0.0])
        .reference(Reference::SamePoint(DP))
        .metric(Metric::Relative)
        .build()
        .expect("bundled paper-base spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bundled_spec_validates_and_has_a_unique_name() {
        let specs = registry();
        assert!(specs.len() >= 7);
        let mut names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        for spec in &specs {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn find_resolves_every_registered_name() {
        for name in names() {
            let spec = find(&name).unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn mix_scenarios_cover_the_new_axes() {
        assert_eq!(mix_contention().rows.axis, Axis::ConcurrentQueries);
        assert!(mix_contention().workload.is_mix());
        assert!(matches!(
            mix_contention().presentation,
            Presentation::Mix(_)
        ));
        assert_eq!(mix_memory().rows.axis, Axis::MemoryPerNode);
        assert!(mix_memory().workload.is_mix());
        // The co-simulated corner scenarios: pinning placements and memory
        // admission now run inside the event loop.
        let placement = mix_cosim_placement();
        let WorkloadSpec::Mix(mix) = &placement.workload else {
            panic!("mix-cosim-placement is a mix");
        };
        assert_eq!(mix.mode, MixMode::CoSimulated);
        assert_eq!(mix.policy, MixPolicy::LoadAware);
        let memory = mix_cosim_memory();
        assert_eq!(memory.rows.axis, Axis::MemoryPerNode);
        let WorkloadSpec::Mix(mix) = &memory.workload else {
            panic!("mix-cosim-memory is a mix");
        };
        assert_eq!(mix.mode, MixMode::CoSimulated);
        assert_eq!(mix.policy, MixPolicy::Fcfs);
    }

    #[test]
    fn open_scenarios_cover_the_arrival_axes() {
        let poisson = open_poisson();
        assert_eq!(poisson.rows.axis, Axis::ArrivalRate);
        assert!(poisson.workload.is_open());
        assert!(matches!(poisson.presentation, Presentation::Open(_)));
        let WorkloadSpec::Open(open) = &poisson.workload else {
            panic!("open-poisson is open");
        };
        assert_eq!(open.kind, ArrivalKind::Poisson);
        assert!(open.queries >= 100, "a meaningful arrival stream");
        let burst = open_burst();
        assert_eq!(burst.rows.axis, Axis::Burstiness);
        let WorkloadSpec::Open(open) = &burst.workload else {
            panic!("open-burst is open");
        };
        assert_eq!(open.kind, ArrivalKind::Bursty);
        // The arrival-axis scenarios keep the front end inert so their
        // golden captures stay on the historical engine path.
        for spec in [open_poisson(), open_burst()] {
            let WorkloadSpec::Open(open) = &spec.workload else {
                panic!("{} is open", spec.name);
            };
            assert!(!open.frontend().enabled(), "{} grew a front end", spec.name);
            assert_eq!(open.template_skew, 0.0);
        }
    }

    #[test]
    fn frontend_scenarios_cover_the_cache_and_skew_axes() {
        let cache = open_cache();
        assert_eq!(cache.rows.axis, Axis::ArrivalRate);
        let WorkloadSpec::Open(open) = &cache.workload else {
            panic!("open-cache is open");
        };
        assert!(open.frontend().enabled());
        assert!(
            open.cache_capacity >= open.templates,
            "cache holds the pool"
        );
        assert!(open.cache_ttl_secs.is_finite(), "hit ratio is rate-driven");
        assert!(open.coalesce);
        let skew = open_cache_skew();
        assert_eq!(skew.rows.axis, Axis::TemplateSkew);
        let WorkloadSpec::Open(open) = &skew.workload else {
            panic!("open-cache-skew is open");
        };
        assert_eq!(open.cache_capacity, 1, "one slot pins the hot template");
        assert_eq!(open.cache_ttl_secs, f64::INFINITY);
        assert!(open.templates > 3, "cold templates outnumber the cache");
    }

    #[test]
    fn export_returns_errors_instead_of_panicking() {
        assert!(export("fig6").is_ok());
        let err = export("no-such-scenario").unwrap_err();
        assert!(matches!(err, DlbError::NotFound(_)), "{err}");
        assert!(err.to_string().contains("registered"));
    }

    #[test]
    fn figures_cover_the_papers_axes() {
        assert_eq!(fig6().rows.axis, Axis::ProcessorsPerNode);
        assert_eq!(fig7().rows.axis, Axis::ErrorRate);
        assert_eq!(
            fig7().columns.as_ref().unwrap().axis,
            Axis::ProcessorsPerNode
        );
        assert_eq!(fig8().metric, Metric::Speedup);
        assert_eq!(fig9().rows.axis, Axis::Skew);
        assert_eq!(fig10().machine.nodes, 4);
        assert!(matches!(chain53().workload, WorkloadSpec::Chain { .. }));
    }
}
