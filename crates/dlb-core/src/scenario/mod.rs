//! Declarative scenario API: typed, serializable experiment descriptions and
//! a single driver that runs them.
//!
//! The paper's evaluation (§5) is a grid of scenarios — strategy × skew ×
//! machine shape × workload. Instead of one hand-rolled binary per figure,
//! a [`ScenarioSpec`] describes a scenario declaratively: machine shape,
//! workload, execution options, strategy set, up to two sweep
//! [`Axis`]es, the [`Reference`] each run is measured against, the
//! [`Metric`], and a [`Presentation`]. The bundled [`registry`] expresses
//! every figure of the paper as a spec; arbitrary specs are built with
//! [`ScenarioSpec::builder`] or loaded from JSON files
//! ([`ScenarioSpec::from_json`]), which is how the evaluation grows new
//! workloads without new code.
//!
//! [`run_scenario`] owns the whole execution: it expands the sweep grid,
//! fans points out across worker threads, shares one workspace-level
//! [`RunCache`] across every point (so e.g. a reference strategy is
//! simulated once per machine shape, not once per row), and returns a
//! [`ScenarioReport`] that renders to the figure's exact text table
//! ([`render_text`]) or to machine-readable JSON/CSV ([`render_json`],
//! [`render_csv`]).
//!
//! Beyond the paper's single-query-at-a-time figures, a
//! [`WorkloadSpec::Mix`] workload describes an *inter-query* scenario: N
//! concurrent queries with arrival offsets, priorities and per-query skew
//! profiles, scheduled onto the shared SM-nodes by an admission/placement
//! policy (see [`dlb_exec::mix`]). Mix scenarios sweep the new
//! [`Axis::ConcurrentQueries`] and [`Axis::MemoryPerNode`] axes, and their
//! cells carry the per-query schedule ([`StrategyCell::mix`]).
//!
//! Co-simulated mixes additionally support **fault injection**: a
//! [`MixSpec`] may carry a deterministic topology-event stream (node
//! failures, drains and re-joins at fixed simulated times, see
//! [`dlb_exec::topology`]), swept with [`Axis::FailureTime`] (when does the
//! node die) or [`Axis::FailedNodes`] (how much of the machine dies).
//! Faulted cells carry the degradation accounting
//! ([`StrategyCell::faults`]) and the fault-free schedule of the same mix
//! ([`StrategyCell::mix_fault_free`]) for response-inflation contrasts.
//!
//! A [`WorkloadSpec::Open`] workload runs the engine as an *open system*:
//! queries arrive over a seeded stochastic process (`dlb-traffic`), wait in
//! a FCFS admission queue for one of `concurrency` lane slots, and retire on
//! completion, streaming their latencies into constant-size sketches. Open
//! scenarios sweep [`Axis::ArrivalRate`] and [`Axis::Burstiness`], and their
//! cells carry the percentile report ([`StrategyCell::open`]).

mod registry;
mod render;
mod serde;
mod spec;

pub use registry::{export, find, names, registry};
pub use render::{fmt_ratio, render_csv, render_json, render_text};
pub use spec::{
    Axis, MachineSpec, Metric, MixSpec, OpenSpec, Presentation, Reference, RowFmt, ScenarioSpec,
    ScenarioSpecBuilder, Sweep, TableStyle, WorkloadSpec,
};

use crate::experiment::{Experiment, PlanRun, RunCache};
use crate::summary::{relative_performance, speedup, Summary};
use crate::system::HierarchicalSystem;
use crate::workload::{CompiledWorkload, QueryMix};
use dlb_common::{QueryId, RelationId, Result};
use dlb_exec::{
    ExecOptions, FaultStats, MixMode, MixPolicy, MixSchedule, OpenReport, Strategy, TopologyEvent,
};
use dlb_query::generator::WorkloadParams;
use dlb_query::jointree::JoinTree;
use dlb_query::optree::OperatorTree;
use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};
use dlb_traffic::ArrivalSpec;
use rayon::prelude::*;
use std::sync::Arc;

/// One measured strategy at one sweep point.
#[derive(Debug, Clone)]
pub struct StrategyCell {
    /// The strategy actually executed (error-rate axes materialize here).
    pub strategy: Strategy,
    /// The per-plan runs (shared with the scenario's run cache). For mix
    /// workloads these are the per-query *solo* runs the schedule was
    /// derived from.
    pub runs: Arc<Vec<PlanRun>>,
    /// Aggregate statistics of the runs.
    pub summary: Summary,
    /// The spec's metric evaluated against the spec's reference.
    pub value: f64,
    /// The inter-query schedule of this strategy at this point (mix
    /// workloads only): per-query and aggregate response times under
    /// shared-node contention.
    pub mix: Option<MixSchedule>,
    /// The analytic (composed) schedule of the same mix, carried alongside
    /// a co-simulated `mix` schedule so renderings can contrast the two
    /// fidelities. `None` for composed-mode and non-mix cells.
    pub mix_composed: Option<MixSchedule>,
    /// Degradation accounting of the injected topology events. `Some`
    /// exactly for cells of a mix carrying a non-empty topology stream.
    pub faults: Option<FaultStats>,
    /// The fault-free schedule of the *same* mix (same queries, same
    /// placements, no topology events), carried alongside a faulted `mix`
    /// schedule so renderings can report per-query response inflation.
    pub mix_fault_free: Option<MixSchedule>,
    /// The open-system report of this strategy at this point (open workloads
    /// only): latency percentiles, admission waits, slowdowns and achieved
    /// throughput over the whole arrival stream. For open cells `runs` holds
    /// the per-template *solo* runs the slowdown baseline came from.
    pub open: Option<OpenReport>,
}

/// All strategies measured at one sweep point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The row-axis value.
    pub row: f64,
    /// The column-axis value (grids only).
    pub col: Option<f64>,
    /// One cell per strategy, in spec order.
    pub cells: Vec<StrategyCell>,
}

/// Shape of a compiled chain plan (chain workloads only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainShape {
    /// Total operators of the plan.
    pub operators: usize,
    /// Number of pipeline chains.
    pub chains: usize,
    /// Length of the longest chain, in operators.
    pub longest_chain: usize,
}

/// The outcome of [`run_scenario`]: every point of the sweep grid in
/// row-major order, ready for rendering.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The spec that produced this report.
    pub spec: ScenarioSpec,
    /// Results in row-major order (`rows.values × columns.values`).
    pub points: Vec<PointResult>,
    /// The compiled chain shape (chain workloads only).
    pub chain: Option<ChainShape>,
}

/// Runs a scenario: expands the sweep grid, executes every (point ×
/// strategy) run with one shared [`RunCache`], computes the reference
/// metric, and returns the report.
///
/// Points are independent and are fanned out across worker threads (they
/// share the worker budget with the per-plan fan-out of
/// [`Experiment::run`]); results are gathered in grid order, so rendering is
/// bit-identical whatever the thread count.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport> {
    spec.validate()?;
    let cache = Arc::new(RunCache::new());

    let col_values: Vec<Option<f64>> = match &spec.columns {
        Some(cols) => cols.values.iter().copied().map(Some).collect(),
        None => vec![None],
    };
    let grid: Vec<(f64, Option<f64>)> = spec
        .rows
        .values
        .iter()
        .flat_map(|&row| col_values.iter().map(move |&col| (row, col)))
        .collect();

    // Workloads depend on the system only through its node count (operator
    // homes) and the cost configuration (constant across a sweep), and on
    // the axis-resolved workload parameters (a concurrent-queries sweep
    // resizes a mix per point), so they are compiled once per distinct
    // (node count, effective workload), up front.
    type Compiled = (Arc<CompiledWorkload>, Option<ChainShape>);
    let mut compiled: Vec<((u32, WorkloadSpec), Compiled)> = Vec::new();
    for &(row, col) in &grid {
        let (machine, options, workload) = point_config(spec, row, col);
        let key = (machine.nodes, workload);
        if !compiled.iter().any(|(k, _)| *k == key) {
            let system = point_system(&machine, options);
            let c = compile_workload(&key.1, &system)?;
            compiled.push((key, c));
        }
    }
    let lookup = |nodes: u32, workload: &WorkloadSpec| -> &Compiled {
        compiled
            .iter()
            .find(|(k, _)| k.0 == nodes && k.1 == *workload)
            .map(|(_, c)| c)
            .expect("every point's workload was compiled")
    };

    // Execute the grid: every (point × strategy) run, plus the same-point
    // reference when one is configured. Mix workloads run through the
    // inter-query scheduler; their cells carry the schedule (plus, in
    // co-simulated mode, the composed contrast schedule) alongside the
    // per-query solo runs.
    type RawCell = (
        Strategy,
        Arc<Vec<PlanRun>>,
        Option<MixSchedule>,
        Option<MixSchedule>,
        Option<FaultStats>,
        Option<MixSchedule>,
        Option<OpenReport>,
    );
    type RawPoint = (
        Vec<RawCell>,
        Option<(Arc<Vec<PlanRun>>, Option<MixSchedule>, Option<OpenReport>)>,
    );
    let raw: Result<Vec<RawPoint>> = grid
        .par_iter()
        .map(|&(row, col)| {
            let (machine, options, workload_spec) = point_config(spec, row, col);
            let system = point_system(&machine, options);
            let (workload, _) = lookup(machine.nodes, &workload_spec);
            let experiment =
                Experiment::with_cache(system, Arc::clone(workload), Arc::clone(&cache));
            let mix: Option<(QueryMix, MixPolicy, MixMode, Vec<TopologyEvent>)> =
                match &workload_spec {
                    WorkloadSpec::Mix(m) => Some((
                        QueryMix::new(Arc::clone(workload), m.entries(m.queries, options.skew))?,
                        m.policy,
                        m.mode,
                        m.topology.clone(),
                    )),
                    _ => None,
                };
            let open: Option<(ArrivalSpec, usize, dlb_exec::FrontendConfig)> = match &workload_spec
            {
                WorkloadSpec::Open(o) => Some((o.arrivals(), o.concurrency, o.frontend())),
                _ => None,
            };
            let run_one = |s: Strategy| -> Result<RawCell> {
                if let Some((arrivals, concurrency, frontend)) = &open {
                    let or =
                        experiment.run_open_with_frontend(arrivals, *concurrency, *frontend, s)?;
                    return Ok((s, or.solo, None, None, None, None, Some(or.report)));
                }
                match &mix {
                    None => experiment
                        .run(s)
                        .map(|r| (s, r, None, None, None, None, None)),
                    Some((query_mix, policy, mode, topology)) => {
                        let mr = experiment
                            .run_mix_with_topology(query_mix, *policy, *mode, s, topology)?;
                        Ok((
                            s,
                            mr.solo,
                            Some(mr.schedule),
                            mr.composed,
                            mr.faults,
                            mr.fault_free,
                            None,
                        ))
                    }
                }
            };
            let runs: Result<Vec<RawCell>> = spec
                .strategies
                .iter()
                .map(|&s| run_one(strategy_at(s, spec, row, col)))
                .collect();
            let reference = match spec.reference {
                Reference::SamePoint(r) => {
                    let (_, runs, schedule, _, _, _, open_report) =
                        run_one(strategy_at(r, spec, row, col))?;
                    Some((runs, schedule, open_report))
                }
                Reference::FirstRow => None,
            };
            Ok((runs?, reference))
        })
        .collect();
    let raw = raw?;

    // Metric pass: resolve each cell's reference and evaluate the metric.
    let ncols = col_values.len();
    let points: Vec<PointResult> = grid
        .iter()
        .enumerate()
        .map(|(idx, &(row, col))| {
            let (runs, same_point_ref) = &raw[idx];
            let cells = runs
                .iter()
                .enumerate()
                .map(
                    |(si, (strategy, r, schedule, composed, faults, fault_free, open))| {
                        let (reference, ref_schedule, ref_open): (
                            &Arc<Vec<PlanRun>>,
                            &Option<MixSchedule>,
                            &Option<OpenReport>,
                        ) = match spec.reference {
                            Reference::SamePoint(_) => {
                                let (runs, sched, op) =
                                    same_point_ref.as_ref().expect("reference was computed");
                                (runs, sched, op)
                            }
                            // Row-major order: the first row's point with the
                            // same column index.
                            Reference::FirstRow => {
                                let cell = &raw[idx % ncols].0[si];
                                (&cell.1, &cell.2, &cell.6)
                            }
                        };
                        // Open points compare mean response times of the whole
                        // arrival stream; mix points compare end-to-end
                        // (multi-query) response times; plain points compare
                        // the per-plan runs.
                        let value = match (open, ref_open, schedule, ref_schedule) {
                            (Some(o), Some(ro), ..) => open_metric(spec.metric, o, ro),
                            (_, _, Some(s), Some(rs)) => mix_metric(spec.metric, s, rs),
                            _ => match spec.metric {
                                Metric::Relative => relative_performance(r, reference),
                                Metric::Speedup => speedup(r, reference),
                            },
                        };
                        StrategyCell {
                            strategy: *strategy,
                            runs: Arc::clone(r),
                            summary: Summary::from_runs(r),
                            value,
                            mix: schedule.clone(),
                            mix_composed: composed.clone(),
                            faults: *faults,
                            mix_fault_free: fault_free.clone(),
                            open: open.clone(),
                        }
                    },
                )
                .collect();
            PointResult { row, col, cells }
        })
        .collect();

    let chain = compiled
        .iter()
        .find_map(|(_, (_, shape))| *shape)
        .filter(|_| matches!(spec.workload, WorkloadSpec::Chain { .. }));

    Ok(ScenarioReport {
        spec: spec.clone(),
        points,
        chain,
    })
}

/// Builds the experiment of a scenario's *base* point (no axis applied):
/// the set-up the repository benchmark (`bench/`) times as `setup_s`. For
/// mix workloads this is an experiment over the mix's inner compiled
/// workload.
pub fn base_experiment(spec: &ScenarioSpec) -> Result<Experiment> {
    spec.validate()?;
    let system = point_system(&spec.machine, spec.options);
    let (workload, _) = compile_workload(&spec.workload, &system)?;
    Ok(Experiment::with_cache(
        system,
        workload,
        Arc::new(RunCache::new()),
    ))
}

/// The system of one sweep point: machine shape, optional memory override
/// and execution options.
fn point_system(machine: &MachineSpec, options: ExecOptions) -> HierarchicalSystem {
    let mut system = HierarchicalSystem::hierarchical(machine.nodes, machine.processors_per_node)
        .with_options(options);
    if let Some(mb) = machine.memory_per_node_mb {
        system = system.with_memory_per_node(mb * 1024 * 1024);
    }
    system
}

/// Mean per-query response-time ratio of one mix schedule against a
/// reference schedule (queries are matched by mix index; schedules of
/// different sizes are incomparable and yield NaN — `validate` rejects the
/// spec shapes that could produce them).
fn mix_relative(runs: &MixSchedule, reference: &MixSchedule) -> f64 {
    if runs.queries.len() != reference.queries.len() {
        return f64::NAN;
    }
    let ratios: Vec<f64> = runs
        .queries
        .iter()
        .zip(&reference.queries)
        .filter(|(_, r)| r.response_secs > 0.0)
        .map(|(q, r)| q.response_secs / r.response_secs)
        .collect();
    if ratios.is_empty() {
        return f64::NAN;
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// The spec metric evaluated over two open-system reports: the ratio of
/// mean response times over the whole arrival stream (or its inverse for
/// speed-up). Empty streams yield NaN.
fn open_metric(metric: Metric, report: &OpenReport, reference: &OpenReport) -> f64 {
    let ref_mean = reference.response.mean();
    if ref_mean <= 0.0 || ref_mean.is_nan() {
        return f64::NAN;
    }
    let ratio = report.response.mean() / ref_mean;
    match metric {
        Metric::Relative => ratio,
        Metric::Speedup => {
            if ratio > 0.0 {
                1.0 / ratio
            } else {
                f64::NAN
            }
        }
    }
}

/// The spec metric evaluated over two mix schedules.
fn mix_metric(metric: Metric, runs: &MixSchedule, reference: &MixSchedule) -> f64 {
    match metric {
        Metric::Relative => mix_relative(runs, reference),
        Metric::Speedup => {
            let inverse = mix_relative(runs, reference);
            if inverse > 0.0 {
                1.0 / inverse
            } else {
                f64::NAN
            }
        }
    }
}

/// The machine shape, options and effective workload in force at one sweep
/// point.
fn point_config(
    spec: &ScenarioSpec,
    row: f64,
    col: Option<f64>,
) -> (MachineSpec, ExecOptions, WorkloadSpec) {
    let mut machine = spec.machine;
    let mut options = spec.options;
    let mut workload = spec.workload.clone();
    let mut apply = |axis: Axis, v: f64| match axis {
        Axis::Skew => options.skew = v,
        Axis::Nodes => machine.nodes = v as u32,
        Axis::ProcessorsPerNode => machine.processors_per_node = v as u32,
        Axis::ErrorRate => {} // applied to the strategies, not the machine
        Axis::MemoryPerNode => machine.memory_per_node_mb = Some(v as u64),
        Axis::ConcurrentQueries => {
            if let WorkloadSpec::Mix(mix) = &mut workload {
                mix.queries = v as usize;
            }
        }
        // Re-time every event of the base stream to the row value: the same
        // faults strike earlier or later in the mix's life.
        Axis::FailureTime => {
            if let WorkloadSpec::Mix(mix) = &mut workload {
                for ev in &mut mix.topology {
                    ev.at_secs = v;
                }
            }
        }
        // Replace the stream with `v` simultaneous crash failures at the
        // base stream's first event time, taking the highest node indices
        // first (validation guarantees at least one survivor).
        Axis::FailedNodes => {
            if let WorkloadSpec::Mix(mix) = &mut workload {
                let at = mix.topology.first().map_or(0.0, |e| e.at_secs);
                let nodes = machine.nodes as usize;
                mix.topology = (0..v as usize)
                    .map(|i| TopologyEvent::fail(at, nodes - 1 - i))
                    .collect();
            }
        }
        Axis::ArrivalRate => {
            if let WorkloadSpec::Open(open) = &mut workload {
                open.rate_qps = v;
            }
        }
        Axis::Burstiness => {
            if let WorkloadSpec::Open(open) = &mut workload {
                open.burstiness = v;
            }
        }
        Axis::TemplateSkew => {
            if let WorkloadSpec::Open(open) = &mut workload {
                open.template_skew = v;
            }
        }
    };
    apply(spec.rows.axis, row);
    if let (Some(cols), Some(v)) = (&spec.columns, col) {
        apply(cols.axis, v);
    }
    (machine, options, workload)
}

/// The strategy actually executed at one sweep point: an error-rate axis
/// materializes into every strategy of the set that declares an
/// `error_rate` parameter (FP today; [`Strategy::with_param`] is a no-op
/// for the rest, so DP/SP columns pass through unchanged).
fn strategy_at(strategy: Strategy, spec: &ScenarioSpec, row: f64, col: Option<f64>) -> Strategy {
    let rate = if spec.rows.axis == Axis::ErrorRate {
        Some(row)
    } else {
        spec.columns
            .as_ref()
            .filter(|c| c.axis == Axis::ErrorRate)
            .and(col)
    };
    match rate {
        Some(error_rate) => strategy.with_param("error_rate", error_rate),
        None => strategy,
    }
}

/// Compiles the workload of a spec for one system. Mix workloads compile
/// their inner generated workload (the per-query scheduling descriptors are
/// applied later, when the [`QueryMix`] of a point is built).
fn compile_workload(
    workload: &WorkloadSpec,
    system: &HierarchicalSystem,
) -> Result<(Arc<CompiledWorkload>, Option<ChainShape>)> {
    match workload {
        WorkloadSpec::Generated {
            queries,
            relations,
            scale,
            seed,
        } => {
            let params = WorkloadParams {
                queries: *queries,
                relations_per_query: *relations,
                scale: *scale,
                skew: 0.0,
                seed: *seed,
            };
            Ok((Arc::new(CompiledWorkload::generate(params, system)?), None))
        }
        WorkloadSpec::Chain {
            relations,
            build_rows,
            probe_rows,
        } => {
            let (workload, shape) =
                chain_workload(*relations, *build_rows, *probe_rows, system.nodes())?;
            Ok((Arc::new(workload), Some(shape)))
        }
        WorkloadSpec::Mix(mix) => {
            let params = WorkloadParams {
                queries: mix.queries,
                relations_per_query: mix.relations,
                scale: mix.scale,
                skew: 0.0,
                seed: mix.seed,
            };
            Ok((Arc::new(CompiledWorkload::generate(params, system)?), None))
        }
        // Open workloads compile their template pool; the arrival stream
        // draws from it at run time.
        WorkloadSpec::Open(open) => {
            let params = WorkloadParams {
                queries: open.templates,
                relations_per_query: open.relations,
                scale: open.scale,
                skew: 0.0,
                seed: open.seed,
            };
            Ok((Arc::new(CompiledWorkload::generate(params, system)?), None))
        }
    }
}

/// Builds the §5.3 pipeline-chain workload: a right-deep join tree over
/// `relations` relations — every hash table is built from a base relation
/// and the probing relation streams through `relations - 1` probes, one
/// maximum pipeline chain.
fn chain_workload(
    relations: usize,
    build_rows: u64,
    probe_rows: u64,
    nodes: u32,
) -> Result<(CompiledWorkload, ChainShape)> {
    // Selectivity keeping every intermediate result at ~probe_rows.
    let sel = 1.0 / build_rows.max(1) as f64;
    let mut tree = JoinTree::leaf(RelationId::new(relations as u32 - 1), probe_rows);
    for i in (0..relations as u32 - 1).rev() {
        tree = JoinTree::join(JoinTree::leaf(RelationId::new(i), build_rows), tree, sel);
    }
    let optree = OperatorTree::from_join_tree(&tree);
    let homes = OperatorHomes::all_nodes(&optree, nodes);
    let plan = ParallelPlan::build(
        QueryId::new(100),
        optree,
        homes,
        ChainScheduling::OneAtATime,
    )?;
    let shape = ChainShape {
        operators: plan.tree.operators().len(),
        chains: plan.chains().len(),
        longest_chain: plan.chains().iter().map(|c| c.len()).max().unwrap_or(0),
    };
    Ok((CompiledWorkload::from_plans(vec![plan]), shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(spec: ScenarioSpec) -> ScenarioSpec {
        spec.with_generated_workload(1, 4, 0.005, 11)
    }

    #[test]
    fn run_scenario_covers_the_grid_in_row_major_order() {
        let spec = tiny(
            ScenarioSpec::builder("grid")
                .machine(1, 2)
                .strategies([Strategy::fixed(0.0)])
                .rows(Axis::ErrorRate, [0.0, 0.3])
                .columns(Axis::ProcessorsPerNode, [2.0, 4.0])
                .reference(Reference::SamePoint(Strategy::dynamic()))
                .build()
                .unwrap(),
        );
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.points.len(), 4);
        let coords: Vec<(f64, Option<f64>)> =
            report.points.iter().map(|p| (p.row, p.col)).collect();
        assert_eq!(
            coords,
            vec![
                (0.0, Some(2.0)),
                (0.0, Some(4.0)),
                (0.3, Some(2.0)),
                (0.3, Some(4.0))
            ]
        );
        // The error-rate axis materialized into the FP strategy.
        assert_eq!(report.points[2].cells[0].strategy, Strategy::fixed(0.3));
        for p in &report.points {
            assert!(p.cells[0].value.is_finite());
            assert_eq!(p.cells[0].summary.plans, p.cells[0].runs.len());
        }
    }

    #[test]
    fn first_row_reference_pins_every_strategy_to_its_own_baseline() {
        let spec = tiny(
            ScenarioSpec::builder("speedup")
                .machine(1, 1)
                .strategies([Strategy::dynamic(), Strategy::fixed(0.0)])
                .rows(Axis::ProcessorsPerNode, [1.0, 4.0])
                .reference(Reference::FirstRow)
                .metric(Metric::Speedup)
                .build()
                .unwrap(),
        );
        let report = run_scenario(&spec).unwrap();
        // The first row IS the baseline: speed-up exactly 1 for every
        // strategy.
        for cell in &report.points[0].cells {
            assert!((cell.value - 1.0).abs() < 1e-12, "got {}", cell.value);
        }
        // More processors never slow the tiny workload down.
        for cell in &report.points[1].cells {
            assert!(cell.value >= 0.9, "speedup {}", cell.value);
        }
    }

    #[test]
    fn scenario_points_share_one_cache() {
        // DP is both measured and the same-point reference: each point must
        // reuse the measured run for the reference (one simulation, shared
        // allocation).
        let spec = tiny(
            ScenarioSpec::builder("shared")
                .machine(2, 2)
                .strategies([Strategy::dynamic()])
                .rows(Axis::Skew, [0.0, 0.5])
                .reference(Reference::SamePoint(Strategy::dynamic()))
                .build()
                .unwrap(),
        );
        let report = run_scenario(&spec).unwrap();
        for p in &report.points {
            assert!((p.cells[0].value - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_workloads_report_their_shape() {
        let spec = ScenarioSpec::builder("chain")
            .machine(2, 2)
            .workload(WorkloadSpec::Chain {
                relations: 3,
                build_rows: 500,
                probe_rows: 1_500,
            })
            .strategies([Strategy::dynamic(), Strategy::fixed(0.0)])
            .rows(Axis::Skew, [0.8])
            .presentation(Presentation::Chain)
            .build()
            .unwrap();
        let report = run_scenario(&spec).unwrap();
        let shape = report.chain.unwrap();
        assert_eq!(shape.longest_chain, 3);
        assert!(shape.operators >= 5);
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].cells.len(), 2);
        for cell in &report.points[0].cells {
            assert_eq!(cell.runs.len(), 1, "chain workloads have one plan");
        }
    }

    #[test]
    fn open_scenarios_sweep_the_arrival_rate_and_attach_reports() {
        let spec = ScenarioSpec::builder("open")
            .machine(2, 2)
            .workload(WorkloadSpec::Open(OpenSpec {
                queries: 30,
                concurrency: 2,
                templates: 2,
                relations: 4,
                scale: 0.005,
                ..OpenSpec::default()
            }))
            .strategies([Strategy::fixed(0.0)])
            .rows(Axis::ArrivalRate, [10.0, 40.0])
            .reference(Reference::SamePoint(Strategy::dynamic()))
            .build()
            .unwrap();
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            let cell = &p.cells[0];
            let open = cell.open.as_ref().expect("open cells carry a report");
            assert_eq!(open.completed, 30);
            assert!(open.peak_live <= 2);
            assert!(cell.value.is_finite() && cell.value > 0.0);
            // The solo per-plan runs back the open report (one per plan
            // variant, at least one per template).
            assert!(cell.runs.len() >= 2);
        }
        // A faster arrival rate can only hold or raise queueing delay.
        let slow = report.points[0].cells[0].open.as_ref().unwrap();
        let fast = report.points[1].cells[0].open.as_ref().unwrap();
        assert!(fast.wait.mean() >= slow.wait.mean() - 1e-12);
    }

    #[test]
    fn base_experiment_matches_the_spec_machine() {
        let exp = base_experiment(&tiny(registry::paper_base())).unwrap();
        assert_eq!(exp.system().nodes(), 4);
        assert_eq!(exp.system().processors_per_node(), 8);
        assert!(!exp.workload().is_empty());
    }
}
