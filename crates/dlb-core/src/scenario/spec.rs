//! The typed scenario description: what to run, over which sweep axes,
//! against which reference, and how to present it.

use crate::workload::MixEntry;
use dlb_common::{DlbError, Result};
use dlb_exec::{ExecOptions, MixMode, MixPolicy, Strategy, TopologyEvent};
use dlb_query::graph::EdgeMasks;
use dlb_traffic::ArrivalKind;

/// A sweepable dimension of the evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Redistribution skew (Zipf theta), applied to the execution options.
    Skew,
    /// Number of SM-nodes of the machine.
    Nodes,
    /// Processors per SM-node.
    ProcessorsPerNode,
    /// FP cost-model error rate, applied to every `error_rate`-parameterized
    /// policy of the strategy set.
    ErrorRate,
    /// Number of concurrent queries of a [`WorkloadSpec::Mix`] workload
    /// (inter-query scheduling scenarios only).
    ConcurrentQueries,
    /// Shared memory per SM-node, in megabytes — the admission limit of
    /// global load balancing and of the inter-query scheduler.
    MemoryPerNode,
    /// Simulated time at which the mix's topology events fire: every event of
    /// the base [`MixSpec::topology`] stream is re-timed to the row value
    /// (failover scenarios sweeping *when* a node dies).
    FailureTime,
    /// Number of nodes failed at the base stream's first event time: the
    /// topology is replaced by that many simultaneous crash failures, taking
    /// the highest node indices first (failover scenarios sweeping *how much*
    /// of the machine dies).
    FailedNodes,
    /// Mean arrival rate (queries per second) of a [`WorkloadSpec::Open`]
    /// workload's stochastic arrival process (open-system scenarios only).
    ArrivalRate,
    /// Burstiness knob of a [`WorkloadSpec::Open`] workload's arrival
    /// process, in `[0, 1)`: 0 = smooth, larger = longer ON/OFF bursts
    /// (open-system scenarios only).
    Burstiness,
    /// Template skew of a [`WorkloadSpec::Open`] workload's arrival process,
    /// in `[0, 1)`: the probability an arrival targets the hot template 0
    /// instead of drawing uniformly (open-system scenarios only).
    TemplateSkew,
}

impl Axis {
    /// Short human label, used as the default row header.
    pub fn label(&self) -> &'static str {
        match self {
            Axis::Skew => "skew",
            Axis::Nodes => "nodes",
            Axis::ProcessorsPerNode => "procs",
            Axis::ErrorRate => "error",
            Axis::ConcurrentQueries => "queries",
            Axis::MemoryPerNode => "mem MB",
            Axis::FailureTime => "fail t",
            Axis::FailedNodes => "failed",
            Axis::ArrivalRate => "rate",
            Axis::Burstiness => "burst",
            Axis::TemplateSkew => "t-skew",
        }
    }

    /// The default row-label formatting for values of this axis.
    pub fn default_row_fmt(&self) -> RowFmt {
        match self {
            Axis::Skew => RowFmt::Fixed1,
            Axis::Nodes
            | Axis::ProcessorsPerNode
            | Axis::ConcurrentQueries
            | Axis::MemoryPerNode
            | Axis::FailedNodes => RowFmt::Int,
            Axis::ErrorRate => RowFmt::Percent,
            Axis::FailureTime => RowFmt::Fixed2,
            Axis::ArrivalRate => RowFmt::Fixed1,
            Axis::Burstiness | Axis::TemplateSkew => RowFmt::Fixed2,
        }
    }

    /// True for axes whose sweep values must be positive integers.
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Axis::Nodes
                | Axis::ProcessorsPerNode
                | Axis::ConcurrentQueries
                | Axis::MemoryPerNode
                | Axis::FailedNodes
        )
    }

    /// True for the axes that reshape a mix's topology-event stream (and so
    /// require a mix workload carrying one, co-simulated).
    pub fn is_topology(&self) -> bool {
        matches!(self, Axis::FailureTime | Axis::FailedNodes)
    }

    /// True for the axes that retune an open workload's arrival process (and
    /// so require an open workload to act on).
    pub fn is_arrival(&self) -> bool {
        matches!(
            self,
            Axis::ArrivalRate | Axis::Burstiness | Axis::TemplateSkew
        )
    }
}

/// One sweep: an axis and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The swept dimension.
    pub axis: Axis,
    /// The values, in presentation order. Integer axes (nodes, processors)
    /// take integral values.
    pub values: Vec<f64>,
}

impl Sweep {
    /// A sweep over `axis` with the given values.
    pub fn new(axis: Axis, values: impl IntoIterator<Item = f64>) -> Self {
        Self {
            axis,
            values: values.into_iter().collect(),
        }
    }
}

/// The base machine shape of a scenario (before any axis is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSpec {
    /// Number of SM-nodes.
    pub nodes: u32,
    /// Processors per SM-node.
    pub processors_per_node: u32,
    /// Shared memory per SM-node in megabytes; `None` keeps the library
    /// default (512 MB). A [`Axis::MemoryPerNode`] sweep overrides this per
    /// point.
    pub memory_per_node_mb: Option<u64>,
}

impl Default for MachineSpec {
    fn default() -> Self {
        // The paper's base hierarchical configuration.
        Self {
            nodes: 4,
            processors_per_node: 8,
            memory_per_node_mb: None,
        }
    }
}

/// An inter-query mix workload: N concurrent queries sharing the machine's
/// SM-nodes under an admission/placement policy (see [`dlb_exec::mix`]).
///
/// The inner workload is generated exactly like [`WorkloadSpec::Generated`]
/// (one plan per query); `arrival_gap_secs`, `priorities` and `skews` derive
/// the per-query [`MixEntry`] descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Number of concurrent queries (overridden per point by an
    /// [`Axis::ConcurrentQueries`] sweep).
    pub queries: usize,
    /// Relations per generated query.
    pub relations: usize,
    /// Cardinality scale factor (1.0 = paper scale).
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// Arrival spacing: query `i` arrives at `i * arrival_gap_secs`.
    pub arrival_gap_secs: f64,
    /// Admission / placement policy of the mix.
    pub policy: MixPolicy,
    /// Evaluation fidelity: compose solo runs with the analytic contention
    /// model, or co-simulate all queries — placement masks and per-node
    /// memory admission included — in one engine event loop.
    pub mode: MixMode,
    /// Per-query priorities, cycled over the queries; empty = all 1.
    pub priorities: Vec<u32>,
    /// Per-query skew profiles, cycled over the queries; empty = every query
    /// uses the scenario's base `options.skew`.
    pub skews: Vec<f64>,
    /// Deterministic topology events (node failures / drains / joins at
    /// fixed simulated times) injected into the run; requires the
    /// co-simulated mode. Empty = a fault-free run. The
    /// [`Axis::FailureTime`] and [`Axis::FailedNodes`] sweeps reshape this
    /// stream per point.
    pub topology: Vec<TopologyEvent>,
}

impl Default for MixSpec {
    /// A reduced-scale four-query mix under load-aware placement.
    fn default() -> Self {
        let WorkloadSpec::Generated {
            relations,
            scale,
            seed,
            ..
        } = WorkloadSpec::default()
        else {
            unreachable!("default workload is generated");
        };
        Self {
            queries: 4,
            relations,
            scale,
            seed,
            arrival_gap_secs: 0.0,
            policy: MixPolicy::LoadAware,
            mode: MixMode::Composed,
            priorities: Vec::new(),
            skews: Vec::new(),
            topology: Vec::new(),
        }
    }
}

impl MixSpec {
    /// Materializes the per-query [`MixEntry`] descriptors for `queries`
    /// concurrent queries (the spec's own count, unless an
    /// [`Axis::ConcurrentQueries`] sweep overrode it), with `base_skew` as
    /// the profile of queries not covered by `skews`.
    pub fn entries(&self, queries: usize, base_skew: f64) -> Vec<MixEntry> {
        (0..queries)
            .map(|i| MixEntry {
                arrival_secs: i as f64 * self.arrival_gap_secs,
                priority: if self.priorities.is_empty() {
                    1
                } else {
                    self.priorities[i % self.priorities.len()]
                },
                skew: if self.skews.is_empty() {
                    base_skew
                } else {
                    self.skews[i % self.skews.len()]
                },
            })
            .collect()
    }
}

/// An open-system workload: queries arrive over a seeded stochastic process,
/// wait in a FCFS admission queue for a lane slot and per-node memory, run
/// concurrently inside one engine event loop, and retire on completion (see
/// [`dlb_exec::execute_open`]).
///
/// The template pool is generated exactly like [`WorkloadSpec::Generated`]
/// (`templates` plans over `relations` relations each); every arrival
/// instantiates one template chosen uniformly by the arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpec {
    /// Shape of the arrival process (Poisson / bursty / diurnal).
    pub kind: ArrivalKind,
    /// Long-run target arrival rate in queries per second (overridden per
    /// point by an [`Axis::ArrivalRate`] sweep).
    pub rate_qps: f64,
    /// OFF fraction of the bursty process, in `[0, 1)` (overridden per point
    /// by an [`Axis::Burstiness`] sweep; ignored by the other kinds).
    pub burstiness: f64,
    /// Total number of query arrivals the run generates.
    pub queries: usize,
    /// Number of lane slots: at most this many queries execute concurrently,
    /// and live engine state stays O(concurrency) however long the stream.
    pub concurrency: usize,
    /// Number of priority classes; each arrival draws one uniformly from
    /// `1..=priority_classes`.
    pub priority_classes: u32,
    /// Size of the generated query-template pool.
    pub templates: usize,
    /// Relations per generated template.
    pub relations: usize,
    /// Cardinality scale factor (1.0 = paper scale).
    pub scale: f64,
    /// Seed of both the template generator and the arrival stream.
    pub seed: u64,
    /// Probability an arrival targets the hot template 0 instead of drawing
    /// uniformly, in `[0, 1)` (overridden per point by an
    /// [`Axis::TemplateSkew`] sweep). 0 keeps the historical uniform draw.
    pub template_skew: f64,
    /// Result-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// Result-cache TTL in simulated seconds; `INFINITY` = never expires.
    pub cache_ttl_secs: f64,
    /// Single-flight coalescing of concurrent identical arrivals.
    pub coalesce: bool,
    /// Front-end fan-out cost in simulated seconds added to every cache hit
    /// and coalesced follower's response.
    pub fanout_cost_secs: f64,
}

impl Default for OpenSpec {
    /// A reduced-scale Poisson stream over a three-template pool.
    fn default() -> Self {
        let WorkloadSpec::Generated {
            relations,
            scale,
            seed,
            ..
        } = WorkloadSpec::default()
        else {
            unreachable!("default workload is generated");
        };
        Self {
            kind: ArrivalKind::Poisson,
            rate_qps: 20.0,
            burstiness: 0.0,
            queries: 120,
            concurrency: 4,
            priority_classes: 1,
            templates: 3,
            relations,
            scale,
            seed,
            template_skew: 0.0,
            cache_capacity: 0,
            cache_ttl_secs: f64::INFINITY,
            coalesce: false,
            fanout_cost_secs: 0.0,
        }
    }
}

impl OpenSpec {
    /// The [`dlb_traffic::ArrivalSpec`] this workload feeds the engine.
    pub fn arrivals(&self) -> dlb_traffic::ArrivalSpec {
        dlb_traffic::ArrivalSpec {
            kind: self.kind,
            rate_qps: self.rate_qps,
            burstiness: self.burstiness,
            queries: self.queries,
            templates: self.templates,
            priority_classes: self.priority_classes,
            seed: self.seed,
            template_skew: self.template_skew,
        }
    }

    /// The [`dlb_exec::FrontendConfig`] this workload places above the
    /// engine. With the default knobs the config is inert and
    /// [`dlb_exec::execute_open`] behaves bit-identically to a run with no
    /// front end at all.
    pub fn frontend(&self) -> dlb_exec::FrontendConfig {
        dlb_exec::FrontendConfig {
            cache_capacity: self.cache_capacity,
            cache_ttl_secs: self.cache_ttl_secs,
            coalesce: self.coalesce,
            fanout_cost_secs: self.fanout_cost_secs,
        }
    }
}

/// The workload a scenario executes.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A generated multi-join workload (§5.1.2): `queries` random queries
    /// over `relations` relations each, compiled to their best bushy plans.
    Generated {
        /// Number of generated queries.
        queries: usize,
        /// Relations per query.
        relations: usize,
        /// Cardinality scale factor (1.0 = paper scale).
        scale: f64,
        /// Workload seed.
        seed: u64,
    },
    /// A single maximum pipeline chain (§5.3): a right-deep join tree whose
    /// probe relation streams through `relations - 1` consecutive probes.
    Chain {
        /// Number of base relations (chain length is `relations` operators:
        /// the probe scan plus `relations - 1` probes).
        relations: usize,
        /// Cardinality of every build relation.
        build_rows: u64,
        /// Cardinality of the probing relation.
        probe_rows: u64,
    },
    /// An inter-query mix: N concurrent queries scheduled onto shared
    /// SM-nodes (see [`MixSpec`]).
    Mix(MixSpec),
    /// An open system: stochastic arrivals over a template pool, streaming
    /// FCFS admission into bounded lane slots, latency percentiles out (see
    /// [`OpenSpec`]).
    Open(OpenSpec),
}

impl Default for WorkloadSpec {
    /// The evaluation harness's reduced default workload (a full run
    /// completes in seconds; `--paper` / environment overrides approach the
    /// paper's scale).
    fn default() -> Self {
        WorkloadSpec::Generated {
            queries: 6,
            relations: 10,
            scale: 0.1,
            seed: 0xD1B_1996,
        }
    }
}

impl WorkloadSpec {
    /// True for inter-query mix workloads.
    pub fn is_mix(&self) -> bool {
        matches!(self, WorkloadSpec::Mix(_))
    }

    /// True for open-system workloads.
    pub fn is_open(&self) -> bool {
        matches!(self, WorkloadSpec::Open(_))
    }
}

/// What each measured run is compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reference {
    /// The run of this strategy at the same sweep point (e.g. SP in Figure
    /// 6, DP in Figure 10).
    SamePoint(Strategy),
    /// Each strategy's own run at the first row value (speed-up baselines,
    /// skew-degradation baselines).
    FirstRow,
}

/// The per-point metric derived from the run and its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean of per-plan response-time ratios run/reference (1.0 = equal,
    /// larger = slower) — the paper's relative-performance metric.
    Relative,
    /// Mean per-plan speed-up reference/run (larger = faster).
    Speedup,
}

/// How a row label is rendered in text output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFmt {
    /// The value as an integer (processor or node counts).
    Int,
    /// One decimal (skew factors).
    Fixed1,
    /// Two decimals (failure times in seconds).
    Fixed2,
    /// A percentage without decimals, e.g. `20%` (error rates).
    Percent,
    /// `<nodes>x<value>` machine-shape labels, e.g. `4x12`.
    NodesByProcs,
}

/// Layout constants of a rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStyle {
    /// Header of the row-label column.
    pub row_header: String,
    /// Row-label formatting.
    pub row_fmt: RowFmt,
    /// Width of the row-label column.
    pub row_width: usize,
    /// Width of every value column.
    pub cell_width: usize,
    /// Value-column headers; empty means "use the strategy labels".
    pub headers: Vec<String>,
}

impl TableStyle {
    /// The default style for a row sweep over `axis`.
    pub fn for_axis(axis: Axis) -> Self {
        Self {
            row_header: axis.label().to_string(),
            row_fmt: axis.default_row_fmt(),
            row_width: 8,
            cell_width: 8,
            headers: Vec::new(),
        }
    }
}

/// How a scenario's results are rendered as text.
#[derive(Debug, Clone, PartialEq)]
pub enum Presentation {
    /// One row per row-axis value, one value column per strategy.
    Table(TableStyle),
    /// One row per row-axis value, one value column per *column-axis* value
    /// (single-strategy grids such as Figure 7).
    Grid(TableStyle),
    /// Strategy ratio columns followed by per-strategy load-balancing
    /// traffic and idle-time columns (Figure 10).
    Balance(TableStyle),
    /// The §5.3 pipeline-chain report: plan shape, absolute response times
    /// and load-balancing traffic of each strategy.
    Chain,
    /// Inter-query mix report: strategy ratio columns followed by
    /// per-strategy mean response, makespan, slowdown and admission-wait
    /// columns (mix workloads only).
    Mix(TableStyle),
    /// Open-system report: strategy ratio columns followed by per-strategy
    /// response percentiles (p50/p95/p99), mean admission wait, mean
    /// slowdown and achieved throughput (open workloads only).
    Open(TableStyle),
}

/// A complete, serializable description of one evaluation scenario.
///
/// A spec owns everything a figure needs: machine shape, workload, execution
/// options, the strategy set, up to two sweep axes, the reference and metric
/// of each point, and its presentation. Bundled specs for every figure of the
/// paper live in [`crate::scenario::registry`]; arbitrary specs come from
/// [`ScenarioSpec::builder`] or from JSON files via
/// [`ScenarioSpec::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry / lookup name (`fig6`, `chain53`, ...).
    pub name: String,
    /// Display title (`Figure 6`).
    pub title: String,
    /// One-line description, shown in banners and listings.
    pub description: String,
    /// Base machine shape; sweep axes may override parts of it per point.
    pub machine: MachineSpec,
    /// Base execution options; the skew axis overrides `options.skew`.
    pub options: ExecOptions,
    /// The workload to execute.
    pub workload: WorkloadSpec,
    /// The strategies to measure, in presentation order.
    pub strategies: Vec<Strategy>,
    /// The row sweep.
    pub rows: Sweep,
    /// The optional column sweep (grids).
    pub columns: Option<Sweep>,
    /// What each run is measured against.
    pub reference: Reference,
    /// The per-point metric.
    pub metric: Metric,
    /// Text-rendering instructions.
    pub presentation: Presentation,
    /// Free-form note printed under the table (the paper's expectation).
    pub notes: String,
}

impl ScenarioSpec {
    /// Starts building a scenario with the given name.
    ///
    /// ```
    /// use dlb_core::scenario::{Axis, Reference, ScenarioSpec};
    /// use dlb_core::Strategy;
    ///
    /// let spec = ScenarioSpec::builder("skew-sweep")
    ///     .title("Skew sweep")
    ///     .machine(2, 4)
    ///     .strategies([Strategy::dynamic(), Strategy::fixed(0.0)])
    ///     .rows(Axis::Skew, [0.0, 0.5, 1.0])
    ///     .reference(Reference::SamePoint(Strategy::dynamic()))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.rows.values.len(), 3);
    /// assert!(spec.validate().is_ok());
    /// ```
    pub fn builder(name: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder::new(name)
    }

    /// Returns a copy with the generated-workload parameters replaced
    /// (chain workloads are returned unchanged; mix workloads keep their
    /// scheduling knobs but replace the generation parameters). This is how
    /// the harness applies `--paper` / `HIERDB_*` environment overrides to
    /// bundled specs.
    pub fn with_generated_workload(
        mut self,
        queries: usize,
        relations: usize,
        scale: f64,
        seed: u64,
    ) -> Self {
        match &mut self.workload {
            WorkloadSpec::Generated { .. } => {
                self.workload = WorkloadSpec::Generated {
                    queries,
                    relations,
                    scale,
                    seed,
                };
            }
            WorkloadSpec::Mix(mix) => {
                mix.queries = queries;
                mix.relations = relations;
                mix.scale = scale;
                mix.seed = seed;
            }
            // For an open workload the generated set is the template pool;
            // the arrival count and process knobs are traffic, not workload,
            // so the override leaves them alone.
            WorkloadSpec::Open(open) => {
                open.templates = queries;
                open.relations = relations;
                open.scale = scale;
                open.seed = seed;
            }
            WorkloadSpec::Chain { .. } => {}
        }
        self
    }

    /// Checks the structural invariants of the spec.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(DlbError::InvalidConfig(format!(
                "scenario {}: {msg}",
                self.name
            )))
        };
        if self.name.is_empty() {
            return fail("empty name".to_string());
        }
        if self.strategies.is_empty() {
            return fail("no strategies".to_string());
        }
        if self.machine.nodes == 0 || self.machine.processors_per_node == 0 {
            return fail("machine must have at least 1x1 processors".to_string());
        }
        if self.machine.memory_per_node_mb == Some(0) {
            return fail("memory_per_node_mb must be positive".to_string());
        }
        for sweep in std::iter::once(&self.rows).chain(self.columns.as_ref()) {
            if sweep.values.is_empty() {
                return fail("empty sweep".to_string());
            }
            for &v in &sweep.values {
                if !v.is_finite() {
                    return fail(format!("non-finite {} value {v}", sweep.axis.label()));
                }
                if sweep.axis.is_integer() && (v < 1.0 || v.fract() != 0.0 || v > u32::MAX as f64) {
                    return fail(format!(
                        "{} values must be positive integers, got {v}",
                        sweep.axis.label()
                    ));
                }
            }
            // The concurrent-queries axis resizes a mix and the topology
            // axes reshape a mix's event stream; on any other workload they
            // have nothing to act on. Rejecting them here keeps
            // `scenario --export` / `run_scenario` on the error path instead
            // of a panic deeper in the driver.
            if (sweep.axis == Axis::ConcurrentQueries || sweep.axis.is_topology())
                && !self.workload.is_mix()
            {
                return fail(format!(
                    "the {} axis requires a mix workload",
                    sweep.axis.label()
                ));
            }
            // The arrival axes retune an open workload's arrival process; on
            // any other workload they have nothing to act on.
            if sweep.axis.is_arrival() && !self.workload.is_open() {
                return fail(format!(
                    "the {} axis requires an open workload",
                    sweep.axis.label()
                ));
            }
            if sweep.axis == Axis::ArrivalRate {
                if let Some(&v) = sweep.values.iter().find(|v| **v <= 0.0) {
                    return fail(format!("arrival_rate_qps values must be > 0, got {v}"));
                }
            }
            if sweep.axis == Axis::Burstiness {
                if let Some(&v) = sweep.values.iter().find(|v| !(0.0..1.0).contains(*v)) {
                    return fail(format!("burstiness values must lie in [0, 1), got {v}"));
                }
            }
            if sweep.axis == Axis::TemplateSkew {
                if let Some(&v) = sweep.values.iter().find(|v| !(0.0..1.0).contains(*v)) {
                    return fail(format!("template_skew values must lie in [0, 1), got {v}"));
                }
            }
            if sweep.axis == Axis::FailureTime {
                if let Some(&v) = sweep.values.iter().find(|v| **v < 0.0) {
                    return fail(format!("failure_time values must be >= 0, got {v}"));
                }
            }
            // Failing all nodes (or more) would leave no live node to finish
            // the mix; the engine's topology validator would reject it later,
            // but per point and with a less actionable message.
            if sweep.axis == Axis::FailedNodes {
                if let Some(&v) = sweep
                    .values
                    .iter()
                    .find(|v| **v >= self.machine.nodes as f64)
                {
                    return fail(format!(
                        "failed_nodes values must leave at least one live node \
                         (machine has {} nodes, got {v})",
                        self.machine.nodes
                    ));
                }
            }
            // A first-row reference compares per-query response times by
            // mix index; rows of different concurrency run different query
            // sets, so the comparison would be meaningless.
            if sweep.axis == Axis::ConcurrentQueries && self.reference == Reference::FirstRow {
                return fail(
                    "a first_row reference cannot span a concurrent_queries sweep \
                     (rows run different query sets); use a same_point reference"
                        .to_string(),
                );
            }
        }
        if let Some(cols) = &self.columns {
            if cols.axis == self.rows.axis {
                return fail("rows and columns sweep the same axis".to_string());
            }
        }
        // SP only exists on single-node machines: reject specs where any
        // point could be multi-node while SP is measured or referenced.
        let uses_sp = self.strategies.iter().any(|s| !s.queue_based())
            || matches!(self.reference, Reference::SamePoint(r) if !r.queue_based());
        if uses_sp {
            let multi_node = if let Some(sweep) = self.sweep_of(Axis::Nodes) {
                sweep.values.iter().any(|&v| v != 1.0)
            } else {
                self.machine.nodes != 1
            };
            if multi_node {
                return fail("SP (Synchronous) is only valid on single-node machines".to_string());
            }
        }
        match (&self.presentation, &self.workload) {
            (Presentation::Chain, w) if !matches!(w, WorkloadSpec::Chain { .. }) => {
                return fail("chain presentation requires a chain workload".to_string());
            }
            (Presentation::Chain, _) if self.columns.is_some() || self.rows.values.len() != 1 => {
                return fail("chain presentation requires a single sweep point".to_string());
            }
            (Presentation::Mix(_), w) if !w.is_mix() => {
                return fail("mix presentation requires a mix workload".to_string());
            }
            (Presentation::Open(_), w) if !w.is_open() => {
                return fail("open presentation requires an open workload".to_string());
            }
            (Presentation::Grid(_), _) if self.columns.is_none() => {
                return fail("grid presentation requires a column sweep".to_string());
            }
            // The grid's value columns are the column-axis values, so only
            // one strategy can be shown; reject instead of silently dropping
            // the rest at render time.
            (Presentation::Grid(_), _) if self.strategies.len() != 1 => {
                return fail(format!(
                    "grid presentations show exactly one strategy, got {}",
                    self.strategies.len()
                ));
            }
            (
                Presentation::Table(_)
                | Presentation::Balance(_)
                | Presentation::Mix(_)
                | Presentation::Open(_),
                _,
            ) if self.columns.is_some() => {
                return fail("column sweeps require the grid presentation".to_string());
            }
            _ => {}
        }
        if let WorkloadSpec::Chain { relations, .. } = self.workload {
            if relations < 2 {
                return fail("chain workloads need at least 2 relations".to_string());
            }
        }
        // Generated, mix and open queries compile through the optimizer,
        // whose join enumeration keeps a query's relations in one u64 mask.
        let optimized_relations = match &self.workload {
            WorkloadSpec::Generated { relations, .. } => Some(*relations),
            WorkloadSpec::Mix(mix) => Some(mix.relations),
            WorkloadSpec::Open(open) => Some(open.relations),
            WorkloadSpec::Chain { .. } => None,
        };
        if let Some(n) = optimized_relations.filter(|&n| n > EdgeMasks::MAX_RELATIONS) {
            return fail(format!(
                "queries have {n} relations; the optimizer supports at most {}",
                EdgeMasks::MAX_RELATIONS
            ));
        }
        if let WorkloadSpec::Mix(mix) = &self.workload {
            if mix.queries == 0 {
                return fail("mix workloads need at least 1 query".to_string());
            }
            if mix.mode == MixMode::CoSimulated {
                // Co-simulation interleaves activation queues; SP has no
                // queues to interleave. Every placement policy is supported:
                // pinning policies re-home each query's plan onto its
                // placement mask inside the event loop.
                if self.strategies.iter().any(|s| !s.queue_based())
                    || matches!(self.reference, Reference::SamePoint(r) if !r.queue_based())
                {
                    return fail(
                        "co-simulated mixes require a queue-based strategy (DP or FP)".to_string(),
                    );
                }
            }
            if mix.relations < 2 {
                return fail("mix queries need at least 2 relations".to_string());
            }
            if !(mix.arrival_gap_secs.is_finite() && mix.arrival_gap_secs >= 0.0) {
                return fail(format!(
                    "mix arrival gap must be a non-negative number, got {}",
                    mix.arrival_gap_secs
                ));
            }
            if mix.priorities.contains(&0) {
                return fail("mix priorities must be ≥ 1".to_string());
            }
            if mix
                .skews
                .iter()
                .any(|&s| !(s.is_finite() && (0.0..=1.0).contains(&s)))
            {
                return fail("mix skew profiles must lie in [0, 1]".to_string());
            }
            // Topology events only exist inside the co-simulated event loop;
            // the analytic composition has nothing to inject them into.
            if !mix.topology.is_empty() && mix.mode != MixMode::CoSimulated {
                return fail("topology events require the co-simulated mix mode".to_string());
            }
            // A nodes sweep changes the machine the stream was validated
            // against (indices may fall out of range, live-set rules shift
            // per point) — reject the combination up front.
            if !mix.topology.is_empty() && self.sweep_of(Axis::Nodes).is_some() {
                return fail(
                    "topology events cannot be combined with a nodes sweep \
                     (the stream is validated against a fixed machine shape)"
                        .to_string(),
                );
            }
            if let Err(e) = dlb_exec::validate_topology(&mix.topology, self.machine.nodes) {
                return fail(format!("invalid topology stream: {e}"));
            }
            // The topology axes re-time / re-shape the base stream, so there
            // must be one to act on.
            for sweep in std::iter::once(&self.rows).chain(self.columns.as_ref()) {
                if sweep.axis.is_topology() && mix.topology.is_empty() {
                    return fail(format!(
                        "the {} axis requires the mix to carry at least one \
                         topology event to reshape",
                        sweep.axis.label()
                    ));
                }
            }
        }
        if let WorkloadSpec::Open(open) = &self.workload {
            // The stream's own parameter ranges (rate, burstiness, counts)
            // are checked by dlb-traffic; prefix its message with ours.
            if let Err(e) = open.arrivals().validate() {
                return fail(format!("invalid open workload: {e}"));
            }
            if open.concurrency == 0 {
                return fail("open workloads need at least 1 lane slot".to_string());
            }
            if open.relations < 2 {
                return fail("open templates need at least 2 relations".to_string());
            }
            // Front-end knob ranges (TTL > 0, finite non-negative fan-out)
            // are checked by dlb-frontend; prefix its message with ours.
            if let Err(e) = open.frontend().validate() {
                return fail(format!("invalid open front end: {e}"));
            }
            // The open engine interleaves activation queues; SP has none.
            if self.strategies.iter().any(|s| !s.queue_based())
                || matches!(self.reference, Reference::SamePoint(r) if !r.queue_based())
            {
                return fail(
                    "open workloads require a queue-based strategy (DP or FP)".to_string(),
                );
            }
            // Each row's percentiles summarize that row's own stream; a
            // first-row reference would compare different arrival sequences
            // sample by sample, which is meaningless.
            if self.reference == Reference::FirstRow && self.rows.axis.is_arrival() {
                return fail(
                    "a first_row reference cannot span an arrival sweep \
                     (rows run different arrival streams); use a same_point reference"
                        .to_string(),
                );
            }
        }
        if let Presentation::Table(style)
        | Presentation::Grid(style)
        | Presentation::Balance(style)
        | Presentation::Mix(style)
        | Presentation::Open(style) = &self.presentation
        {
            if !style.headers.is_empty() && style.headers.len() != self.strategies.len() {
                return fail(format!(
                    "{} column headers for {} strategies",
                    style.headers.len(),
                    self.strategies.len()
                ));
            }
        }
        Ok(())
    }

    /// The sweep (rows or columns) over `axis`, if any.
    pub fn sweep_of(&self, axis: Axis) -> Option<&Sweep> {
        if self.rows.axis == axis {
            Some(&self.rows)
        } else {
            self.columns.as_ref().filter(|c| c.axis == axis)
        }
    }
}

/// Builder for [`ScenarioSpec`]; `build` validates the result.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
    presentation_set: bool,
}

impl ScenarioSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            spec: ScenarioSpec {
                title: name.clone(),
                name,
                description: String::new(),
                machine: MachineSpec::default(),
                options: ExecOptions::default(),
                workload: WorkloadSpec::default(),
                strategies: vec![Strategy::dynamic(), Strategy::fixed(0.0)],
                rows: Sweep::new(Axis::Skew, [0.0]),
                columns: None,
                reference: Reference::SamePoint(Strategy::dynamic()),
                metric: Metric::Relative,
                presentation: Presentation::Table(TableStyle::for_axis(Axis::Skew)),
                notes: String::new(),
            },
            presentation_set: false,
        }
    }

    /// Sets the display title.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.spec.title = title.into();
        self
    }

    /// Sets the one-line description.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.spec.description = description.into();
        self
    }

    /// Sets the base machine shape (memory per node keeps its current
    /// setting).
    pub fn machine(mut self, nodes: u32, processors_per_node: u32) -> Self {
        self.spec.machine.nodes = nodes;
        self.spec.machine.processors_per_node = processors_per_node;
        self
    }

    /// Sets the shared memory per SM-node, in megabytes.
    pub fn memory_per_node_mb(mut self, mb: u64) -> Self {
        self.spec.machine.memory_per_node_mb = Some(mb);
        self
    }

    /// Sets the base execution options.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.spec.options = options;
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Sets the strategy set, in presentation order.
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        self.spec.strategies = strategies.into_iter().collect();
        self
    }

    /// Sets the row sweep.
    pub fn rows(mut self, axis: Axis, values: impl IntoIterator<Item = f64>) -> Self {
        self.spec.rows = Sweep::new(axis, values);
        self
    }

    /// Sets the column sweep (grids).
    pub fn columns(mut self, axis: Axis, values: impl IntoIterator<Item = f64>) -> Self {
        self.spec.columns = Some(Sweep::new(axis, values));
        self
    }

    /// Sets the reference.
    pub fn reference(mut self, reference: Reference) -> Self {
        self.spec.reference = reference;
        self
    }

    /// Sets the metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.spec.metric = metric;
        self
    }

    /// Sets the presentation.
    pub fn presentation(mut self, presentation: Presentation) -> Self {
        self.spec.presentation = presentation;
        self.presentation_set = true;
        self
    }

    /// Sets the paper-expectation note.
    pub fn notes(mut self, notes: impl Into<String>) -> Self {
        self.spec.notes = notes.into();
        self
    }

    /// Validates and returns the spec. When no presentation was set
    /// explicitly, a default styled for the row axis is derived: a grid for
    /// column sweeps, the mix report for mix workloads, the open report for
    /// open workloads, a plain table otherwise.
    pub fn build(mut self) -> Result<ScenarioSpec> {
        if !self.presentation_set {
            self.spec.presentation = if self.spec.columns.is_some() {
                Presentation::Grid(TableStyle::for_axis(self.spec.rows.axis))
            } else if self.spec.workload.is_mix() {
                Presentation::Mix(TableStyle::for_axis(self.spec.rows.axis))
            } else if self.spec.workload.is_open() {
                Presentation::Open(TableStyle::for_axis(self.spec.rows.axis))
            } else {
                Presentation::Table(TableStyle::for_axis(self.spec.rows.axis))
            };
        }
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let spec = ScenarioSpec::builder("smoke").build().unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.title, "smoke");
        assert_eq!(spec.machine, MachineSpec::default());
        assert!(matches!(spec.presentation, Presentation::Table(_)));
    }

    #[test]
    fn builder_derives_grid_presentation_for_column_sweeps() {
        let spec = ScenarioSpec::builder("grid")
            .machine(1, 8)
            .strategies([Strategy::fixed(0.0)])
            .rows(Axis::ErrorRate, [0.0, 0.1])
            .columns(Axis::ProcessorsPerNode, [8.0, 16.0])
            .build()
            .unwrap();
        assert!(matches!(spec.presentation, Presentation::Grid(_)));
    }

    #[test]
    fn validation_rejects_structural_nonsense() {
        // Empty strategy set.
        assert!(ScenarioSpec::builder("x").strategies([]).build().is_err());
        // Empty sweep.
        assert!(ScenarioSpec::builder("x")
            .rows(Axis::Skew, [])
            .build()
            .is_err());
        // Fractional node counts.
        assert!(ScenarioSpec::builder("x")
            .rows(Axis::Nodes, [1.5])
            .build()
            .is_err());
        // SP on a multi-node machine.
        assert!(ScenarioSpec::builder("x")
            .machine(4, 8)
            .strategies([Strategy::synchronous()])
            .build()
            .is_err());
        // SP reached through a nodes sweep.
        assert!(ScenarioSpec::builder("x")
            .machine(1, 8)
            .strategies([Strategy::synchronous()])
            .rows(Axis::Nodes, [1.0, 2.0])
            .build()
            .is_err());
        // Rows and columns on the same axis.
        assert!(ScenarioSpec::builder("x")
            .rows(Axis::Skew, [0.0])
            .columns(Axis::Skew, [0.1])
            .build()
            .is_err());
        // Chain presentation without a chain workload.
        assert!(ScenarioSpec::builder("x")
            .presentation(Presentation::Chain)
            .build()
            .is_err());
        // Grids can only render one strategy; more must be rejected rather
        // than silently dropped.
        assert!(ScenarioSpec::builder("x")
            .machine(1, 8)
            .strategies([Strategy::dynamic(), Strategy::fixed(0.0)])
            .rows(Axis::ErrorRate, [0.0, 0.1])
            .columns(Axis::ProcessorsPerNode, [8.0, 16.0])
            .build()
            .is_err());
    }

    #[test]
    fn mix_specs_validate_and_derive_the_mix_presentation() {
        let spec = ScenarioSpec::builder("mix")
            .workload(WorkloadSpec::Mix(MixSpec::default()))
            .rows(Axis::ConcurrentQueries, [2.0, 4.0])
            .build()
            .unwrap();
        assert!(matches!(spec.presentation, Presentation::Mix(_)));
        // Entries cycle priorities and skews, defaulting to 1 / base skew.
        let entries = MixSpec {
            arrival_gap_secs: 0.5,
            priorities: vec![2, 1],
            skews: vec![0.3],
            ..MixSpec::default()
        }
        .entries(3, 0.9);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].arrival_secs, 1.0);
        assert_eq!(entries[0].priority, 2);
        assert_eq!(entries[1].priority, 1);
        assert_eq!(entries[2].priority, 2);
        assert!(entries.iter().all(|e| e.skew == 0.3));
        let defaults = MixSpec::default().entries(2, 0.9);
        assert!(defaults.iter().all(|e| e.priority == 1 && e.skew == 0.9));
    }

    #[test]
    fn mix_validation_rejects_unsupported_axes_and_bad_knobs() {
        // The concurrent-queries axis needs a mix workload.
        let err = ScenarioSpec::builder("x")
            .rows(Axis::ConcurrentQueries, [2.0])
            .build()
            .unwrap_err();
        assert!(
            matches!(err, DlbError::InvalidConfig(ref m) if m.contains("mix workload")),
            "{err}"
        );
        // The mix presentation needs a mix workload.
        assert!(ScenarioSpec::builder("x")
            .presentation(Presentation::Mix(TableStyle::for_axis(Axis::Skew)))
            .build()
            .is_err());
        // Chain presentation on a mix workload is rejected.
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Mix(MixSpec::default()))
            .presentation(Presentation::Chain)
            .build()
            .is_err());
        // Bad mix knobs.
        for bad in [
            MixSpec {
                queries: 0,
                ..MixSpec::default()
            },
            MixSpec {
                arrival_gap_secs: -1.0,
                ..MixSpec::default()
            },
            MixSpec {
                priorities: vec![0],
                ..MixSpec::default()
            },
            MixSpec {
                skews: vec![2.0],
                ..MixSpec::default()
            },
        ] {
            assert!(
                ScenarioSpec::builder("x")
                    .workload(WorkloadSpec::Mix(bad.clone()))
                    .build()
                    .is_err(),
                "{bad:?}"
            );
        }
        // first_row across a concurrency sweep compares different query
        // sets — rejected.
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Mix(MixSpec::default()))
            .rows(Axis::ConcurrentQueries, [2.0, 4.0])
            .reference(Reference::FirstRow)
            .build()
            .is_err());
        // Memory axis values must be positive integers; zero base memory is
        // rejected.
        assert!(ScenarioSpec::builder("x")
            .rows(Axis::MemoryPerNode, [0.5])
            .build()
            .is_err());
        let mut spec = ScenarioSpec::builder("x").build().unwrap();
        spec.machine.memory_per_node_mb = Some(0);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn cosimulated_mixes_accept_every_placement_policy() {
        for policy in [MixPolicy::Fcfs, MixPolicy::RoundRobin, MixPolicy::LoadAware] {
            let spec = ScenarioSpec::builder("cosim")
                .workload(WorkloadSpec::Mix(MixSpec {
                    policy,
                    mode: MixMode::CoSimulated,
                    ..MixSpec::default()
                }))
                .build();
            assert!(spec.is_ok(), "{policy:?} must co-simulate");
        }
        // SP still has no activation queues to interleave.
        let sp = ScenarioSpec::builder("cosim-sp")
            .machine(1, 8)
            .strategies([Strategy::synchronous()])
            .reference(Reference::SamePoint(Strategy::synchronous()))
            .workload(WorkloadSpec::Mix(MixSpec {
                mode: MixMode::CoSimulated,
                ..MixSpec::default()
            }))
            .build();
        assert!(sp.is_err());
    }

    #[test]
    fn optimized_workloads_over_64_relations_are_rejected() {
        for workload in [
            WorkloadSpec::default(),
            WorkloadSpec::Mix(MixSpec::default()),
            WorkloadSpec::Open(OpenSpec::default()),
        ] {
            let spec = ScenarioSpec::builder("wide")
                .workload(workload)
                .build()
                .unwrap();
            // The override path (`HIERDB_RELATIONS`) goes through
            // `with_generated_workload`, so validation sees its result.
            let at_limit = spec.clone().with_generated_workload(2, 64, 0.01, 1);
            assert!(at_limit.validate().is_ok(), "{:?}", at_limit.workload);
            let over = spec.with_generated_workload(2, 65, 0.01, 1);
            let err = over.validate().unwrap_err().to_string();
            assert!(err.contains("65 relations"), "{err}");
        }
        // Chain workloads never reach the optimizer.
        let chain = ScenarioSpec::builder("chain")
            .workload(WorkloadSpec::Chain {
                relations: 65,
                build_rows: 100,
                probe_rows: 1_000,
            })
            .presentation(Presentation::Chain)
            .build();
        assert!(chain.is_ok(), "{chain:?}");
    }

    #[test]
    fn open_specs_validate_and_derive_the_open_presentation() {
        let spec = ScenarioSpec::builder("open")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .rows(Axis::ArrivalRate, [10.0, 20.0])
            .build()
            .unwrap();
        assert!(matches!(spec.presentation, Presentation::Open(_)));
        assert!(spec.workload.is_open());
        // The derived arrival spec mirrors the workload's traffic knobs.
        let arrivals = OpenSpec::default().arrivals();
        assert_eq!(arrivals.queries, OpenSpec::default().queries);
        assert_eq!(arrivals.templates, OpenSpec::default().templates);
    }

    #[test]
    fn open_validation_rejects_unsupported_axes_and_bad_knobs() {
        // The arrival axes need an open workload.
        let err = ScenarioSpec::builder("x")
            .rows(Axis::ArrivalRate, [10.0])
            .build()
            .unwrap_err();
        assert!(
            matches!(err, DlbError::InvalidConfig(ref m) if m.contains("open workload")),
            "{err}"
        );
        assert!(ScenarioSpec::builder("x")
            .rows(Axis::Burstiness, [0.5])
            .build()
            .is_err());
        // Axis value ranges: rates positive, burstiness in [0, 1).
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .rows(Axis::ArrivalRate, [0.0])
            .build()
            .is_err());
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .rows(Axis::Burstiness, [1.0])
            .build()
            .is_err());
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .rows(Axis::TemplateSkew, [1.0])
            .build()
            .is_err());
        // The open presentation needs an open workload.
        assert!(ScenarioSpec::builder("x")
            .presentation(Presentation::Open(TableStyle::for_axis(Axis::Skew)))
            .build()
            .is_err());
        // SP has no activation queues to interleave arrivals into.
        assert!(ScenarioSpec::builder("x")
            .machine(1, 8)
            .strategies([Strategy::synchronous()])
            .reference(Reference::SamePoint(Strategy::synchronous()))
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .build()
            .is_err());
        // first_row across an arrival sweep compares different streams.
        assert!(ScenarioSpec::builder("x")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .rows(Axis::ArrivalRate, [10.0, 20.0])
            .reference(Reference::FirstRow)
            .build()
            .is_err());
        // Bad open knobs.
        for bad in [
            OpenSpec {
                rate_qps: 0.0,
                ..OpenSpec::default()
            },
            OpenSpec {
                burstiness: 1.0,
                ..OpenSpec::default()
            },
            OpenSpec {
                queries: 0,
                ..OpenSpec::default()
            },
            OpenSpec {
                concurrency: 0,
                ..OpenSpec::default()
            },
            OpenSpec {
                templates: 0,
                ..OpenSpec::default()
            },
            OpenSpec {
                priority_classes: 0,
                ..OpenSpec::default()
            },
            OpenSpec {
                relations: 1,
                ..OpenSpec::default()
            },
            OpenSpec {
                template_skew: 1.0,
                ..OpenSpec::default()
            },
            OpenSpec {
                cache_ttl_secs: 0.0,
                ..OpenSpec::default()
            },
            OpenSpec {
                fanout_cost_secs: -0.5,
                ..OpenSpec::default()
            },
            OpenSpec {
                fanout_cost_secs: f64::INFINITY,
                ..OpenSpec::default()
            },
        ] {
            assert!(
                ScenarioSpec::builder("x")
                    .workload(WorkloadSpec::Open(bad.clone()))
                    .build()
                    .is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn workload_override_maps_queries_to_the_open_template_pool() {
        let open = ScenarioSpec::builder("o")
            .workload(WorkloadSpec::Open(OpenSpec::default()))
            .build()
            .unwrap();
        let overridden = open.with_generated_workload(2, 5, 0.01, 7);
        let WorkloadSpec::Open(spec) = &overridden.workload else {
            panic!("override must keep the open workload");
        };
        assert_eq!(spec.templates, 2);
        assert_eq!(spec.relations, 5);
        assert_eq!(spec.scale, 0.01);
        assert_eq!(spec.seed, 7);
        // Traffic knobs are untouched.
        assert_eq!(spec.queries, OpenSpec::default().queries);
        assert_eq!(spec.rate_qps, OpenSpec::default().rate_qps);
    }

    #[test]
    fn memory_axis_is_valid_on_any_workload() {
        let spec = ScenarioSpec::builder("mem")
            .rows(Axis::MemoryPerNode, [64.0, 512.0])
            .build();
        assert!(spec.is_ok());
    }

    #[test]
    fn sp_is_accepted_on_single_node_sweeps() {
        let spec = ScenarioSpec::builder("sm")
            .machine(1, 16)
            .strategies([Strategy::synchronous(), Strategy::dynamic()])
            .reference(Reference::SamePoint(Strategy::synchronous()))
            .rows(Axis::ProcessorsPerNode, [16.0, 32.0])
            .build();
        assert!(spec.is_ok());
    }

    #[test]
    fn workload_override_leaves_chains_alone() {
        let generated = ScenarioSpec::builder("g").build().unwrap();
        let overridden = generated.with_generated_workload(2, 5, 0.01, 7);
        assert_eq!(
            overridden.workload,
            WorkloadSpec::Generated {
                queries: 2,
                relations: 5,
                scale: 0.01,
                seed: 7
            }
        );
        let chain = ScenarioSpec::builder("c")
            .workload(WorkloadSpec::Chain {
                relations: 5,
                build_rows: 100,
                probe_rows: 300,
            })
            .presentation(Presentation::Chain)
            .rows(Axis::Skew, [0.8])
            .build()
            .unwrap();
        let untouched = chain.clone().with_generated_workload(2, 5, 0.01, 7);
        assert_eq!(untouched, chain);
    }
}
