//! The traced run: rounds of one scenario pass inside a
//! `driver.run_scenario` span, then a replay of the same work through the
//! lowest public call of each layer, one span per call, with every replayed
//! result checked against its counterpart in the scenario report.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer; the layers themselves carry no instrumentation. Spans stay in
//! memory and are written out when the run ends.

use crate::alloc;
use crate::workload::{point_spec, render};
use dlb_common::json::{object, Json};
use dlb_common::{DlbError, Result};
use dlb_core::scenario::{run_scenario, ScenarioSpec, StrategyCell, WorkloadSpec};
use dlb_core::{ExecutionReport, HierarchicalSystem, MixPolicy, Strategy, WorkloadParams};
use dlb_exec::{
    execute, execute_cosimulated_faulted, execute_open, schedule_mix, CoSimQuery, MixJob,
    OpenTemplate, OpenTraffic, TopologyEvent,
};
use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};
use dlb_query::{CostModel, OperatorTree, Optimizer, OptimizerParams, WorkloadGenerator};
use dlb_traffic::ArrivalStream;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans that time an engine event loop.
const ENGINE_SPANS: [&str; 3] = ["engine.execute", "engine.cosim", "engine.open"];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call the span covers (`engine.execute`, `query.plan`, ...).
    name: &'static str,
    /// Strategy label, for engine and composition spans.
    strategy: Option<String>,
    /// The traced round the span belongs to.
    round: u32,
    /// Start, in nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Allocations made while the span was open (zero unless the counting
    /// allocator is installed).
    allocs: u64,
    /// Bytes requested by those allocations.
    alloc_bytes: u64,
    /// Simulation events of the engine run the span covers.
    events: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Json {
        object(vec![
            ("name", self.name.into()),
            (
                "strategy",
                self.strategy.clone().map_or(Json::Null, Json::from),
            ),
            ("round", self.round.into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("allocs", self.allocs.into()),
            ("alloc_bytes", self.alloc_bytes.into()),
            ("events", self.events.into()),
        ])
    }
}

/// Simulated counters summed over every replayed engine run.
#[derive(Debug, Default)]
struct Tally {
    activations: u64,
    messages: u64,
    lb_requests: u64,
    lb_acquisitions: u64,
    lb_bytes: u64,
    activations_rehomed: u64,
    rebalance_bytes: u64,
    open_completed: u64,
    open_peak_live: u64,
    cache_hits: u64,
    coalesced: u64,
    engine_queries: u64,
    arrivals: u64,
}

impl Tally {
    fn exec(&mut self, r: &ExecutionReport) {
        self.activations += r.activations;
        self.messages += r.messages;
        self.lb_requests += r.lb_requests;
        self.lb_acquisitions += r.lb_acquisitions;
        self.lb_bytes += r.lb_bytes;
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Completed rounds; spans carry the round they belong to.
    rounds: u32,
    /// Counters of the current round (every round replays the same work).
    tally: Tally,
    mismatches: Vec<String>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Reserved up front so growing the span list never lands in a
            // span's allocation count.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            rounds: 0,
            tally: Tally::default(),
            mismatches: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        strategy: Option<Strategy>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let strategy = strategy.map(|s| s.label());
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let (allocs, bytes) = alloc::counts();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            strategy,
            round: self.rounds,
            start_ns,
            end_ns: start_ns,
            parent,
            allocs: 0,
            alloc_bytes: 0,
            events: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now();
        let (allocs_end, bytes_end) = alloc::counts();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs_end - allocs;
        span.alloc_bytes = bytes_end - bytes;
        out
    }

    /// An engine span: also records the run's events and counters.
    fn engine<R>(
        &mut self,
        name: &'static str,
        strategy: Strategy,
        run: impl FnOnce() -> Result<R>,
        report: impl Fn(&R) -> &ExecutionReport,
    ) -> Result<R> {
        let out = self.span(name, Some(strategy), |_| run())?;
        let r = report(&out);
        self.spans
            .last_mut()
            .expect("the span was just recorded")
            .events = r.events;
        self.tally.exec(r);
        Ok(out)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The smallest per-round total of `value` over the spans `keep`
    /// selects: each round times the same work, and the host only ever adds
    /// delay, so the quickest round is the least disturbed one.
    fn best(&self, keep: impl Fn(&Span) -> bool, value: impl Fn(&Span) -> u64) -> u64 {
        (0..self.rounds)
            .map(|round| {
                self.spans
                    .iter()
                    .filter(|s| s.round == round && keep(s))
                    .map(&value)
                    .sum()
            })
            .min()
            .unwrap_or(0)
    }

    /// Best per-round time of the spans named `names`, in ms.
    fn ms(&self, names: &[&str]) -> f64 {
        self.best(|s| names.contains(&s.name), Span::ns) as f64 / 1e6
    }
}

/// The outcome of a traced run.
pub struct Trace {
    /// Every per-layer metric, by name, with its unit (the declared ones
    /// plus the mode- and policy-specific extras).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Replayed results that differed from the scenario report.
    pub mismatches: Vec<String>,
    /// The digest of each traced scenario pass.
    pub digests: Vec<u64>,
    spans: Vec<Span>,
}

impl Trace {
    /// The trace file: metrics plus every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, (v, _))| (k.clone(), Json::from(*v)))
            .collect();
        object(vec![
            ("workload", workload.into()),
            ("seed", seed.into()),
            ("metrics", Json::Object(metrics)),
            (
                "spans",
                self.spans
                    .iter()
                    .map(Span::to_json)
                    .collect::<Vec<_>>()
                    .into(),
            ),
        ])
    }
}

/// The fewest traced rounds a run makes, however long a round takes.
const MIN_ROUNDS: u32 = 2;

/// Runs rounds of one traced pass plus the layer replay, for at least
/// `seconds` and at least two rounds. Times are the best round's; counters
/// are the same in every round.
pub fn trace(spec: &ScenarioSpec, seconds: f64) -> Result<Trace> {
    let point = point_spec(spec)?;
    let system = point_system(&point);
    let mut rec = Recorder::new();
    let mut digests = Vec::new();
    let mut plans = Vec::new();
    let start = Instant::now();
    while rec.rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rec.tally = Tally::default();
        let report = rec.span("driver.run_scenario", None, |_| run_scenario(spec))?;
        rec.span("render", None, |_| render(&report));
        digests.push(crate::digest::digest(&report));
        plans = rec.span("compile", None, |rec| compile(rec, &point, &system))?;
        let cells: &[StrategyCell] = &report.points[0].cells;
        for (strategy, cell) in spec.strategies.iter().zip(cells) {
            rec.check(cell.strategy == *strategy, || {
                format!("cell {} holds {}", strategy.label(), cell.strategy.label())
            });
            match &point.workload {
                WorkloadSpec::Generated { .. } => {
                    replay_plans(&mut rec, &plans, &system, *strategy, cell)?;
                }
                WorkloadSpec::Mix(_) => {
                    replay_mix(&mut rec, &plans, &point, &system, *strategy, cell)?
                }
                WorkloadSpec::Open(_) => {
                    replay_open(&mut rec, &plans, &point, &system, *strategy, cell)?
                }
                WorkloadSpec::Chain { .. } => {
                    return Err(DlbError::config(
                        "chain workloads are not benchmark workloads",
                    ))
                }
            }
        }
        rec.rounds += 1;
    }
    let metrics = metrics(&rec, &plans);
    Ok(Trace {
        metrics,
        mismatches: rec.mismatches,
        digests,
        spans: rec.spans,
    })
}

/// The system of the sweep point, as the scenario driver builds it.
fn point_system(point: &ScenarioSpec) -> HierarchicalSystem {
    let machine = point.machine;
    let system = HierarchicalSystem::hierarchical(machine.nodes, machine.processors_per_node)
        .with_options(point.options);
    match machine.memory_per_node_mb {
        Some(mb) => system.with_memory_per_node(mb * 1024 * 1024),
        None => system,
    }
}

/// Replays workload compile (`dlb-query`): generate, optimize each query,
/// build each plan — the steps of `CompiledWorkload::generate`.
fn compile(
    rec: &mut Recorder,
    point: &ScenarioSpec,
    system: &HierarchicalSystem,
) -> Result<Vec<(usize, ParallelPlan)>> {
    let (queries, relations, scale, seed) = match &point.workload {
        WorkloadSpec::Generated {
            queries,
            relations,
            scale,
            seed,
        } => (*queries, *relations, *scale, *seed),
        WorkloadSpec::Mix(m) => (m.queries, m.relations, m.scale, m.seed),
        WorkloadSpec::Open(o) => (o.templates, o.relations, o.scale, o.seed),
        WorkloadSpec::Chain { .. } => {
            return Err(DlbError::config(
                "chain workloads are not benchmark workloads",
            ))
        }
    };
    let params = WorkloadParams {
        queries,
        relations_per_query: relations,
        scale,
        skew: 0.0,
        seed,
    };
    let generated = rec.span("query.generate", None, |_| {
        WorkloadGenerator::new(params).generate()
    });
    let config = system.config();
    let optimizer = Optimizer::new(
        OptimizerParams::default(),
        CostModel::new(config.costs, config.disk, config.cpu),
    );
    let mut plans = Vec::new();
    for (qi, query) in generated.iter().enumerate() {
        let trees = rec.span("query.optimize", None, |_| optimizer.optimize(query))?;
        for tree in trees {
            let plan = rec.span("query.plan", None, |_| {
                let optree = OperatorTree::from_join_tree(&tree);
                let homes = OperatorHomes::all_nodes(&optree, system.nodes());
                ParallelPlan::build(query.id, optree, homes, ChainScheduling::OneAtATime)
            })?;
            plans.push((qi, plan));
        }
    }
    Ok(plans)
}

/// Replays `Experiment::run`: every plan through `dlb_exec::execute`.
fn replay_plans(
    rec: &mut Recorder,
    plans: &[(usize, ParallelPlan)],
    system: &HierarchicalSystem,
    strategy: Strategy,
    cell: &StrategyCell,
) -> Result<Vec<ExecutionReport>> {
    rec.check(plans.len() == cell.runs.len(), || {
        format!(
            "{}: {} replayed plans vs {} runs",
            strategy.label(),
            plans.len(),
            cell.runs.len()
        )
    });
    let mut reports = Vec::with_capacity(plans.len());
    for (i, (_, plan)) in plans.iter().enumerate() {
        let report = rec.engine(
            "engine.execute",
            strategy,
            || execute(plan, system.config(), strategy, system.options()),
            |r| r,
        )?;
        rec.check(cell.runs.get(i).map(|r| &r.report) == Some(&report), || {
            format!("{}: plan {i} report differs", strategy.label())
        });
        reports.push(report);
    }
    Ok(reports)
}

/// The first compiled plan of every distinct query — the plan a mix query or
/// an open template runs.
fn first_plans(plans: &[(usize, ParallelPlan)]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    (0..plans.len())
        .filter(|&i| seen.insert(plans[i].0))
        .collect()
}

/// A plan's working set: the hash tables it builds.
fn memory_demand(plan: &ParallelPlan, cost: &CostModel) -> u64 {
    plan.tree
        .operators()
        .iter()
        .filter(|op| op.kind.is_build())
        .map(|op| cost.hash_table_bytes(op.input_tuples))
        .sum()
}

/// Replays `Experiment::run_mix_with_topology` for a co-simulated FCFS mix:
/// solo runs, the analytic composition, the faulted co-simulation, then the
/// fault-free composition and co-simulation it is contrasted with.
fn replay_mix(
    rec: &mut Recorder,
    plans: &[(usize, ParallelPlan)],
    point: &ScenarioSpec,
    system: &HierarchicalSystem,
    strategy: Strategy,
    cell: &StrategyCell,
) -> Result<()> {
    let WorkloadSpec::Mix(mix) = &point.workload else {
        unreachable!("replay_mix runs mix workloads");
    };
    if mix.policy != MixPolicy::Fcfs || mix.mode != dlb_core::MixMode::CoSimulated {
        return Err(DlbError::config(
            "the benchmark replay supports co-simulated FCFS mixes",
        ));
    }
    let entries = mix.entries(mix.queries, point.options.skew);
    let chosen = first_plans(plans);
    let config = system.config();
    let cost = CostModel::new(config.costs, config.disk, config.cpu);
    let mut jobs = Vec::with_capacity(entries.len());
    for (q, entry) in entries.iter().enumerate() {
        let mut options = *system.options();
        options.skew = entry.skew;
        let plan = &plans[chosen[q]].1;
        let solo = rec.engine(
            "engine.execute",
            strategy,
            || execute(plan, config, strategy, &options),
            |r| r,
        )?;
        rec.check(cell.runs.get(q).map(|r| &r.report) == Some(&solo), || {
            format!("{}: solo run of query {q} differs", strategy.label())
        });
        jobs.push(MixJob {
            arrival_secs: entry.arrival_secs,
            priority: entry.priority,
            solo_secs: solo.response_secs(),
            memory_bytes: memory_demand(plan, &cost),
        });
    }
    let faulted: &[TopologyEvent] = &mix.topology;
    let streams: &[&[TopologyEvent]] = if faulted.is_empty() {
        &[&[]]
    } else {
        &[faulted, &[]]
    };
    for (i, topology) in streams.iter().enumerate() {
        let composed = rec.span("mix.compose", Some(strategy), |_| {
            schedule_mix(
                &jobs,
                system.nodes(),
                config.machine.memory_per_node_bytes,
                mix.policy,
            )
        })?;
        if i == 0 {
            rec.check(cell.mix_composed.as_ref() == Some(&composed), || {
                format!("{}: composed schedule differs", strategy.label())
            });
        }
        let queries: Vec<CoSimQuery<'_>> = entries
            .iter()
            .enumerate()
            .map(|(q, entry)| CoSimQuery {
                plan: &plans[chosen[q]].1,
                arrival_secs: entry.arrival_secs,
                priority: entry.priority,
                skew: entry.skew,
                mask: None,
                memory_bytes: jobs[q].memory_bytes,
            })
            .collect();
        let report = rec.engine(
            "engine.cosim",
            strategy,
            || execute_cosimulated_faulted(&queries, config, strategy, system.options(), topology),
            |r| &r.aggregate,
        )?;
        let expected = if i == 0 {
            cell.mix.as_ref()
        } else {
            cell.mix_fault_free.as_ref()
        };
        let responses: Vec<f64> = report.queries.iter().map(|q| q.response_secs).collect();
        let want: Option<Vec<f64>> =
            expected.map(|s| s.queries.iter().map(|q| q.response_secs).collect());
        rec.check(want.as_ref() == Some(&responses), || {
            format!(
                "{}: co-simulated responses differ (run {i})",
                strategy.label()
            )
        });
        if !topology.is_empty() {
            rec.check(cell.faults == Some(report.faults), || {
                format!("{}: fault accounting differs", strategy.label())
            });
            rec.tally.activations_rehomed += report.faults.activations_rehomed;
            rec.tally.rebalance_bytes += report.faults.rebalance_bytes;
        }
    }
    Ok(())
}

/// Replays `Experiment::run_open_with_frontend`: the per-plan solo runs, the
/// arrival stream (`dlb-traffic`) on its own, then the open-system run with
/// its front end.
fn replay_open(
    rec: &mut Recorder,
    plans: &[(usize, ParallelPlan)],
    point: &ScenarioSpec,
    system: &HierarchicalSystem,
    strategy: Strategy,
    cell: &StrategyCell,
) -> Result<()> {
    let WorkloadSpec::Open(open) = &point.workload else {
        unreachable!("replay_open runs open workloads");
    };
    let solo = replay_plans(rec, plans, system, strategy, cell)?;
    let arrivals = open.arrivals();
    rec.tally.arrivals += rec
        .span("traffic.arrivals", None, |_| {
            ArrivalStream::new(arrivals).map(|stream| stream.count() as u64)
        })
        .map_err(DlbError::config)?;
    let config = system.config();
    let cost = CostModel::new(config.costs, config.disk, config.cpu);
    let templates = first_plans(plans)
        .into_iter()
        .map(|i| OpenTemplate {
            plan: &plans[i].1,
            memory_bytes: memory_demand(&plans[i].1, &cost),
            solo_secs: solo[i].response_secs(),
        })
        .collect();
    let traffic = OpenTraffic {
        templates,
        arrivals,
        concurrency: open.concurrency,
        frontend: open.frontend(),
    };
    let report = rec.engine(
        "engine.open",
        strategy,
        || execute_open(&traffic, config, strategy, system.options()),
        |r| &r.aggregate,
    )?;
    rec.check(cell.open.as_ref() == Some(&report), || {
        format!("{}: open-system report differs", strategy.label())
    });
    let t = &mut rec.tally;
    t.open_completed += report.completed;
    t.open_peak_live = t.open_peak_live.max(report.peak_live as u64);
    t.cache_hits += report.frontend.cache_hits;
    t.coalesced += report.frontend.coalesced;
    t.engine_queries += report.frontend.engine_queries;
    Ok(())
}

/// Metric-name form of a strategy label (`FP@0.2` → `FP_0.2`).
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metrics(
    rec: &Recorder,
    plans: &[(usize, ParallelPlan)],
) -> BTreeMap<String, (f64, &'static str)> {
    let driver_ms = rec.ms(&["driver.run_scenario"]);
    let compile_ms = rec.ms(&["compile"]);
    let engine_ms = rec.ms(&ENGINE_SPANS);
    let compose_ms = rec.ms(&["mix.compose"]);
    let render_ms = rec.ms(&["render"]);
    let engine = |s: &Span| ENGINE_SPANS.contains(&s.name);
    let events = rec.best(engine, |s| s.events);
    let t = &rec.tally;

    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    put("compile.ms", compile_ms, "ms");
    put(
        "compile.allocs",
        rec.best(|s| s.name == "compile", |s| s.allocs) as f64,
        "count",
    );
    put("query.generate.ms", rec.ms(&["query.generate"]), "ms");
    put("query.optimize.ms", rec.ms(&["query.optimize"]), "ms");
    put("query.plan.ms", rec.ms(&["query.plan"]), "ms");
    put("compile.plans", plans.len() as f64, "count");
    put(
        "compile.operators",
        plans
            .iter()
            .map(|(_, p)| p.tree.operators().len())
            .sum::<usize>() as f64,
        "count",
    );
    put("engine.ms", engine_ms, "ms");
    put("engine.share", ratio(engine_ms, driver_ms), "ratio");
    put("engine.events", events as f64, "count");
    put(
        "engine.ns_per_event",
        ratio(engine_ms * 1e6, events as f64),
        "ns",
    );
    let labels: std::collections::BTreeSet<&str> = rec
        .spans
        .iter()
        .filter(|s| engine(s))
        .filter_map(|s| s.strategy.as_deref())
        .collect();
    for label in labels {
        let mine = |s: &Span| engine(s) && s.strategy.as_deref() == Some(label);
        put(
            &format!("engine.{}.ns_per_event", sanitize(label)),
            ratio(
                rec.best(mine, Span::ns) as f64,
                rec.best(mine, |s| s.events) as f64,
            ),
            "ns",
        );
    }
    put("engine.activations", t.activations as f64, "count");
    put("engine.messages", t.messages as f64, "count");
    put(
        "engine.allocs",
        rec.best(engine, |s| s.allocs) as f64,
        "count",
    );
    put(
        "engine.alloc_bytes",
        rec.best(engine, |s| s.alloc_bytes) as f64,
        "bytes",
    );
    put("lb.requests", t.lb_requests as f64, "count");
    put("lb.acquisitions", t.lb_acquisitions as f64, "count");
    put(
        "lb.acquire_ratio",
        ratio(t.lb_acquisitions as f64, t.lb_requests as f64),
        "ratio",
    );
    put("lb.bytes", t.lb_bytes as f64, "bytes");
    put(
        "faults.activations_rehomed",
        t.activations_rehomed as f64,
        "count",
    );
    put("faults.rebalance_bytes", t.rebalance_bytes as f64, "bytes");
    put("open.completed", t.open_completed as f64, "count");
    put("open.peak_live", t.open_peak_live as f64, "count");
    put(
        "frontend.hit_ratio",
        ratio(t.cache_hits as f64, t.open_completed as f64),
        "ratio",
    );
    put("frontend.coalesced", t.coalesced as f64, "count");
    put("frontend.engine_queries", t.engine_queries as f64, "count");
    put(
        "driver.self.ms",
        driver_ms - compile_ms - engine_ms - compose_ms,
        "ms",
    );
    put("render.ms", render_ms, "ms");
    put(
        "trace.spans",
        rec.spans.len() as f64 / f64::from(rec.rounds),
        "count",
    );
    // The replayed layers against the pass they replay: near zero when the
    // replay covers the pass's work and its spans cost nothing.
    put(
        "trace.overhead_pct",
        ratio(compile_ms + engine_ms + compose_ms - driver_ms, driver_ms) * 100.0,
        "%",
    );
    // Mode-specific layers, present only where the workload reaches them:
    // they go to the trace file, not to the declared metric set.
    if compose_ms > 0.0 {
        put("engine.cosim.ms", rec.ms(&["engine.cosim"]), "ms");
        put("mix.compose.ms", compose_ms, "ms");
    }
    if t.arrivals > 0 {
        put("engine.open.ms", rec.ms(&["engine.open"]), "ms");
        put(
            "traffic.ns_per_arrival",
            rec.ms(&["traffic.arrivals"]) * 1e6 / t.arrivals as f64,
            "ns",
        );
    }
    m
}
