//! Experiments: running a whole workload under one strategy.
//!
//! The paper's methodology (§5.1.3) never averages absolute response times of
//! different plans; every figure point is the *average of per-plan ratios*
//! against a reference strategy. [`Experiment`] produces the per-plan reports
//! and [`crate::summary`] implements the ratio aggregation.
//!
//! Every plan execution is a self-contained, seeded, deterministic
//! simulation, so [`Experiment::run`] fans the plans of the workload out
//! across worker threads ([`rayon`]); results are collected in plan order and
//! are bit-identical to a sequential run ([`Experiment::run_sequential`]
//! exposes the sequential baseline for validation and benchmarking).
//!
//! Repeated runs are answered from a [`RunCache`]: a workspace-level cache of
//! shared [`Arc`]-backed results keyed by [`RunKey`], a bit-exact fingerprint
//! of *everything* a report depends on — strategy, the full
//! [`dlb_exec::ExecOptions`] (seed, flow control, contention model, steal
//! policy), the full [`dlb_common::SystemConfig`] (machine shape and every
//! hardware parameter) and the workload identity
//! ([`crate::workload::WorkloadFingerprint`]). Because the key is total, one
//! cache can safely be shared across systems and experiments — e.g. by every
//! point of a scenario sweep ([`crate::scenario`]) — and a hit costs one
//! reference count instead of a recomputation or a deep clone.
//!
//! The worker-thread count can be pinned with the `HIERDB_THREADS`
//! environment variable (see [`init_threads_from_env`]) or programmatically
//! with [`set_threads`].

use crate::system::HierarchicalSystem;
use crate::workload::{CompiledWorkload, MixEntry, QueryMix, WorkloadFingerprint};
use dlb_common::config::SystemConfig;
use dlb_common::{NodeId, Result};
use dlb_exec::mix::{schedule_mix, MixJob, MixMode, MixPolicy, MixSchedule};
use dlb_exec::{
    execute_cosimulated_faulted, execute_open, CoSimQuery, CoSimReport, ExecOptions,
    ExecutionReport, FaultStats, FrontendConfig, OpenReport, OpenTemplate, OpenTraffic,
    QueryOutcome, Strategy, TopologyEvent,
};
use dlb_query::cost::CostModel;
use dlb_query::generator::WorkloadParams;
use dlb_query::plan::ParallelPlan;
use dlb_traffic::ArrivalSpec;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The report of one plan execution within an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRun {
    /// Index of the plan within the workload.
    pub plan_index: usize,
    /// Index of the query the plan answers.
    pub query_index: usize,
    /// The execution report.
    pub report: ExecutionReport,
}

/// The outcome of [`Experiment::run_mix`]: the inter-query schedule plus the
/// per-query solo runs it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRun {
    /// Admission, placement and response times of every query of the mix.
    /// Under [`MixMode::CoSimulated`] these come from the interleaved engine
    /// run; under [`MixMode::Composed`] from the analytic scheduler.
    pub schedule: MixSchedule,
    /// The *composed* (analytic) schedule of the same mix, carried alongside
    /// a co-simulated schedule so reports can contrast the two fidelities.
    /// `None` for composed-mode runs (the main schedule already is one).
    pub composed: Option<MixSchedule>,
    /// One solo run per query (its plan, executed alone on the query's
    /// placement shape with the query's skew profile). `Arc`-shared so that
    /// mix-cache hits clone a reference, not the per-plan reports.
    pub solo: Arc<Vec<PlanRun>>,
    /// Degradation accounting of the injected topology events. `Some` (even
    /// if all-zero) exactly when the run was produced by
    /// [`Experiment::run_mix_with_topology`] with a non-empty event stream.
    pub faults: Option<FaultStats>,
    /// The same mix co-simulated **without** the topology events: the
    /// no-fault baseline that per-query response inflation is measured
    /// against. `Some` exactly when `faults` is.
    pub fault_free: Option<MixSchedule>,
}

/// The outcome of [`Experiment::run_open`]: the open-system report plus the
/// per-template solo runs its slowdown baseline was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRun {
    /// Streaming latency sketches, throughput and aggregate counters of the
    /// whole arrival stream (see [`dlb_exec::OpenReport`]).
    pub report: OpenReport,
    /// One solo run per template (its plan, executed alone on the whole
    /// machine). `Arc`-shared so that open-cache hits clone a reference, not
    /// the per-plan reports.
    pub solo: Arc<Vec<PlanRun>>,
}

/// Structured cache key of one experiment run: a bit-exact fingerprint of
/// every input of the simulation.
///
/// The seed's key (strategy, skew, machine shape) was only sufficient for a
/// cache private to one `Experiment`, where the remaining inputs were
/// constant; sharing results *across* systems needs the rest — the execution
/// seed, steal tuning, flow control, contention model, every hardware
/// parameter, and the identity of the workload itself. `RunKey` folds all of
/// them in: floats are keyed by their IEEE-754 bit patterns, so two values
/// that differ by less than any display precision can never collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    strategy: StrategyKey,
    bits: Box<[u64]>,
    workload: WorkloadFingerprint,
}

/// The strategy component of a [`RunKey`]: the policy's registered name plus
/// its parameter values keyed by IEEE-754 bit patterns (FP's error rate,
/// Diffusion's radius, Threshold's hi/lo — whatever the policy declares, in
/// identity order). Trait-object identity reduced to plain data, so two
/// handles of one policy collide exactly when their parameters do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StrategyKey {
    name: &'static str,
    param_bits: [u64; dlb_exec::strategy::MAX_PARAMS],
}

impl RunKey {
    /// Builds the key for `strategy` under `options` on the machine described
    /// by `config`, running the workload identified by `workload`.
    pub fn new(
        strategy: Strategy,
        options: &ExecOptions,
        config: &SystemConfig,
        workload: &WorkloadFingerprint,
    ) -> Self {
        Self::with_extra(strategy, options, config, workload, std::iter::empty())
    }

    /// The key of one inter-query mix run: the base fingerprint extended
    /// with the mix identity — evaluation mode, placement policy, every
    /// per-query descriptor (arrival, priority, skew) and every per-query
    /// memory demand (the working sets the admission — analytic or
    /// co-simulated — reasons about; placement masks derive from the policy
    /// and these inputs, so the mask+memory bits of a co-simulated run are
    /// fully pinned down), and the injected topology-event stream (time,
    /// node and kind of every event — the recovery policies acting on them
    /// are part of the base options bits). The machine's memory limit is
    /// already part of the base `config` bits.
    #[allow(clippy::too_many_arguments)]
    pub fn for_mix(
        strategy: Strategy,
        options: &ExecOptions,
        config: &SystemConfig,
        workload: &WorkloadFingerprint,
        entries: &[MixEntry],
        policy: MixPolicy,
        mode: MixMode,
        memory_demands: &[u64],
        topology: &[TopologyEvent],
    ) -> Self {
        let mix_bits = [
            u64::MAX, // discriminant: a mix run, never colliding with plain keys
            match mode {
                MixMode::Composed => 0,
                MixMode::CoSimulated => 1,
            },
            match policy {
                MixPolicy::Fcfs => 0,
                MixPolicy::RoundRobin => 1,
                MixPolicy::LoadAware => 2,
            },
            entries.len() as u64,
        ]
        .into_iter()
        .chain(entries.iter().flat_map(|e| {
            [
                e.arrival_secs.to_bits(),
                e.priority as u64,
                e.skew.to_bits(),
            ]
        }))
        .chain(memory_demands.iter().copied())
        .chain(std::iter::once(topology.len() as u64))
        .chain(
            topology
                .iter()
                .flat_map(|e| [e.at_secs.to_bits(), e.node.index() as u64, e.change.bits()]),
        );
        Self::with_extra(strategy, options, config, workload, mix_bits)
    }

    /// The key of one open-system run: the base fingerprint extended with
    /// the traffic identity — arrival process (kind, rate, burstiness,
    /// query count, template-pool size, template skew, priority classes,
    /// stream seed), the concurrency level and the front-end configuration
    /// (cache capacity, TTL, coalescing, fan-out cost). The per-template
    /// memory demands and solo baselines are pure functions of inputs the
    /// base key already covers (workload, cost model, machine, options), so
    /// they need no extra bits.
    pub fn for_open(
        strategy: Strategy,
        options: &ExecOptions,
        config: &SystemConfig,
        workload: &WorkloadFingerprint,
        arrivals: &ArrivalSpec,
        concurrency: usize,
        frontend: &FrontendConfig,
    ) -> Self {
        let open_bits = [
            // Discriminant: an open run, never colliding with plain keys
            // (no extra bits) or mix keys (discriminant u64::MAX).
            u64::MAX - 1,
            match arrivals.kind {
                dlb_traffic::ArrivalKind::Poisson => 0,
                dlb_traffic::ArrivalKind::Bursty => 1,
                dlb_traffic::ArrivalKind::Diurnal => 2,
            },
            arrivals.rate_qps.to_bits(),
            arrivals.burstiness.to_bits(),
            arrivals.queries as u64,
            arrivals.templates as u64,
            arrivals.template_skew.to_bits(),
            arrivals.priority_classes as u64,
            arrivals.seed,
            concurrency as u64,
            frontend.cache_capacity as u64,
            frontend.cache_ttl_secs.to_bits(),
            frontend.coalesce as u64,
            frontend.fanout_cost_secs.to_bits(),
        ];
        Self::with_extra(strategy, options, config, workload, open_bits)
    }

    fn with_extra(
        strategy: Strategy,
        options: &ExecOptions,
        config: &SystemConfig,
        workload: &WorkloadFingerprint,
        extra: impl IntoIterator<Item = u64>,
    ) -> Self {
        let strategy = StrategyKey {
            name: strategy.name(),
            param_bits: strategy.param_bits(),
        };
        let mut bits: Vec<u64> = Vec::with_capacity(32);
        // Execution options, group by group.
        bits.extend([
            options.skew.to_bits(),
            options.seed,
            match options.fp_realization {
                dlb_exec::ErrorRealization::Shared => 0,
                dlb_exec::ErrorRealization::PerNode => 1,
            },
            options.flow.queue_capacity as u64,
            options.flow.trigger_pages,
            options.contention.threshold as u64,
            options.contention.degradation.to_bits(),
            options.steal.min_tuples,
            options.steal.fraction.to_bits(),
            match options.recovery.policy {
                dlb_exec::RecoveryPolicy::RehomeResume => 0,
                dlb_exec::RecoveryPolicy::LoseRestart => 1,
            },
            match options.recovery.rehome {
                dlb_exec::RehomePolicy::ConsistentHash => 0,
                dlb_exec::RehomePolicy::Range => 1,
            },
        ]);
        // Machine shape and hardware parameters.
        bits.extend([
            config.machine.nodes as u64,
            config.machine.processors_per_node as u64,
            config.machine.memory_per_node_bytes,
            config.cpu.mips.to_bits(),
            config
                .network
                .bandwidth_bytes_per_sec
                .map_or(u64::MAX, f64::to_bits),
            config.network.end_to_end_delay.as_nanos(),
            config.network.send_instr_per_page,
            config.network.recv_instr_per_page,
            config.disk.disks_per_processor as u64,
            config.disk.latency.as_nanos(),
            config.disk.seek_time.as_nanos(),
            config.disk.transfer_rate_bytes_per_sec.to_bits(),
            config.disk.async_io_init_instr,
            config.disk.io_cache_pages as u64,
        ]);
        // Cost-model constants.
        bits.extend([
            config.costs.tuple_bytes,
            config.costs.scan_tuple_instr,
            config.costs.build_tuple_instr,
            config.costs.probe_tuple_instr,
            config.costs.result_tuple_instr,
            config.costs.queue_access_instr,
            config.costs.interference_instr,
            config.costs.operator_startup_instr,
            config.costs.control_message_instr,
            config.costs.tuples_per_batch,
        ]);
        bits.extend(extra);
        Self {
            strategy,
            bits: bits.into_boxed_slice(),
            workload: workload.clone(),
        }
    }
}

/// A workspace-level cache of experiment runs, keyed by [`RunKey`].
///
/// Because the key fingerprints every simulation input, one `RunCache` can be
/// shared across experiments, systems and sweeps: the scenario driver uses a
/// single cache for a whole figure grid, so e.g. the SP reference of Figure 7
/// is computed once per machine shape no matter how many error rates probe
/// it. Hits share one allocation (`Arc` clone), never a deep copy.
#[derive(Debug, Default)]
pub struct RunCache {
    map: Mutex<HashMap<RunKey, Arc<Vec<PlanRun>>>>,
    /// Inter-query mix runs, keyed by [`RunKey::for_mix`]. Kept apart from
    /// the per-plan map because the cached value is a whole [`MixRun`]
    /// (schedule + contrast + solo set), not a plan list.
    mix: Mutex<HashMap<RunKey, Arc<MixRun>>>,
    /// Open-system runs, keyed by [`RunKey::for_open`].
    open: Mutex<HashMap<RunKey, Arc<OpenRun>>>,
}

impl RunCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached plan runs (mix runs are counted by [`mix_len`]).
    ///
    /// [`mix_len`]: RunCache::mix_len
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// Number of cached inter-query mix runs.
    pub fn mix_len(&self) -> usize {
        lock(&self.mix).len()
    }

    /// Number of cached open-system runs.
    pub fn open_len(&self) -> usize {
        lock(&self.open).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.map).is_empty() && lock(&self.mix).is_empty() && lock(&self.open).is_empty()
    }

    /// Looks up a cached run.
    pub fn get(&self, key: &RunKey) -> Option<Arc<Vec<PlanRun>>> {
        lock(&self.map).get(key).map(Arc::clone)
    }

    /// Inserts `runs` unless the key is already present, returning the cached
    /// value either way. Keeping the first insertion means every racing
    /// caller shares one allocation, preserving the `Arc::ptr_eq` cache-hit
    /// contract even under concurrent runs.
    pub fn insert_or_get(&self, key: RunKey, runs: Arc<Vec<PlanRun>>) -> Arc<Vec<PlanRun>> {
        let mut map = lock(&self.map);
        Arc::clone(map.entry(key).or_insert(runs))
    }

    /// Looks up a cached mix run.
    pub fn get_mix(&self, key: &RunKey) -> Option<Arc<MixRun>> {
        lock(&self.mix).get(key).map(Arc::clone)
    }

    /// Inserts a mix run unless the key is already present, returning the
    /// cached value either way (same first-insertion-wins contract as
    /// [`insert_or_get`]).
    ///
    /// [`insert_or_get`]: RunCache::insert_or_get
    pub fn insert_or_get_mix(&self, key: RunKey, run: Arc<MixRun>) -> Arc<MixRun> {
        let mut map = lock(&self.mix);
        Arc::clone(map.entry(key).or_insert(run))
    }

    /// Looks up a cached open-system run.
    pub fn get_open(&self, key: &RunKey) -> Option<Arc<OpenRun>> {
        lock(&self.open).get(key).map(Arc::clone)
    }

    /// Inserts an open-system run unless the key is already present,
    /// returning the cached value either way (same first-insertion-wins
    /// contract as [`insert_or_get`]).
    ///
    /// [`insert_or_get`]: RunCache::insert_or_get
    pub fn insert_or_get_open(&self, key: RunKey, run: Arc<OpenRun>) -> Arc<OpenRun> {
        let mut map = lock(&self.open);
        Arc::clone(map.entry(key).or_insert(run))
    }
}

/// Locks one of the cache's maps. Each insert is a single `entry` call, so a
/// panic in another thread holding the lock leaves the map whole: a poisoned
/// lock is taken over instead of propagating the panic.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pins the number of worker threads used by [`Experiment::run`] (0 =
/// automatic, one per available core), returning whether the pool was
/// actually (re)configured.
///
/// Call this **before the first parallel operation**. The offline rayon shim
/// allows reconfiguring at any time (always `true`), but the real rayon's
/// `build_global` fails once the global pool has been used — such a late call
/// returns `false` and keeps the existing thread count.
pub fn set_threads(n: usize) -> bool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .is_ok()
}

/// Applies the `HIERDB_THREADS` environment variable, if set, to the
/// worker-thread pool. Figure and benchmark binaries call this once at
/// start-up; an unset variable leaves the automatic setting in place, while
/// an unparseable value or a pool that refuses reconfiguration logs a warning
/// to stderr instead of being silently ignored.
pub fn init_threads_from_env() {
    let Ok(value) = std::env::var("HIERDB_THREADS") else {
        return;
    };
    match value.parse::<usize>() {
        Ok(n) => {
            if !set_threads(n) {
                eprintln!(
                    "warning: HIERDB_THREADS={value} ignored: \
                     the global thread pool is already initialized"
                );
            }
        }
        Err(_) => eprintln!(
            "warning: HIERDB_THREADS={value:?} is not a valid thread count; \
             using the automatic setting"
        ),
    }
}

/// An experiment: a system, a compiled workload, and the machinery to execute
/// every plan under a chosen strategy.
#[derive(Debug, Clone)]
pub struct Experiment {
    system: HierarchicalSystem,
    workload: Arc<CompiledWorkload>,
    /// Cache of runs keyed by [`RunKey`], so repeated references (e.g. SP as
    /// the baseline of several figures) are computed once and shared without
    /// deep-cloning the reports. Fresh per [`Experiment::new`]; share one
    /// across experiments with [`ExperimentBuilder::cache`] or
    /// [`Experiment::with_cache`].
    cache: Arc<RunCache>,
}

impl Experiment {
    /// Starts building an experiment.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Creates an experiment from an existing system and workload, with a
    /// private cache.
    pub fn new(system: HierarchicalSystem, workload: CompiledWorkload) -> Self {
        Self::with_cache(system, Arc::new(workload), Arc::new(RunCache::new()))
    }

    /// Creates an experiment sharing an existing workload and run cache —
    /// the constructor sweep drivers use so that every point of a sweep
    /// draws from (and feeds) one cache.
    pub fn with_cache(
        system: HierarchicalSystem,
        workload: Arc<CompiledWorkload>,
        cache: Arc<RunCache>,
    ) -> Self {
        Self {
            system,
            workload,
            cache,
        }
    }

    /// The system under test.
    pub fn system(&self) -> &HierarchicalSystem {
        &self.system
    }

    /// The compiled workload.
    pub fn workload(&self) -> &CompiledWorkload {
        &self.workload
    }

    /// The run cache this experiment reads and feeds.
    pub fn cache(&self) -> &Arc<RunCache> {
        &self.cache
    }

    /// Returns a copy of this experiment running on a different system but
    /// the same workload (used for processor-count and skew sweeps). The
    /// cache **is** shared: [`RunKey`] fingerprints the machine and options,
    /// so runs of different systems can never be confused, and shared
    /// references (e.g. a sweep's baseline point) are computed only once.
    pub fn on_system(&self, system: HierarchicalSystem) -> Self {
        Self {
            system,
            workload: Arc::clone(&self.workload),
            cache: Arc::clone(&self.cache),
        }
    }

    fn cache_key(&self, strategy: Strategy) -> RunKey {
        RunKey::new(
            strategy,
            self.system.options(),
            self.system.config(),
            self.workload.fingerprint(),
        )
    }

    /// Executes one plan of the workload (shared by the parallel and
    /// sequential paths so that both run byte-for-byte the same simulation).
    fn run_plan(
        &self,
        strategy: Strategy,
        plan_index: usize,
        entry: &(usize, ParallelPlan),
    ) -> Result<PlanRun> {
        let (query_index, plan) = entry;
        let report = self.system.run(plan, strategy)?;
        Ok(PlanRun {
            plan_index,
            query_index: *query_index,
            report,
        })
    }

    /// Runs every plan of the workload under `strategy`, returning one
    /// [`PlanRun`] per plan.
    ///
    /// Plans are independent seeded simulations, so they are fanned out
    /// across worker threads; results come back in plan order and are
    /// bit-identical to [`run_sequential`]. Results are cached per
    /// [`RunKey`]; cache hits share the same allocation.
    ///
    /// [`run_sequential`]: Experiment::run_sequential
    pub fn run(&self, strategy: Strategy) -> Result<Arc<Vec<PlanRun>>> {
        let key = self.cache_key(strategy);
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached);
        }
        let runs: Result<Vec<PlanRun>> = self
            .workload
            .plans()
            .par_iter()
            .enumerate()
            .map(|(plan_index, entry)| self.run_plan(strategy, plan_index, entry))
            .collect();
        Ok(self.cache.insert_or_get(key, Arc::new(runs?)))
    }

    /// Runs an inter-query mix on this experiment's system: admission,
    /// placement and processor sharing of the mix's queries on the shared
    /// SM-nodes (see [`dlb_exec::mix`]).
    ///
    /// For each query the engine first measures the *solo* response time of
    /// the query's plan under `strategy` on the query's placement shape —
    /// the full machine for [`MixPolicy::Fcfs`], one SM-node for the pinning
    /// policies — with the query's own skew profile. These runs go through
    /// this experiment's [`RunCache`] (each query is simulated exactly once
    /// per configuration — queries sharing a skew profile are batched into
    /// one cached sub-workload run, and repeated sweep points or reference
    /// strategies are cache hits).
    ///
    /// What happens next depends on `mode`:
    ///
    /// * [`MixMode::Composed`] — the analytic scheduler derives per-query
    ///   and aggregate response times under priority-weighted processor
    ///   sharing and the per-node memory admission limit.
    /// * [`MixMode::CoSimulated`] — all queries are re-executed **together**
    ///   in one engine event loop ([`dlb_exec::execute_cosimulated`]):
    ///   intra-run interference (queue contention, flow control, cross-query
    ///   steal traffic, per-node memory admission) is simulated rather than
    ///   modeled. The pinning policies re-home each query's plan onto the
    ///   node the analytic scheduler chose (its *placement mask*), so both
    ///   fidelities answer the same placement question; the analytic
    ///   schedule is carried as [`MixRun::composed`] so reports can contrast
    ///   the two.
    ///
    /// Whole mix runs are cached under an extended [`RunKey`]
    /// ([`RunKey::for_mix`]) that fingerprints the mix identity (mode,
    /// policy, per-query arrival/priority/skew/memory demand) on top of
    /// every simulation input, so repeated sweep points are cache hits even
    /// in co-simulated mode.
    ///
    /// The mix carries its own workload; this experiment contributes the
    /// machine, the base execution options and the shared cache.
    pub fn run_mix(
        &self,
        mix: &QueryMix,
        policy: MixPolicy,
        mode: MixMode,
        strategy: Strategy,
    ) -> Result<MixRun> {
        self.run_mix_with_topology(mix, policy, mode, strategy, &[])
    }

    /// [`run_mix`] with a deterministic topology-event stream (node
    /// failures, drains, re-joins) injected into the co-simulated event
    /// loop — see [`dlb_exec::execute_cosimulated_faulted`].
    ///
    /// A non-empty stream requires [`MixMode::CoSimulated`] (the analytic
    /// composition has no event loop to fail a node in). Besides the faulted
    /// schedule, the run then carries [`MixRun::faults`] (degradation
    /// accounting) and [`MixRun::fault_free`] (the same mix without the
    /// events, sharing this experiment's cache), so reports can state
    /// per-query response inflation against the no-fault baseline.
    ///
    /// [`run_mix`]: Experiment::run_mix
    pub fn run_mix_with_topology(
        &self,
        mix: &QueryMix,
        policy: MixPolicy,
        mode: MixMode,
        strategy: Strategy,
        topology: &[TopologyEvent],
    ) -> Result<MixRun> {
        if !topology.is_empty() && mode != MixMode::CoSimulated {
            return Err(dlb_common::DlbError::config(
                "topology events require the co-simulated mix mode; the analytic \
                 composition has no event loop to inject them into",
            ));
        }
        let config = self.system.config();
        let cost = CostModel::new(config.costs, config.disk, config.cpu);
        let demands: Vec<u64> = (0..mix.len())
            .map(|q| mix.memory_demand(q, &cost))
            .collect();
        let key = RunKey::for_mix(
            strategy,
            self.system.options(),
            config,
            mix.workload().fingerprint(),
            mix.entries(),
            policy,
            mode,
            &demands,
            topology,
        );
        if let Some(hit) = self.cache.get_mix(&key) {
            return Ok((*hit).clone());
        }

        // The placement shape: what one query of the mix actually occupies.
        let placement = match policy {
            MixPolicy::Fcfs => self.system.clone(),
            MixPolicy::RoundRobin | MixPolicy::LoadAware => self.system.clone().with_nodes(1),
        };

        // Group queries by skew profile; each distinct profile becomes one
        // (cached) run of a sub-workload holding exactly those queries'
        // chosen plans, so every query is simulated once — never the whole
        // multi-plan workload per profile. The sub-workload's derived
        // fingerprint keeps the cache exact across strategies and sweeps.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (q, entry) in mix.entries().iter().enumerate() {
            let bits = entry.skew.to_bits();
            match groups.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, queries)) => queries.push(q),
                None => groups.push((bits, vec![q])),
            }
        }
        let mut solo: Vec<Option<PlanRun>> = vec![None; mix.len()];
        for (bits, queries) in &groups {
            let indices: Vec<usize> = queries.iter().map(|&q| mix.plan_index(q)).collect();
            let sub = Arc::new(mix.workload().subset(&indices));
            let mut options = *self.system.options();
            options.skew = f64::from_bits(*bits);
            let exp = Experiment::with_cache(
                placement.clone().with_options(options),
                sub,
                Arc::clone(&self.cache),
            );
            let runs = exp.run(strategy)?;
            for (position, &q) in queries.iter().enumerate() {
                let mut run = runs[position].clone();
                // Re-anchor to the mix's workload-relative plan index so the
                // assembled solo set has one unique index per query.
                run.plan_index = mix.plan_index(q);
                solo[q] = Some(run);
            }
        }
        let solo: Arc<Vec<PlanRun>> = Arc::new(
            solo.into_iter()
                .map(|run| run.expect("every query was simulated"))
                .collect(),
        );

        let jobs: Vec<MixJob> = mix
            .entries()
            .iter()
            .enumerate()
            .map(|(q, entry)| MixJob {
                arrival_secs: entry.arrival_secs,
                priority: entry.priority,
                solo_secs: solo[q].report.response_secs(),
                memory_bytes: demands[q],
            })
            .collect();

        let composed = schedule_mix(
            &jobs,
            self.system.nodes(),
            config.machine.memory_per_node_bytes,
            policy,
        )?;
        let run = match mode {
            MixMode::Composed => MixRun {
                schedule: composed,
                composed: None,
                solo,
                faults: None,
                fault_free: None,
            },
            MixMode::CoSimulated => {
                // Placement masks: FCFS spreads every query over the whole
                // machine (no mask); the pinning policies re-home each query
                // onto the node the analytic scheduler chose — round-robin
                // rotation, or the least-loaded node at the analytic
                // admission instant — so the co-simulation answers the same
                // placement decision at full fidelity.
                let mut placements: Vec<Option<u32>> = vec![None; mix.len()];
                for outcome in &composed.queries {
                    placements[outcome.query] = outcome.node;
                }
                let masks: Vec<Option<Vec<NodeId>>> = placements
                    .iter()
                    .map(|node| node.map(|n| vec![NodeId::from(n as usize)]))
                    .collect();
                let queries: Vec<CoSimQuery<'_>> = mix
                    .entries()
                    .iter()
                    .enumerate()
                    .map(|(q, entry)| CoSimQuery {
                        plan: mix.plan(q),
                        arrival_secs: entry.arrival_secs,
                        priority: entry.priority,
                        skew: entry.skew,
                        mask: masks[q].as_deref(),
                        memory_bytes: demands[q],
                    })
                    .collect();
                let report = execute_cosimulated_faulted(
                    &queries,
                    config,
                    strategy,
                    self.system.options(),
                    topology,
                )?;
                // A faulted run carries the same mix without the events as
                // its inflation baseline; the recursive call shares this
                // experiment's cache, so sweeps pay for it once.
                let fault_free = if topology.is_empty() {
                    None
                } else {
                    Some(self.run_mix(mix, policy, mode, strategy)?.schedule)
                };
                MixRun {
                    schedule: cosim_schedule(&report, &jobs, policy, &placements),
                    composed: Some(composed),
                    solo,
                    faults: (!topology.is_empty()).then_some(report.faults),
                    fault_free,
                }
            }
        };
        Ok((*self.cache.insert_or_get_mix(key, Arc::new(run))).clone())
    }

    /// Runs an open system on this experiment's machine: the workload's
    /// plans become the query-template pool, `arrivals` generates the
    /// stochastic stream over that pool, and the engine admits arrivals FCFS
    /// into at most `concurrency` lane slots (per-node memory permitting),
    /// retiring each query — and dropping its operator state — on completion
    /// (see [`dlb_exec::execute_open`]).
    ///
    /// The per-template slowdown baselines are this experiment's own cached
    /// whole-machine solo runs ([`Experiment::run`]), and each template's
    /// memory demand is its plan's hash-table working set under this
    /// machine's cost model — the same demand the mix scheduler reasons
    /// about. Whole open runs are cached under [`RunKey::for_open`], so
    /// repeated sweep points and reference strategies are cache hits.
    ///
    /// Like [`QueryMix`], the first compiled plan of each
    /// distinct query becomes that template's plan, so `arrivals.templates`
    /// must equal the workload's distinct query count.
    pub fn run_open(
        &self,
        arrivals: &ArrivalSpec,
        concurrency: usize,
        strategy: Strategy,
    ) -> Result<OpenRun> {
        self.run_open_with_frontend(arrivals, concurrency, FrontendConfig::default(), strategy)
    }

    /// [`Experiment::run_open`] with a front-end layer (result cache +
    /// single-flight coalescing) between the arrival stream and the engine's
    /// waiting room. With the default (inert) config this is exactly
    /// `run_open` — same events, same report, bit for bit.
    pub fn run_open_with_frontend(
        &self,
        arrivals: &ArrivalSpec,
        concurrency: usize,
        frontend: FrontendConfig,
        strategy: Strategy,
    ) -> Result<OpenRun> {
        // First plan per distinct query — the optimizer may have emitted
        // several plan variants per query.
        let mut chosen: Vec<usize> = Vec::new();
        let mut seen_query = std::collections::BTreeSet::new();
        for (plan_index, (query_index, _)) in self.workload.plans().iter().enumerate() {
            if seen_query.insert(*query_index) {
                chosen.push(plan_index);
            }
        }
        if arrivals.templates != chosen.len() {
            return Err(dlb_common::DlbError::config(format!(
                "the arrival spec draws from {} templates but the workload \
                 compiled {} distinct queries",
                arrivals.templates,
                chosen.len()
            )));
        }
        if concurrency == 0 {
            return Err(dlb_common::DlbError::config(
                "open-system runs need at least one lane slot",
            ));
        }
        let config = self.system.config();
        let key = RunKey::for_open(
            strategy,
            self.system.options(),
            config,
            self.workload.fingerprint(),
            arrivals,
            concurrency,
            &frontend,
        );
        if let Some(hit) = self.cache.get_open(&key) {
            return Ok((*hit).clone());
        }
        // Solo baselines: the cached whole-machine run of every template.
        let solo = self.run(strategy)?;
        // Working sets under this machine's cost model — the same hash-table
        // estimate the mix admission uses.
        let cost = CostModel::new(config.costs, config.disk, config.cpu);
        let templates: Vec<OpenTemplate<'_>> = chosen
            .iter()
            .map(|&plan_index| {
                let (_, plan) = &self.workload.plans()[plan_index];
                OpenTemplate {
                    plan,
                    memory_bytes: plan
                        .tree
                        .operators()
                        .iter()
                        .filter(|op| op.kind.is_build())
                        .map(|op| cost.hash_table_bytes(op.input_tuples))
                        .sum(),
                    solo_secs: solo[plan_index].report.response_secs(),
                }
            })
            .collect();
        let traffic = OpenTraffic {
            templates,
            arrivals: *arrivals,
            concurrency,
            frontend,
        };
        let report = execute_open(&traffic, config, strategy, self.system.options())?;
        let run = OpenRun { report, solo };
        Ok((*self.cache.insert_or_get_open(key, Arc::new(run))).clone())
    }

    /// Runs every plan strictly sequentially on the calling thread, bypassing
    /// the cache: the baseline against which the parallel fan-out of [`run`]
    /// is validated (determinism tests).
    ///
    /// [`run`]: Experiment::run
    pub fn run_sequential(&self, strategy: Strategy) -> Result<Vec<PlanRun>> {
        self.workload
            .plans()
            .iter()
            .enumerate()
            .map(|(plan_index, entry)| self.run_plan(strategy, plan_index, entry))
            .collect()
    }
}

/// Assembles the [`MixSchedule`] of one co-simulated engine run: per-query
/// outcomes — including the admission instants and waits the engine's
/// in-loop memory admission produced — come from the interleaved execution
/// ([`CoSimReport`]); the solo times of the (composed-compatible)
/// [`MixJob`]s provide the slowdown baseline, and `placements` records the
/// node each query was pinned to (`None` for whole-machine FCFS spreading).
fn cosim_schedule(
    report: &CoSimReport,
    jobs: &[MixJob],
    policy: MixPolicy,
    placements: &[Option<u32>],
) -> MixSchedule {
    let queries: Vec<QueryOutcome> = report
        .queries
        .iter()
        .map(|q| QueryOutcome {
            query: q.query,
            node: placements[q.query],
            arrival_secs: q.arrival_secs,
            admitted_secs: q.admitted_secs,
            completion_secs: q.completion_secs,
            response_secs: q.response_secs,
            wait_secs: q.wait_secs,
            solo_secs: jobs[q.query].solo_secs,
            slowdown: if jobs[q.query].solo_secs > 0.0 {
                q.response_secs / jobs[q.query].solo_secs
            } else {
                1.0
            },
        })
        .collect();
    let n = queries.len() as f64;
    let mean = |f: &dyn Fn(&QueryOutcome) -> f64| -> f64 {
        if queries.is_empty() {
            0.0
        } else {
            queries.iter().map(f).sum::<f64>() / n
        }
    };
    MixSchedule {
        policy,
        mode: MixMode::CoSimulated,
        makespan_secs: queries
            .iter()
            .map(|o| o.completion_secs)
            .fold(0.0, f64::max),
        mean_response_secs: mean(&|o| o.response_secs),
        max_response_secs: queries.iter().map(|o| o.response_secs).fold(0.0, f64::max),
        mean_slowdown: mean(&|o| o.slowdown),
        mean_wait_secs: mean(&|o| o.wait_secs),
        queries,
    }
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    system: Option<HierarchicalSystem>,
    workload_params: Option<WorkloadParams>,
    cache: Option<Arc<RunCache>>,
}

impl ExperimentBuilder {
    /// Sets the system under test.
    pub fn system(mut self, system: HierarchicalSystem) -> Self {
        self.system = Some(system);
        self
    }

    /// Sets the workload-generation parameters.
    pub fn workload(mut self, params: WorkloadParams) -> Self {
        self.workload_params = Some(params);
        self
    }

    /// Shares an existing run cache instead of starting with a private one.
    pub fn cache(mut self, cache: Arc<RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Generates the workload and builds the experiment.
    pub fn build(self) -> Result<Experiment> {
        let system = self
            .system
            .unwrap_or_else(|| HierarchicalSystem::builder().build());
        let params = self.workload_params.unwrap_or_default();
        let workload = CompiledWorkload::generate(params, &system)?;
        Ok(Experiment::with_cache(
            system,
            Arc::new(workload),
            self.cache.unwrap_or_default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_exec::StealPolicy;

    fn small_experiment(nodes: u32, procs: u32) -> Experiment {
        Experiment::builder()
            .system(HierarchicalSystem::hierarchical(nodes, procs))
            .workload(WorkloadParams::tiny(2, 4, 11))
            .build()
            .unwrap()
    }

    #[test]
    fn experiment_runs_every_plan() {
        let exp = small_experiment(1, 4);
        let runs = exp.run(Strategy::dynamic()).unwrap();
        assert_eq!(runs.len(), exp.workload().len());
        for run in runs.iter() {
            assert!(run.report.response_time.as_secs_f64() > 0.0);
        }
    }

    #[test]
    fn cache_returns_identical_results() {
        let exp = small_experiment(1, 2);
        let a = exp.run(Strategy::dynamic()).unwrap();
        let b = exp.run(Strategy::dynamic()).unwrap();
        assert_eq!(a, b);
        // A hit shares the allocation instead of deep-cloning the reports.
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn sequential_run_matches_parallel_run() {
        let exp = small_experiment(2, 2);
        let parallel = exp.run(Strategy::dynamic()).unwrap();
        let sequential = exp.run_sequential(Strategy::dynamic()).unwrap();
        assert_eq!(*parallel, sequential);
    }

    #[test]
    fn on_system_keeps_the_same_workload() {
        let exp = small_experiment(1, 2);
        let bigger = exp.on_system(HierarchicalSystem::shared_memory(8));
        assert_eq!(bigger.workload().len(), exp.workload().len());
        let small = exp.run(Strategy::dynamic()).unwrap();
        let big = bigger.run(Strategy::dynamic()).unwrap();
        // More processors must not be slower on average.
        let mean_small: f64 =
            small.iter().map(|r| r.report.response_secs()).sum::<f64>() / small.len() as f64;
        let mean_big: f64 =
            big.iter().map(|r| r.report.response_secs()).sum::<f64>() / big.len() as f64;
        assert!(mean_big <= mean_small * 1.05);
    }

    #[test]
    fn default_builder_uses_default_system() {
        let exp = Experiment::builder()
            .workload(WorkloadParams::tiny(1, 3, 3))
            .build()
            .unwrap();
        assert_eq!(exp.system().nodes(), 4);
    }

    fn key_for(strategy: Strategy, options: &ExecOptions, config: &SystemConfig) -> RunKey {
        let system = HierarchicalSystem::shared_memory(2);
        let workload = CompiledWorkload::generate(WorkloadParams::tiny(1, 3, 3), &system).unwrap();
        RunKey::new(strategy, options, config, workload.fingerprint())
    }

    #[test]
    fn run_key_distinguishes_skews_beyond_display_precision() {
        // Regression test for the stringly cache key: two skews whose f64
        // bit patterns differ by one ULP must produce distinct keys, no
        // matter how they would format.
        let a = 0.3_f64;
        let b = f64::from_bits(a.to_bits() + 1);
        assert_ne!(a.to_bits(), b.to_bits());
        let config = SystemConfig::shared_memory(8);
        let ka = key_for(Strategy::dynamic(), &ExecOptions::with_skew(a), &config);
        let kb = key_for(Strategy::dynamic(), &ExecOptions::with_skew(b), &config);
        assert_ne!(ka, kb);
        // Same for FP error rates.
        let o = ExecOptions::default();
        let ea = key_for(Strategy::fixed(a), &o, &config);
        let eb = key_for(Strategy::fixed(b), &o, &config);
        assert_ne!(ea, eb);
        // Identical parameters produce identical keys.
        assert_eq!(
            ka,
            key_for(Strategy::dynamic(), &ExecOptions::with_skew(0.3), &config)
        );
    }

    #[test]
    fn run_key_distinguishes_strategies_machines_and_tuning() {
        let o = ExecOptions::default();
        let c48 = SystemConfig::hierarchical(4, 8);
        let dp = key_for(Strategy::dynamic(), &o, &c48);
        let sp = key_for(Strategy::synchronous(), &o, &c48);
        let fp = key_for(Strategy::fixed(0.0), &o, &c48);
        assert_ne!(dp, sp);
        assert_ne!(dp, fp);
        assert_ne!(fp, sp);
        assert_ne!(
            dp,
            key_for(Strategy::dynamic(), &o, &SystemConfig::hierarchical(2, 8))
        );
        assert_ne!(
            dp,
            key_for(Strategy::dynamic(), &o, &SystemConfig::hierarchical(4, 4))
        );
        // Fields the seed's key ignored now count: the execution seed, the
        // steal tuning, and hardware parameters.
        let reseeded = ExecOptions::builder().seed(o.seed + 1).build();
        assert_ne!(dp, key_for(Strategy::dynamic(), &reseeded, &c48));
        let retuned = ExecOptions::builder()
            .steal(StealPolicy {
                min_tuples: o.steal.min_tuples + 1,
                fraction: o.steal.fraction,
            })
            .build();
        assert_ne!(dp, key_for(Strategy::dynamic(), &retuned, &c48));
        // The FP error-realization knob is a simulation input too.
        let per_node = ExecOptions::builder()
            .fp_realization(dlb_exec::ErrorRealization::PerNode)
            .build();
        assert_ne!(
            key_for(Strategy::fixed(0.2), &o, &c48),
            key_for(Strategy::fixed(0.2), &per_node, &c48)
        );
        let mut slower = c48;
        slower.cpu.mips = 39.0;
        assert_ne!(dp, key_for(Strategy::dynamic(), &o, &slower));
    }

    #[test]
    fn run_mix_reports_per_query_and_aggregate_responses() {
        use crate::workload::MixEntry;
        let exp = small_experiment(2, 2);
        let entries = vec![
            MixEntry::default(),
            MixEntry {
                arrival_secs: 0.0,
                priority: 1,
                skew: 0.5,
            },
        ];
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), entries).unwrap();
        let run = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::Composed,
                Strategy::dynamic(),
            )
            .unwrap();
        assert_eq!(run.schedule.queries.len(), 2);
        assert_eq!(run.solo.len(), 2);
        for (q, outcome) in run.schedule.queries.iter().enumerate() {
            assert_eq!(outcome.query, q);
            assert!(outcome.response_secs > 0.0);
            assert!(outcome.slowdown >= 1.0 - 1e-9);
            assert!(
                (outcome.solo_secs - run.solo[q].report.response_secs()).abs() < 1e-12,
                "solo time comes from the engine run"
            );
        }
        // Two simultaneous queries sharing the machine: neither can be
        // faster than alone, and at least one is measurably slower.
        assert!(run.schedule.mean_slowdown > 1.0);
        assert!(run.schedule.makespan_secs >= run.schedule.max_response_secs);
    }

    #[test]
    fn run_mix_pinning_policies_use_single_node_solo_runs() {
        use crate::workload::MixEntry;
        let exp = small_experiment(2, 2);
        let entries = vec![MixEntry::default(), MixEntry::default()];
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), entries).unwrap();
        let rr = exp
            .run_mix(
                &mix,
                MixPolicy::RoundRobin,
                MixMode::Composed,
                Strategy::dynamic(),
            )
            .unwrap();
        // Pinned to distinct nodes: no inter-query interference at all.
        for outcome in &rr.schedule.queries {
            assert!(outcome.node.is_some());
            assert!((outcome.slowdown - 1.0).abs() < 1e-9);
        }
        // The FCFS placement measures solo runs on the full machine, the
        // pinning placement on one node: distinct simulations, both valid.
        let fcfs = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::Composed,
                Strategy::dynamic(),
            )
            .unwrap();
        for (a, b) in rr.solo.iter().zip(fcfs.solo.iter()) {
            assert_eq!(a.report.nodes, 1);
            assert_eq!(b.report.nodes, 2);
            assert!(a.report.response_secs() > 0.0 && b.report.response_secs() > 0.0);
        }
        // The solo runs landed in the shared cache: re-running the mix does
        // not grow it.
        let before = exp.cache().len();
        exp.run_mix(
            &mix,
            MixPolicy::RoundRobin,
            MixMode::Composed,
            Strategy::dynamic(),
        )
        .unwrap();
        assert_eq!(exp.cache().len(), before);
    }

    #[test]
    fn run_mix_cosimulated_contrasts_the_composed_model_and_caches() {
        use crate::workload::MixEntry;
        let exp = small_experiment(2, 2);
        let entries = vec![
            MixEntry::default(),
            MixEntry {
                arrival_secs: 0.0,
                priority: 2,
                skew: 0.3,
            },
        ];
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), entries).unwrap();
        let run = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        assert_eq!(run.schedule.mode, MixMode::CoSimulated);
        assert_eq!(run.schedule.queries.len(), 2);
        assert_eq!(run.solo.len(), 2);
        // The contrast schedule is the analytic composition of the same mix.
        let contrast = run.composed.as_ref().expect("cosim carries the contrast");
        assert_eq!(contrast.mode, MixMode::Composed);
        let composed_run = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::Composed,
                Strategy::dynamic(),
            )
            .unwrap();
        assert_eq!(&composed_run.schedule, contrast);
        assert!(composed_run.composed.is_none());
        // Slowdowns are anchored on the same engine-measured solo runs.
        for (q, outcome) in run.schedule.queries.iter().enumerate() {
            assert_eq!(outcome.query, q);
            assert!(outcome.response_secs > 0.0);
            assert_eq!(outcome.node, None, "cosim spreads over the whole machine");
            assert!(
                (outcome.solo_secs - run.solo[q].report.response_secs()).abs() < 1e-12,
                "solo time comes from the engine run"
            );
        }
        // Both mode runs are cached under distinct extended keys; repeats
        // are hits that change nothing.
        assert_eq!(exp.cache().mix_len(), 2);
        let again = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        assert_eq!(again, run);
        assert_eq!(exp.cache().mix_len(), 2);
    }

    #[test]
    fn run_mix_cosim_single_query_matches_the_solo_engine_run_exactly() {
        use crate::workload::MixEntry;
        let exp = Experiment::builder()
            .system(HierarchicalSystem::hierarchical(2, 2))
            .workload(WorkloadParams::tiny(1, 4, 11))
            .build()
            .unwrap();
        let mix =
            QueryMix::new(Arc::new(exp.workload().clone()), vec![MixEntry::default()]).unwrap();
        let run = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        let outcome = &run.schedule.queries[0];
        assert_eq!(
            outcome.response_secs,
            run.solo[0].report.response_secs(),
            "one co-simulated query IS the plain engine run"
        );
        assert_eq!(outcome.slowdown, 1.0);
        assert_eq!(run.schedule.mean_wait_secs, 0.0);
    }

    #[test]
    fn run_mix_cosimulates_pinning_placements() {
        use crate::workload::MixEntry;
        let exp = small_experiment(2, 2);
        let entries = vec![MixEntry::default(), MixEntry::default()];
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), entries).unwrap();
        for policy in [MixPolicy::RoundRobin, MixPolicy::LoadAware] {
            let run = exp
                .run_mix(&mix, policy, MixMode::CoSimulated, Strategy::dynamic())
                .unwrap();
            assert_eq!(run.schedule.mode, MixMode::CoSimulated);
            let contrast = run.composed.as_ref().expect("cosim carries the contrast");
            for (a, b) in run.schedule.queries.iter().zip(&contrast.queries) {
                assert_eq!(
                    a.node, b.node,
                    "{policy:?}: the co-simulation pins the analytic placement"
                );
                assert!(a.node.is_some(), "{policy:?}: pinning policies pin");
            }
            // Two queries rotated onto the two nodes never share a node:
            // the masks really isolate the lanes. Query 0 reproduces its
            // single-node solo run bit-exactly (same routers, same node);
            // query 1's activation routing differs from its solo capture
            // (router seeds key off the global operator index), so it gets
            // a tolerance — but with no contention it stays near solo, and
            // the isolated lanes run concurrently, not serialized.
            if policy == MixPolicy::RoundRobin {
                let nodes: Vec<_> = run.schedule.queries.iter().map(|q| q.node).collect();
                assert_eq!(nodes, vec![Some(0), Some(1)]);
                let s0 = run.solo[0].report.response_secs();
                let s1 = run.solo[1].report.response_secs();
                assert_eq!(run.schedule.queries[0].response_secs, s0);
                assert!(
                    run.schedule.queries[1].response_secs < s1 * 1.5,
                    "query 1 alone on node 1 must stay near solo speed ({} vs {s1})",
                    run.schedule.queries[1].response_secs
                );
                assert!(
                    run.schedule.makespan_secs < s0 + s1,
                    "isolated lanes run concurrently, not serialized"
                );
            }
        }
    }

    #[test]
    fn run_mix_cosim_memory_admission_waits_match_the_discipline() {
        use crate::workload::MixEntry;
        use dlb_query::cost::CostModel;
        // A machine whose per-node memory admits any single query but never
        // two at once: the second FCFS query must wait for the first
        // release, inside the event loop.
        let system = HierarchicalSystem::hierarchical(1, 2);
        let workload = CompiledWorkload::generate(
            WorkloadParams {
                queries: 2,
                relations_per_query: 4,
                scale: 2.0,
                skew: 0.0,
                seed: 42,
            },
            &system,
        )
        .unwrap();
        let exp = Experiment::new(system.clone(), workload);
        let mix = QueryMix::new(
            Arc::new(exp.workload().clone()),
            vec![MixEntry::default(); 2],
        )
        .unwrap();
        let config = system.config();
        let cost = CostModel::new(config.costs, config.disk, config.cpu);
        let demands: Vec<u64> = (0..mix.len())
            .map(|q| mix.memory_demand(q, &cost))
            .collect();
        let tight = *demands.iter().max().unwrap();
        assert!(
            *demands.iter().min().unwrap() > 0,
            "demands {demands:?} must be positive"
        );

        let tight_exp = exp.on_system(system.clone().with_memory_per_node(tight));
        let run = tight_exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        let q0 = &run.schedule.queries[0];
        let q1 = &run.schedule.queries[1];
        assert_eq!(q0.wait_secs, 0.0, "the first arrival admits immediately");
        assert!(
            q1.wait_secs > 0.0,
            "the second query must wait for the release (waits {:?})",
            (q0.wait_secs, q1.wait_secs)
        );
        // Admission is serialized: the second query enters exactly when the
        // first completes, and it then runs without processor sharing.
        assert_eq!(q1.admitted_secs, q0.completion_secs);
        assert!(run.schedule.mean_wait_secs > 0.0);

        // With generous memory both are admitted on arrival and interleave.
        let generous = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        assert!(generous.schedule.queries.iter().all(|q| q.wait_secs == 0.0));
        assert_eq!(generous.schedule.mean_wait_secs, 0.0);

        // A demand that can never fit is a configuration error, not a stall.
        let impossible = exp.on_system(system.with_memory_per_node(tight / 2));
        let err = impossible
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap_err();
        assert!(
            matches!(err, dlb_common::DlbError::InvalidConfig(_)),
            "{err}"
        );
    }

    #[test]
    fn mix_run_keys_distinguish_mode_policy_and_entries() {
        use crate::workload::MixEntry;
        let system = HierarchicalSystem::hierarchical(2, 2);
        let workload = CompiledWorkload::generate(WorkloadParams::tiny(2, 4, 11), &system).unwrap();
        let options = ExecOptions::default();
        let entries = vec![MixEntry::default(), MixEntry::default()];
        let demands = [1u64 << 20, 2u64 << 20];
        let key = |entries: &[MixEntry], policy, mode, demands: &[u64]| {
            RunKey::for_mix(
                Strategy::dynamic(),
                &options,
                system.config(),
                workload.fingerprint(),
                entries,
                policy,
                mode,
                demands,
                &[],
            )
        };
        let base = key(&entries, MixPolicy::Fcfs, MixMode::Composed, &demands);
        assert_eq!(
            base,
            key(&entries, MixPolicy::Fcfs, MixMode::Composed, &demands)
        );
        assert_ne!(
            base,
            key(&entries, MixPolicy::Fcfs, MixMode::CoSimulated, &demands)
        );
        assert_ne!(
            base,
            key(&entries, MixPolicy::LoadAware, MixMode::Composed, &demands)
        );
        // The per-query memory demands — the bits the admission (and the
        // co-simulated placement masks derived from them) reason about —
        // separate entries too.
        assert_ne!(
            base,
            key(
                &entries,
                MixPolicy::Fcfs,
                MixMode::Composed,
                &[1u64 << 20, 3u64 << 20]
            )
        );
        let mut reprioritized = entries.clone();
        reprioritized[1].priority = 2;
        assert_ne!(
            base,
            key(&reprioritized, MixPolicy::Fcfs, MixMode::Composed, &demands)
        );
        let mut reskewed = entries.clone();
        reskewed[0].skew = 0.5;
        assert_ne!(
            base,
            key(&reskewed, MixPolicy::Fcfs, MixMode::Composed, &demands)
        );
        // A mix key never collides with the plain key of the same inputs.
        assert_ne!(
            base,
            RunKey::new(
                Strategy::dynamic(),
                &options,
                system.config(),
                workload.fingerprint()
            )
        );
        // Topology events and recovery policies are simulation inputs too.
        let faulted_key = |topology: &[TopologyEvent], options: &ExecOptions| {
            RunKey::for_mix(
                Strategy::dynamic(),
                options,
                system.config(),
                workload.fingerprint(),
                &entries,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                &demands,
                topology,
            )
        };
        let cosim = key(&entries, MixPolicy::Fcfs, MixMode::CoSimulated, &demands);
        let fail = [TopologyEvent::fail(0.1, 1)];
        assert_ne!(cosim, faulted_key(&fail, &options));
        assert_ne!(
            faulted_key(&fail, &options),
            faulted_key(&[TopologyEvent::fail(0.2, 1)], &options)
        );
        assert_ne!(
            faulted_key(&fail, &options),
            faulted_key(&[TopologyEvent::drain(0.1, 1)], &options)
        );
        let lose = ExecOptions::builder()
            .recovery_policy(dlb_exec::RecoveryPolicy::LoseRestart)
            .build();
        assert_ne!(faulted_key(&fail, &options), faulted_key(&fail, &lose));
        let range = ExecOptions::builder()
            .rehome_policy(dlb_exec::RehomePolicy::Range)
            .build();
        assert_ne!(faulted_key(&fail, &options), faulted_key(&fail, &range));
    }

    #[test]
    fn run_mix_with_topology_reports_faults_and_the_no_fault_baseline() {
        use crate::workload::MixEntry;
        let exp = small_experiment(2, 2);
        let entries = vec![MixEntry::default(), MixEntry::default()];
        let mix = QueryMix::new(Arc::new(exp.workload().clone()), entries).unwrap();
        // Composed mode cannot host topology events.
        let fail_early = [TopologyEvent::fail(1e-3, 1)];
        assert!(exp
            .run_mix_with_topology(
                &mix,
                MixPolicy::Fcfs,
                MixMode::Composed,
                Strategy::dynamic(),
                &fail_early,
            )
            .is_err());
        let clean = exp
            .run_mix(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
            )
            .unwrap();
        assert!(clean.faults.is_none() && clean.fault_free.is_none());
        let faulted = exp
            .run_mix_with_topology(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
                &fail_early,
            )
            .unwrap();
        let stats = faulted.faults.expect("faulted runs carry fault stats");
        assert_eq!(stats.failures, 1);
        // The carried baseline is the clean co-simulated schedule, byte for
        // byte (it came from the shared cache).
        assert_eq!(faulted.fault_free.as_ref(), Some(&clean.schedule));
        // The failure reshapes the run (no monotonic response claim is safe
        // at this scale: re-homing changes the interleaving, which can speed
        // individual queries or even this tiny mix up). What must hold: the
        // faulted schedule differs from the clean baseline and the stats
        // record the recovery work.
        assert_ne!(faulted.schedule, clean.schedule);
        assert!(stats.activations_rehomed > 0 || stats.tuples_rehomed > 0);
        // Faulted and clean runs are cached under distinct keys; a repeat is
        // a pure hit.
        let again = exp
            .run_mix_with_topology(
                &mix,
                MixPolicy::Fcfs,
                MixMode::CoSimulated,
                Strategy::dynamic(),
                &fail_early,
            )
            .unwrap();
        assert_eq!(again, faulted);
    }

    fn small_arrivals(queries: usize, templates: usize) -> ArrivalSpec {
        ArrivalSpec {
            kind: dlb_traffic::ArrivalKind::Poisson,
            rate_qps: 50.0,
            burstiness: 0.0,
            queries,
            templates,
            template_skew: 0.0,
            priority_classes: 1,
            seed: 7,
        }
    }

    #[test]
    fn run_open_reports_latencies_and_caches() {
        let exp = small_experiment(2, 2);
        let arrivals = small_arrivals(20, exp.workload().queries().len());
        let run = exp.run_open(&arrivals, 2, Strategy::dynamic()).unwrap();
        assert_eq!(run.report.completed, 20);
        assert_eq!(run.report.response.count(), 20);
        assert!(run.report.peak_live <= 2);
        assert!(run.report.throughput_qps > 0.0);
        assert_eq!(run.solo.len(), exp.workload().len());
        // Loaded responses can never beat the solo baseline: every slowdown
        // sample is >= 1 (the zero bucket stays empty).
        assert_eq!(
            run.report.slowdown.quantile(0.0).map(|v| v > 0.0),
            Some(true)
        );
        // A repeat is a pure cache hit.
        assert_eq!(exp.cache().open_len(), 1);
        let again = exp.run_open(&arrivals, 2, Strategy::dynamic()).unwrap();
        assert_eq!(again, run);
        assert_eq!(exp.cache().open_len(), 1);
        // Mismatched template pool or a zero concurrency are config errors.
        assert!(exp
            .run_open(&small_arrivals(20, 99), 2, Strategy::dynamic())
            .is_err());
        assert!(exp.run_open(&arrivals, 0, Strategy::dynamic()).is_err());
    }

    #[test]
    fn open_run_keys_distinguish_traffic_and_concurrency() {
        let system = HierarchicalSystem::hierarchical(2, 2);
        let workload = CompiledWorkload::generate(WorkloadParams::tiny(2, 4, 11), &system).unwrap();
        let options = ExecOptions::default();
        let frontend = FrontendConfig::default();
        let key = |arrivals: &ArrivalSpec, concurrency: usize| {
            RunKey::for_open(
                Strategy::dynamic(),
                &options,
                system.config(),
                workload.fingerprint(),
                arrivals,
                concurrency,
                &frontend,
            )
        };
        let base_spec = small_arrivals(20, 2);
        let base = key(&base_spec, 4);
        assert_eq!(base, key(&base_spec, 4));
        assert_ne!(base, key(&base_spec, 8));
        assert_ne!(
            base,
            key(
                &ArrivalSpec {
                    rate_qps: 51.0,
                    ..base_spec
                },
                4
            )
        );
        assert_ne!(
            base,
            key(
                &ArrivalSpec {
                    kind: dlb_traffic::ArrivalKind::Bursty,
                    ..base_spec
                },
                4
            )
        );
        assert_ne!(
            base,
            key(
                &ArrivalSpec {
                    seed: 8,
                    ..base_spec
                },
                4
            )
        );
        assert_ne!(
            base,
            key(
                &ArrivalSpec {
                    queries: 21,
                    ..base_spec
                },
                4
            )
        );
        assert_ne!(
            base,
            key(
                &ArrivalSpec {
                    template_skew: 0.5,
                    ..base_spec
                },
                4
            )
        );
        // Every front-end knob is part of the key.
        let fe_key = |frontend: &FrontendConfig| {
            RunKey::for_open(
                Strategy::dynamic(),
                &options,
                system.config(),
                workload.fingerprint(),
                &base_spec,
                4,
                frontend,
            )
        };
        for frontend in [
            FrontendConfig {
                cache_capacity: 2,
                ..FrontendConfig::default()
            },
            FrontendConfig {
                cache_ttl_secs: 0.5,
                ..FrontendConfig::default()
            },
            FrontendConfig {
                coalesce: true,
                ..FrontendConfig::default()
            },
            FrontendConfig {
                fanout_cost_secs: 0.001,
                ..FrontendConfig::default()
            },
        ] {
            assert_ne!(base, fe_key(&frontend), "{frontend:?}");
        }
        // Open keys never collide with plain or mix keys of the same inputs.
        assert_ne!(
            base,
            RunKey::new(
                Strategy::dynamic(),
                &options,
                system.config(),
                workload.fingerprint()
            )
        );
    }

    #[test]
    fn distinct_strategies_are_cached_separately() {
        let exp = small_experiment(1, 2);
        let dp = exp.run(Strategy::dynamic()).unwrap();
        let fp = exp.run(Strategy::fixed(0.0)).unwrap();
        assert!(!Arc::ptr_eq(&dp, &fp));
        // Both stay cached.
        assert!(Arc::ptr_eq(&dp, &exp.run(Strategy::dynamic()).unwrap()));
        assert!(Arc::ptr_eq(&fp, &exp.run(Strategy::fixed(0.0)).unwrap()));
    }

    #[test]
    fn shared_cache_spans_systems_without_confusing_them() {
        let exp = small_experiment(2, 2);
        let base = exp.run(Strategy::dynamic()).unwrap();
        // Same machine, options differing only in steal tuning — fields the
        // seed's per-experiment key did not cover. The shared cache must
        // keep them apart.
        let retuned = exp
            .system()
            .clone()
            .with_options(ExecOptions::builder().min_steal_tuples(1).build());
        let other = exp.on_system(retuned);
        let tuned_runs = other.run(Strategy::dynamic()).unwrap();
        assert!(!Arc::ptr_eq(&base, &tuned_runs));
        // While a genuinely identical configuration, reached through a
        // different Experiment value, hits the shared entry.
        let same = exp.on_system(exp.system().clone());
        assert!(Arc::ptr_eq(&base, &same.run(Strategy::dynamic()).unwrap()));
        assert_eq!(exp.cache().len(), 2);
    }
}
