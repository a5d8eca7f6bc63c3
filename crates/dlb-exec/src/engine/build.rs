//! Construction: one constructor over a lane source, the closed and open
//! lane layouts, and `install_lane`, which writes a lane's operators over
//! its op slots. FP thread allocations are drawn here too.

use super::*;

impl<'a> QueueEngine<'a> {
    /// Builds an engine over `source`'s lanes and schedules the run's first
    /// events. A closed source installs every lane up front, admits the
    /// lanes that arrive at time zero and schedules a `QueryStart` for each
    /// later one; an open source starts with every lane slot empty and
    /// installs a lane per admission. Either way every thread is then
    /// kicked off at time zero, the topology stream is injected and the
    /// initial end check runs. An open run's state, and its first arrival,
    /// come from [`Self::open_run`].
    pub(crate) fn new(
        source: LaneSource<'_, 'a>,
        config: SystemConfig,
        strategy: Strategy,
        options: ExecOptions,
    ) -> Result<Self> {
        if config.machine.nodes == 0 || config.machine.processors_per_node == 0 {
            return Err(DlbError::config(
                "machine needs at least one node and processor",
            ));
        }
        // The calendar comes first: its 16 KB of wheel bucket heads then
        // reuses the block the previous run's heads freed. Allocated after
        // the run's many small vectors, it found that block split by them
        // and took fresh memory on every run, so resident memory crept up
        // by ~0.4 MB over a 15 s `paper-scale` benchmark run.
        let calendar = EventCalendar::new();
        let closed = matches!(source, LaneSource::Closed { .. });
        let (lanes, op_slots, topology) = match source {
            LaneSource::Closed { queries, topology } => {
                let lanes = Self::closed_lanes(queries, &config)?;
                let op_slots = lanes.iter().map(|l| l.n_ops).sum();
                let topology = validate_topology(topology, config.machine.nodes)?;
                (lanes, op_slots, topology)
            }
            LaneSource::Open(traffic) => {
                let (lanes, op_slots) = Self::open_lanes(traffic, &config, &options)?;
                (lanes, op_slots, Vec::new())
            }
        };
        let mut lane_order: Vec<usize> = (0..lanes.len()).collect();
        lane_order.sort_by(|&a, &b| lanes[b].priority.cmp(&lanes[a].priority).then(a.cmp(&b)));
        // Every op slot starts as a terminated placeholder of the lane whose
        // range holds it; installing a lane revives its slots.
        let ops = (0..op_slots)
            .map(|op| Self::placeholder_op(lanes.partition_point(|l| l.base <= op) - 1))
            .collect();
        let nodes = config.machine.nodes as usize;
        let threads_per_node = config.machine.processors_per_node as usize;
        let disks_per_node =
            (config.machine.processors_per_node * config.disk.disks_per_processor).max(1);
        let mut engine = Self {
            lane_hot: lanes.iter().map(LaneHot::of).collect(),
            lanes,
            lane_order,
            config,
            options,
            strategy,
            push: strategy.push_config(),
            scope: strategy.starving_scope(),
            prefers_cached: strategy.prefers_cached_tables(),
            cost: CostModel::new(config.costs, config.disk, config.cpu),
            nodes,
            threads_per_node,
            disks_per_node,
            calendar,
            messages: Slab::new(),
            clock: InstructionClock::new(
                config.cpu,
                options.contention_factor(config.machine.processors_per_node),
            ),
            disks: DiskFarm::new(config.disk, config.machine.nodes, disks_per_node),
            network: Network::new(config.network, config.cpu, config.machine.nodes),
            cpu: CpuAccounting::new(config.machine.nodes, config.machine.processors_per_node),
            ops,
            live_ops: BitSet::with_capacity(op_slots),
            ready: (0..nodes)
                .map(|_| BitSet::with_capacity(op_slots))
                .collect(),
            idle_threads: (0..nodes)
                .map(|_| BitSet::with_capacity(threads_per_node))
                .collect(),
            op_nodes: (0..op_slots)
                .map(|_| (0..nodes).map(|_| None).collect())
                .collect(),
            allowed: (0..nodes)
                .map(|_| {
                    (0..threads_per_node)
                        .map(|_| strategy.constrains_threads().then(BitSet::default))
                        .collect()
                })
                .collect(),
            node_lb: (0..nodes).map(|_| NodeLb::default()).collect(),
            disk_cursor: vec![0; nodes],
            epochs: vec![0; op_slots],
            free_mem: vec![config.machine.memory_per_node_bytes; nodes],
            admission_queue: VecDeque::new(),
            topology,
            live: vec![true; nodes],
            faults: FaultStats::default(),
            activations_done: 0,
            tuples_processed: 0,
            result_tuples: 0,
            lb_requests: 0,
            lb_acquisitions: 0,
            lb_bytes: 0,
            ops_terminated: op_slots,
            finished_at: SimTime::ZERO,
        };

        if closed {
            for lane in 0..engine.lanes.len() {
                engine.install_lane(lane)?;
            }
            engine.allow_closed_lanes();
            // Every lane already arrived at time zero enters the admission
            // queue in mix order and is admitted — memory reserved, triggers
            // seeded — while its placement has room (head-of-line FCFS,
            // exactly like `mix::schedule_mix`); later arrivals get a
            // QueryStart event at their instant.
            for lane in 0..engine.lanes.len() {
                let arrival = engine.lanes[lane].arrival;
                if arrival == SimTime::ZERO {
                    engine.admission_queue.push_back(lane);
                } else {
                    engine
                        .calendar
                        .schedule_at(arrival, Event::QueryStart { lane: lane as u32 });
                }
            }
            while let Some(lane) = engine.try_reserve_head() {
                engine.start_lane(lane);
            }
        }

        // Kick off every thread at time zero. In open mode they run before
        // the first arrival at the same instant: they find nothing and go
        // idle, and the admission wakes them with the seeded triggers in
        // place.
        for node in 0..engine.nodes {
            for thread in 0..engine.threads_per_node {
                engine
                    .calendar
                    .schedule_at(SimTime::ZERO, Event::ready(node, thread));
            }
        }
        // Inject the topology stream: each validated event fires at its
        // instant. Events past the end of the run are simply never popped.
        for index in 0..engine.topology.len() {
            let at = SimTime::ZERO + Duration::from_secs_f64(engine.topology[index].at_secs);
            engine.calendar.schedule_at(
                at,
                Event::Topology {
                    index: index as u32,
                },
            );
        }
        // Scans with no local data (or empty relations) can complete right
        // away; run an initial end check over everything already started.
        for op in 0..engine.ops.len() {
            engine.check_local_end_everywhere(op);
        }
        Ok(engine)
    }

    /// Validates a closed query list and lays its lanes out back to back:
    /// lane 0's operators first, so single-query indices coincide with
    /// plan-local indices.
    fn closed_lanes(
        queries: &[CoSimQuery<'a>],
        config: &SystemConfig,
    ) -> Result<Vec<LaneRuntime<'a>>> {
        if queries.is_empty() {
            return Err(DlbError::config("co-simulation needs at least one query"));
        }
        let machine_nodes = config.machine.nodes as usize;
        let mut lanes: Vec<LaneRuntime<'a>> = Vec::with_capacity(queries.len());
        let mut base = 0usize;
        for (i, q) in queries.iter().enumerate() {
            q.plan.validate()?;
            if q.priority == 0 {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has priority 0 (priorities are ≥ 1)"
                )));
            }
            if !(q.arrival_secs.is_finite() && q.arrival_secs >= 0.0) {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has invalid arrival {}",
                    q.arrival_secs
                )));
            }
            if !(q.skew.is_finite() && (0.0..=1.0).contains(&q.skew)) {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has skew {} outside [0, 1]",
                    q.skew
                )));
            }
            let mask: Option<Vec<NodeId>> = match q.mask {
                None => None,
                Some(nodes) => {
                    if nodes.is_empty() {
                        return Err(DlbError::config(format!(
                            "co-simulated query {i} has an empty placement mask"
                        )));
                    }
                    let mut mask: Vec<NodeId> = nodes.to_vec();
                    mask.sort_unstable();
                    mask.dedup();
                    if let Some(bad) = mask.iter().find(|n| n.index() >= machine_nodes) {
                        return Err(DlbError::config(format!(
                            "co-simulated query {i} is pinned to node {bad} but the \
                             machine has {machine_nodes} nodes"
                        )));
                    }
                    Some(mask)
                }
            };
            let placement_len = mask.as_ref().map_or(machine_nodes, Vec::len);
            let mem_per_node = q.memory_bytes.div_ceil(placement_len as u64);
            if mem_per_node > config.machine.memory_per_node_bytes {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} needs {mem_per_node} bytes on each of its \
                     {placement_len} placement node(s) but nodes have {} — it can \
                     never be admitted",
                    config.machine.memory_per_node_bytes
                )));
            }
            let n_ops = q.plan.tree.operators().len();
            lanes.push(LaneRuntime {
                arrival: SimTime::ZERO + Duration::from_secs_f64(q.arrival_secs),
                priority: q.priority,
                mask,
                memory_bytes: q.memory_bytes,
                mem_per_node,
                ..LaneRuntime::new(q.plan, base, n_ops, q.skew)
            });
            base += n_ops;
        }
        Ok(lanes)
    }

    /// Validates open traffic and lays out its `concurrency` empty lane
    /// slots, each owning a fixed contiguous range of as many op slots as
    /// the largest template has operators. Returns the slots and the op-slot
    /// count.
    fn open_lanes(
        traffic: &OpenTraffic<'a>,
        config: &SystemConfig,
        options: &ExecOptions,
    ) -> Result<(Vec<LaneRuntime<'a>>, usize)> {
        if traffic.templates.is_empty() {
            return Err(DlbError::config("open traffic needs at least one template"));
        }
        if traffic.concurrency == 0 {
            return Err(DlbError::config(
                "open traffic needs a concurrency level of at least 1",
            ));
        }
        if traffic.arrivals.templates != traffic.templates.len() {
            return Err(DlbError::config(format!(
                "arrival spec draws from {} template(s) but {} were supplied",
                traffic.arrivals.templates,
                traffic.templates.len()
            )));
        }
        traffic.frontend.validate().map_err(DlbError::config)?;
        let nodes = config.machine.nodes as usize;
        for (i, t) in traffic.templates.iter().enumerate() {
            t.plan.validate()?;
            for op in t.plan.tree.operators() {
                if !t
                    .plan
                    .homes
                    .home(op.id)
                    .nodes()
                    .iter()
                    .any(|n| n.index() < nodes)
                {
                    return Err(DlbError::plan(format!(
                        "open template {i}: operator {} has no home node within the machine",
                        op.id
                    )));
                }
            }
            let mem_per_node = t.memory_bytes.div_ceil(nodes as u64);
            if mem_per_node > config.machine.memory_per_node_bytes {
                return Err(DlbError::config(format!(
                    "open template {i} needs {mem_per_node} bytes on every node but nodes \
                     have {} — it can never be admitted",
                    config.machine.memory_per_node_bytes
                )));
            }
            if !(t.solo_secs.is_finite() && t.solo_secs >= 0.0) {
                return Err(DlbError::config(format!(
                    "open template {i} has invalid solo time {}",
                    t.solo_secs
                )));
            }
        }
        let max_ops = traffic
            .templates
            .iter()
            .map(|t| t.plan.tree.operators().len())
            .max()
            .expect("at least one template");
        let concurrency = traffic.concurrency;
        let lanes = (0..concurrency)
            .map(|i| LaneRuntime {
                released: true,
                ..LaneRuntime::new(traffic.templates[0].plan, i * max_ops, 0, options.skew)
            })
            .collect();
        Ok((lanes, concurrency * max_ops))
    }

    /// A permanently terminated operator slot: what op slots hold before
    /// their lane is installed and after an open run retires it. Empty
    /// home, no queue state, scan kind (so every steal-candidate filter
    /// skips it).
    pub(super) fn placeholder_op(lane: usize) -> OpRuntime {
        OpRuntime {
            lane,
            kind: OperatorKind::Scan {
                relation: RelationId::new(0),
            },
            consumer: None,
            home: Vec::new(),
            live_homes: Vec::new(),
            output_ratio: 0.0,
            blockers_remaining: 0,
            terminated: true,
            router: OutputRouter::empty(),
            input_sent: 0,
            input_delivered: 0,
            input_processed: 0,
            phase1_reports: 0,
            phase2_started: false,
            phase2_confirms: 0,
            build_twin: None,
            producers: Vec::new(),
        }
    }

    /// The plan's `pipelined_producers` of operator `id`, as global indices
    /// of a lane installed at `base`.
    fn global_producers(plan: &ParallelPlan, base: usize, id: OperatorId) -> Vec<usize> {
        plan.tree
            .pipelined_producers(id)
            .iter()
            .map(|p| base + p.index())
            .collect()
    }

    /// Installs lane `lane_idx`'s plan over its op slots: fresh operator
    /// runtimes in `ops[base..base + n_ops]`, queue state on every home
    /// node, and the slots marked live. A placement mask re-homes every
    /// operator of the lane onto the mask's nodes; without one the plan's
    /// own homes apply, clipped to the machine.
    pub(super) fn install_lane(&mut self, lane_idx: usize) -> Result<()> {
        let lane = &self.lanes[lane_idx];
        let (plan, base, skew) = (lane.plan, lane.base, lane.skew);
        let mask = lane.mask.clone();
        let joins = plan.tree.joins();
        for op in plan.tree.operators() {
            let idx = base + op.id.index();
            let home: Vec<NodeId> = match &mask {
                Some(mask) => mask.clone(),
                None => plan
                    .homes
                    .home(op.id)
                    .nodes()
                    .iter()
                    .copied()
                    .filter(|n| n.index() < self.nodes)
                    .collect(),
            };
            if home.is_empty() {
                return Err(DlbError::plan(format!(
                    "operator {} has no home node within the machine",
                    op.id
                )));
            }
            let mut blockers: Vec<OperatorId> = plan.blocked_by(op.id);
            blockers.sort_unstable();
            blockers.dedup();
            let output_ratio = if op.input_tuples == 0 {
                0.0
            } else {
                op.output_tuples as f64 / op.input_tuples as f64
            };
            let build_twin = match op.kind {
                OperatorKind::Probe { join } => joins.get(&join).map(|(b, _)| base + b.index()),
                _ => None,
            };
            // A placeholder slot holds no queue state on any node.
            debug_assert!(self.op_nodes[idx].iter().all(Option::is_none));
            for node in &home {
                self.op_nodes[idx][node.index()] = Some(OpNodeRuntime::new(
                    self.threads_per_node,
                    self.options.flow.queue_capacity,
                ));
            }
            self.ops[idx] = OpRuntime {
                lane: lane_idx,
                kind: op.kind,
                consumer: op.consumer.map(|c| base + c.index()),
                // The rotation uses the *global* index so that the hot
                // slots of same-shaped queries in a co-simulated mix do
                // not all land on the same threads (for a single query
                // the global index is the plan-local index).
                router: OutputRouter::new(home.len() * self.threads_per_node, skew, idx),
                home,
                output_ratio,
                blockers_remaining: blockers.len(),
                terminated: false,
                build_twin,
                producers: Self::global_producers(plan, base, op.id),
                ..Self::placeholder_op(lane_idx)
            };
            // The slot held a terminated placeholder; it is live now.
            self.ops_terminated -= 1;
            self.live_ops.insert(idx);
        }
        Ok(())
    }

    /// One FP thread allocation of `plan` on a node, drawn from `rng`.
    pub(super) fn allocate(&self, plan: &ParallelPlan, rng: &mut StdRng) -> ThreadAssignment {
        self.strategy
            .allocate(plan, self.threads_per_node as u32, &self.cost, rng)
            .unwrap_or_default()
    }

    /// Adds an allocation of the lane installed at `base` to the allowed
    /// sets of `node`'s threads.
    pub(super) fn allow_lane(&mut self, node: usize, base: usize, assignment: &ThreadAssignment) {
        for (t, ops) in assignment.iter().enumerate() {
            if let Some(set) = &mut self.allowed[node][t] {
                for o in ops {
                    set.insert(base + o.index());
                }
            }
        }
    }

    /// FP in closed mode: every lane's static allocation goes into the
    /// allowed sets of its placement nodes' threads (mapped to global
    /// operator ids and unioned per thread); DP leaves threads
    /// unconstrained. Under the default `ErrorRealization::Shared` each
    /// lane's distorted complexity estimates are drawn ONCE and the
    /// resulting allocation is reused by every node of its placement — the
    /// paper's reading: the optimizer mis-estimates a cardinality once, not
    /// once per node. `ErrorRealization::PerNode` keeps the historical
    /// fresh-draw-per-node behaviour for comparison studies.
    fn allow_closed_lanes(&mut self) {
        if !self.strategy.constrains_threads() {
            return;
        }
        let mut fp_rng = rng_from_seed(self.options.seed);
        let shared: Option<Vec<ThreadAssignment>> =
            (self.options.fp_realization == ErrorRealization::Shared).then(|| {
                self.lanes
                    .iter()
                    .map(|lane| self.allocate(lane.plan, &mut fp_rng))
                    .collect()
            });
        for node in 0..self.nodes {
            for lane in 0..self.lanes.len() {
                // A pinned lane only constrains the threads of its own
                // placement nodes.
                if let Some(mask) = &self.lanes[lane].mask {
                    if !mask.contains(&NodeId::from(node)) {
                        continue;
                    }
                }
                let fresh;
                let assignment = match &shared {
                    Some(assignments) => &assignments[lane],
                    None => {
                        fresh = self.allocate(self.lanes[lane].plan, &mut fp_rng);
                        &fresh
                    }
                };
                self.allow_lane(node, self.lanes[lane].base, assignment);
            }
        }
    }
}
