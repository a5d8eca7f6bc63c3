//! Memory admission: the closed head-of-line FCFS queue and the open
//! system's arrivals, waiting room, lane-slot admission and retirement,
//! reached from the event loop through the `Lanes` impls of `Closed` and
//! `OpenState`.

use super::*;

impl<'a> Lanes<'a> for Closed {
    /// Every operator terminated; the final lane's `QueryRelease` may be
    /// left unprocessed.
    fn is_done(&self, engine: &QueueEngine<'a>) -> bool {
        engine.ops_terminated >= engine.ops.len()
    }

    /// A closed run schedules no arrivals.
    fn on_arrival(&mut self, _engine: &mut QueueEngine<'a>) {}

    /// Frees the lane's working set, then admits every waiting lane that
    /// now fits.
    fn on_release(&mut self, engine: &mut QueueEngine<'a>, lane: usize) {
        if engine.release_lane(lane) {
            engine.admit_waiting();
        }
    }
}

impl<'a> Lanes<'a> for OpenState<'a> {
    /// The arrival stream is exhausted, the waiting room is empty and every
    /// admitted query retired (its `QueryRelease` processed, so the final
    /// latency samples are recorded and the final slot freed).
    fn is_done(&self, _engine: &QueueEngine<'a>) -> bool {
        self.upcoming.is_none() && self.pending.is_empty() && self.live_now() == 0
    }

    /// The next query of the arrival stream arrives: unless the front end
    /// serves it, it enters the waiting room. The following arrival is
    /// drawn and scheduled (lazy, one ahead), and admission runs.
    fn on_arrival(&mut self, engine: &mut QueueEngine<'a>) {
        let Some(arrival) = self.upcoming.take() else {
            return;
        };
        let now = engine.calendar.now();
        if self.front_end(arrival, now) {
            self.pending.push_back(OpenPending {
                arrived_at: now,
                template: arrival.template,
                priority: arrival.priority,
            });
        }
        self.upcoming = self.stream.next();
        engine.schedule_arrival(self);
        engine.try_admit_open(self);
    }

    /// Frees the lane's working set, retires the lane and admits from the
    /// waiting room.
    fn on_release(&mut self, engine: &mut QueueEngine<'a>, lane: usize) {
        if engine.release_lane(lane) {
            engine.retire_open_lane(lane, self);
            engine.try_admit_open(self);
        }
    }
}

impl<'a> OpenState<'a> {
    /// The state of an open run over `traffic`, with the first arrival
    /// drawn.
    fn new(traffic: &OpenTraffic<'a>, options: &ExecOptions) -> Result<Self> {
        let mut stream = ArrivalStream::new(traffic.arrivals).map_err(DlbError::config)?;
        let concurrency = traffic.concurrency;
        let priority_classes = traffic.arrivals.priority_classes as usize;
        Ok(Self {
            templates: traffic.templates.clone(),
            upcoming: stream.next(),
            stream,
            pending: VecDeque::new(),
            free_slots: (0..concurrency).rev().collect(),
            peak_live: 0,
            completed: 0,
            admission_seq: 0,
            lane_seq: vec![0; concurrency],
            lane_template: vec![0; concurrency],
            fp_rng: rng_from_seed(options.seed),
            response: LatencyHistogram::new(),
            wait: LatencyHistogram::new(),
            slowdown: LatencyHistogram::new(),
            response_by_class: (0..priority_classes.max(1))
                .map(|_| LatencyHistogram::new())
                .collect(),
            frontend: traffic.frontend,
            cache: ResultCache::new(
                traffic.frontend.cache_capacity,
                traffic.frontend.cache_ttl_secs,
            ),
            flight: SingleFlight::new(),
            cache_bypass: 0,
            engine_queries: 0,
            engine_by_template: vec![0; traffic.templates.len()],
            response_engine: LatencyHistogram::new(),
            response_cache_hit: LatencyHistogram::new(),
            response_coalesced: LatencyHistogram::new(),
            front_finish: SimTime::ZERO,
        })
    }

    /// Lane slots holding an admitted query.
    fn live_now(&self) -> usize {
        self.lane_seq.len() - self.free_slots.len()
    }

    /// Records one completed query of `template` in the latency sketches:
    /// its response, its admission wait, its slowdown against the
    /// template's solo time, and its response in its priority class.
    fn record(&mut self, template: usize, priority: u32, response: f64, wait: f64) {
        let solo = self.templates[template].solo_secs;
        let slowdown = if solo > 0.0 { response / solo } else { 1.0 };
        self.response.record(response);
        self.wait.record(wait);
        self.slowdown.record(slowdown);
        let class = (priority as usize - 1).min(self.response_by_class.len() - 1);
        self.response_by_class[class].record(response);
        self.completed += 1;
    }

    /// The front end's verdict on an arrival at `now`: the result cache
    /// serves a hit on the spot, and single-flight coalescing subscribes a
    /// repeat of an in-flight query to its leader. Returns whether the
    /// arrival goes on to the waiting room. A disabled front end passes
    /// every arrival.
    fn front_end(&mut self, arrival: Arrival, now: SimTime) -> bool {
        if !self.frontend.enabled() {
            return true;
        }
        if self.frontend.cache_capacity == 0 {
            self.cache_bypass += 1;
        } else if let Lookup::Hit(()) = self.cache.lookup(&arrival.template, now.as_secs_f64()) {
            // Served from cache: retire synchronously at now + fan-out,
            // never touching a lane or the calendar. Wait is zero — it
            // never queued.
            let response = self.frontend.fanout_cost_secs;
            self.record(arrival.template, arrival.priority, response, 0.0);
            self.response_cache_hit.record(response);
            let retire_at = now + Duration::from_secs_f64(response);
            self.front_finish = self.front_finish.max(retire_at);
            return false;
        }
        if self.frontend.coalesce && !self.flight.lead(arrival.template) {
            // An identical query is in flight: subscribe to its leader
            // instead of executing again.
            let follower = OpenFollower {
                arrived_at: now,
                priority: arrival.priority,
            };
            self.flight.attach(&arrival.template, follower);
            return false;
        }
        true
    }
}

impl<'a> QueueEngine<'a> {
    // ----------------------------------------------------------------- //
    // Memory admission (head-of-line FCFS, matching `mix::schedule_mix`)
    // ----------------------------------------------------------------- //

    /// The *live* node indices of one lane's placement (its mask, or the
    /// whole machine). With no topology events every node is live, so this is
    /// exactly the static placement.
    pub(super) fn admission_nodes(&self, lane: usize) -> Vec<usize> {
        match &self.lanes[lane].mask {
            Some(mask) => mask
                .iter()
                .map(|n| n.index())
                .filter(|&n| self.live[n])
                .collect(),
            None => (0..self.nodes).filter(|&n| self.live[n]).collect(),
        }
    }

    /// If the head-of-line waiting lane fits on every live node of its
    /// placement, pops it and reserves its memory, returning the lane.
    /// Admission is strictly FCFS: a later lane never jumps a blocked head.
    pub(super) fn try_reserve_head(&mut self) -> Option<usize> {
        let &lane = self.admission_queue.front()?;
        let mem = self.lanes[lane].mem_per_node;
        let nodes = self.admission_nodes(lane);
        if !nodes.iter().all(|&n| self.free_mem[n] >= mem) {
            return None;
        }
        for &n in &nodes {
            self.free_mem[n] -= mem;
        }
        self.lanes[lane].reserved = nodes.into_iter().map(|n| (n, mem)).collect();
        self.admission_queue.pop_front();
        Some(lane)
    }

    /// Marks an admitted lane started and seeds its triggers. Memory was
    /// already reserved by [`Self::try_reserve_head`].
    pub(super) fn start_lane(&mut self, lane: usize) {
        self.lanes[lane].started = true;
        self.lanes[lane].admitted_at = self.calendar.now();
        self.sync_lane_hot(lane);
        self.seed_triggers(lane);
    }

    /// Re-snapshots one lane's hot scheduling fields after a
    /// `started`/`n_ops` mutation (see [`LaneHot`]).
    fn sync_lane_hot(&mut self, lane: usize) {
        self.lane_hot[lane] = LaneHot::of(&self.lanes[lane]);
    }

    /// Post-admission bookkeeping of a lane admitted mid-run: trivially-done
    /// operators report, and every node wakes (the new work may sit
    /// anywhere, and steal decisions must see it).
    fn activate_lane(&mut self, lane: usize) {
        let (base, n_ops) = (self.lanes[lane].base, self.lanes[lane].n_ops);
        for op in base..base + n_ops {
            self.check_local_end_everywhere(op);
        }
        for node in 0..self.nodes {
            self.wake_threads(node, None);
        }
    }

    /// A co-simulated query arrives: it joins the admission queue and — when
    /// its placement has the memory and no earlier query is blocked ahead of
    /// it — is admitted on the spot: memory reserved, triggers seeded,
    /// machine woken.
    pub(super) fn on_query_start(&mut self, lane: usize) {
        self.admission_queue.push_back(lane);
        while let Some(admitted) = self.try_reserve_head() {
            self.on_query_admit(admitted);
        }
    }

    /// Starts a lane whose memory is reserved and wakes the machine. A
    /// query that waited gets here by a `QueryAdmit` event after a release.
    pub(super) fn on_query_admit(&mut self, lane: usize) {
        self.start_lane(lane);
        self.activate_lane(lane);
    }

    /// Frees a completed lane's working set on its placement nodes. Returns
    /// `false`, and frees nothing, when the lane already released: a
    /// restarted operator can re-terminate a lane (lose-and-restart rebuilds
    /// after the lane's first completion).
    fn release_lane(&mut self, lane: usize) -> bool {
        if std::mem::replace(&mut self.lanes[lane].released, true) {
            return false;
        }
        let cap = self.config.machine.memory_per_node_bytes;
        for (n, amt) in std::mem::take(&mut self.lanes[lane].reserved) {
            // Reservations moved onto a survivor may have overcommitted it
            // (saturating reserve); cap the give-back at the capacity.
            self.free_mem[n] = (self.free_mem[n] + amt).min(cap);
        }
        true
    }

    /// Admits every waiting lane that fits, each as its own `QueryAdmit`
    /// event at the current instant. Memory is reserved at scheduling time,
    /// so the chain of fits stays consistent.
    pub(super) fn admit_waiting(&mut self) {
        let now = self.calendar.now();
        while let Some(admitted) = self.try_reserve_head() {
            self.calendar.schedule_at(
                now,
                Event::QueryAdmit {
                    lane: admitted as u32,
                },
            );
        }
    }

    // ----------------------------------------------------------------- //
    // Open-system mode (stochastic arrivals, bounded live state)
    // ----------------------------------------------------------------- //

    /// An open run over `traffic`: the engine [`Self::new`] builds over its
    /// lane slots, and the open state the run owns, with the first arrival
    /// scheduled.
    pub(super) fn open_run(
        traffic: &OpenTraffic<'a>,
        config: SystemConfig,
        strategy: Strategy,
        options: ExecOptions,
    ) -> Result<(Self, OpenState<'a>)> {
        let mut engine = Self::new(LaneSource::Open(traffic), config, strategy, options)?;
        let open = OpenState::new(traffic, &options)?;
        engine.schedule_arrival(&open);
        Ok((engine, open))
    }

    /// Schedules the open run's upcoming arrival, if the stream has one.
    fn schedule_arrival(&mut self, open: &OpenState<'a>) {
        if let Some(next) = open.upcoming {
            self.calendar.schedule_at(
                SimTime::ZERO + Duration::from_secs_f64(next.offset_secs),
                Event::OpenArrival,
            );
        }
    }

    /// Admits waiting queries while a lane slot is free and the head of the
    /// waiting room fits in every node's free memory. Strict head-of-line
    /// FCFS, like closed-mode admission: a blocked head is never jumped.
    fn try_admit_open(&mut self, open: &mut OpenState<'a>) {
        while let Some(&slot) = open.free_slots.last() {
            let Some(&head) = open.pending.front() else {
                return;
            };
            let mem_per_node = open.templates[head.template]
                .memory_bytes
                .div_ceil(self.nodes as u64);
            if !(0..self.nodes).all(|n| self.free_mem[n] >= mem_per_node) {
                return;
            }
            open.free_slots.pop();
            open.pending.pop_front();
            open.admission_seq += 1;
            open.lane_seq[slot] = open.admission_seq;
            open.lane_template[slot] = head.template;
            open.peak_live = open.peak_live.max(open.live_now());
            self.admit_open_lane(slot, head, open);
        }
    }

    /// Populates a free lane slot with one admitted query: lane descriptors,
    /// fresh operator runtimes over the slot's op range, memory reservation,
    /// FP thread allocation, scheduling order, triggers.
    fn admit_open_lane(&mut self, slot: usize, head: OpenPending, open: &mut OpenState<'a>) {
        let OpenTemplate {
            plan, memory_bytes, ..
        } = open.templates[head.template];
        let mem_per_node = memory_bytes.div_ceil(self.nodes as u64);
        for n in 0..self.nodes {
            self.free_mem[n] -= mem_per_node;
        }
        let (base, skew) = (self.lanes[slot].base, self.lanes[slot].skew);
        self.lanes[slot] = LaneRuntime {
            arrival: head.arrived_at,
            priority: head.priority,
            memory_bytes,
            mem_per_node,
            reserved: (0..self.nodes).map(|n| (n, mem_per_node)).collect(),
            ..LaneRuntime::new(plan, base, plan.tree.operators().len(), skew)
        };
        self.install_lane(slot)
            .expect("open templates are validated at construction");
        // FP: one fresh allocation per admission (the optimizer
        // mis-estimates each arriving query once), inserted into every
        // node's thread sets; retirement removes it again.
        if self.strategy.constrains_threads() {
            let assignment = self.allocate(plan, &mut open.fp_rng);
            for node in 0..self.nodes {
                self.allow_lane(node, base, &assignment);
            }
        }
        // Re-derive the scheduling order: priority descending, admission
        // sequence ascending on ties (free slots sort by their last
        // occupant's keys — harmless, they are skipped as not started).
        let lanes = &self.lanes;
        self.lane_order.sort_by(|&a, &b| {
            lanes[b]
                .priority
                .cmp(&lanes[a].priority)
                .then(open.lane_seq[a].cmp(&open.lane_seq[b]))
        });
        self.on_query_admit(slot);
    }

    /// Retires a completed open-mode lane: records its latency samples into
    /// the streaming sketches, then *drops* its operator state — op-node
    /// queues become `None`, op runtimes revert to placeholders, FP allowed
    /// ids are withdrawn — and frees the slot. This is what bounds live
    /// state by the concurrency level instead of the total query count.
    fn retire_open_lane(&mut self, lane_idx: usize, open: &mut OpenState<'a>) {
        let (base, n_ops, priority, finished, response_secs, wait_secs) = {
            let lane = &self.lanes[lane_idx];
            (
                lane.base,
                lane.n_ops,
                lane.priority,
                lane.finished_at,
                lane.finished_at.since(lane.arrival).as_secs_f64(),
                lane.admitted_at.since(lane.arrival).as_secs_f64(),
            )
        };
        for idx in base..base + n_ops {
            // Invalidate steal episodes still referencing the retired op.
            self.epochs[idx] += 1;
            self.ops[idx] = Self::placeholder_op(lane_idx);
            self.op_nodes[idx].fill_with(|| None);
            for node in 0..self.nodes {
                self.ready[node].remove(idx);
            }
        }
        // FP: withdraw the lane from every thread's allowed set.
        for set in self.allowed.iter_mut().flatten().flatten() {
            for idx in base..base + n_ops {
                set.remove(idx);
            }
        }
        self.lanes[lane_idx].started = false;
        self.sync_lane_hot(lane_idx);
        let template = open.lane_template[lane_idx];
        open.record(template, priority, response_secs, wait_secs);
        open.free_slots.push(lane_idx);
        // Front-end bookkeeping: this lane was an engine execution (counted
        // unconditionally so `completed == engine + hits + coalesced` holds
        // with the front end off too), its result becomes cacheable now, and
        // its followers retire with it.
        open.engine_queries += 1;
        open.engine_by_template[template] += 1;
        open.response_engine.record(response_secs);
        if open.frontend.cache_capacity > 0 {
            open.cache.insert(template, (), finished.as_secs_f64());
        }
        if open.frontend.coalesce {
            let followers = open.flight.complete(&template);
            if !followers.is_empty() {
                let retire_at = finished + Duration::from_secs_f64(open.frontend.fanout_cost_secs);
                for f in followers {
                    let response = retire_at.since(f.arrived_at).as_secs_f64();
                    let wait = finished.since(f.arrived_at).as_secs_f64();
                    open.record(template, f.priority, response, wait);
                    open.response_coalesced.record(response);
                }
                open.front_finish = open.front_finish.max(retire_at);
            }
        }
    }
}
