//! Flow control and activation processing (§3.1): trigger seeding, the
//! parked overflow lists, processing one activation, and routing its
//! output to the consumer's queues.

use super::*;

impl<'a> QueueEngine<'a> {
    /// Seeds trigger activations for one lane: the scan's partition on each
    /// home node is split into trigger activations of `trigger_pages` pages,
    /// assigned to disks round-robin and distributed across the node's
    /// thread queues with the redistribution-skew router.
    pub(super) fn seed_triggers(&mut self, lane_idx: usize) {
        let tuples_per_page = self.config.costs.tuples_per_page();
        let (base, n_ops, skew) = {
            let lane = &self.lanes[lane_idx];
            (lane.base, lane.n_ops, lane.skew)
        };
        let scan_ops: Vec<usize> = (base..base + n_ops)
            .filter(|&i| self.ops[i].kind.is_scan())
            .collect();
        for op_idx in scan_ops {
            let home_len = self.ops[op_idx].home.len();
            let total = self.lanes[lane_idx]
                .plan
                .tree
                .operator(OperatorId::from(op_idx - base))
                .input_tuples;
            let per_node = total / home_len as u64;
            let remainder = total - per_node * home_len as u64;
            for i in 0..home_len {
                let mut node = self.ops[op_idx].home[i];
                // A home node that is down at seeding time cannot hold the
                // partition: its share is re-homed onto a live home node (the
                // replica assumption — data survives node failures on the
                // shared disks and is readable from the survivors).
                if !self.live[node.index()] {
                    node = NodeId::from(self.live_home_redirect(op_idx, i as u64));
                }
                let mut node_tuples = per_node + if i == 0 { remainder } else { 0 };
                // Within the node, spread trigger activations across thread
                // queues with the skew router.
                let mut router =
                    OutputRouter::new(self.threads_per_node, skew, op_idx + node.index());
                let tuples_per_trigger = self.options.flow.trigger_pages * tuples_per_page;
                let mut seeded = 0u64;
                while node_tuples > 0 {
                    let chunk = node_tuples.min(tuples_per_trigger);
                    node_tuples -= chunk;
                    let pages = chunk.div_ceil(tuples_per_page).max(1);
                    let disk = self.next_disk(node.index());
                    let slot = router.route(chunk);
                    let activation =
                        Activation::trigger(OperatorId::from(op_idx - base), pages, chunk, disk)
                            .for_query(lane_idx as u32);
                    let opn = self.op_nodes[op_idx][node.index()]
                        .as_mut()
                        .expect("home node state exists");
                    // Trigger activations bypass flow control (they are the
                    // roots of the dataflow, produced once at start-up).
                    opn.enqueue_or_park(slot, activation);
                    seeded += chunk;
                }
                if seeded > 0 {
                    self.ready[node.index()].insert(op_idx);
                }
                self.ops[op_idx].input_sent += seeded;
                self.ops[op_idx].input_delivered += seeded;
            }
        }
    }

    /// The next disk of `node` in round-robin order, for a trigger's reads.
    pub(super) fn next_disk(&mut self, node: usize) -> DiskId {
        let local = self.disk_cursor[node] % self.disks_per_node;
        self.disk_cursor[node] += 1;
        DiskId::new(NodeId::from(node), local)
    }

    /// Moves parked activations of (op, node) into queues with free space.
    pub(super) fn deliver_parked(&mut self, op: usize, node: usize) {
        let Some(opn) = self.op_nodes[op][node].as_mut() else {
            return;
        };
        while let Some(front) = opn.parked.front().copied() {
            let Some(slot) = opn.queues.iter().position(|q| !q.is_full()) else {
                break;
            };
            opn.unpark_front();
            opn.enqueue(slot, front);
        }
    }

    // ----------------------------------------------------------------- //
    // Activation processing
    // ----------------------------------------------------------------- //

    pub(super) fn process_activation(
        &mut self,
        node: usize,
        thread: usize,
        op_idx: usize,
        act: Activation,
        primary: bool,
    ) {
        let now = self.calendar.now();
        let costs = self.config.costs;
        let mut instructions =
            costs.queue_access_instr + if primary { 0 } else { costs.interference_instr };
        let mut io_complete = now;
        let kind = self.ops[op_idx].kind;
        // Scans and probes emit in proportion to their input; builds emit
        // nothing.
        let out_tuples = if kind.is_build() {
            0
        } else {
            round_u64(act.tuples as f64 * self.ops[op_idx].output_ratio)
        };

        match act.kind {
            ActivationKind::Trigger { pages, disk } => {
                let io_requests = pages
                    .div_ceil(self.config.disk.io_cache_pages as u64)
                    .max(1);
                instructions += act.tuples * costs.scan_tuple_instr
                    + io_requests * self.config.disk.async_io_init_instr;
                // The first read of a partition fragment positions the disk
                // (latency + seek); later trigger activations of the same
                // scan stream sequentially.
                let first = self.op_nodes[op_idx][node]
                    .as_mut()
                    .map(|o| o.started_disks.insert(disk.local))
                    .unwrap_or(true);
                let outcome = if first {
                    self.disks.read(disk, now, pages)
                } else {
                    self.disks.read_streaming(disk, now, pages)
                };
                io_complete = outcome.complete;
            }
            ActivationKind::Data => {
                if kind.is_build() {
                    instructions += act.tuples * costs.build_tuple_instr;
                } else {
                    // Probe.
                    instructions += act.tuples * costs.probe_tuple_instr
                        + out_tuples * costs.result_tuple_instr;
                }
            }
        }

        let cpu_time = self.clock.duration(instructions);
        let mut quantum_end = (now + cpu_time).max(io_complete);

        // Record hash-table growth for builds.
        if kind.is_build() {
            if let Some(opn) = self.op_nodes[op_idx][node].as_mut() {
                opn.hash_tuples += act.tuples;
            }
        }

        // Produce and route output.
        if out_tuples > 0 {
            quantum_end = self.emit_output(node, op_idx, out_tuples, quantum_end);
        }

        // Bookkeeping.
        {
            let opn = self.op_nodes[op_idx][node].as_mut().expect("home state");
            opn.processing -= 1;
        }
        self.ops[op_idx].input_processed += act.tuples;
        self.activations_done += 1;
        self.tuples_processed += act.tuples;
        {
            // Per-query accounting keys off the activation's own query tag
            // (which steals and transfers preserve); the operator's lane
            // must always agree with it.
            debug_assert_eq!(
                act.query as usize, self.ops[op_idx].lane,
                "activation tagged for a different query than its operator"
            );
            let lane = &mut self.lanes[act.query as usize];
            lane.activations += 1;
            lane.tuples_processed += act.tuples;
        }

        let busy = quantum_end.since(now);
        self.cpu.record_busy(
            ProcessorId::new(NodeId::from(node), thread as u32),
            busy,
            quantum_end,
        );

        // End detection must be re-evaluated on every home node: a node that
        // drained earlier (while batches were still in flight elsewhere) only
        // becomes reportable once the operator's global counters settle.
        self.check_local_ends(op_idx, None);
        self.maybe_terminate(op_idx);

        self.calendar
            .schedule_at(quantum_end, Event::ready(node, thread));
    }

    /// Routes `out_tuples` produced by `op_idx` on `node` to the consumer's
    /// queues, batching into data activations. Returns the updated quantum end
    /// (network send CPU is charged to the producing thread).
    fn emit_output(
        &mut self,
        node: usize,
        op_idx: usize,
        out_tuples: u64,
        start: SimTime,
    ) -> SimTime {
        let Some(consumer_idx) = self.ops[op_idx].consumer else {
            self.result_tuples += out_tuples;
            self.lanes[self.ops[op_idx].lane].result_tuples += out_tuples;
            return start;
        };
        let lane_idx = self.ops[consumer_idx].lane;
        let consumer_local = OperatorId::from(consumer_idx - self.lanes[lane_idx].base);
        let batch_size = self.config.costs.tuples_per_batch.max(1);
        let mut remaining = out_tuples;
        let mut cursor = start;
        while remaining > 0 {
            let batch = remaining.min(batch_size);
            remaining -= batch;
            let slot = self.ops[consumer_idx].router.route(batch);
            let mut dest_node = self.ops[consumer_idx].home[slot / self.threads_per_node].index();
            if !self.live[dest_node] {
                dest_node = self.live_home_redirect(consumer_idx, slot as u64);
            }
            let dest_thread = slot % self.threads_per_node;
            let activation = Activation::data(consumer_local, batch).for_query(lane_idx as u32);
            self.ops[consumer_idx].input_sent += batch;
            let at = if dest_node == node {
                // Same SM-node: the move goes through shared memory; the
                // activation becomes visible when the producer finishes.
                cursor
            } else {
                let bytes = self.config.costs.bytes_for_tuples(batch);
                let timing =
                    self.network
                        .send(NodeId::from(node), NodeId::from(dest_node), bytes, cursor);
                cursor = timing.sent;
                timing.arrival + timing.recv_cpu
            };
            self.schedule_data(at, dest_node, consumer_idx, dest_thread, activation);
        }
        cursor
    }

    /// Schedules `activation` to land in queue `slot` of `op` on `node` at
    /// `at`. A data activation travels as its tuple count (see
    /// [`Self::data_activation`]); only a re-homed trigger is boxed.
    pub(super) fn schedule_data(
        &mut self,
        at: SimTime,
        node: usize,
        op: usize,
        slot: usize,
        activation: Activation,
    ) {
        debug_assert!(
            matches!(activation.kind, ActivationKind::Trigger { .. })
                || activation == self.data_activation(op, activation.tuples),
            "a data activation must carry its operator's lane tag: delivery rebuilds it"
        );
        let (node, op, slot) = (node as u32, op as u32, slot as u32);
        let event = match activation.kind {
            ActivationKind::Data => Event::Data {
                node,
                op,
                slot,
                tuples: activation.tuples,
            },
            ActivationKind::Trigger { .. } => Event::Trigger {
                node,
                op,
                slot,
                activation: Box::new(activation),
            },
        };
        self.calendar.schedule_at(at, event);
    }

    /// The data activation of `tuples` for operator slot `op`: plan-local
    /// id and query tag from the operator's lane, as every data activation
    /// scheduled for `op` carries.
    pub(super) fn data_activation(&self, op: usize, tuples: u64) -> Activation {
        let lane = self.ops[op].lane;
        Activation::data(OperatorId::from(op - self.lanes[lane].base), tuples)
            .for_query(lane as u32)
    }

    pub(super) fn on_data(&mut self, node: usize, op: usize, slot: usize, activation: Activation) {
        // A batch in flight towards a node that failed after the send is
        // re-routed to a live home node by the recovery manager.
        let node = if self.live[node] {
            node
        } else {
            self.live_home_redirect(op, slot as u64)
        };
        self.ops[op].input_delivered += activation.tuples;
        {
            let opn = self.op_nodes[op][node]
                .as_mut()
                .expect("data routed to a home node");
            opn.enqueue_or_park(slot, activation);
            self.ready[node].insert(op);
        }
        if self.op_consumable(op, node) {
            self.wake_threads(node, Some(op));
        }
        // The delivery may have been the last in-flight batch of the
        // operator: other home nodes that drained earlier can now report
        // their local end.
        self.check_local_ends(op, Some(node));
        // Guarded at the call site: pull-only policies (`push` is `None`)
        // pay one predictable branch per delivery, not a call.
        if self.push.is_some() {
            self.maybe_push_work(node);
        }
    }
}
