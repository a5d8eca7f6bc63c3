//! Topology events and recovery: node failure, drain and re-join, the
//! re-homing of stranded work, and admission refresh on the survivors.

use super::*;

impl NodeLb {
    /// Abandons the node's steal and push episodes when it leaves or
    /// re-joins the machine; the token bump voids replies still in flight.
    fn abandon(&mut self) {
        self.current_token += 1;
        self.starving_outstanding = false;
        self.fp_outstanding.clear();
        self.offers.clear();
        self.replies_received = 0;
        self.replies_expected = 0;
        self.push_outstanding = false;
    }
}

/// Overwrites `out` with the live nodes of `home`, each once, in home
/// order.
fn collect_live_homes(home: &[NodeId], live: &[bool], out: &mut Vec<NodeId>) {
    out.clear();
    for &n in home {
        if live[n.index()] && !out.contains(&n) {
            out.push(n);
        }
    }
}

impl OpRuntime {
    /// Restarts the coordinator's side of end detection from scratch (the
    /// operator moved home or was re-opened). The global safety counters in
    /// `maybe_terminate` make stale in-flight protocol messages harmless.
    fn restart_end_detection(&mut self) {
        self.phase1_reports = 0;
        self.phase2_started = false;
        self.phase2_confirms = 0;
    }
}

impl<'a> QueueEngine<'a> {
    /// Redirects work addressed to a down node onto a live home node of
    /// `op`, deterministically keyed by `key` under the configured re-home
    /// policy. Callers guarantee at least one live home node (enforced by
    /// the wholesale lane re-home on failure).
    pub(super) fn live_home_redirect(&self, op: usize, key: u64) -> usize {
        let o = &self.ops[op];
        debug_assert!(
            {
                let mut fresh = Vec::new();
                collect_live_homes(&o.home, &self.live, &mut fresh);
                fresh == o.live_homes
            },
            "cached live homes of op {op} went stale"
        );
        let total = (o.home.len() * self.threads_per_node) as u64;
        self.options
            .recovery
            .rehome
            .survivor(key, total, &o.live_homes)
            .index()
    }

    /// Recomputes `op`'s live homes: the live nodes of its home, each once,
    /// in home order.
    fn refresh_live_homes(&mut self, op: usize) {
        let o = &mut self.ops[op];
        collect_live_homes(&o.home, &self.live, &mut o.live_homes);
    }

    /// Recomputes every operator's live homes after the live set changed.
    fn refresh_all_live_homes(&mut self) {
        for op in 0..self.ops.len() {
            self.refresh_live_homes(op);
        }
    }

    /// Applies one validated topology event. Failures and drains strip the
    /// node and recover its state on the survivors; joins revive the node
    /// with empty memory and fresh threads.
    pub(super) fn on_topology(&mut self, index: usize) -> Result<()> {
        let ev = self.topology[index];
        let node = ev.node.index();
        match ev.change {
            TopologyChange::NodeFail => self.on_node_down(node, false),
            TopologyChange::NodeDrain => self.on_node_down(node, true),
            TopologyChange::NodeJoin => self.on_node_join(node),
        }
    }

    /// A node leaves the machine. Between events no activation is mid-
    /// processing (`processing` is always 0 then), so the node's recoverable
    /// state is exactly its queued/parked activations plus its built
    /// hash-table partitions. A `graceful` drain always migrates that state;
    /// a failure loses it under [`RecoveryPolicy::LoseRestart`].
    fn on_node_down(&mut self, dead: usize, graceful: bool) -> Result<()> {
        self.live[dead] = false;
        self.refresh_all_live_homes();
        if graceful {
            self.faults.drains += 1;
        } else {
            self.faults.failures += 1;
        }
        for thread in 0..self.threads_per_node {
            self.set_idle(dead, thread, true);
        }
        self.node_lb[dead].abandon();
        // The node's memory dies with it: admitted reservations on it are
        // gone, and nothing can be reserved there until it re-joins.
        for lane in &mut self.lanes {
            lane.reserved.retain(|&(n, _)| n != dead);
        }
        self.free_mem[dead] = 0;
        // Lanes whose whole placement died move wholesale onto one survivor;
        // afterwards every non-terminated operator has a live home node.
        self.rehome_dead_lanes(dead, graceful);
        // Strip the dead node's per-operator state and recover it.
        self.strip_node(dead, graceful);
        // Waiting queries re-admit against the survivors.
        self.refresh_admission()?;
        // The strip may have completed operators (the dead node held their
        // last pending work) and the survivors have new work: sweep end
        // detection and wake every live node.
        for op in 0..self.ops.len() {
            self.check_local_end_everywhere(op);
            self.maybe_terminate(op);
        }
        for node in 0..self.nodes {
            self.wake_threads(node, None);
        }
        Ok(())
    }

    /// A previously departed node re-joins: full memory, fresh threads, and
    /// it resumes receiving routed output for every operator still homing on
    /// it. Re-homed (replaced) homes are not restored.
    fn on_node_join(&mut self, node: usize) -> Result<()> {
        self.live[node] = true;
        self.refresh_all_live_homes();
        self.faults.joins += 1;
        self.free_mem[node] = self.config.machine.memory_per_node_bytes;
        self.node_lb[node].abandon();
        // Demands shrink with the grown placement; waiting lanes may fit now.
        self.refresh_admission()?;
        self.admit_waiting();
        let now = self.calendar.now();
        for thread in 0..self.threads_per_node {
            self.set_idle(node, thread, false);
            self.calendar.schedule_at(now, Event::ready(node, thread));
        }
        Ok(())
    }

    /// Moves every lane whose operators have no live home node left onto one
    /// chosen survivor: home entries are rewritten, routers rebuilt for the
    /// single-node slot space, the end-detection protocol restarts, and the
    /// lane's memory reservation follows (saturating — a survivor may end up
    /// overcommitted; graceful degradation beats an aborted query).
    fn rehome_dead_lanes(&mut self, dead: usize, graceful: bool) {
        for lane_idx in 0..self.lanes.len() {
            let (base, n_ops) = (self.lanes[lane_idx].base, self.lanes[lane_idx].n_ops);
            let needs: Vec<usize> = (base..base + n_ops)
                .filter(|&op| {
                    !self.ops[op].terminated
                        && !self.ops[op].home.iter().any(|n| self.live[n.index()])
                })
                .collect();
            let mask_dead = self.lanes[lane_idx]
                .mask
                .as_ref()
                .map(|m| !m.iter().any(|n| self.live[n.index()]))
                .unwrap_or(false);
            if needs.is_empty() && !mask_dead {
                continue;
            }
            // The survivor with the most free memory (lowest index on ties).
            let m = (0..self.nodes)
                .filter(|&n| self.live[n])
                .max_by(|&a, &b| self.free_mem[a].cmp(&self.free_mem[b]).then(b.cmp(&a)))
                .expect("the live set is never empty");
            if mask_dead {
                self.lanes[lane_idx].mask = Some(vec![NodeId::from(m)]);
                // An admitted, unreleased lane carries its reservation over.
                if self.lanes[lane_idx].started && !self.lanes[lane_idx].released {
                    let amt = self.lanes[lane_idx].mem_per_node;
                    if amt > 0 {
                        self.free_mem[m] = self.free_mem[m].saturating_sub(amt);
                        self.lanes[lane_idx].reserved.push((m, amt));
                    }
                }
            }
            for op in needs {
                let old_home = std::mem::replace(&mut self.ops[op].home, vec![NodeId::from(m)]);
                self.refresh_live_homes(op);
                self.ops[op].router =
                    OutputRouter::new(self.threads_per_node, self.lanes[lane_idx].skew, op);
                self.ops[op].restart_end_detection();
                let mut moved: Vec<Activation> = Vec::new();
                let mut hash = 0u64;
                let mut seen = BTreeSet::new();
                for d in old_home {
                    if !seen.insert(d.index()) {
                        continue;
                    }
                    if let Some(mut opn) = self.op_nodes[op][d.index()].take() {
                        opn.drain_all_into(&mut moved);
                        hash += opn.hash_tuples;
                        self.ready[d.index()].remove(op);
                    }
                }
                self.op_nodes[op][m] = Some(OpNodeRuntime::new(
                    self.threads_per_node,
                    self.options.flow.queue_capacity,
                ));
                // FP: the survivor's threads must be allowed to run the
                // re-homed operator (its static allocation never mentioned
                // this node).
                for set in self.allowed[m].iter_mut().flatten() {
                    set.insert(op);
                }
                self.recover_state(op, dead, moved, hash, graceful);
            }
        }
    }

    /// Empties the departed node's per-operator state (queues, parked
    /// overflow, hash-table partitions, disk positions) and recovers it on
    /// the survivors. The emptied [`OpNodeRuntime`] stays allocated so the
    /// end-detection and steal protocols keep working unchanged — a dead
    /// node's side of them is answered by the recovery manager.
    fn strip_node(&mut self, dead: usize, graceful: bool) {
        for op in 0..self.ops.len() {
            let Some(opn) = self.op_nodes[op][dead].as_mut() else {
                continue;
            };
            let mut moved: Vec<Activation> = Vec::new();
            opn.drain_all_into(&mut moved);
            self.ready[dead].remove(op);
            let hash = std::mem::take(&mut opn.hash_tuples);
            opn.hash_copied_from.clear();
            opn.started_disks.clear();
            opn.steal_cursor = 0;
            if moved.is_empty() && hash == 0 {
                continue;
            }
            self.recover_state(op, dead, moved, hash, graceful);
        }
    }

    /// Recovers one operator's stripped state on the live nodes of its home.
    ///
    /// * **Re-home and resume** (and every graceful drain): activations and
    ///   hash-table partitions ship over the interconnect to survivors
    ///   chosen by the re-home policy; nothing is lost or redone.
    /// * **Lose and restart**: queued input is discarded and regenerated on
    ///   the survivors at no transfer cost (upstream logically re-sends it);
    ///   a hash-table partition still needed by a live probe is rebuilt by
    ///   re-processing its tuples, re-opening the build operator when it had
    ///   already terminated.
    fn recover_state(
        &mut self,
        op: usize,
        from: usize,
        moved: Vec<Activation>,
        hash: u64,
        graceful: bool,
    ) {
        let survivors = self.ops[op].live_homes.clone();
        if survivors.is_empty() {
            // Only reachable for a *terminated* operator (live homes are
            // guaranteed otherwise): its residual hash table dies with the
            // node. A probe that still wanted it was re-homed separately and
            // probes on without it — counts-level simulation keeps this
            // benign.
            self.faults.tuples_lost += hash + moved.iter().map(|a| a.tuples).sum::<u64>();
            return;
        }
        let lose = !graceful && matches!(self.options.recovery.policy, RecoveryPolicy::LoseRestart);
        let now = self.calendar.now();
        let total = (moved.len() as u64).max(1);
        for (i, a) in moved.into_iter().enumerate() {
            let dest = self
                .options
                .recovery
                .rehome
                .survivor(i as u64, total, &survivors)
                .index();
            // A trigger's pending disk reads move to the destination's disks
            // (the replica assumption: partitions are readable from the
            // survivors).
            let a = match a.kind {
                ActivationKind::Trigger { pages, .. } => {
                    Activation::trigger(a.op, pages, a.tuples, self.next_disk(dest))
                        .for_query(a.query)
                }
                ActivationKind::Data => a,
            };
            // Net-zero delivery accounting: `on_data` re-adds exactly what is
            // subtracted here, so end detection keeps its invariants.
            self.ops[op].input_delivered -= a.tuples;
            let slot = i % self.threads_per_node;
            let at = if lose {
                self.faults.tuples_lost += a.tuples;
                now
            } else {
                self.faults.activations_rehomed += 1;
                self.faults.tuples_rehomed += a.tuples;
                let bytes = self
                    .config
                    .costs
                    .bytes_for_tuples(a.tuples)
                    .max(CONTROL_MESSAGE_BYTES);
                self.faults.rebalance_bytes += bytes;
                let timing = self
                    .network
                    .send(NodeId::from(from), NodeId::from(dest), bytes, now);
                timing.arrival + timing.recv_cpu
            };
            self.schedule_data(at, dest, op, slot, a);
        }
        if hash > 0 {
            self.recover_hash(op, from, hash, lose, &survivors);
        }
    }

    /// Recovers a lost or migrating hash-table partition of build operator
    /// `op`: shipped intact under re-home-and-resume (and drains), rebuilt
    /// by re-processing under lose-and-restart. A partition no probe needs
    /// any more is dropped silently.
    fn recover_hash(
        &mut self,
        op: usize,
        from: usize,
        hash: u64,
        lose: bool,
        survivors: &[NodeId],
    ) {
        let needed = self
            .ops
            .iter()
            .any(|o| o.build_twin == Some(op) && !o.terminated);
        if !needed {
            return;
        }
        if lose {
            self.faults.tuples_lost += hash;
            self.faults.tuples_redone += hash;
            if self.ops[op].terminated {
                self.reopen_operator(op);
            }
        }
        let now = self.calendar.now();
        let lane = self.ops[op].lane;
        let local = OperatorId::from(op - self.lanes[lane].base);
        // Spread the partition over the survivors in fixed-size units so
        // both re-home policies see a keyed stream (mirrors
        // `dlb_storage::rehome`).
        const UNIT: u64 = 1 << 10;
        let units = hash.div_ceil(UNIT);
        let mut remaining = hash;
        for unit in 0..units {
            let chunk = remaining.min(UNIT);
            remaining -= chunk;
            let dest = self
                .options
                .recovery
                .rehome
                .survivor(unit, units, survivors)
                .index();
            if lose {
                // Rebuild: fresh build input beyond the original stream.
                self.ops[op].input_sent += chunk;
                let a = Activation::data(local, chunk).for_query(lane as u32);
                let slot = unit as usize % self.threads_per_node;
                self.schedule_data(now, dest, op, slot, a);
            } else {
                let bytes = self.cost.hash_table_bytes(chunk).max(CONTROL_MESSAGE_BYTES);
                self.faults.rebalance_bytes += bytes;
                self.faults.tuples_rehomed += chunk;
                self.network
                    .send(NodeId::from(from), NodeId::from(dest), bytes, now);
                // The partition lands intact: counts move now, the transfer
                // cost is the network charge above.
                self.op_nodes[op][dest]
                    .as_mut()
                    .expect("survivor is a home node")
                    .hash_tuples += chunk;
            }
        }
    }

    /// Rolls a terminated operator back into the running state so lost build
    /// work can be redone; it re-terminates through the normal protocol once
    /// the rebuild input drains.
    fn reopen_operator(&mut self, op: usize) {
        if !self.ops[op].terminated {
            return;
        }
        self.ops[op].terminated = false;
        self.ops_terminated -= 1;
        self.live_ops.insert(op);
        let lane = self.ops[op].lane;
        self.lanes[lane].ops_terminated -= 1;
        self.ops[op].restart_end_detection();
        for h in 0..self.ops[op].home.len() {
            let node = self.ops[op].home[h].index();
            if let Some(opn) = self.op_nodes[op][node].as_mut() {
                opn.phase1_sent = false;
                opn.confirm_pending = false;
                opn.confirm_sent = false;
            }
        }
        self.faults.operators_restarted += 1;
    }

    /// Re-derives the per-node working-set share of every not-yet-started
    /// lane from the live placement, failing fast when a waiting query can
    /// never fit on the shrunken topology.
    fn refresh_admission(&mut self) -> Result<()> {
        let cap = self.config.machine.memory_per_node_bytes;
        for i in 0..self.lanes.len() {
            if self.lanes[i].started {
                continue;
            }
            let placement_len = self.admission_nodes(i).len().max(1) as u64;
            let mem = self.lanes[i].memory_bytes.div_ceil(placement_len);
            self.lanes[i].mem_per_node = mem;
            if mem > cap {
                return Err(DlbError::exec(format!(
                    "query {i} needs {mem} bytes on each of its {placement_len} surviving \
                     placement node(s) but nodes have {cap} — it can never be admitted \
                     after the topology change"
                )));
            }
        }
        Ok(())
    }
}
