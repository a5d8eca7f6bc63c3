//! End-of-operator detection (§4) and the scheduler's control-message
//! dispatch that carries its protocol.

use super::*;

impl ControlMsg {
    /// The message's size on the wire: a shipment's bytes, and
    /// [`CONTROL_MESSAGE_BYTES`] for every other message.
    fn bytes(&self) -> u64 {
        match self {
            ControlMsg::Transfer { bytes, .. } => *bytes,
            _ => CONTROL_MESSAGE_BYTES,
        }
    }
}

impl<'a> QueueEngine<'a> {
    // ----------------------------------------------------------------- //
    // Control messages (scheduler)
    // ----------------------------------------------------------------- //

    /// Sends `msg` from node `from` to node `to` over the interconnect.
    pub(super) fn send_control(&mut self, from: usize, to: usize, msg: ControlMsg) {
        let now = self.calendar.now();
        let timing = self
            .network
            .send(NodeId::from(from), NodeId::from(to), msg.bytes(), now);
        self.calendar.schedule_at(
            timing.arrival + timing.recv_cpu,
            Event::Control {
                node: to as u32,
                msg: self.messages.insert(msg),
            },
        );
    }

    /// The end-detection coordinator: the lowest-indexed live node. The
    /// protocol counters live centrally in [`OpRuntime`], so the coordinator
    /// role survives a fail-over without state hand-off.
    fn coordinator(&self) -> usize {
        self.live.iter().position(|&l| l).unwrap_or(0)
    }

    pub(super) fn on_control(&mut self, node: usize, msg: ControlMsg) {
        match msg {
            ControlMsg::LocalEnd { op } => {
                self.ops[op].phase1_reports += 1;
                if self.ops[op].phase1_reports == self.ops[op].home.len()
                    && !self.ops[op].phase2_started
                {
                    self.ops[op].phase2_started = true;
                    for h in 0..self.ops[op].home.len() {
                        let home_node = self.ops[op].home[h].index();
                        self.send_control(node, home_node, ControlMsg::ConfirmRequest { op });
                    }
                }
            }
            ControlMsg::ConfirmRequest { op } => {
                let drained = self.op_nodes[op][node]
                    .as_ref()
                    .map(|o| o.is_drained())
                    .unwrap_or(true);
                if drained {
                    let already = self.op_nodes[op][node]
                        .as_mut()
                        .map(|o| std::mem::replace(&mut o.confirm_sent, true))
                        .unwrap_or(false);
                    if !already {
                        self.send_control(node, self.coordinator(), ControlMsg::Confirm { op });
                    }
                } else if let Some(opn) = self.op_nodes[op][node].as_mut() {
                    opn.confirm_pending = true;
                }
            }
            ControlMsg::Confirm { op } => {
                self.ops[op].phase2_confirms += 1;
                self.maybe_terminate(op);
            }
            ControlMsg::Terminated => {
                // Accounting-only broadcast: state was already updated when
                // the coordinator made the decision.
            }
            ControlMsg::Starving {
                from,
                free_bytes,
                target,
                epoch,
                token,
            } => self.on_starving(node, from, free_bytes, target, epoch, token),
            ControlMsg::Offer {
                from,
                op,
                tuples,
                bytes,
                load,
                epoch,
                token,
            } => self.on_offer(node, token, Some((from, op, tuples, bytes, load, epoch))),
            ControlMsg::NoOffer { token } => self.on_offer(node, token, None),
            ControlMsg::Acquire {
                from,
                op,
                has_table,
                epoch,
            } => self.on_acquire(node, from, op, has_table, epoch),
            ControlMsg::Transfer {
                from,
                op,
                activations,
                ..
            } => self.on_transfer(node, from, op, activations),
            ControlMsg::PushProbe { from, token } => self.on_push_probe(node, from, token),
            ControlMsg::PushReply {
                from,
                accept,
                free_bytes,
                token,
            } => self.on_push_reply(node, from, accept, free_bytes, token),
        }
    }

    // ----------------------------------------------------------------- //
    // End-of-operator detection (§4)
    // ----------------------------------------------------------------- //

    fn producers_terminated(&self, op: usize) -> bool {
        self.ops[op]
            .producers
            .iter()
            .all(|&p| self.ops[p].terminated)
    }

    /// What [`Self::check_local_end`] would send for `op` on `node` right
    /// now, as `(local_end, confirm)`: phase 1's `LocalEnd` once the node
    /// drained after the operator's last input, phase 2's `Confirm` once a
    /// pending confirmation request finds the node drained.
    fn local_end_actions(&self, op: usize, node: usize) -> (bool, bool) {
        let o = &self.ops[op];
        if o.terminated || !self.lanes[o.lane].started {
            return (false, false);
        }
        let Some(opn) = self.op_nodes[op][node].as_ref() else {
            return (false, false);
        };
        let drained = opn.is_drained();
        let local_end = !opn.phase1_sent
            && drained
            && o.input_sent == o.input_delivered
            && self.producers_terminated(op);
        let confirm = opn.confirm_pending && !opn.confirm_sent && drained;
        (local_end, confirm)
    }

    /// Runs [`Self::check_local_end`] for `op` on every node in ascending
    /// order, home or not.
    pub(super) fn check_local_end_everywhere(&mut self, op: usize) {
        for node in 0..self.nodes {
            self.check_local_end(op, node);
        }
    }

    pub(super) fn check_local_end(&mut self, op: usize, node: usize) {
        let (local_end, confirm) = self.local_end_actions(op, node);
        if local_end {
            self.op_nodes[op][node].as_mut().unwrap().phase1_sent = true;
            self.send_control(node, self.coordinator(), ControlMsg::LocalEnd { op });
        }
        if confirm {
            let opn = self.op_nodes[op][node].as_mut().unwrap();
            opn.confirm_pending = false;
            opn.confirm_sent = true;
            self.send_control(node, self.coordinator(), ControlMsg::Confirm { op });
        }
    }

    /// Whether the §4 end check can act for `op` on any home node. A
    /// `LocalEnd` needs every sent input delivered and every producer
    /// terminated; a `Confirm` needs a pending confirmation request, and
    /// those only arrive once phase 2 started (re-homing, re-opening and
    /// slot recycling clear both together). Operator-level state, so the
    /// per-home loop is skipped on most activations and deliveries.
    fn end_check_due(&self, op: usize) -> bool {
        let o = &self.ops[op];
        !o.terminated
            && (o.phase2_started
                || (o.input_sent == o.input_delivered && self.producers_terminated(op)))
    }

    /// Runs [`Self::check_local_end`] on every home node of `op` but `skip`,
    /// when [`Self::end_check_due`] allows it. Iterating by index keeps
    /// this allocation-free.
    pub(super) fn check_local_ends(&mut self, op: usize, skip: Option<usize>) {
        if !self.end_check_due(op) {
            #[cfg(debug_assertions)]
            for n in &self.ops[op].home {
                debug_assert_eq!(
                    self.local_end_actions(op, n.index()),
                    (false, false),
                    "the end-check gate skipped op {op} on node {} with a message due",
                    n.index()
                );
            }
            return;
        }
        for h in 0..self.ops[op].home.len() {
            let home_node = self.ops[op].home[h].index();
            if Some(home_node) != skip {
                self.check_local_end(op, home_node);
            }
        }
    }

    pub(super) fn maybe_terminate(&mut self, op: usize) {
        if self.ops[op].terminated {
            return;
        }
        let home_len = self.ops[op].home.len();
        if self.ops[op].phase1_reports < home_len || self.ops[op].phase2_confirms < home_len {
            return;
        }
        // Global safety conditions against races with work acquisition.
        if self.ops[op].input_processed < self.ops[op].input_sent {
            return;
        }
        let any_left = self.ops[op]
            .home
            .iter()
            .any(|n| !self.op_nodes[op][n.index()].as_ref().unwrap().is_drained());
        if any_left {
            return;
        }

        // Terminate.
        self.ops[op].terminated = true;
        self.ops_terminated += 1;
        self.live_ops.remove(op);
        let now = self.calendar.now();
        self.finished_at = self.finished_at.max(now);
        {
            let lane_idx = self.ops[op].lane;
            let lane = &mut self.lanes[lane_idx];
            lane.ops_terminated += 1;
            lane.finished_at = lane.finished_at.max(now);
            // The lane's last operator terminated: release its working set
            // (and re-run admission) at this instant. The release of the
            // final lane may be left unprocessed — the loop exits once every
            // operator terminated.
            if lane.ops_terminated == lane.n_ops {
                self.calendar.schedule_at(
                    now,
                    Event::QueryRelease {
                        lane: lane_idx as u32,
                    },
                );
            }
        }

        // Accounting broadcast (the 4th message round of the protocol).
        for h in 0..self.ops[op].home.len() {
            let home_node = self.ops[op].home[h].index();
            self.send_control(self.coordinator(), home_node, ControlMsg::Terminated);
        }

        // Unblock dependent operators of the same query and wake their nodes.
        let lane_base = self.lanes[self.ops[op].lane].base;
        let local = OperatorId::from(op - lane_base);
        for blocked in self.lanes[self.ops[op].lane].plan.blocks(local) {
            let b = lane_base + blocked.index();
            self.ops[b].blockers_remaining = self.ops[b].blockers_remaining.saturating_sub(1);
            if self.ops[b].blockers_remaining == 0 {
                for h in 0..self.ops[b].home.len() {
                    let home_node = self.ops[b].home[h].index();
                    self.wake_threads(home_node, Some(b));
                }
            }
        }

        // Some operators may now be able to report their own end (e.g. a
        // consumer that received no input, or one waiting for this producer).
        // The live set is snapshotted first because the recursive calls
        // shrink it; ops terminated mid-sweep are skipped at visit time,
        // exactly as the full-range scan did.
        let sweep: Vec<usize> = self.live_ops.iter().collect();
        for other in sweep {
            if self.ops[other].terminated {
                continue;
            }
            self.check_local_ends(other, None);
            self.maybe_terminate(other);
        }
    }
}
