//! Receiver-initiated global load balancing (§3.2): starving requests,
//! offers, acquisition and the transfer of activations and hash tables.

use super::*;

impl<'a> QueueEngine<'a> {
    pub(super) fn request_global_work(&mut self, node: usize, thread: usize) {
        if self.nodes <= 1 || self.ops_terminated == self.ops.len() {
            return;
        }
        match self.scope {
            StealScope::Node => {
                if self.node_lb[node].starving_outstanding {
                    return;
                }
                // Neighbourhood-limited policies (Diffusion) may leave a node
                // with no eligible provider at all; don't arm an episode that
                // can never complete.
                if !self.has_steal_providers(node) {
                    return;
                }
                self.node_lb[node].starving_outstanding = true;
                self.begin_steal_request(node, None);
            }
            StealScope::TargetedOps => {
                // A request may already be outstanding for this node.
                if self.node_lb[node].replies_received < self.node_lb[node].replies_expected {
                    return;
                }
                if !self.has_steal_providers(node) {
                    return;
                }
                // Find-then-act: the scan only reads, so it can walk the
                // thread's allowed set in place (no per-episode collection).
                let chosen = self.allowed[node][thread].as_ref().and_then(|set| {
                    set.iter().find(|&op| {
                        self.stealable(op) && !self.node_lb[node].fp_outstanding.contains(&op)
                    })
                });
                if let Some(op) = chosen {
                    self.node_lb[node].fp_outstanding.insert(op);
                    // One outstanding request per starving episode.
                    self.begin_steal_request(node, Some(op));
                }
            }
            StealScope::None => {}
        }
    }

    /// Whether any node may answer a steal request from `node` under the
    /// strategy's provider rule.
    fn has_steal_providers(&self, node: usize) -> bool {
        (0..self.nodes).any(|other| self.strategy.steal_provider(node, other, self.nodes))
    }

    /// Broadcasts a starving message to every eligible provider node and arms
    /// the reply-collection state for one steal episode. Which nodes are
    /// eligible is the strategy's call ([`Policy::steal_provider`]): every
    /// other node for DP/FP, ring neighbours for Diffusion.
    fn begin_steal_request(&mut self, node: usize, target: Option<usize>) {
        self.node_lb[node].current_token += 1;
        let token = self.node_lb[node].current_token;
        self.node_lb[node].offers.clear();
        self.node_lb[node].replies_received = 0;
        self.node_lb[node].replies_expected = (0..self.nodes)
            .filter(|&other| self.strategy.steal_provider(node, other, self.nodes))
            .count();
        self.lb_requests += 1;
        // Advertise the node's memory net of admission reservations: an
        // acquired shipment (activations + hash-table partition) must fit in
        // what the admitted working sets left free, so steal decisions
        // respect the same per-node limit the in-loop admission enforces.
        // Single-plan runs reserve nothing, so this is the full capacity
        // there.
        let free = self.free_mem[node];
        // Pin the target's recycle epoch (FP only; DP requests carry no
        // target). A provider seeing a different epoch knows the slot was
        // recycled and must not offer the new occupant's work for it.
        let epoch = target.map(|op| self.epochs[op]).unwrap_or(0);
        for other in 0..self.nodes {
            if self.strategy.steal_provider(node, other, self.nodes) {
                self.send_control(
                    node,
                    other,
                    ControlMsg::Starving {
                        from: node,
                        free_bytes: free,
                        target,
                        epoch,
                        token,
                    },
                );
            }
        }
    }

    /// Total queued-tuple load of a node across live operators: the
    /// aggregate a §3.2 provider advertises in its offers, and the quantity
    /// the Threshold watermarks compare against.
    pub(super) fn node_load(&self, node: usize) -> u64 {
        self.live_ops
            .iter()
            .filter_map(|op| self.op_nodes[op][node].as_ref())
            .map(|opn| opn.queued_tuples())
            .sum()
    }

    /// Whether `op` holds work that may move: a probe of a started lane,
    /// neither terminated nor blocked.
    fn stealable(&self, op: usize) -> bool {
        let o = &self.ops[op];
        o.kind.is_probe()
            && self.lanes[o.lane].started
            && !o.terminated
            && o.blockers_remaining == 0
    }

    /// Evaluates one operator as a steal candidate for `requester`
    /// (conditions (i)–(vi) of §3.2): only unblocked, non-terminated probe
    /// work whose home includes the requester moves, it must clear the
    /// minimum-tuples bar, and the shipment (tuples + hash-table partition)
    /// must fit the requester's free memory. Returns
    /// `(op, tuples, bytes, tuples-per-byte ratio)`.
    pub(super) fn steal_candidate(
        &self,
        op: usize,
        node: usize,
        requester: usize,
        free_bytes: u64,
    ) -> Option<(usize, u64, u64, f64)> {
        if !self.stealable(op) || !self.ops[op].home.contains(&NodeId::from(requester)) {
            return None;
        }
        let opn = self.op_nodes[op][node].as_ref()?;
        let queued = opn.queued_tuples();
        if queued < self.options.steal.min_tuples {
            return None;
        }
        let steal_tuples = ((queued as f64) * self.options.steal.fraction) as u64;
        if steal_tuples == 0 {
            return None;
        }
        // The requester must copy this node's hash-table partition for
        // the probed join (conservatively assumed not yet copied).
        let bytes =
            self.config.costs.bytes_for_tuples(steal_tuples) + self.probed_table_bytes(op, node);
        if bytes > free_bytes {
            return None;
        }
        let ratio = steal_tuples as f64 / bytes.max(1) as f64;
        Some((op, steal_tuples, bytes, ratio))
    }

    /// The best steal candidate of `node` for `requester` among the live
    /// operators: the highest tuples-per-byte ratio, the lowest index on
    /// ties. The bitset walk visits the non-terminated slots in ascending
    /// index order — the same candidates, in the same order, as a full
    /// `0..ops.len()` scan.
    pub(super) fn best_steal_candidate(
        &self,
        node: usize,
        requester: usize,
        free_bytes: u64,
    ) -> Option<(usize, u64, u64, f64)> {
        let mut best: Option<(usize, u64, u64, f64)> = None;
        for op in self.live_ops.iter() {
            let Some(candidate) = self.steal_candidate(op, node, requester, free_bytes) else {
                continue;
            };
            if best.map(|(_, _, _, r)| candidate.3 > r).unwrap_or(true) {
                best = Some(candidate);
            }
        }
        best
    }

    /// The size of `node`'s partition of the hash table that `op` probes; 0
    /// for an operator that probes none.
    fn probed_table_bytes(&self, op: usize, node: usize) -> u64 {
        self.ops[op]
            .build_twin
            .and_then(|b| self.op_nodes[b][node].as_ref())
            .map(|b| self.cost.hash_table_bytes(b.hash_tuples))
            .unwrap_or(0)
    }

    /// A provider node looks for a candidate queue to off-load (conditions
    /// (i)–(vi) of §3.2) and answers the requester. In co-simulated mode the
    /// candidate set — and the advertised load — spans the operators of
    /// *every* interleaved query, so steal decisions see cross-query load.
    pub(super) fn on_starving(
        &mut self,
        node: usize,
        requester: usize,
        free_bytes: u64,
        target: Option<usize>,
        epoch: u64,
        token: u64,
    ) {
        let best = match target {
            // Open mode: the targeted slot was recycled while the request was
            // in flight — the new occupant's work must not be offered under
            // the stale id. An empty candidate set still yields a NoOffer
            // reply, so the requester's reply counting stays intact.
            Some(op) if self.epochs[op] != epoch => None,
            Some(op) => self.steal_candidate(op, node, requester, free_bytes),
            // DP considers every live operator.
            None => self.best_steal_candidate(node, requester, free_bytes),
        };

        let load = self.node_load(node);

        match best {
            Some((op, tuples, bytes, _)) => self.send_control(
                node,
                requester,
                ControlMsg::Offer {
                    from: node,
                    op,
                    tuples,
                    bytes,
                    load,
                    epoch: self.epochs[op],
                    token,
                },
            ),
            None => self.send_control(node, requester, ControlMsg::NoOffer { token }),
        }
    }

    /// The requester collects offers; once all providers answered it acquires
    /// from the most loaded one.
    pub(super) fn on_offer(&mut self, node: usize, token: u64, offer: Option<OfferEntry>) {
        // A requester that died mid-episode abandons it: acquiring work onto
        // a dead node would strand it.
        if !self.live[node] {
            return;
        }
        {
            let lb = &mut self.node_lb[node];
            if token != lb.current_token {
                // Reply to an older steal episode; ignore it.
                return;
            }
            lb.replies_received += 1;
            if let Some(o) = offer {
                lb.offers.push(o);
            }
            if lb.replies_received < lb.replies_expected {
                return;
            }
        }
        // All replies in: pick the provider to acquire from. DP keeps a list
        // of queues it already stole from (§4): when possible it prefers a
        // provider whose hash-table partition it has already copied, and
        // otherwise takes the most loaded provider. FP has no such
        // optimization — it is part of the paper's DP contribution.
        let table_cached = |provider: usize, op: usize| {
            self.op_nodes[op][node]
                .as_ref()
                .map(|o| o.hash_copied_from.contains(&provider))
                .unwrap_or(false)
        };
        let offers = std::mem::take(&mut self.node_lb[node].offers);
        let load = |&&(_, _, _, _, load, _): &&OfferEntry| load;
        let chosen = offers
            .iter()
            .filter(|&&(provider, op, ..)| self.prefers_cached && table_cached(provider, op))
            .max_by_key(load)
            .or_else(|| offers.iter().max_by_key(load))
            .copied();
        match chosen {
            None => {
                // Nothing to acquire; clear the outstanding flags so a later
                // starving episode can retry.
                self.node_lb[node].starving_outstanding = false;
                self.node_lb[node].fp_outstanding.clear();
            }
            Some((provider, op, _tuples, _bytes, _load, epoch)) => {
                let has_table = self.prefers_cached && table_cached(provider, op);
                self.send_control(
                    node,
                    provider,
                    ControlMsg::Acquire {
                        from: node,
                        op,
                        has_table,
                        epoch,
                    },
                );
            }
        }
    }

    /// The provider ships roughly `steal_fraction` of its queued activations
    /// of `op`, plus its hash-table partition when the requester lacks it.
    pub(super) fn on_acquire(
        &mut self,
        node: usize,
        requester: usize,
        op: usize,
        has_table: bool,
        epoch: u64,
    ) {
        // Open mode: the offered slot was recycled between Offer and Acquire
        // (its query terminated and a new one moved in). Ship an empty,
        // control-sized transfer so the requester's outstanding flags clear,
        // and leave the new occupant untouched.
        if self.epochs[op] != epoch {
            self.send_control(
                node,
                requester,
                ControlMsg::Transfer {
                    from: node,
                    op,
                    activations: Vec::new(),
                    bytes: CONTROL_MESSAGE_BYTES,
                },
            );
            return;
        }
        let mut shipped: Vec<Activation> = Vec::new();
        let mut shipped_tuples = 0u64;
        if let Some(opn) = self.op_nodes[op][node].as_mut() {
            let total: usize = opn.queued_activations();
            let take = ((total as f64) * self.options.steal.fraction).ceil() as usize;
            // The shipped batch size is known up front; size the transfer
            // buffer once instead of growing it pop by pop.
            shipped.reserve_exact(take.min(total));
            let mut remaining = take;
            // Parked activations first (they are the oldest overflow).
            while remaining > 0 {
                let Some(a) = opn.unpark_front() else {
                    break;
                };
                shipped_tuples += a.tuples;
                shipped.push(a);
                remaining -= 1;
            }
            // Then bulk-drain the queues, spreading the remainder evenly over
            // the queues (a queue holding less than its quota rolls the
            // difference over to the later ones). `drain_into` appends into
            // the pre-sized transfer buffer and accounts tuples in the same
            // pass.
            let nq = opn.queues.len();
            for i in 0..nq {
                if remaining == 0 {
                    break;
                }
                let quota = remaining.div_ceil(nq - i);
                let outcome = opn.drain_queue_into(i, quota, &mut shipped);
                shipped_tuples += outcome.tuples;
                remaining -= outcome.count;
            }
            // Top-up sweep: under skew the work concentrates in low-index
            // queues (the router's hot slots), which the even-spread quota
            // above deliberately under-drains; take the shortfall from
            // whatever is left so the transfer really carries `take`
            // activations whenever that much work exists.
            for i in 0..nq {
                if remaining == 0 {
                    break;
                }
                let outcome = opn.drain_queue_into(i, remaining, &mut shipped);
                shipped_tuples += outcome.tuples;
                remaining -= outcome.count;
            }
            if opn.queued == 0 {
                self.ready[node].remove(op);
            }
        }
        let hash_bytes = if has_table {
            0
        } else {
            self.probed_table_bytes(op, node)
        };
        let tuple_bytes: u64 = self.config.costs.bytes_for_tuples(shipped_tuples);
        let bytes = (tuple_bytes + hash_bytes).max(CONTROL_MESSAGE_BYTES);
        self.lb_bytes += bytes;
        // The provider's queues may now be empty: re-run end detection.
        self.check_local_end(op, node);
        self.maybe_terminate(op);
        self.send_control(
            node,
            requester,
            ControlMsg::Transfer {
                from: node,
                op,
                activations: shipped,
                bytes,
            },
        );
    }

    /// The requester integrates the acquired activations and wakes its
    /// threads.
    pub(super) fn on_transfer(
        &mut self,
        node: usize,
        provider: usize,
        op: usize,
        activations: Vec<Activation>,
    ) {
        self.node_lb[node].starving_outstanding = false;
        self.node_lb[node].fp_outstanding.remove(&op);
        if activations.is_empty() {
            return;
        }
        // The provider already gave the work up: a shipment towards a node
        // that died in flight lands on a live home node instead of being
        // dropped (work conservation).
        let node = if self.live[node] {
            node
        } else {
            self.live_home_redirect(op, provider as u64)
        };
        self.lb_acquisitions += 1;
        {
            let opn = self.op_nodes[op][node]
                .as_mut()
                .expect("requester is in the operator home");
            opn.hash_copied_from.insert(provider);
            for a in activations {
                let slot = opn.steal_cursor % self.threads_per_node;
                opn.steal_cursor += 1;
                opn.enqueue_or_park(slot, a);
            }
            self.ready[node].insert(op);
        }
        if self.op_consumable(op, node) {
            self.wake_threads(node, Some(op));
        }
    }
}
