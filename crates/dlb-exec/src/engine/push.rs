//! Sender-initiated push (Threshold): an overloaded node probes a
//! neighbour and ships through the §3.2 Acquire/Transfer path.

use super::*;

impl<'a> QueueEngine<'a> {
    /// After new work lands on `node`, probe a round-robin neighbour when
    /// the local queued load crossed the `hi` watermark. At most one probe
    /// is in flight per node; the eventual shipment reuses the §3.2
    /// Acquire/Transfer path, so conservation and fault redirects hold
    /// unchanged. A no-op (one branch) for pull-only policies.
    pub(super) fn maybe_push_work(&mut self, node: usize) {
        let Some(cfg) = self.push else { return };
        if self.nodes < 2
            || !self.live[node]
            || self.node_lb[node].push_outstanding
            || self.node_load(node) as f64 <= cfg.hi
        {
            return;
        }
        let start = self.node_lb[node].push_cursor;
        let Some(target) = (1..self.nodes)
            .map(|d| (start + d) % self.nodes)
            .find(|&n| n != node && self.live[n])
        else {
            return;
        };
        let lb = &mut self.node_lb[node];
        lb.push_cursor = target;
        lb.push_outstanding = true;
        lb.current_token += 1;
        let token = lb.current_token;
        self.lb_requests += 1;
        self.send_control(node, target, ControlMsg::PushProbe { from: node, token });
    }

    /// A probed node decides whether to take pushed work: accept when it is
    /// alive and its own queued load sits below the `lo` watermark. It
    /// always replies, so the sender's outstanding probe clears either way.
    pub(super) fn on_push_probe(&mut self, node: usize, sender: usize, token: u64) {
        let accept = self
            .push
            .map(|cfg| self.live[node] && (self.node_load(node) as f64) < cfg.lo)
            .unwrap_or(false);
        self.send_control(
            node,
            sender,
            ControlMsg::PushReply {
                from: node,
                accept,
                free_bytes: self.free_mem[node],
                token,
            },
        );
    }

    /// The sender integrates a push verdict: on accept it offers its best
    /// candidate queue (the §3.2 tuples-per-byte arbitration, against the
    /// receiver's advertised free memory) and ships it through the regular
    /// Acquire path.
    pub(super) fn on_push_reply(
        &mut self,
        node: usize,
        receiver: usize,
        accept: bool,
        free_bytes: u64,
        token: u64,
    ) {
        if token != self.node_lb[node].current_token {
            return;
        }
        self.node_lb[node].push_outstanding = false;
        if !accept || !self.live[node] || !self.live[receiver] {
            return;
        }
        if let Some((op, _, _, _)) = self.best_steal_candidate(node, receiver, free_bytes) {
            self.on_acquire(node, receiver, op, false, self.epochs[op]);
        }
    }
}
