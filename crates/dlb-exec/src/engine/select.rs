//! Work selection (§3): which activation an idle thread takes next, and
//! the idle-thread bookkeeping that wakes threads when work arrives.

use super::*;

impl<'a> QueueEngine<'a> {
    fn thread_may_process(&self, node: usize, thread: usize, op: usize) -> bool {
        match &self.allowed[node][thread] {
            None => true,
            Some(set) => set.contains(op),
        }
    }

    pub(super) fn op_consumable(&self, op: usize, node: usize) -> bool {
        let o = &self.ops[op];
        self.lanes[o.lane].started
            && !o.terminated
            && o.blockers_remaining == 0
            && self.op_nodes[op][node].is_some()
    }

    /// Selects the next activation for a thread. Lanes are visited in
    /// priority order (descending, mix index on ties); within a lane the
    /// thread prefers its primary queues (its own queue of every operator)
    /// and falls back to any other queue of the node, paying a small
    /// interference penalty. A higher-priority query's work — even on a
    /// non-primary queue — is taken before any lower-priority query's.
    ///
    /// Both passes visit the lane's operators in rotated order,
    /// `base + (thread + shift) % n_ops` for ascending `shift`, and only
    /// those in the lane's candidate set: operators with work queued on
    /// this node that the thread's static allocation (if any) permits, read
    /// one word per [`WORD_BITS`] operators. A lane with nothing queued on
    /// the node is skipped before any of that. The walk starts at the
    /// rotation offset inside its word,
    /// runs through the later words, wraps to the first, and ends with the
    /// bits of the starting word below the offset.
    fn select_work(&mut self, node: usize, thread: usize) -> Option<(usize, Activation, bool)> {
        for li in 0..self.lane_order.len() {
            let lane = self.lane_order[li];
            let hot = self.lane_hot[lane];
            debug_assert!(
                hot.started == self.lanes[lane].started
                    && hot.base as usize == self.lanes[lane].base
                    && hot.n_ops as usize == self.lanes[lane].n_ops,
                "lane_hot snapshot drifted from lane state"
            );
            let (base, n_ops) = (hot.base as usize, hot.n_ops as usize);
            if !hot.started || n_ops == 0 {
                continue;
            }
            let words = n_ops.div_ceil(WORD_BITS);
            let width = |w: usize| (n_ops - w * WORD_BITS).min(WORD_BITS);
            if (0..words)
                .all(|w| self.ready[node].extract_range(base + w * WORD_BITS, width(w)) == 0)
            {
                continue;
            }
            let rot = thread % n_ops;
            let (first, below) = (rot / WORD_BITS, (1u64 << (rot % WORD_BITS)) - 1);
            let head = self.candidates(node, thread, base, n_ops, first);
            // Pass 1: primary queues (the thread's own queue of every
            // operator of the lane). Pass 2: any other queue of the node.
            for primary in [true, false] {
                for (step, w) in (first..words).chain(0..=first).enumerate() {
                    let mut m = if w == first {
                        head
                    } else {
                        self.candidates(node, thread, base, n_ops, w)
                    };
                    if step == 0 {
                        m &= !below;
                    } else if step == words {
                        m &= below;
                    }
                    while m != 0 {
                        let op = base + w * WORD_BITS + m.trailing_zeros() as usize;
                        m &= m - 1;
                        if let Some(act) = self.take_work(node, thread, op, primary) {
                            return Some((op, act, primary));
                        }
                    }
                }
            }
        }
        None
    }

    /// Word `w` of the candidate set of the lane at `base`: bit `j` is set
    /// when operator `base + w * WORD_BITS + j` has work queued on `node`
    /// that `thread` may run. Neither pass of [`Self::select_work`] changes
    /// which operators are ready, so both read the same words.
    fn candidates(&self, node: usize, thread: usize, base: usize, n_ops: usize, w: usize) -> u64 {
        let start = base + w * WORD_BITS;
        let len = (n_ops - w * WORD_BITS).min(WORD_BITS);
        let ready = self.ready[node].extract_range(start, len);
        match &self.allowed[node][thread] {
            Some(allowed) if ready != 0 => ready & allowed.extract_range(start, len),
            _ => ready,
        }
    }

    /// Dequeues one activation of candidate `op` for `thread` on `node`:
    /// from the thread's own queue (`primary`), or else from the first
    /// loaded queue after it, wrapping around the node's threads.
    fn take_work(
        &mut self,
        node: usize,
        thread: usize,
        op: usize,
        primary: bool,
    ) -> Option<Activation> {
        if !self.op_consumable(op, node) {
            return None;
        }
        if primary {
            self.deliver_parked(op, node);
        }
        let opn = self.op_nodes[op][node].as_mut().expect("home state");
        let slot = if primary {
            thread
        } else {
            let loaded = opn.nonempty();
            loaded
                .next_from(thread + 1)
                .or_else(|| loaded.next_from(0))
                .filter(|&q| q != thread)?
        };
        let act = opn.dequeue(slot)?;
        opn.processing += 1;
        if opn.queued == 0 {
            self.ready[node].remove(op);
        }
        Some(act)
    }

    pub(super) fn on_thread_ready(&mut self, node: usize, thread: usize) {
        // Quantum-end wakeups of a node that failed mid-quantum die here.
        if !self.live[node] {
            self.set_idle(node, thread, true);
            return;
        }
        self.set_idle(node, thread, false);
        match self.select_work(node, thread) {
            Some((op, act, primary)) => self.process_activation(node, thread, op, act, primary),
            None => {
                self.set_idle(node, thread, true);
                self.request_global_work(node, thread);
            }
        }
    }

    pub(super) fn set_idle(&mut self, node: usize, thread: usize, idle: bool) {
        if idle {
            self.idle_threads[node].insert(thread);
        } else {
            self.idle_threads[node].remove(thread);
        }
    }

    /// Wakes the idle threads of `node` (only those allowed to process
    /// `op_filter`, when given) in ascending thread order.
    pub(super) fn wake_threads(&mut self, node: usize, op_filter: Option<usize>) {
        if !self.live[node] {
            return;
        }
        let now = self.calendar.now();
        let mut from = 0;
        while let Some(thread) = self.idle_threads[node].next_from(from) {
            from = thread + 1;
            if let Some(op) = op_filter {
                if !self.thread_may_process(node, thread, op) {
                    continue;
                }
            }
            self.set_idle(node, thread, false);
            self.calendar.schedule_at(now, Event::ready(node, thread));
        }
    }
}
