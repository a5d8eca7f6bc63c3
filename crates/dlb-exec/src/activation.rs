//! Activations and activation queues.
//!
//! The *activation* is the central concept of the paper's execution model
//! (§3.1): the finest unit of sequential work, self-contained so that **any**
//! thread of an SM-node can execute it. Two kinds exist:
//!
//! * **trigger activations** start a leaf (scan) operator; they reference the
//!   operator and the base-relation pages to scan,
//! * **data activations** carry pipelined tuples to a build or probe
//!   operator.
//!
//! The paper tunes granularity both ways: trigger activations cover one or
//! more *pages* of a bucket rather than a whole bucket, and data activations
//! are *buffered* (a batch of tuples rather than a single tuple). Activations
//! move between operators through *activation queues*; one queue exists per
//! (operator, thread) pair, and queue sizes are bounded for flow control.

use dlb_common::{DiskId, OperatorId};
use std::collections::VecDeque;

/// The payload of an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Start a scan over `pages` pages holding `tuples` tuples, resident on
    /// `disk`.
    Trigger {
        /// Number of contiguous pages to read.
        pages: u64,
        /// Disk holding those pages.
        disk: DiskId,
    },
    /// Process a batch of pipelined tuples with a build or probe operator.
    Data,
}

/// A self-contained unit of sequential work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    /// The operator (within its query's plan) that must process this
    /// activation.
    pub op: OperatorId,
    /// The query the activation belongs to. Single-query executions tag
    /// everything with query 0; the co-simulated engine mode (see
    /// [`crate::engine::execute_cosimulated`]) interleaves activations of
    /// several queries in one event loop, preserves the tag across steals
    /// and transfers, and charges per-query accounting to it (`op` is
    /// plan-local, so only the pair identifies the operator globally).
    pub query: u32,
    /// Trigger or data payload.
    pub kind: ActivationKind,
    /// Number of tuples covered by this activation.
    pub tuples: u64,
}

impl Activation {
    /// Creates a trigger activation (tagged with query 0).
    pub fn trigger(op: OperatorId, pages: u64, tuples: u64, disk: DiskId) -> Self {
        Self {
            op,
            query: 0,
            kind: ActivationKind::Trigger { pages, disk },
            tuples,
        }
    }

    /// Creates a data activation carrying `tuples` buffered tuples (tagged
    /// with query 0).
    pub fn data(op: OperatorId, tuples: u64) -> Self {
        Self {
            op,
            query: 0,
            kind: ActivationKind::Data,
            tuples,
        }
    }

    /// Retags this activation as belonging to `query` (co-simulated mode).
    pub fn for_query(mut self, query: u32) -> Self {
        self.query = query;
        self
    }

    /// True for trigger activations.
    pub fn is_trigger(&self) -> bool {
        matches!(self.kind, ActivationKind::Trigger { .. })
    }
}

/// Accounting of one [`ActivationQueue::drain_into`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Number of activations moved out of the queue.
    pub count: usize,
    /// Total tuples carried by the moved activations.
    pub tuples: u64,
}

/// A bounded activation queue (one per operator per thread).
#[derive(Debug, Clone, Default)]
pub struct ActivationQueue {
    items: VecDeque<Activation>,
    capacity: usize,
    enqueued: u64,
    dequeued: u64,
    high_water: usize,
    /// Tuples currently enqueued, maintained incrementally so the steal
    /// scheduler's load scans are O(1) per queue instead of O(len).
    tuples: u64,
}

impl ActivationQueue {
    /// Creates a queue bounded to `capacity` activations (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::new(),
            capacity,
            enqueued: 0,
            dequeued: 0,
            high_water: 0,
            tuples: 0,
        }
    }

    /// True when no more activations can be accepted (flow control).
    pub fn is_full(&self) -> bool {
        self.capacity > 0 && self.items.len() >= self.capacity
    }

    /// True when the queue has no activations.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of queued activations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Pushes an activation; returns `false` (and drops nothing — the caller
    /// keeps ownership semantics simple by checking [`is_full`] first) when
    /// the queue is full.
    ///
    /// [`is_full`]: ActivationQueue::is_full
    pub fn push(&mut self, a: Activation) -> bool {
        if self.is_full() {
            return false;
        }
        self.items.push_back(a);
        self.enqueued += 1;
        self.high_water = self.high_water.max(self.items.len());
        self.tuples += a.tuples;
        true
    }

    /// Pops the oldest activation.
    pub fn pop(&mut self) -> Option<Activation> {
        let out = self.items.pop_front();
        if let Some(a) = out {
            self.dequeued += 1;
            self.tuples -= a.tuples;
        }
        out
    }

    /// Number of activations ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Number of activations ever dequeued.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Largest queue length observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drains up to `max` activations (used when a queue is stolen by another
    /// SM-node during global load balancing).
    ///
    /// Allocates a fresh buffer per call; hot paths should prefer
    /// [`drain_into`], which reuses a caller-provided buffer and returns the
    /// drained tuple count without a second pass.
    ///
    /// [`drain_into`]: ActivationQueue::drain_into
    pub fn drain(&mut self, max: usize) -> Vec<Activation> {
        let mut out = Vec::new();
        self.drain_into(max, &mut out);
        out
    }

    /// Drains up to `max` activations, appending them to `out` (reusing its
    /// capacity across calls), and returns the drain accounting — how many
    /// activations and how many tuples moved — computed in the same pass.
    pub fn drain_into(&mut self, max: usize, out: &mut Vec<Activation>) -> DrainOutcome {
        let take = max.min(self.items.len());
        out.reserve(take);
        let mut tuples = 0u64;
        for a in self.items.drain(..take) {
            tuples += a.tuples;
            out.push(a);
        }
        self.dequeued += take as u64;
        self.tuples -= tuples;
        DrainOutcome {
            count: take,
            tuples,
        }
    }

    /// Total tuples currently enqueued (O(1): maintained incrementally).
    pub fn queued_tuples(&self) -> u64 {
        debug_assert_eq!(
            self.tuples,
            self.items.iter().map(|a| a.tuples).sum::<u64>(),
            "incremental tuple counter drifted from queue contents"
        );
        self.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_common::NodeId;

    fn disk() -> DiskId {
        DiskId::new(NodeId::new(0), 0)
    }

    #[test]
    fn activation_constructors() {
        let t = Activation::trigger(OperatorId::new(1), 8, 640, disk());
        assert!(t.is_trigger());
        assert_eq!(t.tuples, 640);
        assert_eq!(t.query, 0);
        let d = Activation::data(OperatorId::new(2), 128);
        assert!(!d.is_trigger());
        assert_eq!(d.op, OperatorId::new(2));
        let tagged = d.for_query(3);
        assert_eq!(tagged.query, 3);
        assert_eq!(tagged.tuples, d.tuples);
    }

    #[test]
    fn queue_respects_capacity() {
        let mut q = ActivationQueue::new(2);
        assert!(q.push(Activation::data(OperatorId::new(0), 1)));
        assert!(q.push(Activation::data(OperatorId::new(0), 2)));
        assert!(q.is_full());
        assert!(!q.push(Activation::data(OperatorId::new(0), 3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_enqueued(), 2);
        q.pop().unwrap();
        assert!(!q.is_full());
        assert!(q.push(Activation::data(OperatorId::new(0), 3)));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn unbounded_queue_never_fills() {
        let mut q = ActivationQueue::new(0);
        for i in 0..10_000u64 {
            assert!(q.push(Activation::data(OperatorId::new(0), i)));
        }
        assert!(!q.is_full());
        assert_eq!(q.len(), 10_000);
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = ActivationQueue::new(0);
        for i in 0..5u64 {
            q.push(Activation::data(OperatorId::new(0), i));
        }
        for i in 0..5u64 {
            assert_eq!(q.pop().unwrap().tuples, i);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.total_dequeued(), 5);
    }

    #[test]
    fn drain_into_reuses_capacity_and_accounts_in_one_pass() {
        let mut q = ActivationQueue::new(0);
        for i in 1..=10u64 {
            q.push(Activation::data(OperatorId::new(0), i));
        }
        let mut buf: Vec<Activation> = Vec::new();
        let first = q.drain_into(4, &mut buf);
        assert_eq!(
            first,
            DrainOutcome {
                count: 4,
                tuples: 1 + 2 + 3 + 4
            }
        );
        assert_eq!(buf.len(), 4);
        assert_eq!(q.total_dequeued(), 4);
        let cap = buf.capacity();
        buf.clear();
        // A second drain of the same size fits in the retained capacity.
        let second = q.drain_into(4, &mut buf);
        assert_eq!(
            second,
            DrainOutcome {
                count: 4,
                tuples: 5 + 6 + 7 + 8
            }
        );
        assert_eq!(buf.capacity(), cap);
        // Draining past the end accounts only what was available.
        buf.clear();
        let rest = q.drain_into(100, &mut buf);
        assert_eq!(
            rest,
            DrainOutcome {
                count: 2,
                tuples: 9 + 10
            }
        );
        assert!(q.is_empty());
        assert_eq!(q.total_dequeued(), 10);
        // Totals stay consistent with push accounting.
        assert_eq!(q.total_enqueued(), 10);
        let empty = q.drain_into(4, &mut buf);
        assert_eq!(empty, DrainOutcome::default());
    }

    #[test]
    fn drain_takes_oldest_first() {
        let mut q = ActivationQueue::new(0);
        for i in 0..10u64 {
            q.push(Activation::data(OperatorId::new(0), i));
        }
        let taken = q.drain(4);
        assert_eq!(taken.len(), 4);
        assert_eq!(taken[0].tuples, 0);
        assert_eq!(q.len(), 6);
        assert_eq!(q.queued_tuples(), (4..10).sum::<u64>());
        let rest = q.drain(100);
        assert_eq!(rest.len(), 6);
        assert!(q.is_empty());
    }
}
