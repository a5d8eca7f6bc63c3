//! Per-processor busy/idle accounting.
//!
//! The experiments of the paper report processor idle time ("processor idle
//! time with DP is almost null whereas it is quite significant with FP").
//! This module accumulates, for every processor, the virtual time spent doing
//! useful work so that the execution report can derive utilization and idle
//! time from the final response time.

use dlb_common::{Duration, NodeId, ProcessorId, SimTime};

/// Busy-time accounting for all processors of the machine.
#[derive(Debug, Clone)]
pub struct CpuAccounting {
    processors_per_node: u32,
    busy: Vec<Duration>,
    /// Last instant at which each processor finished work (for reporting).
    last_active: Vec<SimTime>,
}

impl CpuAccounting {
    /// Creates accounting for `nodes` × `processors_per_node` processors.
    pub fn new(nodes: u32, processors_per_node: u32) -> Self {
        let count = (nodes * processors_per_node) as usize;
        Self {
            processors_per_node,
            busy: vec![Duration::ZERO; count.max(1)],
            last_active: vec![SimTime::ZERO; count.max(1)],
        }
    }

    fn index(&self, p: ProcessorId) -> usize {
        (p.node.0 * self.processors_per_node + p.local) as usize
    }

    /// Records that processor `p` was busy for `amount`, finishing at `until`.
    pub fn record_busy(&mut self, p: ProcessorId, amount: Duration, until: SimTime) {
        let idx = self.index(p);
        self.busy[idx] += amount;
        if until > self.last_active[idx] {
            self.last_active[idx] = until;
        }
    }

    /// Total busy time of processor `p`.
    pub fn busy(&self, p: ProcessorId) -> Duration {
        self.busy[self.index(p)]
    }

    /// Total busy time across all processors.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().copied().sum()
    }

    /// Total busy time across the processors of `node`.
    pub fn node_busy(&self, node: NodeId) -> Duration {
        (0..self.processors_per_node)
            .map(|local| self.busy(ProcessorId::new(node, local)))
            .sum()
    }

    /// Average utilization over all processors for an execution that lasted
    /// `makespan` (1.0 means every processor was busy the whole time).
    /// Returns 0 for a zero makespan.
    pub fn utilization(&self, makespan: Duration) -> f64 {
        if makespan.is_zero() || self.busy.is_empty() {
            return 0.0;
        }
        let total = self.total_busy().as_secs_f64();
        total / (makespan.as_secs_f64() * self.busy.len() as f64)
    }

    /// Aggregate idle time: `processors * makespan - total busy`.
    pub fn total_idle(&self, makespan: Duration) -> Duration {
        let capacity = makespan * self.busy.len() as u64;
        capacity.saturating_sub(self.total_busy())
    }

    /// Number of processors tracked.
    pub fn processors(&self) -> usize {
        self.busy.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_accumulates_per_processor() {
        let mut acc = CpuAccounting::new(2, 4);
        let p = ProcessorId::new(NodeId::new(1), 2);
        acc.record_busy(p, Duration::from_millis(5), SimTime::from_nanos(5_000_000));
        acc.record_busy(p, Duration::from_millis(3), SimTime::from_nanos(9_000_000));
        assert_eq!(acc.busy(p), Duration::from_millis(8));
        assert_eq!(acc.total_busy(), Duration::from_millis(8));
        assert_eq!(acc.node_busy(NodeId::new(1)), Duration::from_millis(8));
        assert_eq!(acc.node_busy(NodeId::new(0)), Duration::ZERO);
        assert_eq!(acc.processors(), 8);
    }

    #[test]
    fn utilization_and_idle() {
        let mut acc = CpuAccounting::new(1, 2);
        let makespan = Duration::from_millis(10);
        acc.record_busy(
            ProcessorId::new(NodeId::new(0), 0),
            Duration::from_millis(10),
            SimTime::from_nanos(10_000_000),
        );
        acc.record_busy(
            ProcessorId::new(NodeId::new(0), 1),
            Duration::from_millis(5),
            SimTime::from_nanos(10_000_000),
        );
        let util = acc.utilization(makespan);
        assert!((util - 0.75).abs() < 1e-9);
        assert_eq!(acc.total_idle(makespan), Duration::from_millis(5));
        assert_eq!(acc.utilization(Duration::ZERO), 0.0);
    }
}
