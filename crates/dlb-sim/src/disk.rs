//! Disk service model.
//!
//! Each SM-node attaches one disk per processor (paper §5.1.1). Base-relation
//! partitions are spread over the disks of their home node; scans read
//! partitions page by page using *asynchronous* I/O so that disk transfers
//! overlap with tuple processing, bounded by an 8-page I/O cache (read-ahead
//! window).
//!
//! The model used here is a FIFO service timeline per disk: a request issued
//! at time `t` for `p` contiguous pages starts at `max(t, disk_free)` and
//! occupies the disk for `latency + seek + p * page / transfer_rate`. The
//! asynchronous overlap is modelled by the execution engine, which charges a
//! scan quantum `max(cpu_time, io_completion - start)` instead of the sum —
//! exactly the effect of the paper's `IO_InitAsync` / `IO_Read` loop with a
//! bounded read-ahead cache.

use dlb_common::config::DiskParams;
use dlb_common::{DiskId, Duration, NodeId, SimTime};

/// Result of issuing a disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequestOutcome {
    /// When the disk started servicing the request.
    pub start: SimTime,
    /// When the last page of the request is available in memory.
    pub complete: SimTime,
}

impl DiskRequestOutcome {
    /// Total time the caller would wait if it did nothing else.
    pub fn wait_from(&self, issued: SimTime) -> Duration {
        self.complete.since(issued)
    }
}

/// Aggregate statistics of one disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read requests serviced.
    pub requests: u64,
    /// Number of pages read.
    pub pages: u64,
    /// Total busy time of the disk.
    pub busy: Duration,
}

#[derive(Debug, Clone)]
struct DiskState {
    free_at: SimTime,
    stats: DiskStats,
}

/// The set of disks of the whole machine, indexed by `(node, local disk)`.
#[derive(Debug, Clone)]
pub struct DiskFarm {
    params: DiskParams,
    disks_per_node: u32,
    disks: Vec<DiskState>,
}

impl DiskFarm {
    /// Creates the disks for `nodes` SM-nodes with `disks_per_node` disks
    /// each.
    pub fn new(params: DiskParams, nodes: u32, disks_per_node: u32) -> Self {
        let count = (nodes * disks_per_node) as usize;
        Self {
            params,
            disks_per_node,
            disks: vec![
                DiskState {
                    free_at: SimTime::ZERO,
                    stats: DiskStats::default(),
                };
                count.max(1)
            ],
        }
    }

    /// Disk parameters in force.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Number of disks per node.
    pub fn disks_per_node(&self) -> u32 {
        self.disks_per_node
    }

    fn index(&self, disk: DiskId) -> usize {
        (disk.node.0 * self.disks_per_node + disk.local) as usize
    }

    /// Issues a read of `pages` contiguous pages on `disk` at time `issued`.
    ///
    /// Requests are serviced FIFO per disk; the returned outcome gives the
    /// service start and completion instants. One `latency + seek` penalty is
    /// charged per request (a request models one asynchronous I/O covering a
    /// read-ahead window, not one page).
    pub fn read(&mut self, disk: DiskId, issued: SimTime, pages: u64) -> DiskRequestOutcome {
        let idx = self.index(disk);
        let params = self.params;
        let state = &mut self.disks[idx];
        let start = state.free_at.max(issued);
        let service = params.access_time(pages);
        let complete = start + service;
        state.free_at = complete;
        state.stats.requests += 1;
        state.stats.pages += pages;
        state.stats.busy += service;
        DiskRequestOutcome { start, complete }
    }

    /// Issues a *streaming* read of `pages` pages on `disk` at `issued`:
    /// part of an already-positioned sequential scan, so only transfer time
    /// is charged (no latency or seek). Used for all but the first read of a
    /// partition fragment, matching the paper's asynchronous read-ahead
    /// behaviour.
    pub fn read_streaming(
        &mut self,
        disk: DiskId,
        issued: SimTime,
        pages: u64,
    ) -> DiskRequestOutcome {
        let idx = self.index(disk);
        let params = self.params;
        let state = &mut self.disks[idx];
        let start = state.free_at.max(issued);
        let service = params.transfer_time(pages);
        let complete = start + service;
        state.free_at = complete;
        state.stats.requests += 1;
        state.stats.pages += pages;
        state.stats.busy += service;
        DiskRequestOutcome { start, complete }
    }

    /// Earliest time the disk could begin a new request.
    pub fn free_at(&self, disk: DiskId) -> SimTime {
        self.disks[self.index(disk)].free_at
    }

    /// Statistics of one disk.
    pub fn stats(&self, disk: DiskId) -> DiskStats {
        self.disks[self.index(disk)].stats
    }

    /// Sum of the statistics of every disk of `node`.
    pub fn node_stats(&self, node: NodeId) -> DiskStats {
        let mut total = DiskStats::default();
        for local in 0..self.disks_per_node {
            let s = self.stats(DiskId::new(node, local));
            total.requests += s.requests;
            total.pages += s.pages;
            total.busy += s.busy;
        }
        total
    }

    /// Sum of the statistics of every disk of the machine.
    pub fn total_stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            total.requests += d.stats.requests;
            total.pages += d.stats.pages;
            total.busy += d.stats.busy;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn farm() -> DiskFarm {
        DiskFarm::new(DiskParams::default(), 2, 4)
    }

    #[test]
    fn single_request_timing() {
        let mut f = farm();
        let d = DiskId::new(NodeId::new(0), 0);
        let out = f.read(d, SimTime::ZERO, 8);
        assert_eq!(out.start, SimTime::ZERO);
        // 17ms latency + 5ms seek + 8 pages * 8KiB / 6MiB/s ≈ 22ms + 10.4ms.
        let expected = DiskParams::default().access_time(8);
        assert_eq!(out.complete, SimTime::ZERO + expected);
        assert_eq!(out.wait_from(SimTime::ZERO), expected);
    }

    #[test]
    fn requests_queue_fifo_per_disk() {
        let mut f = farm();
        let d = DiskId::new(NodeId::new(0), 1);
        let a = f.read(d, SimTime::ZERO, 1);
        let b = f.read(d, SimTime::ZERO, 1);
        assert_eq!(b.start, a.complete);
        assert!(b.complete > a.complete);
        // A later request on a different disk does not queue.
        let other = f.read(DiskId::new(NodeId::new(0), 2), SimTime::ZERO, 1);
        assert_eq!(other.start, SimTime::ZERO);
    }

    #[test]
    fn idle_disk_starts_at_issue_time() {
        let mut f = farm();
        let d = DiskId::new(NodeId::new(1), 0);
        let issued = SimTime::from_nanos(1_000_000_000);
        let out = f.read(d, issued, 2);
        assert_eq!(out.start, issued);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = farm();
        let d = DiskId::new(NodeId::new(1), 3);
        f.read(d, SimTime::ZERO, 4);
        f.read(d, SimTime::ZERO, 6);
        let s = f.stats(d);
        assert_eq!(s.requests, 2);
        assert_eq!(s.pages, 10);
        assert_eq!(
            s.busy,
            DiskParams::default().access_time(4) + DiskParams::default().access_time(6)
        );
        let ns = f.node_stats(NodeId::new(1));
        assert_eq!(ns.requests, 2);
        let ts = f.total_stats();
        assert_eq!(ts.pages, 10);
    }

    #[test]
    fn streaming_read_skips_latency_and_seek() {
        let mut f = farm();
        let d = DiskId::new(NodeId::new(0), 0);
        let streamed = f.read_streaming(d, SimTime::ZERO, 8);
        assert_eq!(
            streamed.complete,
            SimTime::ZERO + DiskParams::default().transfer_time(8)
        );
        // A positioned read still queues behind the streaming one.
        let positioned = f.read(d, SimTime::ZERO, 8);
        assert_eq!(positioned.start, streamed.complete);
        assert_eq!(f.stats(d).requests, 2);
    }

    #[test]
    fn node_stats_do_not_mix_nodes() {
        let mut f = farm();
        f.read(DiskId::new(NodeId::new(0), 0), SimTime::ZERO, 5);
        assert_eq!(f.node_stats(NodeId::new(1)).pages, 0);
        assert_eq!(f.node_stats(NodeId::new(0)).pages, 5);
    }
}
