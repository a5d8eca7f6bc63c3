//! Inter-node message-passing model.
//!
//! Inter-node communication happens over the interconnection network with the
//! parameters published in the paper: an end-to-end transmission delay of
//! 0.5 ms, a CPU cost of 10 000 instructions per 8 KB on the sending side and
//! the same on the receiving side, and "infinite" bandwidth (wire time is
//! negligible). Intra-node communication goes through shared memory and costs
//! nothing here.
//!
//! The network never reorders messages between the same pair of nodes: the
//! arrival time of message *n+1* is never earlier than that of message *n*,
//! which the end-detection protocol of `dlb-exec` relies upon.

use dlb_common::config::{CpuParams, NetworkParams};
use dlb_common::{Duration, NodeId, SimTime};

/// Timing of one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTiming {
    /// Time at which the sender has finished paying its send CPU cost and the
    /// message leaves the node.
    pub sent: SimTime,
    /// Time at which the message reaches the destination node (before the
    /// receiver pays its receive CPU cost).
    pub arrival: SimTime,
    /// CPU time the sender spent on the send.
    pub send_cpu: Duration,
    /// CPU time the receiver must spend to take delivery.
    pub recv_cpu: Duration,
}

/// Traffic statistics, per direction and aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Total number of messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Number of nodes; the per-link counters are `nodes × nodes` matrices
    /// indexed `from * nodes + to`.
    nodes: usize,
    link_messages: Vec<u64>,
    link_bytes: Vec<u64>,
}

impl NetworkStats {
    fn new(nodes: usize) -> Self {
        Self {
            messages: 0,
            bytes: 0,
            nodes,
            link_messages: vec![0; nodes * nodes],
            link_bytes: vec![0; nodes * nodes],
        }
    }

    /// Position of the `from → to` link in the per-link matrices.
    fn link(&self, from: NodeId, to: NodeId) -> usize {
        from.index() * self.nodes + to.index()
    }

    /// Bytes sent from `from` to `to`.
    pub fn link_bytes(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_bytes[self.link(from, to)]
    }

    /// Messages sent from `from` to `to`.
    pub fn link_messages(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_messages[self.link(from, to)]
    }
}

/// The interconnection network of the hierarchical system.
///
/// Links are dense: the per-link FIFO clock and traffic counters are
/// `nodes × nodes` arrays, so a send is a few indexed loads and stores.
#[derive(Debug, Clone)]
pub struct Network {
    params: NetworkParams,
    cpu: CpuParams,
    /// Per-link earliest next arrival, to preserve FIFO ordering per link
    /// (`SimTime::ZERO` until the link carries its first message), indexed
    /// like the per-link counters of [`NetworkStats`].
    link_clock: Vec<SimTime>,
    stats: NetworkStats,
}

impl Network {
    /// Creates a network between `nodes` SM-nodes with the given parameters.
    /// `cpu` is used to convert the per-message instruction costs into time.
    pub fn new(params: NetworkParams, cpu: CpuParams, nodes: u32) -> Self {
        let nodes = nodes as usize;
        Self {
            params,
            cpu,
            link_clock: vec![SimTime::ZERO; nodes * nodes],
            stats: NetworkStats::new(nodes),
        }
    }

    /// Network parameters in force.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Sends `bytes` from `from` to `to`, with the send starting at `at`.
    ///
    /// Returns the timing of the transfer. Sending to the local node is free
    /// and instantaneous (shared memory): the paper's model only pays
    /// message-passing costs across SM-nodes.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64, at: SimTime) -> MessageTiming {
        if from == to {
            return MessageTiming {
                sent: at,
                arrival: at,
                send_cpu: Duration::ZERO,
                recv_cpu: Duration::ZERO,
            };
        }
        let send_cpu = self.cpu.instructions(self.params.send_instructions(bytes));
        let recv_cpu = self.cpu.instructions(self.params.recv_instructions(bytes));
        let sent = at + send_cpu;
        // FIFO per link: never deliver before a previously sent message on the
        // same link. An unused link's clock is the origin, which every
        // arrival already follows.
        let link = self.stats.link(from, to);
        let arrival = (sent + self.params.end_to_end_delay + self.params.transmission_time(bytes))
            .max(self.link_clock[link]);
        self.link_clock[link] = arrival;

        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.link_messages[link] += 1;
        self.stats.link_bytes[link] += bytes;

        MessageTiming {
            sent,
            arrival,
            send_cpu,
            recv_cpu,
        }
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: u32 = 4;

    fn net() -> Network {
        Network::new(NetworkParams::default(), CpuParams::default(), NODES)
    }

    #[test]
    fn local_send_is_free() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(0), 1 << 20, SimTime::ZERO);
        assert_eq!(t.arrival, SimTime::ZERO);
        assert_eq!(t.send_cpu, Duration::ZERO);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn remote_send_pays_delay_and_cpu() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(1), 8 * 1024, SimTime::ZERO);
        // 10 000 instructions at 40 MIPS = 0.25 ms of send CPU.
        assert_eq!(t.send_cpu, Duration::from_micros(250));
        assert_eq!(t.recv_cpu, Duration::from_micros(250));
        // Arrival = send cpu + 0.5 ms delay (infinite bandwidth).
        assert_eq!(
            t.arrival,
            SimTime::ZERO + Duration::from_micros(250) + Duration::from_micros(500)
        );
        assert_eq!(n.stats().messages, 1);
        assert_eq!(n.stats().bytes, 8 * 1024);
    }

    #[test]
    fn multi_page_messages_scale_cpu_cost() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(1), 4 * 8 * 1024, SimTime::ZERO);
        assert_eq!(t.send_cpu, Duration::from_micros(1_000));
    }

    #[test]
    fn per_link_fifo_ordering() {
        let mut n = net();
        let a = n.send(NodeId::new(0), NodeId::new(1), 1 << 16, SimTime::ZERO);
        // A later, smaller message on the same link cannot overtake.
        let b = n.send(NodeId::new(0), NodeId::new(1), 8, SimTime::from_nanos(1));
        assert!(b.arrival >= a.arrival);
        // But a message on a different link is independent of that ordering:
        // a small reverse-direction message is not held behind the large one.
        let c = n.send(NodeId::new(1), NodeId::new(0), 8, SimTime::from_nanos(1));
        assert!(c.arrival < a.arrival);
        assert_eq!(n.stats().link_messages(NodeId::new(0), NodeId::new(1)), 2);
        assert_eq!(n.stats().link_bytes(NodeId::new(1), NodeId::new(0)), 8);
    }

    #[test]
    fn stats_track_links_separately() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(1), 100, SimTime::ZERO);
        n.send(NodeId::new(0), NodeId::new(2), 200, SimTime::ZERO);
        n.send(NodeId::new(2), NodeId::new(0), 300, SimTime::ZERO);
        assert_eq!(n.stats().messages, 3);
        assert_eq!(n.stats().bytes, 600);
        assert_eq!(n.stats().link_bytes(NodeId::new(0), NodeId::new(1)), 100);
        assert_eq!(n.stats().link_bytes(NodeId::new(0), NodeId::new(2)), 200);
        assert_eq!(n.stats().link_bytes(NodeId::new(2), NodeId::new(0)), 300);
        assert_eq!(n.stats().link_bytes(NodeId::new(1), NodeId::new(2)), 0);
    }

    #[test]
    fn finite_bandwidth_adds_wire_time() {
        let params = NetworkParams {
            bandwidth_bytes_per_sec: Some(8.0 * 1024.0), // 1 page per second
            ..NetworkParams::default()
        };
        let mut n = Network::new(params, CpuParams::default(), NODES);
        let t = n.send(NodeId::new(0), NodeId::new(1), 8 * 1024, SimTime::ZERO);
        assert!(t.arrival.since(SimTime::ZERO) > Duration::from_secs(1));
    }

    #[test]
    fn links_at_the_matrix_edge_are_separate() {
        let last = NodeId::new(NODES - 1);
        let mut n = net();
        let a = n.send(last, NodeId::new(0), 1 << 16, SimTime::ZERO);
        let b = n.send(last, NodeId::new(0), 8, SimTime::from_nanos(1));
        assert!(b.arrival >= a.arrival);
        let c = n.send(NodeId::new(0), last, 8, SimTime::from_nanos(1));
        assert!(c.arrival < a.arrival);
        let d = n.send(NodeId::new(NODES - 2), last, 16, SimTime::ZERO);
        assert!(d.arrival < a.arrival);
        assert_eq!(n.stats().link_messages(last, NodeId::new(0)), 2);
        assert_eq!(n.stats().link_bytes(last, NodeId::new(0)), (1 << 16) + 8);
        assert_eq!(n.stats().link_bytes(NodeId::new(0), last), 8);
        assert_eq!(n.stats().link_bytes(NodeId::new(NODES - 2), last), 16);
        assert_eq!(n.stats().link_messages(last, last), 0);
        assert_eq!(n.stats().messages, 4);
    }
}
