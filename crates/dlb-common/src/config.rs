//! Configuration of the simulated hierarchical machine and of the cost model.
//!
//! The evaluation section of the paper (§5.1.1) publishes the simulation
//! parameters used on top of the KSR1: CPU speed, network costs and disk
//! costs. Those exact values are the defaults here. Per-tuple CPU costs are
//! not published by the paper; [`CostConstants`] documents the values chosen
//! (in line with contemporaneous work such as DBS3 and Gamma) and every value
//! can be overridden for sensitivity studies.

use crate::time::Duration;

/// Page size used throughout the system (bytes). The paper charges network
/// CPU cost per 8 KB message and uses 8 KB pages for I/O.
pub const PAGE_SIZE_BYTES: u64 = 8 * 1024;

/// CPU characteristics of one processor of an SM-node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Processor speed in millions of instructions per second.
    /// The KSR1 processors of the paper are 40 MIPS.
    pub mips: f64,
}

impl Default for CpuParams {
    fn default() -> Self {
        Self { mips: 40.0 }
    }
}

impl CpuParams {
    /// Converts an instruction count into virtual time on this processor.
    pub fn instructions(&self, instr: u64) -> Duration {
        // instr / (mips * 1e6) seconds.
        Duration::from_secs_f64(instr as f64 / (self.mips * 1e6))
    }
}

/// Interconnection-network parameters (paper §5.1.1, first table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Network bandwidth in bytes per second. `None` models the paper's
    /// "infinite" bandwidth assumption (transmission time is negligible
    /// compared to the end-to-end delay and the per-message CPU cost).
    pub bandwidth_bytes_per_sec: Option<f64>,
    /// End-to-end transmission delay for one message.
    pub end_to_end_delay: Duration,
    /// CPU cost, in instructions, for sending one 8 KB message.
    pub send_instr_per_page: u64,
    /// CPU cost, in instructions, for receiving one 8 KB message.
    pub recv_instr_per_page: u64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_sec: None,
            end_to_end_delay: Duration::from_micros(500),
            send_instr_per_page: 10_000,
            recv_instr_per_page: 10_000,
        }
    }
}

impl NetworkParams {
    /// Number of 8 KB pages needed to carry `bytes` (at least one).
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(PAGE_SIZE_BYTES).max(1)
    }

    /// Pure wire time for a message of `bytes` (zero with infinite bandwidth).
    pub fn transmission_time(&self, bytes: u64) -> Duration {
        match self.bandwidth_bytes_per_sec {
            None => Duration::ZERO,
            Some(bw) => Duration::from_secs_f64(bytes as f64 / bw),
        }
    }

    /// CPU instructions charged to the sender for a message of `bytes`.
    pub fn send_instructions(&self, bytes: u64) -> u64 {
        self.pages_for(bytes) * self.send_instr_per_page
    }

    /// CPU instructions charged to the receiver for a message of `bytes`.
    pub fn recv_instructions(&self, bytes: u64) -> u64 {
        self.pages_for(bytes) * self.recv_instr_per_page
    }
}

/// Disk parameters (paper §5.1.1, second table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Number of disks attached to each processor.
    pub disks_per_processor: u32,
    /// Rotational latency per random access.
    pub latency: Duration,
    /// Seek time per random access.
    pub seek_time: Duration,
    /// Sequential transfer rate in bytes per second.
    pub transfer_rate_bytes_per_sec: f64,
    /// CPU cost, in instructions, to initiate one asynchronous I/O.
    pub async_io_init_instr: u64,
    /// Size of the I/O cache (read-ahead window) in pages.
    pub io_cache_pages: u32,
}

impl Default for DiskParams {
    fn default() -> Self {
        Self {
            disks_per_processor: 1,
            latency: Duration::from_millis(17),
            seek_time: Duration::from_millis(5),
            transfer_rate_bytes_per_sec: 6.0 * 1024.0 * 1024.0,
            async_io_init_instr: 5_000,
            io_cache_pages: 8,
        }
    }
}

impl DiskParams {
    /// Transfer time for `pages` 8 KB pages, excluding latency and seek.
    pub fn transfer_time(&self, pages: u64) -> Duration {
        Duration::from_secs_f64((pages * PAGE_SIZE_BYTES) as f64 / self.transfer_rate_bytes_per_sec)
    }

    /// Total service time of one random access reading `pages` contiguous
    /// pages: latency + seek + transfer.
    pub fn access_time(&self, pages: u64) -> Duration {
        self.latency + self.seek_time + self.transfer_time(pages)
    }
}

/// Shape of the simulated hierarchical machine: how many SM-nodes and how many
/// processors (and disks) per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of shared-memory nodes.
    pub nodes: u32,
    /// Number of processors per node (one worker thread each).
    pub processors_per_node: u32,
    /// Shared memory available on each node, in bytes. Used by the global
    /// load-balancing policy (a requester can only acquire activations and
    /// hash tables it can store in memory).
    pub memory_per_node_bytes: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        // The configuration the paper is "primarily interested in": a few
        // powerful SM-nodes (4 x 8 is the base hierarchical configuration of
        // §5.3).
        Self {
            nodes: 4,
            processors_per_node: 8,
            memory_per_node_bytes: 512 * 1024 * 1024,
        }
    }
}

impl MachineConfig {
    /// A single shared-memory node with `processors` processors (the
    /// configuration of the local load-balancing experiments, §5.2).
    pub fn shared_memory(processors: u32) -> Self {
        Self {
            nodes: 1,
            processors_per_node: processors,
            ..Self::default()
        }
    }

    /// A hierarchical system of `nodes` SM-nodes with `processors_per_node`
    /// processors each (e.g. `hierarchical(4, 8)` for the paper's 4×8).
    pub fn hierarchical(nodes: u32, processors_per_node: u32) -> Self {
        Self {
            nodes,
            processors_per_node,
            ..Self::default()
        }
    }

    /// Total number of processors in the machine.
    pub fn total_processors(&self) -> u32 {
        self.nodes * self.processors_per_node
    }
}

/// Per-tuple and per-structure CPU costs, in instructions.
///
/// The paper does not publish its per-tuple costs (the operators are
/// simulated); these defaults follow the cost models of DBS3/Gamma-era papers
/// (Mehta '95, Shekita '93): a few hundred instructions per tuple per
/// operation on a 40 MIPS processor. `EXPERIMENTS.md` shows the figure shapes
/// are robust to ±2× changes of these values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Bytes per tuple (used to convert cardinalities into pages and bytes).
    pub tuple_bytes: u64,
    /// Instructions to read one tuple out of an I/O buffer and evaluate the
    /// scan predicate.
    pub scan_tuple_instr: u64,
    /// Instructions to insert one tuple into a hash table (build).
    pub build_tuple_instr: u64,
    /// Instructions to probe one tuple against a hash table.
    pub probe_tuple_instr: u64,
    /// Instructions to form one result tuple after a successful probe.
    pub result_tuple_instr: u64,
    /// Instructions to enqueue or dequeue one activation on an activation
    /// queue (queue-management overhead of the DP model).
    pub queue_access_instr: u64,
    /// Additional interference penalty paid when a thread consumes from a
    /// queue that is not one of its primary queues (shared-memory
    /// contention).
    pub interference_instr: u64,
    /// Instructions to start an operator instance on a node (start-up cost;
    /// kept small because the DP model has no per-operator process start-up).
    pub operator_startup_instr: u64,
    /// Instructions for the scheduler to handle one control message.
    pub control_message_instr: u64,
    /// Number of tuples carried by one data-activation batch. The paper
    /// increases the granularity of data activations by buffering; this is
    /// that buffer size.
    pub tuples_per_batch: u64,
}

impl Default for CostConstants {
    fn default() -> Self {
        Self {
            tuple_bytes: 100,
            scan_tuple_instr: 200,
            build_tuple_instr: 100,
            probe_tuple_instr: 200,
            result_tuple_instr: 100,
            queue_access_instr: 300,
            interference_instr: 150,
            operator_startup_instr: 5_000,
            control_message_instr: 1_000,
            tuples_per_batch: 128,
        }
    }
}

impl CostConstants {
    /// Number of 8 KB pages occupied by `tuples` tuples.
    pub fn pages_for_tuples(&self, tuples: u64) -> u64 {
        let tuples_per_page = (PAGE_SIZE_BYTES / self.tuple_bytes).max(1);
        tuples.div_ceil(tuples_per_page).max(1)
    }

    /// Number of bytes occupied by `tuples` tuples.
    pub fn bytes_for_tuples(&self, tuples: u64) -> u64 {
        tuples * self.tuple_bytes
    }

    /// Tuples that fit in one page.
    pub fn tuples_per_page(&self) -> u64 {
        (PAGE_SIZE_BYTES / self.tuple_bytes).max(1)
    }
}

/// Complete configuration of one simulated system: machine shape, hardware
/// parameters and cost constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemConfig {
    /// Machine shape (nodes × processors).
    pub machine: MachineConfig,
    /// Processor parameters.
    pub cpu: CpuParams,
    /// Network parameters.
    pub network: NetworkParams,
    /// Disk parameters.
    pub disk: DiskParams,
    /// Cost-model constants.
    pub costs: CostConstants,
}

impl SystemConfig {
    /// A single SM-node with `processors` processors, all other parameters at
    /// their paper defaults.
    pub fn shared_memory(processors: u32) -> Self {
        Self {
            machine: MachineConfig::shared_memory(processors),
            ..Self::default()
        }
    }

    /// A hierarchical system of `nodes` × `processors_per_node`, all other
    /// parameters at their paper defaults.
    pub fn hierarchical(nodes: u32, processors_per_node: u32) -> Self {
        Self {
            machine: MachineConfig::hierarchical(nodes, processors_per_node),
            ..Self::default()
        }
    }

    /// Converts instructions into time on one of this system's processors.
    pub fn instr(&self, instructions: u64) -> Duration {
        self.cpu.instructions(instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_for_instructions() {
        let cpu = CpuParams { mips: 40.0 };
        // 40 million instructions per second => 40 000 instructions per ms.
        assert_eq!(cpu.instructions(40_000), Duration::from_millis(1));
        assert_eq!(cpu.instructions(0), Duration::ZERO);
    }

    #[test]
    fn network_defaults_match_paper() {
        let net = NetworkParams::default();
        assert_eq!(net.end_to_end_delay, Duration::from_micros(500));
        assert_eq!(net.send_instr_per_page, 10_000);
        assert_eq!(net.recv_instr_per_page, 10_000);
        assert!(net.bandwidth_bytes_per_sec.is_none());
        assert_eq!(net.transmission_time(1 << 20), Duration::ZERO);
    }

    #[test]
    fn network_message_costs_scale_with_pages() {
        let net = NetworkParams::default();
        assert_eq!(net.pages_for(1), 1);
        assert_eq!(net.pages_for(PAGE_SIZE_BYTES), 1);
        assert_eq!(net.pages_for(PAGE_SIZE_BYTES + 1), 2);
        assert_eq!(net.send_instructions(PAGE_SIZE_BYTES * 3), 30_000);
        assert_eq!(net.recv_instructions(PAGE_SIZE_BYTES * 3), 30_000);
    }

    #[test]
    fn finite_bandwidth_transmission() {
        let net = NetworkParams {
            bandwidth_bytes_per_sec: Some(1e6),
            ..NetworkParams::default()
        };
        assert_eq!(net.transmission_time(1_000_000), Duration::from_secs(1));
    }

    #[test]
    fn disk_defaults_match_paper() {
        let d = DiskParams::default();
        assert_eq!(d.latency, Duration::from_millis(17));
        assert_eq!(d.seek_time, Duration::from_millis(5));
        assert_eq!(d.disks_per_processor, 1);
        assert_eq!(d.io_cache_pages, 8);
        assert_eq!(d.async_io_init_instr, 5_000);
        // 6 MB/s => one 8 KB page takes ~1.3 ms.
        let t = d.transfer_time(1);
        assert!(t > Duration::from_micros(1_000) && t < Duration::from_micros(1_500));
        assert_eq!(d.access_time(0), d.latency + d.seek_time);
    }

    #[test]
    fn machine_config_helpers() {
        let sm = MachineConfig::shared_memory(64);
        assert_eq!(sm.nodes, 1);
        assert_eq!(sm.total_processors(), 64);
        let h = MachineConfig::hierarchical(4, 16);
        assert_eq!(h.total_processors(), 64);
    }

    #[test]
    fn cost_constants_pages_and_bytes() {
        let c = CostConstants::default();
        assert_eq!(c.tuples_per_page(), 81); // 8192 / 100
        assert_eq!(c.pages_for_tuples(0), 1);
        assert_eq!(c.pages_for_tuples(81), 1);
        assert_eq!(c.pages_for_tuples(82), 2);
        assert_eq!(c.bytes_for_tuples(10), 1_000);
    }

    #[test]
    fn system_config_builders() {
        let s = SystemConfig::shared_memory(32);
        assert_eq!(s.machine.nodes, 1);
        assert_eq!(s.machine.processors_per_node, 32);
        let h = SystemConfig::hierarchical(4, 12);
        assert_eq!(h.machine.total_processors(), 48);
        assert_eq!(h.instr(40_000), Duration::from_millis(1));
    }
}
