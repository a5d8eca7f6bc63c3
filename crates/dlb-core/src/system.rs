//! Hierarchical system description and execution entry point.

use dlb_common::config::{CostConstants, CpuParams, DiskParams, NetworkParams, SystemConfig};
use dlb_common::Result;
use dlb_exec::{ExecOptions, ExecutionReport, Strategy};
use dlb_query::plan::ParallelPlan;

/// A simulated hierarchical parallel database system: a shared-nothing set of
/// shared-memory multiprocessor nodes (SM-nodes) with the paper's hardware
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalSystem {
    config: SystemConfig,
    options: ExecOptions,
}

impl HierarchicalSystem {
    /// Starts building a system (defaults: 4 SM-nodes × 8 processors, the
    /// paper's base hierarchical configuration).
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// A single shared-memory node with `processors` processors.
    pub fn shared_memory(processors: u32) -> Self {
        Self {
            config: SystemConfig::shared_memory(processors),
            options: ExecOptions::default(),
        }
    }

    /// A hierarchical system of `nodes` × `processors_per_node`.
    pub fn hierarchical(nodes: u32, processors_per_node: u32) -> Self {
        Self {
            config: SystemConfig::hierarchical(nodes, processors_per_node),
            options: ExecOptions::default(),
        }
    }

    /// The underlying simulation configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The execution options in force.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Returns a copy of this system with different execution options.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Returns a copy of this system with the given redistribution-skew
    /// factor.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.options.skew = skew;
        self
    }

    /// Returns a copy of this system with a different number of SM-nodes;
    /// processors per node, memory and every other parameter are unchanged.
    /// Used by the inter-query scheduler to derive the single-node placement
    /// shape of a pinned query.
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.config.machine.nodes = nodes.max(1);
        self
    }

    /// Returns a copy of this system with a different shared-memory size per
    /// SM-node (the admission limit of global load balancing and of the
    /// inter-query scheduler).
    pub fn with_memory_per_node(mut self, bytes: u64) -> Self {
        self.config.machine.memory_per_node_bytes = bytes;
        self
    }

    /// Number of SM-nodes.
    pub fn nodes(&self) -> u32 {
        self.config.machine.nodes
    }

    /// Processors per SM-node.
    pub fn processors_per_node(&self) -> u32 {
        self.config.machine.processors_per_node
    }

    /// Total processors.
    pub fn total_processors(&self) -> u32 {
        self.config.machine.total_processors()
    }

    /// Executes one parallel plan under the given strategy.
    pub fn run(&self, plan: &ParallelPlan, strategy: Strategy) -> Result<ExecutionReport> {
        dlb_exec::execute(plan, &self.config, strategy, &self.options)
    }

    /// Executes one plan under every strategy that is valid on this machine
    /// (SP is skipped on multi-node machines), returning `(strategy, report)`
    /// pairs.
    pub fn run_all_strategies(
        &self,
        plan: &ParallelPlan,
    ) -> Result<Vec<(Strategy, ExecutionReport)>> {
        let mut strategies = vec![Strategy::dynamic(), Strategy::fixed(0.0)];
        if self.nodes() == 1 {
            strategies.push(Strategy::synchronous());
        }
        strategies
            .into_iter()
            .map(|s| self.run(plan, s).map(|r| (s, r)))
            .collect()
    }
}

/// Builder for [`HierarchicalSystem`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    nodes: u32,
    processors_per_node: u32,
    memory_per_node_bytes: u64,
    cpu: CpuParams,
    network: NetworkParams,
    disk: DiskParams,
    costs: CostConstants,
    options: ExecOptions,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        let c = SystemConfig::default();
        Self {
            nodes: c.machine.nodes,
            processors_per_node: c.machine.processors_per_node,
            memory_per_node_bytes: c.machine.memory_per_node_bytes,
            cpu: c.cpu,
            network: c.network,
            disk: c.disk,
            costs: c.costs,
            options: ExecOptions::default(),
        }
    }
}

impl SystemBuilder {
    /// Sets the number of SM-nodes.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the number of processors (and worker threads) per SM-node.
    pub fn processors_per_node(mut self, processors: u32) -> Self {
        self.processors_per_node = processors;
        self
    }

    /// Sets the shared memory available per node (admission limit of the
    /// global load-balancing policy).
    pub fn memory_per_node(mut self, bytes: u64) -> Self {
        self.memory_per_node_bytes = bytes;
        self
    }

    /// Overrides the CPU parameters (default: 40 MIPS, as on the KSR1).
    pub fn cpu(mut self, cpu: CpuParams) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides the network parameters.
    pub fn network(mut self, network: NetworkParams) -> Self {
        self.network = network;
        self
    }

    /// Overrides the disk parameters.
    pub fn disk(mut self, disk: DiskParams) -> Self {
        self.disk = disk;
        self
    }

    /// Overrides the per-tuple cost constants.
    pub fn costs(mut self, costs: CostConstants) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides the execution options (skew, queue capacity, ...).
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Builds the system.
    pub fn build(self) -> HierarchicalSystem {
        let config = SystemConfig {
            machine: dlb_common::config::MachineConfig {
                nodes: self.nodes.max(1),
                processors_per_node: self.processors_per_node.max(1),
                memory_per_node_bytes: self.memory_per_node_bytes,
            },
            cpu: self.cpu,
            network: self.network,
            disk: self.disk,
            costs: self.costs,
        };
        HierarchicalSystem {
            config,
            options: self.options,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adhoc::AdHocQuery;

    #[test]
    fn builder_defaults_match_paper_base_configuration() {
        let s = HierarchicalSystem::builder().build();
        assert_eq!(s.nodes(), 4);
        assert_eq!(s.processors_per_node(), 8);
        assert_eq!(s.total_processors(), 32);
        assert_eq!(s.config().cpu.mips, 40.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let s = HierarchicalSystem::builder()
            .nodes(2)
            .processors_per_node(16)
            .memory_per_node(1 << 30)
            .build()
            .with_skew(0.5);
        assert_eq!(s.total_processors(), 32);
        assert_eq!(s.config().machine.memory_per_node_bytes, 1 << 30);
        assert_eq!(s.options().skew, 0.5);
    }

    #[test]
    fn zero_sizes_clamped() {
        let s = HierarchicalSystem::builder()
            .nodes(0)
            .processors_per_node(0)
            .build();
        assert_eq!(s.nodes(), 1);
        assert_eq!(s.processors_per_node(), 1);
    }

    #[test]
    fn run_all_strategies_includes_sp_only_on_shared_memory() {
        let query = AdHocQuery::new("t")
            .relation("a", 2_000)
            .relation("b", 3_000)
            .join("a", "b");
        let sm = HierarchicalSystem::shared_memory(4);
        let plans = query.compile(&sm).unwrap();
        let results = sm.run_all_strategies(&plans[0]).unwrap();
        assert_eq!(results.len(), 3);

        let hier = HierarchicalSystem::hierarchical(2, 2);
        let plans = query.compile(&hier).unwrap();
        let results = hier.run_all_strategies(&plans[0]).unwrap();
        assert_eq!(results.len(), 2);
    }
}
