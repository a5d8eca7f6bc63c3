//! Cost model.
//!
//! The cost model serves three purposes:
//!
//! 1. the optimizer ranks candidate bushy trees by total intermediate result
//!    size and estimated work,
//! 2. the **Fixed Processing** strategy allocates processors to the operators
//!    of a pipeline chain proportionally to their estimated complexity
//!    "including CPU and I/O costs" (§5.2.1) — with an optional error rate
//!    `r` that distorts cardinality estimates, reproducing Figure 7,
//! 3. the workload generator constrains the sequential response time of the
//!    retained plans.

use crate::jointree::JoinTree;
use dlb_common::config::{CostConstants, CpuParams, DiskParams};
use dlb_common::rng::distort;
use dlb_common::{round_u64, Duration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Estimated work of one operator, split into CPU instructions and I/O time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorCost {
    /// CPU instructions.
    pub instructions: u64,
    /// I/O service time (zero for operators that never touch disk).
    pub io: Duration,
}

impl OperatorCost {
    /// Converts the estimate into wall-clock time on one processor, assuming
    /// no CPU/I/O overlap (a conservative sequential estimate).
    pub fn sequential_time(&self, cpu: &CpuParams) -> Duration {
        cpu.instructions(self.instructions) + self.io
    }

    /// Adds two estimates.
    pub fn plus(&self, other: OperatorCost) -> OperatorCost {
        OperatorCost {
            instructions: self.instructions + other.instructions,
            io: self.io + other.io,
        }
    }
}

/// The cost model: per-tuple constants plus hardware parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Per-tuple cost constants.
    pub costs: CostConstants,
    /// Disk parameters (for scan I/O estimates).
    pub disk: DiskParams,
    /// CPU parameters (for time conversion).
    pub cpu: CpuParams,
}

impl CostModel {
    /// Creates a cost model from explicit parameters.
    pub fn new(costs: CostConstants, disk: DiskParams, cpu: CpuParams) -> Self {
        Self { costs, disk, cpu }
    }

    /// Cost of scanning `tuples` base tuples (read pages from disk, extract
    /// and filter tuples).
    ///
    /// Scans are sequential: the disk pays latency and seek once to position
    /// on the partition fragment and then streams pages at the transfer rate,
    /// with one asynchronous-I/O initiation per read-ahead window.
    pub fn scan_cost(&self, tuples: u64) -> OperatorCost {
        let pages = self.costs.pages_for_tuples(tuples);
        let io_requests = pages.div_ceil(self.disk.io_cache_pages as u64).max(1);
        OperatorCost {
            instructions: tuples * self.costs.scan_tuple_instr
                + io_requests * self.disk.async_io_init_instr,
            io: self.disk.access_time(pages),
        }
    }

    /// Cost of building a hash table over `tuples` input tuples.
    pub fn build_cost(&self, tuples: u64) -> OperatorCost {
        OperatorCost {
            instructions: tuples * self.costs.build_tuple_instr,
            io: Duration::ZERO,
        }
    }

    /// Cost of probing `input_tuples` against a hash table, producing
    /// `output_tuples` result tuples.
    pub fn probe_cost(&self, input_tuples: u64, output_tuples: u64) -> OperatorCost {
        OperatorCost {
            instructions: input_tuples * self.costs.probe_tuple_instr
                + output_tuples * self.costs.result_tuple_instr,
            io: Duration::ZERO,
        }
    }

    /// Size in bytes of the hash table built over `tuples` tuples (used by
    /// the global load-balancing benefit/overhead trade-off and the memory
    /// admission check).
    pub fn hash_table_bytes(&self, tuples: u64) -> u64 {
        // Tuple payload plus roughly 16 bytes of bucket/pointer overhead per
        // entry.
        tuples * (self.costs.tuple_bytes + 16)
    }

    /// Estimated sequential execution time of a whole join tree on one
    /// processor: every base relation is scanned, every join builds on its
    /// build input and probes with its probe input.
    pub fn sequential_time(&self, tree: &JoinTree) -> Duration {
        self.tree_cost(tree).sequential_time(&self.cpu)
    }

    /// Total estimated work of a join tree.
    pub fn tree_cost(&self, tree: &JoinTree) -> OperatorCost {
        match tree {
            JoinTree::Leaf { cardinality, .. } => self.scan_cost(*cardinality),
            JoinTree::Join {
                build,
                probe,
                cardinality,
            } => {
                let children = self.tree_cost(build).plus(self.tree_cost(probe));
                children
                    .plus(self.build_cost(build.cardinality()))
                    .plus(self.probe_cost(probe.cardinality(), *cardinality))
            }
        }
    }

    /// Applies a relative estimation error to a cardinality: the returned
    /// value is `cardinality * (1 + U[-rate, +rate])`, at least 1. This is the
    /// distortion used by Figure 7 to study the impact of cost-model errors on
    /// Fixed Processing.
    pub fn distorted_cardinality<R: Rng>(&self, rng: &mut R, cardinality: u64, rate: f64) -> u64 {
        round_u64(distort(rng, cardinality as f64, rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_common::rng::rng_from_seed;
    use dlb_common::RelationId;

    #[test]
    fn scan_cost_includes_io_and_cpu() {
        let m = CostModel::default();
        let c = m.scan_cost(8_100); // 100 pages
        assert!(c.instructions >= 8_100 * m.costs.scan_tuple_instr);
        assert!(c.io > Duration::ZERO);
        let t = c.sequential_time(&m.cpu);
        assert!(t > c.io);
    }

    #[test]
    fn build_and_probe_costs_scale_linearly() {
        let m = CostModel::default();
        assert_eq!(
            m.build_cost(2_000).instructions,
            2 * m.build_cost(1_000).instructions
        );
        let p = m.probe_cost(1_000, 500);
        assert_eq!(
            p.instructions,
            1_000 * m.costs.probe_tuple_instr + 500 * m.costs.result_tuple_instr
        );
        assert_eq!(p.io, Duration::ZERO);
    }

    #[test]
    fn hash_table_bytes_exceed_raw_tuple_bytes() {
        let m = CostModel::default();
        assert!(m.hash_table_bytes(1_000) > m.costs.bytes_for_tuples(1_000));
    }

    #[test]
    fn tree_cost_adds_up_all_operators() {
        let m = CostModel::default();
        let tree = JoinTree::join(
            JoinTree::leaf(RelationId::new(0), 10_000),
            JoinTree::leaf(RelationId::new(1), 20_000),
            1.0 / 20_000.0,
        );
        let cost = m.tree_cost(&tree);
        let scans = m.scan_cost(10_000).plus(m.scan_cost(20_000));
        assert!(cost.instructions > scans.instructions);
        let expected_join = m
            .build_cost(10_000)
            .plus(m.probe_cost(20_000, tree.cardinality()));
        assert_eq!(
            cost.instructions,
            scans.instructions + expected_join.instructions
        );
        assert!(m.sequential_time(&tree) > Duration::ZERO);
    }

    #[test]
    fn distortion_respects_rate_band() {
        let m = CostModel::default();
        let mut rng = rng_from_seed(5);
        for _ in 0..200 {
            let d = m.distorted_cardinality(&mut rng, 10_000, 0.3);
            assert!((7_000..=13_000).contains(&d), "distorted {d}");
        }
        assert_eq!(m.distorted_cardinality(&mut rng, 10_000, 0.0), 10_000);
    }
}
