//! Execution strategies and run-time options.
//!
//! [`ExecOptions`] is composed of typed option groups — [`FlowControl`],
//! [`ContentionModel`] and [`StealPolicy`] — instead of a flat bag of nine
//! fields: each group travels as a unit (a scenario spec can override the
//! steal tuning without naming every field), and the groups are the units the
//! run cache fingerprints (see `dlb_core::RunKey`). Construct options with
//! [`ExecOptions::builder`]; the flat convenience setters on the builder
//! cover the common single-knob experiments.

use dlb_storage::RehomePolicy;

/// Flow control of the activation pipeline (§3.1): how much work is buffered
/// between producers and consumers, and how coarse trigger activations are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowControl {
    /// Capacity of each activation queue, in activations (0 = unbounded).
    /// Bounded queues provide the flow control of §3.1.
    pub queue_capacity: usize,
    /// Number of pages covered by one trigger activation (the paper reduces
    /// trigger granularity from a bucket to a few pages).
    pub trigger_pages: u64,
}

impl Default for FlowControl {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            trigger_pages: 8,
        }
    }
}

/// Shared-memory interference model: beyond a processor-count threshold,
/// per-instruction throughput degrades linearly (the KSR1 memory-hierarchy
/// effect visible beyond 32 processors in Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Number of processors per node beyond which shared-memory interference
    /// starts to degrade per-instruction throughput (0 disables the model).
    pub threshold: u32,
    /// Relative throughput degradation per `threshold` extra processors
    /// beyond the threshold.
    pub degradation: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self {
            threshold: 32,
            degradation: 0.15,
        }
    }
}

impl ContentionModel {
    /// CPU slowdown factor for a node with `processors` processors: 1.0 below
    /// the contention threshold, growing linearly above it.
    pub fn factor_for(&self, processors: u32) -> f64 {
        if processors <= self.threshold || self.threshold == 0 {
            1.0
        } else {
            1.0 + self.degradation * ((processors - self.threshold) as f64 / self.threshold as f64)
        }
    }
}

/// How Fixed Processing realizes cost-model estimation errors across the
/// SM-nodes of a machine (Figure 7, §5.2.1).
///
/// The paper distorts *the* cost estimate of each operator: one wrong number
/// that every node's static allocation is then derived from. The engine
/// originally drew a fresh realization per node from one shared RNG, which
/// lets per-node errors partially cancel on hierarchical machines and
/// understates the damage of a systematically wrong estimate. The paper
/// reading ([`ErrorRealization::Shared`]) is the default; the historical
/// behaviour stays available as [`ErrorRealization::PerNode`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ErrorRealization {
    /// One distorted complexity estimate per operator, reused by every node
    /// (the paper's reading — an optimizer mis-estimates a cardinality once,
    /// not once per node). The default.
    #[default]
    Shared,
    /// A fresh error realization per node from one shared RNG stream (the
    /// pre-fix engine behaviour, kept for comparison studies).
    PerNode,
}

impl ErrorRealization {
    /// Stable lower-case label, also the JSON spelling (`shared`,
    /// `per-node`).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorRealization::Shared => "shared",
            ErrorRealization::PerNode => "per-node",
        }
    }

    /// Parses a [`ErrorRealization::label`] spelling.
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "shared" => Ok(ErrorRealization::Shared),
            "per-node" => Ok(ErrorRealization::PerNode),
            other => Err(format!(
                "unknown error realization {other:?} (expected shared | per-node)"
            )),
        }
    }
}

/// Tuning of the global load-balancing acquisition (§3.2): when a starving
/// node steals work, how much a provider must hold and how much is taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealPolicy {
    /// Minimum number of tuples a remote queue must hold to be a candidate
    /// for global load balancing (condition (ii) of §3.2: enough work to
    /// amortize the acquisition overhead).
    pub min_tuples: u64,
    /// Fraction of a provider queue acquired per steal (condition (iii):
    /// not too much work, to avoid overloading the requester).
    pub fraction: f64,
}

impl Default for StealPolicy {
    fn default() -> Self {
        Self {
            min_tuples: 256,
            fraction: 0.5,
        }
    }
}

/// How work that lived on a failed node is recovered (fault injection of the
/// co-simulated engine; see [`crate::engine::execute_cosimulated_faulted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecoveryPolicy {
    /// **Re-home and resume**: the dead node's queued activations and built
    /// hash-table partitions are shipped over the interconnect to surviving
    /// home nodes (per the re-home policy). No work is repeated; the cost is
    /// the bulk transfer. The default.
    #[default]
    RehomeResume,
    /// **Lose and restart the operator**: the dead node's queued activations
    /// and hash-table partitions are lost. Lost input is regenerated on the
    /// survivors (no bulk transfer), and lost hash-table partitions are
    /// rebuilt by re-processing their tuples — re-opening the build operator
    /// when it had already terminated.
    LoseRestart,
}

impl RecoveryPolicy {
    /// Stable label, also the JSON spelling (`rehome-resume`,
    /// `lose-restart`).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::RehomeResume => "rehome-resume",
            RecoveryPolicy::LoseRestart => "lose-restart",
        }
    }

    /// Parses a [`RecoveryPolicy::label`] spelling.
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "rehome-resume" => Ok(RecoveryPolicy::RehomeResume),
            "lose-restart" => Ok(RecoveryPolicy::LoseRestart),
            other => Err(format!(
                "unknown recovery policy {other:?} (expected rehome-resume | lose-restart)"
            )),
        }
    }
}

/// Fault-recovery option group: what happens to a failed node's in-flight
/// state, and how its contents map onto the survivors. Only consulted when a
/// co-simulated run carries topology events; a run without them never reads
/// these knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RecoveryOptions {
    /// Lose-and-restart vs re-home-and-resume.
    pub policy: RecoveryPolicy,
    /// Consistent-hash vs range re-partitioning of the dead node's contents
    /// (see [`dlb_storage::rehome`]).
    pub rehome: RehomePolicy,
}

/// Tunable options of an execution run: the per-run scalars (skew, seed) plus
/// the composable option groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Redistribution-skew factor (Zipf theta in `[0, 1]`) applied to the
    /// production of trigger activations and of pipelined tuples (§5.2.2).
    pub skew: f64,
    /// Seed for the strategy-internal randomness (FP cost distortion).
    pub seed: u64,
    /// How FP realizes cost-model errors across nodes (Figure 7).
    pub fp_realization: ErrorRealization,
    /// Pipeline flow control (queue capacity, trigger granularity).
    pub flow: FlowControl,
    /// Shared-memory interference model.
    pub contention: ContentionModel,
    /// Global load-balancing steal tuning.
    pub steal: StealPolicy,
    /// Fault recovery (only read by runs carrying topology events).
    pub recovery: RecoveryOptions,
}

/// The default seed of the strategy-internal randomness.
pub const DEFAULT_EXEC_SEED: u64 = 0xE8EC;

impl ExecOptions {
    /// Starts building options from the defaults.
    ///
    /// ```
    /// use dlb_exec::{ExecOptions, StealPolicy};
    ///
    /// let options = ExecOptions::builder()
    ///     .skew(0.6)
    ///     .queue_capacity(128)
    ///     .steal(StealPolicy { min_tuples: 64, fraction: 0.25 })
    ///     .build();
    /// assert_eq!(options.skew, 0.6);
    /// assert_eq!(options.flow.queue_capacity, 128);
    /// assert_eq!(options.steal.min_tuples, 64);
    /// // Untouched groups keep their defaults.
    /// assert_eq!(options.contention, Default::default());
    /// ```
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder::default()
    }

    /// Options with a given redistribution skew, everything else default.
    pub fn with_skew(skew: f64) -> Self {
        Self {
            skew,
            ..Self::default()
        }
    }

    /// CPU slowdown factor for a node with `processors` processors
    /// (convenience for [`ContentionModel::factor_for`]).
    pub fn contention_factor(&self, processors: u32) -> f64 {
        self.contention.factor_for(processors)
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            skew: 0.0,
            seed: DEFAULT_EXEC_SEED,
            fp_realization: ErrorRealization::default(),
            flow: FlowControl::default(),
            contention: ContentionModel::default(),
            steal: StealPolicy::default(),
            recovery: RecoveryOptions::default(),
        }
    }
}

/// Builder for [`ExecOptions`]: group-level setters plus flat single-knob
/// conveniences.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptionsBuilder {
    options: ExecOptions,
}

impl ExecOptionsBuilder {
    /// Sets the redistribution-skew factor.
    pub fn skew(mut self, skew: f64) -> Self {
        self.options.skew = skew;
        self
    }

    /// Sets the strategy-internal randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Sets how FP realizes cost-model errors across nodes.
    pub fn fp_realization(mut self, realization: ErrorRealization) -> Self {
        self.options.fp_realization = realization;
        self
    }

    /// Replaces the whole flow-control group.
    pub fn flow(mut self, flow: FlowControl) -> Self {
        self.options.flow = flow;
        self
    }

    /// Replaces the whole contention-model group.
    pub fn contention(mut self, contention: ContentionModel) -> Self {
        self.options.contention = contention;
        self
    }

    /// Replaces the whole steal-policy group.
    pub fn steal(mut self, steal: StealPolicy) -> Self {
        self.options.steal = steal;
        self
    }

    /// Replaces the whole fault-recovery group.
    pub fn recovery(mut self, recovery: RecoveryOptions) -> Self {
        self.options.recovery = recovery;
        self
    }

    /// Sets the fault-recovery policy (lose-restart vs rehome-resume).
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.options.recovery.policy = policy;
        self
    }

    /// Sets the partition re-home policy used after a node failure.
    pub fn rehome_policy(mut self, rehome: RehomePolicy) -> Self {
        self.options.recovery.rehome = rehome;
        self
    }

    /// Sets the activation-queue capacity (flow control).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.options.flow.queue_capacity = capacity;
        self
    }

    /// Sets the trigger granularity in pages (flow control).
    pub fn trigger_pages(mut self, pages: u64) -> Self {
        self.options.flow.trigger_pages = pages;
        self
    }

    /// Sets the minimum provider-queue size for a steal.
    pub fn min_steal_tuples(mut self, tuples: u64) -> Self {
        self.options.steal.min_tuples = tuples;
        self
    }

    /// Sets the fraction of a provider queue acquired per steal.
    pub fn steal_fraction(mut self, fraction: f64) -> Self {
        self.options.steal.fraction = fraction;
        self
    }

    /// Finishes building.
    pub fn build(self) -> ExecOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = ExecOptions::default();
        assert_eq!(o.skew, 0.0);
        assert_eq!(o.seed, DEFAULT_EXEC_SEED);
        assert!(o.flow.queue_capacity > 0);
        assert!(o.flow.trigger_pages > 0);
        assert!(o.steal.fraction > 0.0 && o.steal.fraction <= 1.0);
    }

    #[test]
    fn builder_composes_groups_and_single_knobs() {
        let o = ExecOptions::builder()
            .skew(0.6)
            .seed(7)
            .steal(StealPolicy {
                min_tuples: 32,
                fraction: 0.25,
            })
            .queue_capacity(128)
            .build();
        assert_eq!(o.skew, 0.6);
        assert_eq!(o.seed, 7);
        assert_eq!(o.steal.min_tuples, 32);
        assert_eq!(o.steal.fraction, 0.25);
        assert_eq!(o.flow.queue_capacity, 128);
        // Untouched groups keep their defaults.
        assert_eq!(o.contention, ContentionModel::default());
        assert_eq!(o.flow.trigger_pages, FlowControl::default().trigger_pages);
    }

    #[test]
    fn contention_only_beyond_threshold() {
        let o = ExecOptions::default();
        assert_eq!(o.contention_factor(8), 1.0);
        assert_eq!(o.contention_factor(32), 1.0);
        let at64 = o.contention_factor(64);
        assert!(at64 > 1.0 && at64 < 1.5);
        let at48 = o.contention_factor(48);
        assert!(at48 > 1.0 && at48 < at64);
    }

    #[test]
    fn error_realization_labels_round_trip_and_default_is_shared() {
        assert_eq!(ErrorRealization::default(), ErrorRealization::Shared);
        assert_eq!(
            ExecOptions::default().fp_realization,
            ErrorRealization::Shared
        );
        for r in [ErrorRealization::Shared, ErrorRealization::PerNode] {
            assert_eq!(ErrorRealization::from_label(r.label()).unwrap(), r);
        }
        assert!(ErrorRealization::from_label("per-operator").is_err());
        let o = ExecOptions::builder()
            .fp_realization(ErrorRealization::PerNode)
            .build();
        assert_eq!(o.fp_realization, ErrorRealization::PerNode);
    }

    #[test]
    fn recovery_labels_round_trip_and_defaults_are_resume_hash() {
        let o = ExecOptions::default();
        assert_eq!(o.recovery.policy, RecoveryPolicy::RehomeResume);
        assert_eq!(o.recovery.rehome, RehomePolicy::ConsistentHash);
        for p in [RecoveryPolicy::RehomeResume, RecoveryPolicy::LoseRestart] {
            assert_eq!(RecoveryPolicy::from_label(p.label()).unwrap(), p);
        }
        assert!(RecoveryPolicy::from_label("retry").is_err());
        let o = ExecOptions::builder()
            .recovery_policy(RecoveryPolicy::LoseRestart)
            .rehome_policy(RehomePolicy::Range)
            .build();
        assert_eq!(o.recovery.policy, RecoveryPolicy::LoseRestart);
        assert_eq!(o.recovery.rehome, RehomePolicy::Range);
    }

    #[test]
    fn zero_threshold_disables_contention() {
        let o = ExecOptions::builder()
            .contention(ContentionModel {
                threshold: 0,
                degradation: 0.15,
            })
            .build();
        assert_eq!(o.contention_factor(64), 1.0);
    }
}
