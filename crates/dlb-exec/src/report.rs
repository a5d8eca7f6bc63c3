//! Execution reports.
//!
//! Every engine run produces an [`ExecutionReport`] carrying the response
//! time and the counters the paper's evaluation relies on: processor busy and
//! idle time, message counts, bytes moved over the interconnect, and the
//! share of that traffic caused by global load balancing (the §5.3
//! experiment compares exactly this quantity between FP and DP).
//!
//! Co-simulated multi-query runs (see [`crate::engine::execute_cosimulated`])
//! additionally produce a [`CoSimReport`]: the machine-wide aggregate plus
//! one [`QueryExecReport`] per query of the mix, carrying each query's
//! arrival-to-completion response time and work counters.

use crate::strategy::Strategy;
use dlb_common::{Duration, NodeId};
use dlb_frontend::FrontendStats;
use dlb_traffic::{LatencyHistogram, LatencySummary};

/// The outcome of executing one parallel plan on one simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Strategy that produced this report (the one labeling source of truth
    /// for benchmark and rendering output — see [`Strategy::label`]).
    pub strategy: Strategy,
    /// Number of SM-nodes of the machine.
    pub nodes: u32,
    /// Processors per SM-node.
    pub processors_per_node: u32,
    /// Query response time (virtual).
    pub response_time: Duration,
    /// Number of activations processed across all threads.
    pub activations: u64,
    /// Number of tuples processed across all operators.
    pub tuples_processed: u64,
    /// Number of result tuples produced by the root operator.
    pub result_tuples: u64,
    /// Total busy time summed over all processors.
    pub total_busy: Duration,
    /// Total idle time summed over all processors
    /// (`processors * response_time - total_busy`).
    pub total_idle: Duration,
    /// Average processor utilization in `[0, 1]`.
    pub utilization: f64,
    /// Busy time per node (summed over the node's processors).
    pub per_node_busy: Vec<Duration>,
    /// Total messages exchanged between SM-nodes.
    pub messages: u64,
    /// Total bytes exchanged between SM-nodes (pipelined data, control
    /// traffic and load balancing).
    pub network_bytes: u64,
    /// Number of global load-balancing requests issued (starving messages
    /// for DP, per-operator steal requests for FP).
    pub lb_requests: u64,
    /// Number of successful work acquisitions.
    pub lb_acquisitions: u64,
    /// Bytes transferred specifically for global load balancing (activations
    /// plus hash tables).
    pub lb_bytes: u64,
    /// Number of simulation events processed (diagnostic).
    pub events: u64,
}

impl ExecutionReport {
    /// Total processors of the machine.
    pub fn processors(&self) -> u32 {
        self.nodes * self.processors_per_node
    }

    /// Response time in seconds (convenience for plotting).
    pub fn response_secs(&self) -> f64 {
        self.response_time.as_secs_f64()
    }

    /// Fraction of total time the processors were idle.
    pub fn idle_fraction(&self) -> f64 {
        1.0 - self.utilization
    }

    /// Busy time of one node.
    pub fn node_busy(&self, node: NodeId) -> Duration {
        self.per_node_busy
            .get(node.index())
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Load imbalance across nodes: max node busy time over mean node busy
    /// time (1.0 = perfectly balanced).
    pub fn node_imbalance(&self) -> f64 {
        if self.per_node_busy.is_empty() {
            return 1.0;
        }
        let total: f64 = self.per_node_busy.iter().map(|d| d.as_secs_f64()).sum();
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / self.per_node_busy.len() as f64;
        let max = self
            .per_node_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        max / mean
    }
}

/// Per-query accounting of one co-simulated multi-query execution: what one
/// query of the mix experienced while interleaved with the others in the
/// shared event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryExecReport {
    /// Index of the query within the co-simulated mix.
    pub query: usize,
    /// The query's processor-sharing priority (local scheduling weight).
    pub priority: u32,
    /// Arrival offset from the start of the mix, in (virtual) seconds.
    pub arrival_secs: f64,
    /// Instant the query passed per-node memory admission (= arrival unless
    /// memory was tight and the query waited in the FCFS admission queue).
    pub admitted_secs: f64,
    /// Admission delay: admitted − arrival (never negative).
    pub wait_secs: f64,
    /// Instant the query's last operator terminated.
    pub completion_secs: f64,
    /// Response time: completion − arrival.
    pub response_secs: f64,
    /// Activations processed on behalf of this query.
    pub activations: u64,
    /// Tuples processed by this query's operators.
    pub tuples_processed: u64,
    /// Result tuples produced by this query's root operator.
    pub result_tuples: u64,
}

/// Degradation accounting of a faulted co-simulated run: what the injected
/// topology events cost, summed over all events of the stream. All counters
/// stay zero for a run without topology events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Node failures applied.
    pub failures: u64,
    /// Graceful drains applied.
    pub drains: u64,
    /// Node re-joins applied.
    pub joins: u64,
    /// Bytes shipped over the interconnect to rebalance departed-node state
    /// (re-homed activations and hash-table partitions).
    pub rebalance_bytes: u64,
    /// Queued activations moved off departed nodes onto survivors.
    pub activations_rehomed: u64,
    /// Tuples carried by those re-homed activations and partitions.
    pub tuples_rehomed: u64,
    /// Tuples of state discarded on failure (lose-and-restart policy).
    pub tuples_lost: u64,
    /// Tuples re-processed to rebuild discarded state on survivors.
    pub tuples_redone: u64,
    /// Operators whose termination was rolled back so lost state could be
    /// rebuilt (lose-and-restart against an already-finished build).
    pub operators_restarted: u64,
}

/// The outcome of one co-simulated multi-query execution: the machine-wide
/// aggregate (busy time, network traffic, load balancing — summed over all
/// interleaved queries) plus the per-query breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimReport {
    /// Machine-wide counters; `response_time` spans mix start to the last
    /// query's completion (the makespan).
    pub aggregate: ExecutionReport,
    /// One entry per query, in mix order.
    pub queries: Vec<QueryExecReport>,
    /// Degradation accounting of injected topology events (all zero when the
    /// run carried none).
    pub faults: FaultStats,
}

impl CoSimReport {
    /// Completion instant of the last query, in seconds (= the aggregate
    /// response time).
    pub fn makespan_secs(&self) -> f64 {
        self.aggregate.response_time.as_secs_f64()
    }

    /// Mean per-query response time, in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(|q| q.response_secs).sum::<f64>() / self.queries.len() as f64
    }

    /// Mean per-query admission delay, in seconds (zero while every working
    /// set fits its placement on arrival).
    pub fn mean_wait_secs(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(|q| q.wait_secs).sum::<f64>() / self.queries.len() as f64
    }
}

/// The outcome of one open-system (stochastic-arrival) execution: the
/// machine-wide aggregate over the whole run plus constant-size streaming
/// latency sketches. Unlike [`CoSimReport`] there is no per-query breakdown —
/// queries retire as they finish and only their latency samples survive, so
/// the report stays O(buckets) no matter how many queries the run served.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenReport {
    /// Machine-wide counters; `response_time` spans the run start to the last
    /// retirement (the makespan of the arrival stream).
    pub aggregate: ExecutionReport,
    /// Queries admitted, executed and retired.
    pub completed: u64,
    /// Peak number of concurrently live queries (bounded by the configured
    /// concurrency level, never by the total query count).
    pub peak_live: usize,
    /// Completed queries per second of makespan.
    pub throughput_qps: f64,
    /// Response time (arrival to completion), seconds.
    pub response: LatencyHistogram,
    /// Admission wait (arrival to admission), seconds.
    pub wait: LatencyHistogram,
    /// Slowdown: response time over the template's solo (unloaded) response
    /// time. Dimensionless; 1.0 when no solo baseline was provided.
    pub slowdown: LatencyHistogram,
    /// Response-time sketches split by priority class (class `p` at index
    /// `p - 1`; priorities beyond the configured class count collapse into
    /// the last class).
    pub response_by_class: Vec<LatencyHistogram>,
    /// Front-end accounting: where each completed query was served from
    /// (all zero when the run had no front end).
    pub frontend: FrontendStats,
    /// Engine executions per template index — the residual load the
    /// balancer actually saw after front-end deduplication.
    pub engine_by_template: Vec<u64>,
    /// Response times of queries the engine executed (leaders and
    /// uncoalesced misses).
    pub response_engine: LatencyHistogram,
    /// Response times of queries served from the result cache.
    pub response_cache_hit: LatencyHistogram,
    /// Response times of queries that retired as coalesced followers.
    pub response_coalesced: LatencyHistogram,
}

impl OpenReport {
    /// Headline response-time statistics (count, mean, p50/p95/p99, max), or
    /// `None` when nothing completed.
    pub fn response_summary(&self) -> Option<LatencySummary> {
        self.response.summary()
    }

    /// Headline admission-wait statistics, or `None` when nothing completed.
    pub fn wait_summary(&self) -> Option<LatencySummary> {
        self.wait.summary()
    }

    /// Headline slowdown statistics, or `None` when nothing completed.
    pub fn slowdown_summary(&self) -> Option<LatencySummary> {
        self.slowdown.summary()
    }

    /// Per-priority-class response summaries as `(priority, summary)` pairs,
    /// 1-based, in class order. Classes with zero completions are omitted —
    /// an empty sketch has no percentiles to report.
    pub fn class_summaries(&self) -> Vec<(u32, LatencySummary)> {
        self.response_by_class
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.summary().map(|s| (i as u32 + 1, s)))
            .collect()
    }

    /// Fraction of completed queries served from the result cache.
    pub fn hit_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.frontend.cache_hits as f64 / self.completed as f64
        }
    }

    /// Effective-QPS multiplier: completed queries per engine execution.
    /// 1.0 with no front end; above 1.0 the front end multiplied the
    /// engine's capacity.
    pub fn qps_multiplier(&self) -> f64 {
        if self.frontend.engine_queries == 0 {
            if self.completed == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.completed as f64 / self.frontend.engine_queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionReport {
        ExecutionReport {
            strategy: Strategy::dynamic(),
            nodes: 2,
            processors_per_node: 4,
            response_time: Duration::from_secs(10),
            activations: 100,
            tuples_processed: 10_000,
            result_tuples: 500,
            total_busy: Duration::from_secs(60),
            total_idle: Duration::from_secs(20),
            utilization: 0.75,
            per_node_busy: vec![Duration::from_secs(40), Duration::from_secs(20)],
            messages: 12,
            network_bytes: 1 << 20,
            lb_requests: 3,
            lb_acquisitions: 2,
            lb_bytes: 4096,
            events: 1_000,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = sample();
        assert_eq!(r.processors(), 8);
        assert_eq!(r.response_secs(), 10.0);
        assert!((r.idle_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(r.node_busy(NodeId::new(0)), Duration::from_secs(40));
        assert_eq!(r.node_busy(NodeId::new(5)), Duration::ZERO);
        // max 40 / mean 30
        assert!((r.node_imbalance() - 40.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn cosim_report_aggregates_per_query_responses() {
        let r = CoSimReport {
            aggregate: sample(),
            queries: vec![
                QueryExecReport {
                    query: 0,
                    priority: 1,
                    arrival_secs: 0.0,
                    admitted_secs: 0.0,
                    wait_secs: 0.0,
                    completion_secs: 6.0,
                    response_secs: 6.0,
                    activations: 60,
                    tuples_processed: 6_000,
                    result_tuples: 300,
                },
                QueryExecReport {
                    query: 1,
                    priority: 2,
                    arrival_secs: 2.0,
                    admitted_secs: 3.0,
                    wait_secs: 1.0,
                    completion_secs: 10.0,
                    response_secs: 8.0,
                    activations: 40,
                    tuples_processed: 4_000,
                    result_tuples: 200,
                },
            ],
            faults: FaultStats::default(),
        };
        assert_eq!(r.makespan_secs(), 10.0);
        assert!((r.mean_response_secs() - 7.0).abs() < 1e-12);
        assert!((r.mean_wait_secs() - 0.5).abs() < 1e-12);
        let empty = CoSimReport {
            aggregate: sample(),
            queries: Vec::new(),
            faults: FaultStats::default(),
        };
        assert_eq!(empty.mean_response_secs(), 0.0);
        assert_eq!(empty.mean_wait_secs(), 0.0);
    }

    #[test]
    fn imbalance_of_empty_report_is_one() {
        let mut r = sample();
        r.per_node_busy.clear();
        assert_eq!(r.node_imbalance(), 1.0);
        r.per_node_busy = vec![Duration::ZERO, Duration::ZERO];
        assert_eq!(r.node_imbalance(), 1.0);
    }
}
