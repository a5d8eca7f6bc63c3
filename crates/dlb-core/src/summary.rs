//! Result aggregation following the paper's methodology (§5.1.3).
//!
//! Because the workload mixes very different queries, the paper never
//! averages absolute response times. Every figure point is
//!
//! ```text
//! (1/n) * Σ_plans  response_time(plan) / reference_response_time(plan)
//! ```
//!
//! i.e. the mean of per-plan ratios against a reference strategy or
//! configuration. Speedups are computed the same way with the one-processor
//! run as the reference.

use crate::experiment::PlanRun;
use dlb_common::Duration;

/// Mean of per-plan response-time ratios of `runs` against `reference`
/// (the paper's relative-performance metric; 1.0 = identical, > 1.0 = slower
/// than the reference).
///
/// Plans present in only one of the two sets are ignored; plans are matched
/// by `plan_index`.
pub fn relative_performance(runs: &[PlanRun], reference: &[PlanRun]) -> f64 {
    let mut ratios = Vec::new();
    for run in runs {
        if let Some(r) = reference.iter().find(|r| r.plan_index == run.plan_index) {
            let denom = r.report.response_secs();
            if denom > 0.0 {
                ratios.push(run.report.response_secs() / denom);
            }
        }
    }
    if ratios.is_empty() {
        return f64::NAN;
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Mean of per-plan speedups of `runs` against the single-processor
/// `baseline` (ratio of baseline time over run time).
pub fn speedup(runs: &[PlanRun], baseline: &[PlanRun]) -> f64 {
    let inverse = relative_performance(runs, baseline);
    if inverse > 0.0 {
        1.0 / inverse
    } else {
        f64::NAN
    }
}

/// Aggregate statistics of one experiment run (one strategy on one machine).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of plans executed.
    pub plans: usize,
    /// Mean response time (seconds) — only meaningful to compare runs of the
    /// *same* workload.
    pub mean_response_secs: f64,
    /// Mean processor utilization.
    pub mean_utilization: f64,
    /// Mean fraction of processor time spent idle.
    pub mean_idle_fraction: f64,
    /// Total inter-node messages across all plans.
    pub total_messages: u64,
    /// Total inter-node bytes across all plans.
    pub total_network_bytes: u64,
    /// Total bytes shipped by global load balancing across all plans.
    pub total_lb_bytes: u64,
    /// Total global load-balancing acquisitions.
    pub total_lb_acquisitions: u64,
    /// Longest single-plan response time.
    pub max_response: Duration,
}

impl Summary {
    /// Builds a summary from a set of plan runs.
    pub fn from_runs(runs: &[PlanRun]) -> Self {
        let plans = runs.len();
        let mean = |f: &dyn Fn(&PlanRun) -> f64| -> f64 {
            if plans == 0 {
                0.0
            } else {
                runs.iter().map(f).sum::<f64>() / plans as f64
            }
        };
        Self {
            plans,
            mean_response_secs: mean(&|r| r.report.response_secs()),
            mean_utilization: mean(&|r| r.report.utilization),
            mean_idle_fraction: mean(&|r| r.report.idle_fraction()),
            total_messages: runs.iter().map(|r| r.report.messages).sum(),
            total_network_bytes: runs.iter().map(|r| r.report.network_bytes).sum(),
            total_lb_bytes: runs.iter().map(|r| r.report.lb_bytes).sum(),
            total_lb_acquisitions: runs.iter().map(|r| r.report.lb_acquisitions).sum(),
            max_response: runs
                .iter()
                .map(|r| r.report.response_time)
                .max()
                .unwrap_or(Duration::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_exec::{ExecutionReport, Strategy};

    fn run(plan_index: usize, secs: u64) -> PlanRun {
        PlanRun {
            plan_index,
            query_index: plan_index / 2,
            report: ExecutionReport {
                strategy: Strategy::dynamic(),
                nodes: 1,
                processors_per_node: 4,
                response_time: Duration::from_secs(secs),
                activations: 10,
                tuples_processed: 100,
                result_tuples: 10,
                total_busy: Duration::from_secs(secs * 3),
                total_idle: Duration::from_secs(secs),
                utilization: 0.75,
                per_node_busy: vec![Duration::from_secs(secs * 3)],
                messages: 2,
                network_bytes: 100,
                lb_requests: 1,
                lb_acquisitions: 1,
                lb_bytes: 50,
                events: 5,
            },
        }
    }

    #[test]
    fn relative_performance_is_mean_of_ratios() {
        let reference = vec![run(0, 10), run(1, 20)];
        let slower = vec![run(0, 20), run(1, 20)];
        // Ratios: 2.0 and 1.0 -> mean 1.5.
        let rel = relative_performance(&slower, &reference);
        assert!((rel - 1.5).abs() < 1e-12);
        // Speedup is the inverse direction.
        let sp = speedup(&reference, &slower);
        assert!((sp - 1.0 / relative_performance(&reference, &slower)).abs() < 1e-12);
    }

    #[test]
    fn unmatched_plans_are_ignored() {
        let reference = vec![run(0, 10)];
        let runs = vec![run(0, 10), run(7, 99)];
        assert!((relative_performance(&runs, &reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_nan() {
        assert!(relative_performance(&[], &[]).is_nan());
        assert!(speedup(&[], &[]).is_nan());
    }

    #[test]
    fn summary_aggregates_counters() {
        let runs = vec![run(0, 10), run(1, 30)];
        let s = Summary::from_runs(&runs);
        assert_eq!(s.plans, 2);
        assert!((s.mean_response_secs - 20.0).abs() < 1e-12);
        assert!((s.mean_utilization - 0.75).abs() < 1e-12);
        assert_eq!(s.total_messages, 4);
        assert_eq!(s.total_lb_bytes, 100);
        assert_eq!(s.total_lb_acquisitions, 2);
        assert_eq!(s.max_response, Duration::from_secs(30));
        let empty = Summary::from_runs(&[]);
        assert_eq!(empty.plans, 0);
        assert_eq!(empty.max_response, Duration::ZERO);
    }
}
