//! The benchmark workloads and the pass that times them.
//!
//! Each workload is a scenario spec in `workloads/<name>.json` (runnable as
//! is with `scenario --spec`) with exactly one sweep point. A *pass* is what
//! a user pays for one scenario run: [`run_scenario`] — workload compile
//! included — followed by the text, JSON and CSV renderings.

use dlb_common::{DlbError, Result};
use dlb_core::scenario::{
    render_csv, render_json, render_text, run_scenario, Axis, ScenarioReport, ScenarioSpec,
    WorkloadSpec,
};
use std::hint::black_box;

/// The generator seed of the pinned default inputs (the registry's seed).
pub const DEFAULT_SEED: u64 = 0xD1B_1996;
/// A second pinned seed, held out from tuning.
pub const HELDOUT_SEED: u64 = 1996;

/// One named benchmark workload.
pub struct Workload {
    /// The workload name (`--workload`).
    pub name: &'static str,
    spec_json: &'static str,
}

/// Every workload, in the fixed order a full run uses.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-scale",
        spec_json: include_str!("../workloads/paper-scale.json"),
    },
    Workload {
        name: "skew-zoo",
        spec_json: include_str!("../workloads/skew-zoo.json"),
    },
    Workload {
        name: "mix-fault",
        spec_json: include_str!("../workloads/mix-fault.json"),
    },
    Workload {
        name: "open-frontend",
        spec_json: include_str!("../workloads/open-frontend.json"),
    },
    Workload {
        name: "wide-node",
        spec_json: include_str!("../workloads/wide-node.json"),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        DlbError::not_found(format!("workload {name:?} (known: {})", names.join(", ")))
    })
}

impl Workload {
    /// The workload's spec with the generator seed replaced by `seed`, after
    /// checking it has the single sweep point the replay assumes.
    pub fn spec(&self, seed: u64) -> Result<ScenarioSpec> {
        let mut spec = ScenarioSpec::from_json(self.spec_json)?;
        match &mut spec.workload {
            WorkloadSpec::Generated { seed: s, .. } => *s = seed,
            WorkloadSpec::Mix(mix) => mix.seed = seed,
            WorkloadSpec::Open(open) => open.seed = seed,
            WorkloadSpec::Chain { .. } => {
                return Err(DlbError::config(format!(
                    "{}: chain workloads have no generator seed",
                    self.name
                )))
            }
        }
        if spec.columns.is_some() || spec.rows.values.len() != 1 {
            return Err(DlbError::config(format!(
                "{}: a benchmark workload has exactly one sweep point",
                self.name
            )));
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// The spec with its single sweep point folded into the base fields, so the
/// replay can read machine, options and workload directly. Only the axes the
/// bundled workloads sweep are supported.
pub fn point_spec(spec: &ScenarioSpec) -> Result<ScenarioSpec> {
    let mut point = spec.clone();
    let v = spec.rows.values[0];
    match (spec.rows.axis, &mut point.workload) {
        (Axis::Skew, _) => point.options.skew = v,
        (Axis::FailureTime, WorkloadSpec::Mix(mix)) => {
            for event in &mut mix.topology {
                event.at_secs = v;
            }
        }
        (Axis::ArrivalRate, WorkloadSpec::Open(open)) => open.rate_qps = v,
        (axis, _) => {
            return Err(DlbError::config(format!(
                "{}: the benchmark replay does not support the {axis:?} axis",
                spec.name
            )))
        }
    }
    Ok(point)
}

/// One pass: the scenario run plus its three renderings.
pub fn pass(spec: &ScenarioSpec) -> Result<ScenarioReport> {
    let report = run_scenario(spec)?;
    render(&report);
    Ok(report)
}

/// The three renderings of a report, kept from being optimized away.
pub fn render(report: &ScenarioReport) {
    black_box(render_text(report));
    black_box(render_json(report));
    black_box(render_csv(report));
}

/// The simulated work of a pass: activations executed by every engine run
/// the report shows (per-plan and solo runs, plus open-system aggregates).
/// It is a simulated statistic covered by the digest, so it cannot move
/// without the outputs moving.
pub fn work(report: &ScenarioReport) -> u64 {
    report
        .points
        .iter()
        .flat_map(|p| &p.cells)
        .map(|cell| {
            cell.runs.iter().map(|r| r.report.activations).sum::<u64>()
                + cell.open.as_ref().map_or(0, |o| o.aggregate.activations)
        })
        .sum()
}
