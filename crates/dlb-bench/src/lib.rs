//! # dlb-bench
//!
//! Binaries that regenerate every table and figure of the paper's
//! evaluation (§5), plus a Criterion micro-benchmark of the simulator
//! substrate (`benches/simulator.rs`).
//!
//! Every figure is a [`dlb_core::scenario::ScenarioSpec`] bundled in the
//! scenario registry. `all_figures` runs the figures in sequence, and the
//! `scenario` binary runs any registered name — or a user-authored JSON spec
//! file — with text, JSON or CSV output:
//!
//! ```text
//! cargo run --release -p dlb-bench --bin scenario -- --list
//! cargo run --release -p dlb-bench --bin scenario -- fig9
//! cargo run --release -p dlb-bench --bin scenario -- --spec my_sweep.json --format csv
//! ```
//!
//! The bundled specs default to a reduced workload so that a full run
//! completes in minutes on a laptop; set the environment variables below (or
//! pass `--paper`) to approach the paper's scale:
//!
//! | variable | default | paper |
//! |---|---|---|
//! | `HIERDB_QUERIES` | 6 | 20 |
//! | `HIERDB_RELATIONS` | 10 | 12 |
//! | `HIERDB_SCALE` | 0.1 | 1.0 |
//! | `HIERDB_SEED` | 0xD1B1996 | — |
//! | `HIERDB_THREADS` | all cores | — |
//!
//! A workload variable whose value does not parse is an error, on which
//! `scenario` and `all_figures` exit with status 2; an unparseable
//! `HIERDB_THREADS` falls back to all cores with a warning.
//!
//! ## Parallel execution
//!
//! Every plan execution is an independent seeded simulation, so the harness
//! is parallel at two levels: [`dlb_core::Experiment::run`] fans the plans
//! of a workload out across worker threads, and the scenario driver computes
//! the sweep points of a figure (skew values, processor counts, error rates)
//! concurrently, all sharing one workspace-level run cache. Results are
//! gathered in deterministic order, so figure output is **bit-identical**
//! whatever the thread count. `HIERDB_THREADS` pins the worker count (e.g.
//! `HIERDB_THREADS=1` forces sequential execution).
//!
//! Performance is measured by the repository benchmark under `bench/` (see
//! its README), not by this crate. `EXPERIMENTS.md` at the workspace root
//! records reference runs next to the paper's numbers, and documents the
//! JSON spec-file format.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dlb_common::{DlbError, Result};
use dlb_core::scenario::{self, ScenarioSpec, WorkloadSpec};
use dlb_core::{CpuParams, DiskParams, NetworkParams};

/// Runs the registered scenario `name` under the workload overrides and
/// returns its text rendering. Panics on unknown names — `all_figures` only
/// passes bundled names.
pub fn figure_output(name: &str, overrides: &WorkloadOverrides) -> String {
    let spec = scenario::find(name)
        .unwrap_or_else(|| panic!("scenario {name:?} is not in the bundled registry"));
    let report = scenario::run_scenario(&overrides.apply(spec))
        .unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
    scenario::render_text(&report)
}

/// Explicit workload overrides: only the knobs the user actually set
/// (`--paper` or `HIERDB_*`), so that user-authored spec files keep their
/// own workload unless overridden.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadOverrides {
    /// `HIERDB_QUERIES` / `--paper`.
    pub queries: Option<usize>,
    /// `HIERDB_RELATIONS` / `--paper`.
    pub relations: Option<usize>,
    /// `HIERDB_SCALE` / `--paper`.
    pub scale: Option<f64>,
    /// `HIERDB_SEED`.
    pub seed: Option<u64>,
}

impl WorkloadOverrides {
    /// Collects the overrides present on the command line and in the
    /// environment. A set variable whose value does not parse is an error
    /// naming the variable and the value.
    pub fn from_env() -> Result<Self> {
        let paper = std::env::args().any(|a| a == "--paper");
        Self::from_lookup(paper, |name| {
            std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
        })
    }

    /// [`WorkloadOverrides::from_env`] over an arbitrary variable lookup.
    fn from_lookup(paper: bool, lookup: impl Fn(&str) -> Option<String>) -> Result<Self> {
        fn parse<T: std::str::FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
        ) -> Result<Option<T>> {
            lookup(name)
                .map(|value| {
                    value
                        .parse()
                        .map_err(|_| DlbError::config(format!("{name}={value:?} does not parse")))
                })
                .transpose()
        }
        Ok(Self {
            queries: parse(&lookup, "HIERDB_QUERIES")?.or(paper.then_some(20)),
            relations: parse(&lookup, "HIERDB_RELATIONS")?.or(paper.then_some(12)),
            scale: parse(&lookup, "HIERDB_SCALE")?.or(paper.then_some(1.0)),
            seed: parse(&lookup, "HIERDB_SEED")?,
        })
    }

    /// Applies the set overrides onto a spec's generated workload — plain,
    /// the inner workload of a mix, or the template pool of an open arrival
    /// stream (chain workloads and unset knobs are untouched; for open
    /// workloads the queries knob sizes the template pool, not the stream).
    pub fn apply(&self, spec: ScenarioSpec) -> ScenarioSpec {
        let (queries, relations, scale, seed) = match &spec.workload {
            WorkloadSpec::Generated {
                queries,
                relations,
                scale,
                seed,
            } => (*queries, *relations, *scale, *seed),
            WorkloadSpec::Mix(mix) => (mix.queries, mix.relations, mix.scale, mix.seed),
            WorkloadSpec::Open(open) => (open.templates, open.relations, open.scale, open.seed),
            WorkloadSpec::Chain { .. } => return spec,
        };
        spec.with_generated_workload(
            self.queries.unwrap_or(queries),
            self.relations.unwrap_or(relations),
            self.scale.unwrap_or(scale),
            self.seed.unwrap_or(seed),
        )
    }
}

/// Reprints the simulation-parameter tables of §5.1.1 from the live
/// defaults, so any drift between code and paper is immediately visible.
pub fn params_table() -> String {
    use std::fmt::Write as _;
    let cpu = CpuParams::default();
    let net = NetworkParams::default();
    let disk = DiskParams::default();
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(
        w,
        "== §5.1.1 simulation parameters (library defaults vs paper) ==\n"
    );

    let _ = writeln!(w, "Processor");
    let _ = writeln!(
        w,
        "  speed                                {} MIPS   (paper: 40 MIPS)",
        cpu.mips
    );

    let _ = writeln!(w, "\nNetwork parameters");
    let _ = writeln!(
        w,
        "  bandwidth                            {}   (paper: infinite)",
        match net.bandwidth_bytes_per_sec {
            None => "infinite".to_string(),
            Some(b) => format!("{b} B/s"),
        }
    );
    let _ = writeln!(
        w,
        "  end-to-end transmission delay        {}   (paper: 0.5 ms)",
        net.end_to_end_delay
    );
    let _ = writeln!(
        w,
        "  CPU cost for sending 8 KB            {} instr   (paper: 10000 instr)",
        net.send_instr_per_page
    );
    let _ = writeln!(
        w,
        "  CPU cost for receiving 8 KB          {} instr   (paper: 10000 instr)",
        net.recv_instr_per_page
    );

    let _ = writeln!(w, "\nDisk parameters");
    let _ = writeln!(
        w,
        "  number of disks                      {} per processor   (paper: 1 per processor)",
        disk.disks_per_processor
    );
    let _ = writeln!(
        w,
        "  disk latency                         {}   (paper: 17 ms)",
        disk.latency
    );
    let _ = writeln!(
        w,
        "  seek time                            {}   (paper: 5 ms)",
        disk.seek_time
    );
    let _ = writeln!(
        w,
        "  transfer rate                        {:.1} MB/s   (paper: 6 MB/s)",
        disk.transfer_rate_bytes_per_sec / (1024.0 * 1024.0)
    );
    let _ = writeln!(
        w,
        "  CPU cost for asynchronous I/O init   {} instr   (paper: 5000 instr)",
        disk.async_io_init_instr
    );
    let _ = writeln!(
        w,
        "  I/O cache size                       {} pages   (paper: 8 pages)",
        disk.io_cache_pages
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_table_reflects_the_live_defaults() {
        let t = params_table();
        assert!(t.contains("40 MIPS"));
        assert!(t.contains("infinite"));
        assert!(t.contains("8 pages"));
    }

    #[test]
    fn overrides_apply_only_what_is_set() {
        let o = WorkloadOverrides {
            scale: Some(0.5),
            ..WorkloadOverrides::default()
        };
        let WorkloadSpec::Generated {
            queries,
            relations,
            seed,
            ..
        } = WorkloadSpec::default()
        else {
            panic!("the default workload is generated");
        };
        assert_eq!(
            o.apply(scenario::find("fig6").unwrap()).workload,
            WorkloadSpec::Generated {
                queries,
                relations,
                scale: 0.5,
                seed
            }
        );
        let chain = scenario::find("chain53").unwrap();
        assert_eq!(o.apply(chain.clone()), chain);
    }

    #[test]
    fn unparseable_workload_variables_are_errors_naming_the_value() {
        for (name, value) in [
            ("HIERDB_QUERIES", "two"),
            ("HIERDB_RELATIONS", "-5"),
            ("HIERDB_SCALE", "0,01"),
            ("HIERDB_SEED", "0xD1B1996"),
        ] {
            let err = WorkloadOverrides::from_lookup(false, |v| (v == name).then(|| value.into()))
                .expect_err("a value that does not parse must be rejected")
                .to_string();
            assert!(err.contains(name) && err.contains(value), "{err}");
        }
        let o =
            WorkloadOverrides::from_lookup(true, |v| (v == "HIERDB_SCALE").then(|| "0.01".into()))
                .unwrap();
        assert_eq!((o.queries, o.scale, o.seed), (Some(20), Some(0.01), None));
    }
}
