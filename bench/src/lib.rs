//! The hierdb repository benchmark.
//!
//! Two binaries share this library. `bench` times named workloads end to end
//! through the public scenario API with the system allocator and reports
//! [`END_TO_END`] metrics; `bench-trace` installs a counting allocator, runs
//! rounds of a traced pass plus a per-layer replay ([`trace`]) and reports
//! [`PER_LAYER`] metrics. Both check every simulated result against the
//! digests pinned in `expected.json`. See README.md for the workloads, the
//! layer-to-metric map and the host-drift normalization.

pub mod alloc;
pub mod digest;
pub mod host;
pub mod trace;
pub mod workload;

use dlb_common::json::{object, Json};
use dlb_common::{DlbError, Result};
use dlb_core::scenario::{base_experiment, ScenarioSpec};
use host::{median, quantile, Kernel, REFERENCE_CALIB_S};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{pass, work, Workload, DEFAULT_SEED, HELDOUT_SEED, WORKLOADS};

/// End-to-end metrics (tracing off), with units.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics reported on every workload (tracing on), with units.
/// The traced run also writes mode- and policy-specific extras to its trace
/// file; see [`trace::Trace::metrics`].
pub const PER_LAYER: [(&str, &str); 32] = [
    ("compile.ms", "ms"),
    ("compile.allocs", "count"),
    ("query.generate.ms", "ms"),
    ("query.optimize.ms", "ms"),
    ("query.plan.ms", "ms"),
    ("compile.plans", "count"),
    ("compile.operators", "count"),
    ("engine.ms", "ms"),
    ("engine.share", "ratio"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.DP.ns_per_event", "ns"),
    ("engine.FP.ns_per_event", "ns"),
    ("engine.activations", "count"),
    ("engine.messages", "count"),
    ("engine.allocs", "count"),
    ("engine.alloc_bytes", "bytes"),
    ("lb.requests", "count"),
    ("lb.acquisitions", "count"),
    ("lb.acquire_ratio", "ratio"),
    ("lb.bytes", "bytes"),
    ("faults.activations_rehomed", "count"),
    ("faults.rebalance_bytes", "bytes"),
    ("open.completed", "count"),
    ("open.peak_live", "count"),
    ("frontend.hit_ratio", "ratio"),
    ("frontend.coalesced", "count"),
    ("frontend.engine_queries", "count"),
    ("driver.self.ms", "ms"),
    ("render.ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Minimum timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;
/// `base_experiment` calls of the set-up burst: up to this many...
const SETUP_CALLS: usize = 10;
/// ...within this budget of seconds, but never fewer than [`MIN_PASSES`].
const SETUP_BUDGET_S: f64 = 1.0;

/// Parsed command line of both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The one workload to run; all of them, in order, when absent.
    pub workload: Option<String>,
    /// Workload generator seed.
    pub seed: u64,
    /// Seconds of timed passes per workload.
    pub seconds: f64,
    /// Run the traced replay instead of the timed passes.
    pub trace: bool,
    /// Re-pin `expected.json` instead of measuring.
    pub pin: bool,
    /// Write a combined end-to-end and per-layer record of every workload.
    pub record: Option<String>,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace [0|1] --pin
    /// --record FILE`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 15.0,
            trace: false,
            pin: false,
            record: None,
        };
        let mut it = args.into_iter().peekable();
        let bad = |msg: String| DlbError::config(msg);
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .ok_or_else(|| bad(format!("{flag} needs a value")))
            };
            match arg.as_str() {
                "--workload" => out.workload = Some(value("--workload")?),
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    }
                    .map_err(|_| bad(format!("--seed {v:?} is not an integer")))?;
                }
                "--seconds" => {
                    let v = value("--seconds")?;
                    out.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(format!("--seconds {v:?} is not a duration")))?;
                }
                "--trace" => {
                    out.trace = match it.peek().map(String::as_str) {
                        Some("0") => false,
                        Some("1") => true,
                        _ => {
                            out.trace = true;
                            continue;
                        }
                    };
                    it.next();
                }
                "--pin" => out.pin = true,
                "--record" => out.record = Some(value("--record")?),
                other => return Err(bad(format!("unknown argument {other:?}"))),
            }
        }
        if let Some(name) = &out.workload {
            workload::find(name)?;
        }
        Ok(out)
    }

    /// The workloads this invocation runs.
    pub fn workloads(&self) -> Vec<&'static Workload> {
        match &self.workload {
            Some(name) => vec![workload::find(name).expect("checked by parse")],
            None => WORKLOADS.iter().collect(),
        }
    }
}

/// One digest and work count pinned in `expected.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Generator seed.
    pub seed: u64,
    /// Digest of the pass's simulated statistics.
    pub digest: u64,
    /// Simulated work of the pass ([`workload::work`]).
    pub work: u64,
}

/// The entries `expected.json` pins for `workload`.
pub fn pinned(workload: &str) -> Result<Vec<Pinned>> {
    let doc = Json::parse(include_str!("../expected.json"))?;
    let Some(entries) = doc.get(workload).and_then(Json::as_array) else {
        return Ok(Vec::new());
    };
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k).ok_or_else(|| {
                    DlbError::Parse(format!("expected.json: a {workload} entry lacks {k}"))
                })
            };
            let number = |k: &str| {
                field(k)?.as_u64().ok_or_else(|| {
                    DlbError::Parse(format!("expected.json: {workload} {k} is not a count"))
                })
            };
            let digest = field("digest")?.as_str().unwrap_or_default();
            Ok(Pinned {
                seed: number("seed")?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| {
                    DlbError::Parse(format!("expected.json: bad digest {digest:?}"))
                })?,
                work: number("work")?,
            })
        })
        .collect()
}

/// The outcome of one workload run, in the shape the final output line
/// carries.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every pass produced the expected outputs (and, traced, every replayed
    /// result matched).
    pub correct: bool,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that errored, panicked or produced a wrong digest.
    pub failed: u64,
    /// Metric name, value and unit.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    object(vec![
                        ("value", (*value).into()),
                        ("unit", unit.as_str().into()),
                    ]),
                )
            })
            .collect();
        object(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Object(metrics)),
        ])
    }
}

/// Runs passes and checks each against the pinned digest (or, for an
/// unpinned seed, against the first pass of the run), counting failures.
struct Checker {
    name: &'static str,
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(name: &'static str, seed: u64) -> Result<Self> {
        let expected = pinned(name)?
            .iter()
            .find(|p| p.seed == seed)
            .map(|p| p.digest);
        Ok(Self {
            name,
            expected,
            attempted: 0,
            failed: 0,
        })
    }

    /// Runs one pass under `catch_unwind`, returning its raw seconds and
    /// work when it succeeded with the right digest.
    fn pass(&mut self, spec: &ScenarioSpec) -> Option<(f64, u64)> {
        self.attempted += 1;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| pass(spec)));
        let secs = start.elapsed().as_secs_f64();
        let report = match outcome {
            Ok(Ok(report)) => report,
            Ok(Err(err)) => return self.fail(format!("pass failed: {err}")),
            Err(_) => return self.fail("pass panicked".to_string()),
        };
        let got = digest::digest(&report);
        match self.expected {
            Some(want) if want != got => self.fail(format!(
                "digest {} differs from the pinned {}",
                digest::hex(got),
                digest::hex(want)
            )),
            Some(_) => Some((secs, work(&report))),
            None => {
                // An unpinned seed: every pass must reproduce the first.
                self.expected = Some(got);
                Some((secs, work(&report)))
            }
        }
    }

    fn fail<T>(&mut self, why: String) -> Option<T> {
        eprintln!("{}: {why}", self.name);
        self.failed += 1;
        None
    }
}

/// The timed run of one workload.
///
/// Set-up is timed in a burst of [`base_experiment`] calls, then once more
/// after every timed pass, so its samples spread over the whole run. One
/// untimed warm-up pass precedes the timed passes, which run for `seconds`.
/// The reference kernel runs at the start, after the burst, after the
/// warm-up and after every pass.
///
/// The reference box (a shared 2-core container) slows down in episodes of
/// seconds to minutes, and only ever adds delay, so each metric takes the
/// quickest sample of the run (the least disturbed one) rather than a
/// median, and divides it by the quickest kernel run to cancel the drift
/// between runs.
pub fn run_timed(w: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome> {
    let spec = w.spec(seed)?;
    let reference_work = pinned(w.name)?
        .iter()
        .find(|p| p.seed == DEFAULT_SEED)
        .map(|p| p.work)
        .ok_or_else(|| {
            DlbError::not_found(format!(
                "expected.json pins no default-seed entry for {}",
                w.name
            ))
        })?;
    let kernel = Kernel::new();
    let mut kernels = vec![kernel.run()];
    let mut setup = Vec::new();
    let time_setup = |setup: &mut Vec<f64>| -> Result<()> {
        let t = Instant::now();
        std::hint::black_box(base_experiment(&spec)?);
        setup.push(t.elapsed().as_secs_f64());
        Ok(())
    };
    let start = Instant::now();
    while setup.len() < SETUP_CALLS
        && (setup.len() < MIN_PASSES || start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        time_setup(&mut setup)?;
    }
    kernels.push(kernel.run());

    let mut check = Checker::new(w.name, seed)?;
    check.pass(&spec);
    kernels.push(kernel.run());
    host::reset_peak_rss();

    // Each pass is rescaled to the pinned default-seed work, so every seed
    // reports the time of the same amount of simulated work.
    let mut sized = Vec::new();
    let mut peak_mb: f64 = 0.0;
    let start = Instant::now();
    let mut timed = 0;
    while timed < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        timed += 1;
        if let Some((secs, work)) = check.pass(&spec) {
            sized.push(secs * reference_work as f64 / work as f64);
        }
        peak_mb = peak_mb.max(host::peak_rss_mb().unwrap_or(f64::NAN));
        kernels.push(kernel.run());
        time_setup(&mut setup)?;
        host::reset_peak_rss();
    }

    let quickest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = REFERENCE_CALIB_S / quickest(&kernels);
    let wall_s = quickest(&sized) * scale;
    let setup_s = quickest(&setup) * scale;
    eprintln!(
        "{:<14} seed {seed:<10} passes {:>2}  wall_s {wall_s:.4}  setup_s {setup_s:.5} ({} calls)  \
         peak_rss_mb {peak_mb:.2}  |  raw sized s: p25 {:.4} p50 {:.4} p75 {:.4}  \
         kernel s: min {:.4} p50 {:.4}  {}",
        w.name,
        sized.len(),
        setup.len(),
        quantile(&sized, 0.25),
        median(&sized),
        quantile(&sized, 0.75),
        quickest(&kernels),
        median(&kernels),
        if check.failed == 0 { "ok" } else { "FAILED" },
    );
    let values = [wall_s, setup_s, peak_mb];
    Ok(Outcome {
        correct: check.failed == 0 && !sized.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, unit.to_string()))
            .collect(),
    })
}

/// The traced run of one workload: a warm-up pass, then [`trace::trace`]
/// rounds for `seconds`. Writes `out/<workload>.trace.json`.
pub fn run_traced(w: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome> {
    let spec = w.spec(seed)?;
    let mut check = Checker::new(w.name, seed)?;
    check.pass(&spec);
    let trace = trace::trace(&spec, seconds)?;
    for &got in &trace.digests {
        check.attempted += 1;
        if check.expected.is_some_and(|want| want != got) {
            check.fail::<()>(format!("traced digest {} differs", digest::hex(got)));
        }
    }
    for m in &trace.mismatches {
        eprintln!("{}: replay mismatch: {m}", w.name);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.trace.json", w.name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.to_json(w.name, seed).pretty()))
        .map_err(|e| DlbError::config(format!("writing {path}: {e}")))?;
    for (name, (value, unit)) in &trace.metrics {
        eprintln!("{:<14} {name:<30} {value:>16.4} {unit}", w.name);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = trace.metrics.get(*name).map_or(0.0, |(v, _)| *v);
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    Ok(Outcome {
        correct: check.failed == 0 && trace.mismatches.is_empty(),
        attempted: check.attempted,
        failed: check.failed + trace.mismatches.len() as u64,
        metrics,
    })
}

/// Recomputes the digest and work of every workload at both pinned seeds
/// and rewrites `expected.json`.
pub fn pin() -> Result<()> {
    let mut doc = Vec::new();
    for w in &WORKLOADS {
        let mut entries = Vec::new();
        for seed in [DEFAULT_SEED, HELDOUT_SEED] {
            let report = pass(&w.spec(seed)?)?;
            entries.push(object(vec![
                ("seed", seed.into()),
                ("digest", digest::hex(digest::digest(&report)).into()),
                ("work", work(&report).into()),
            ]));
        }
        eprintln!("pinned {}", w.name);
        doc.push((w.name.to_string(), Json::Array(entries)));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, Json::Object(doc).pretty())
        .map_err(|e| DlbError::config(format!("writing {path}: {e}")))
}
