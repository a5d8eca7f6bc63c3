//! Runs evaluation scenarios: bundled registry entries by name, or
//! user-authored JSON spec files — the front door for growing the evaluation
//! with new workloads without writing code.
//!
//! ```text
//! scenario --list                         # registered scenarios
//! scenario --names --kind open            # bare names, filtered (for CI)
//! scenario --strategies                   # the balancing-policy zoo

//! scenario fig9                           # run a bundled figure
//! scenario fig6 fig8 --format csv         # several, machine-readable
//! scenario --spec my_sweep.json           # run a spec file
//! scenario --export fig10                 # print a bundled spec as JSON
//! scenario --export my_sweep.json         # normalize + validate a spec file
//! scenario --validate                     # parse/round-trip every bundled spec
//! scenario fig6 fig9 --out-dir artifacts  # one run, <name>.{txt,json,csv} each
//! ```
//!
//! `--out-dir` writes every requested scenario's text, JSON and CSV
//! renderings from **one** simulation per scenario — this is what the
//! nightly paper-scale workflow uploads as artifacts.
//!
//! The usual workload knobs apply (`--paper`, `HIERDB_QUERIES`,
//! `HIERDB_RELATIONS`, `HIERDB_SCALE`, `HIERDB_SEED`, `HIERDB_THREADS`).
//! Bundled specs carry the harness default workload, so the environment
//! overrides behave exactly as for `all_figures`; spec files keep their own
//! workload except for knobs explicitly set. A workload knob whose value
//! does not parse exits with status 2.

use dlb_bench::WorkloadOverrides;
use dlb_core::scenario::{self, ScenarioSpec};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Csv,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenario [--list | --names [--kind closed|mix|open] | \
         --strategies | --validate | --export NAME] \
         [NAME...] [--spec FILE]... [--format text|json|csv] \
         [--out-dir DIR] [--paper]"
    );
    std::process::exit(2);
}

/// `--strategies`: the registered balancing-policy zoo — name, parameters
/// (with defaults), one-line summary and citation — straight from
/// [`dlb_core::policies`], so the listing can never drift from what specs
/// accept.
fn list_strategies() {
    for policy in dlb_core::policies() {
        let params = if policy.params().is_empty() {
            "-".to_string()
        } else {
            policy
                .params()
                .iter()
                .map(|p| format!("{}={}", p.name, p.default))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("{:<10} params: {params}", policy.name());
        println!("{:<10}   {}", "", policy.summary());
        println!("{:<10}   [{}]", "", policy.citation());
    }
}

/// The workload kind of a registered scenario, as the `--list`/`--names`
/// taxonomy: closed (fixed batch), mix (concurrent closed set) or open
/// (stochastic arrival stream).
fn workload_kind(spec: &ScenarioSpec) -> &'static str {
    if spec.workload.is_open() {
        "open"
    } else if spec.workload.is_mix() {
        "mix"
    } else {
        "closed"
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut names: Vec<String> = Vec::new();
    let mut spec_files: Vec<String> = Vec::new();
    let mut list = false;
    let mut bare_names = false;
    let mut kind_filter: Option<String> = None;
    let mut strategies = false;
    let mut validate = false;
    let mut export: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    usage()
                })
                .clone()
        };
        match args[i].as_str() {
            "--list" => list = true,
            "--names" => bare_names = true,
            "--kind" => {
                let kind = value_of(&mut i, "--kind");
                if !matches!(kind.as_str(), "closed" | "mix" | "open") {
                    eprintln!("unknown kind {kind:?} (want closed, mix or open)");
                    usage()
                }
                kind_filter = Some(kind);
            }
            "--strategies" => strategies = true,
            "--validate" => validate = true,
            "--export" => export = Some(value_of(&mut i, "--export")),
            "--spec" => spec_files.push(value_of(&mut i, "--spec")),
            "--out-dir" => out_dir = Some(value_of(&mut i, "--out-dir")),
            "--format" => {
                format = match value_of(&mut i, "--format").as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => {
                        eprintln!("unknown format {other:?}");
                        usage()
                    }
                }
            }
            "--paper" => {} // consumed by WorkloadOverrides::from_env
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                usage()
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }

    dlb_core::init_threads_from_env();

    if list || bare_names {
        // `--names` emits one bare name per line so workflows can enumerate
        // the registry (`scenario --names --kind open`) instead of keeping
        // hand-maintained scenario lists that drift from the code.
        for spec in scenario::registry() {
            let kind = workload_kind(&spec);
            if kind_filter.as_deref().is_some_and(|want| want != kind) {
                continue;
            }
            if bare_names {
                println!("{}", spec.name);
            } else {
                println!(
                    "{:<20} {:<7} {:<24} {}",
                    spec.name, kind, spec.title, spec.description
                );
            }
        }
        return;
    }
    if kind_filter.is_some() {
        eprintln!("--kind only applies to --list/--names");
        usage();
    }
    if strategies {
        list_strategies();
        return;
    }
    if validate {
        validate_registry();
        return;
    }
    if let Some(name) = export {
        // Everything down this path is a `dlb_common::DlbError` — unknown
        // names, unparseable files, specs whose axes their workload cannot
        // support — reported cleanly instead of panicking.
        match export_spec(&name) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("scenario --export {name}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if names.is_empty() && spec_files.is_empty() {
        usage();
    }

    let overrides = WorkloadOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("scenario: {e}");
        std::process::exit(2);
    });
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir {dir}: {e}");
            std::process::exit(1);
        }
    }
    let mut first = true;
    for name in names {
        run_one(
            overrides.apply(find_or_exit(&name)),
            format,
            out_dir.as_deref(),
            &mut first,
        );
    }
    for path in spec_files {
        let spec = load_spec_file(&path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        run_one(
            overrides.apply(spec),
            format,
            out_dir.as_deref(),
            &mut first,
        );
    }
}

/// Reads and parses (and thereby validates) one JSON spec file; every
/// failure — unreadable file, bad JSON, unknown or unsupported axes — is a
/// [`dlb_common::DlbError`]. Shared by `--spec` and `--export`.
fn load_spec_file(path: &str) -> dlb_common::Result<ScenarioSpec> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| dlb_common::DlbError::Parse(format!("cannot read {path}: {e}")))?;
    ScenarioSpec::from_json(&text)
}

/// Resolves `--export`: a registry name, or a path to a JSON spec file
/// (parsed and validated, then re-emitted in normalized form). All failures
/// are proper [`dlb_common::DlbError`]s.
fn export_spec(name_or_path: &str) -> dlb_common::Result<String> {
    match scenario::export(name_or_path) {
        Ok(text) => Ok(text),
        Err(_not_found) if std::path::Path::new(name_or_path).exists() => {
            // `load_spec_file` validates, so axis/workload mismatches
            // surface here as errors rather than panics later in the driver.
            Ok(load_spec_file(name_or_path)?.to_json())
        }
        Err(not_found) => Err(not_found),
    }
}

fn find_or_exit(name: &str) -> ScenarioSpec {
    scenario::find(name).unwrap_or_else(|| {
        eprintln!(
            "unknown scenario {name:?}; registered: {}",
            scenario::names().join(", ")
        );
        std::process::exit(1);
    })
}

fn run_one(spec: ScenarioSpec, format: Format, out_dir: Option<&str>, first: &mut bool) {
    let name = spec.name.clone();
    let report = scenario::run_scenario(&spec).unwrap_or_else(|e| {
        eprintln!("scenario {name}: {e}");
        std::process::exit(1);
    });
    // With --out-dir, one simulation feeds all three renderings on disk and
    // stdout only narrates progress.
    if let Some(dir) = out_dir {
        let emissions = [
            ("txt", scenario::render_text(&report)),
            ("json", scenario::render_json(&report)),
            ("csv", scenario::render_csv(&report)),
        ];
        for (ext, content) in emissions {
            let path = std::path::Path::new(dir).join(format!("{name}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("scenario {name}: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        println!("{name}: wrote {dir}/{name}.{{txt,json,csv}}");
        return;
    }
    if !*first && format == Format::Text {
        println!();
    }
    *first = false;
    match format {
        Format::Text => print!("{}", scenario::render_text(&report)),
        Format::Json => print!("{}", scenario::render_json(&report)),
        Format::Csv => print!("{}", scenario::render_csv(&report)),
    }
}

/// Checks that every bundled spec validates and survives a JSON round-trip
/// unchanged (the CI gate behind `scenario --validate`).
fn validate_registry() {
    let mut failures = 0usize;
    let specs = scenario::registry();
    for spec in &specs {
        let mut problems: Vec<String> = Vec::new();
        if let Err(e) = spec.validate() {
            problems.push(format!("validate: {e}"));
        }
        match ScenarioSpec::from_json(&spec.to_json()) {
            Ok(back) if back == *spec => {}
            Ok(_) => problems.push("JSON round-trip altered the spec".to_string()),
            Err(e) => problems.push(format!("JSON round-trip failed: {e}")),
        }
        if problems.is_empty() {
            println!("{:<12} ok", spec.name);
        } else {
            failures += 1;
            for p in problems {
                println!("{:<12} FAIL: {p}", spec.name);
            }
        }
    }
    println!("{} scenarios, {} failing", specs.len(), failures);
    if failures > 0 {
        std::process::exit(1);
    }
}
