//! Timed benchmark runs with the system allocator.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml --bin bench -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--record FILE] [--pin]
//! ```
//!
//! Prints one JSON result line per workload on stdout (the last line is the
//! result of a single-workload run) and a human summary on stderr. Exits 1
//! when any output is wrong. Without `--workload`, every workload runs in a
//! process of its own, so no workload inherits another's heap. `--trace` and
//! `--record` also run the sibling `bench-trace` binary, which must be built
//! too (`cargo build --release --manifest-path bench/Cargo.toml --bins`).

use dlb_common::json::{object, Json};
use dlb_common::{DlbError, Result};
use hierdb_bench::workload::{self, WORKLOADS};
use hierdb_bench::{pin, run_timed, Args};
use std::process::{Command, ExitCode, Output, Stdio};

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("bench: {err}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool> {
    dlb_core::set_threads(1);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(raw.clone())?;
    if args.pin {
        pin()?;
        return Ok(true);
    }
    if args.trace {
        return Ok(sibling("bench-trace", &raw)?.status.success());
    }
    let Some(name) = &args.workload else {
        return every_workload(&args);
    };
    let timed = run_timed(workload::find(name)?, args.seed, args.seconds)?;
    println!("{}", timed.to_json());
    Ok(timed.correct)
}

/// Runs each workload in its own `bench` process (plus `bench-trace` when
/// recording) and writes the record.
fn every_workload(args: &Args) -> Result<bool> {
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let mut correct = true;
    let mut record = Vec::new();
    for w in &WORKLOADS {
        let one = ["--workload", w.name, "--seed", &seed, "--seconds", &seconds].map(String::from);
        let timed = sibling("bench", &one)?;
        correct &= timed.status.success();
        if args.record.is_some() {
            let traced = sibling("bench-trace", &one)?;
            correct &= traced.status.success();
            record.push((
                w.name.to_string(),
                object(vec![
                    ("end_to_end", last_line(&timed)?),
                    ("per_layer", last_line(&traced)?),
                ]),
            ));
        }
    }
    if let Some(path) = &args.record {
        let doc = object(vec![
            ("seed", args.seed.into()),
            ("seconds", args.seconds.into()),
            ("host", host_description()),
            ("workloads", Json::Object(record)),
        ]);
        std::fs::write(path, doc.pretty())
            .map_err(|e| DlbError::config(format!("writing {path}: {e}")))?;
    }
    Ok(correct)
}

/// Runs the benchmark binary `name` from this binary's directory with
/// `args` and waits for it. Its stderr passes through; its stdout is echoed
/// after capture.
fn sibling(name: &str, args: &[String]) -> Result<Output> {
    let exe = std::env::current_exe()
        .map_err(|e| DlbError::config(format!("locating the bench binary: {e}")))?
        .with_file_name(name);
    let output = Command::new(&exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| {
            DlbError::config(format!(
                "running {}: {e} (build it with `cargo build --release \
                 --manifest-path bench/Cargo.toml --bins`)",
                exe.display()
            ))
        })?;
    print!("{}", String::from_utf8_lossy(&output.stdout));
    Ok(output)
}

/// The JSON result line a child printed last.
fn last_line(output: &Output) -> Result<Json> {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map_or(Ok(Json::Null), Json::parse)
}

/// What a recorded number was measured on.
fn host_description() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("cpu", cpu.into()),
        ("available_parallelism", cpus.into()),
    ])
}
