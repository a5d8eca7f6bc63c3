//! The traced benchmark run: one scenario pass plus a per-layer replay,
//! with a counting global allocator installed.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml --bin bench-trace -- \
//!     [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! Prints one JSON result line of per-layer metrics per workload on stdout,
//! every metric on stderr, and writes the spans to `out/<workload>.trace.json`
//! in the package directory. Exits 1 when any output or replayed result is
//! wrong.

use hierdb_bench::alloc::CountingAlloc;
use hierdb_bench::{run_traced, Args};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    dlb_core::set_threads(1);
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench-trace: {err}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for w in args.workloads() {
        match run_traced(w, args.seed, args.seconds) {
            Ok(out) => {
                println!("{}", out.to_json());
                correct &= out.correct;
            }
            Err(err) => {
                eprintln!("bench-trace: {}: {err}", w.name);
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
