//! Runs every figure scenario in sequence (the full evaluation of the
//! paper), in-process from the bundled scenario registry.
//!
//! ```text
//! cargo run --release -p dlb-bench --bin all_figures            # reduced scale
//! cargo run --release -p dlb-bench --bin all_figures -- --paper # paper scale (slow)
//! ```

use dlb_bench::{figure_output, params_table, WorkloadOverrides};

fn main() {
    dlb_core::init_threads_from_env();
    let overrides = WorkloadOverrides::from_env().unwrap_or_else(|e| {
        eprintln!("all_figures: {e}");
        std::process::exit(2);
    });
    println!();
    print!("{}", params_table());
    for name in ["fig6", "fig7", "fig8", "fig9", "fig10", "chain53"] {
        println!();
        print!("{}", figure_output(name, &overrides));
    }
}
