#!/usr/bin/env bash
# Builds both benchmark binaries, then runs the timed one with the given
# arguments (`--trace 1` hands the run over to bench-trace). Run it from
# anywhere; it works from the repository root:
#
#   bash bench/run.sh --workload paper-scale --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --manifest-path bench/Cargo.toml --bins
exec cargo run --release --quiet --manifest-path bench/Cargo.toml --bin bench -- "$@"
