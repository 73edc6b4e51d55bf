#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash bench_e2e/run.sh --workload read_cold --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run output goes to bench_e2e/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/create-bench-e2e" run "$@"
