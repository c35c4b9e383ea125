#!/usr/bin/env bash
# Builds the harness CLI and the benchmark driver from this checkout, then
# runs the driver with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload timing-walk --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --quick
#   bash perfbench/run.sh --write-reference
#
# Build output goes to stderr; the driver's last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p multiscalar-harness --bin harness >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --harness "$CARGO_TARGET_DIR/release/harness" "$@"
