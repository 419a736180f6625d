#!/usr/bin/env bash
# Builds the `prio` CLI and the benchmark runner from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root, e.g.
#
#   bash benchmark/run.sh --workload cli-paper --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the runner's last stdout line is its JSON
# result. See benchmark/README.md.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p prio-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bench" "$@"
