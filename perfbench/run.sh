#!/usr/bin/env bash
# Builds the release `trout` daemon and the benchmark driver from this
# checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload predict_open_loop --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's progress goes to stderr so the last
# stdout line stays the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p trout-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --trout "$CARGO_TARGET_DIR/release/trout" \
    --work "$CARGO_TARGET_DIR/perfbench" "$@"
