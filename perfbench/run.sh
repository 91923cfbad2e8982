#!/usr/bin/env bash
# Build the simulator's binaries and the benchmark from source, then run
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload trace_rr --seed 1 --seconds 40 --trace 0
#
# Run from the root of a repository checkout. Build products go to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d src/bin ]; then
    echo "perfbench: no repository sources next to perfbench/; run it from a full checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin sweepd --bin trace >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
