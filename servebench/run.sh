#!/usr/bin/env bash
# Builds ghsom-daemon and the servebench harness from this checkout, then
# runs the harness with the given arguments, for example
#
#   bash servebench/run.sh --workload edge_lockstep --seed 42 --seconds 20 --trace 0
#   bash servebench/run.sh compare a.json b.json
#
# Run it from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the harness's JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f servebench/Cargo.toml ]; then
    echo "servebench: run from the root of the repository" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ghsom-daemon --bin ghsom-daemon >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2

SERVEBENCH_DAEMON="$CARGO_TARGET_DIR/release/ghsom-daemon" \
SERVEBENCH_WORK="$CARGO_TARGET_DIR/servebench-work" \
SERVEBENCH_RUSTC="$(rustc --version)" \
SERVEBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)" \
    exec "$CARGO_TARGET_DIR/release/servebench" "$@"
