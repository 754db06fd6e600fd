#!/usr/bin/env bash
# One command: build the release binaries, run the workloads against the
# real servers, check the outputs, print every metric by name.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--traced] [--runs K]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   (driver form)
#   benchmark/run.sh --compare A.json B.json
#
# Builds offline from the checkout this script sits in; a directory with
# only BENCHMARK.json and benchmark/ has nothing to build and fails here.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

export CARGO_NET_OFFLINE=true
# One target directory for the repository's workspace and the benchmark's
# own, so the crates compile once and the server binaries land next to
# the benchmark binary. A relative CARGO_TARGET_DIR (the driver sets
# `.bench_build`) is relative to the checkout root, where we now are.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export UUCS_BENCHMARK_DIR="$bench_dir"

# Build output goes to stderr: stdout carries the report and, last, the
# result object.
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p uucs-server -p uucs-cluster 1>&2
cargo build --release --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2

mkdir -p "$bench_dir/out"
child=0
cleanup() {
    # Ctrl-C or TERM: the benchmark cannot run its destructors, so kill
    # the servers it spawned (its children), then it, then drop the
    # scratch journals.
    if [ "$child" -ne 0 ]; then
        pkill -KILL -P "$child" 2>/dev/null || true
        kill -KILL "$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
    fi
    rm -rf "$bench_dir/out/tmp"
}
trap 'cleanup; exit 130' INT TERM

"$CARGO_TARGET_DIR/release/uucs-benchmark" "$@" &
child=$!
status=0
wait "$child" || status=$?
child=0
rmdir "$bench_dir/out/tmp" 2>/dev/null || true
exit "$status"
