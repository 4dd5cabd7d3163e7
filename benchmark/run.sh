#!/usr/bin/env bash
# The one command of BENCHMARK.json.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (what the benchmark driver calls);
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--out-dir <dir>]
#       all five workloads, one process each, untraced then traced.
#
# Builds benchmark/ in release mode, offline, on every call (a no-op once
# built). Every metric is printed as `name unit value n=<samples>`; the
# last line of each run is the JSON object of the benchmark contract, and
# the same numbers land in <out-dir>/*.tsv (default benchmark/out).
set -euo pipefail

cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/cdma-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

for workload in offload_zvc offload_entropy serve_4k sim_step repro_all; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@"
    done
done

# Where the traced runs wrote their per-layer tables.
out="benchmark/out"
while [ $# -gt 0 ]; do
    if [ "$1" = "--out-dir" ]; then
        out="$2"
    fi
    shift
done
"$bin" reconcile "$out"
