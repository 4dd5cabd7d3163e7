#!/usr/bin/env bash
# A/A: runs the whole benchmark twice on this checkout and compares the
# two sets of results. Prints, per (metric, workload), both medians, the
# relative difference and the bound; exits non-zero if any end-to-end
# pair disagrees by more than its bound or any exact count differs.
#
# Each side is three seeds of every workload at the run length of
# BENCHMARK.json, about thirteen minutes in all. The two sides are interleaved
# — a b b a a b ... one workload run at a time — because the sandbox's
# speed drifts over minutes (turbo bins, the host's memory traffic): run
# back to back, side "a" would measure one state of the host and side "b"
# another.
set -euo pipefail

cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
out="benchmark/out"

rm -rf "$out/aa-a" "$out/aa-b"
mkdir -p "$out/aa-a" "$out/aa-b"
order="a b"
for seed in 41 42 43; do
    for workload in offload_zvc offload_entropy serve_4k sim_step repro_all; do
        for side in $order; do
            echo "aa.sh: seed $seed, $workload, side $side" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 \
                --out-dir "$out/aa-$side" >> "$out/aa-$side/run.log" 2>&1 || {
                tail -20 "$out/aa-$side/run.log"
                echo "aa.sh: $workload (seed $seed, side $side) failed" >&2
                exit 1
            }
        done
        # Alternate which side goes first.
        if [ "$order" = "a b" ]; then order="b a"; else order="a b"; fi
    done
done

"$target/release/cdma-benchmark" compare "$out/aa-a" "$out/aa-b"
