#!/usr/bin/env bash
# Observability budget check: what the per-request record, its counters and
# its clock readings cost on the workload where the fixed per-request cost is
# largest. Builds `omlbench` twice — as shipped, and with every record path
# compiled out (`--features openmldb-core/obs-off`, into a target directory of
# its own so the two builds never evict each other) — runs
# `--workload serve_short --trace 0` in alternating pairs, and prints the
# on/off ratio of the median `latency_norm_p50_us`.
#
# The ratio was 1.84 before the one-record rewrite (3.48 µs on / 1.89 µs off),
# 1.40–1.46 after it, and 1.34 since `serve_short`'s request takes five clock
# readings, keeps its scratch in a thread-local and writes each signal once
# (EXPERIMENTS.md, "Observability overhead" and "The fixed cost of a served
# request"); the gate fails above 1.40.
#
# Usage: scripts/obs_overhead.sh [pairs] [seconds]   (default: 3 pairs of 10 s)
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=${1:-3}
SECONDS_PER_RUN=${2:-10}
MAX_RATIO=1.40
ON_DIR=${CARGO_TARGET_DIR:-$PWD/.bench_build}/obs-on
OFF_DIR=${CARGO_TARGET_DIR:-$PWD/.bench_build}/obs-off

# Building `benchmark/` re-resolves its tracked `Cargo.lock`: keep a copy and
# put it back on exit, so the run leaves the tree as it found it.
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
trap 'cp "$lock" benchmark/Cargo.lock; rm -f "$lock"' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$ON_DIR"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$OFF_DIR" --features openmldb-core/obs-off

# One run: the last stdout line is the result object; a failed operation or a
# wrong answer fails the check.
p50() {
    "$1/release/omlbench" --workload serve_short --seed 1 \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1 |
        awk '!/"correct":true/ || !/"failed":0,/ { exit 1 }
             match($0, /"latency_norm_p50_us":\{"value":[0-9.]+/) {
                 print substr($0, RSTART + 31, RLENGTH - 31) }'
}

on=() off=()
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        on+=("$(p50 "$ON_DIR")") off+=("$(p50 "$OFF_DIR")")
    else
        off+=("$(p50 "$OFF_DIR")") on+=("$(p50 "$ON_DIR")")
    fi
    echo "pair $i: on ${on[-1]} us, off ${off[-1]} us"
done

median() { printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'; }
on_med=$(median "${on[@]}")
off_med=$(median "${off[@]}")
awk -v on="$on_med" -v off="$off_med" -v max="$MAX_RATIO" 'BEGIN {
    ratio = on / off
    printf "obs on/off latency_norm_p50_us on serve_short: %.2f / %.2f us = %.2f (limit %.2f)\n", on, off, ratio, max
    exit ratio > max
}'
