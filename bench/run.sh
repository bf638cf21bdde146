#!/usr/bin/env bash
# The WALRUS benchmark, one command.
#
#   bench/run.sh [--seed N] [--seconds S]
#       all four workloads, each followed by its traced replay: prints every
#       end-to-end and per-layer metric by name with its unit, runs every
#       answer check, and ends with a one-line JSON summary whose last field
#       is "claim": null (this command measures; it claims nothing).
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, as BENCHMARK.json's driver calls it: the last line of
#       standard output is {"correct", "attempted", "failed", "metrics"} with
#       the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#
# Builds the shipped `walrus` binary and the benchmark's own two binaries
# first; everything it writes goes under bench/out or the cargo target dirs.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="" seed=1 seconds=10 trace=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

# The server under test runs its defaults, whatever this shell exports.
unset WALRUS_THREADS WALRUS_SHARDS WALRUS_REACTOR WALRUS_PREFILTER

# With CARGO_TARGET_DIR set (the driver sets it) both builds share it;
# otherwise the server builds where tier-1 builds it and the benchmark
# package keeps its own directory.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
    server_target=$CARGO_TARGET_DIR bench_target=$CARGO_TARGET_DIR
else
    server_target=$PWD/target bench_target=$PWD/bench/target
fi
CARGO_TARGET_DIR=$server_target cargo build --release --offline -p walrus-cli >&2
CARGO_TARGET_DIR=$bench_target cargo build --release --offline --manifest-path bench/Cargo.toml >&2

out=bench/out
mkdir -p "$out"
e2e() {
    "$bench_target/release/e2e" --out "$out" --walrus "$server_target/release/walrus" \
        --seed "$seed" --seconds "$seconds" "$@"
}
layers() {
    "$bench_target/release/layers" --out "$out" --seed "$seed" "$@"
}

if [ -n "$workload" ]; then
    if [ "$trace" = 0 ]; then
        e2e --workload "$workload" --trace 0
    else
        e2e --workload "$workload" --trace 1
        layers --workload "$workload"
    fi
    exit
fi

results=""
for w in query_small query_large mixed_hot ingest_single; do
    e2e --workload "$w" --trace 0 | tee "$out/e2e-$w.txt"
    layers --workload "$w" | tee "$out/layers-$w.txt"
    results="$results${results:+, }\"$w\": {\"end_to_end\": $(tail -n 1 "$out/e2e-$w.txt"), \"per_layer\": $(tail -n 1 "$out/layers-$w.txt")}"
done
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
summary="{\"seed\": $seed, \"seconds\": $seconds, \"host_cpus\": $(nproc), \"git_rev\": \"$rev\", \"results\": {$results}, \"claim\": null}"
echo "$summary"
case "$summary" in *'"correct": false'*) exit 1 ;; esac
