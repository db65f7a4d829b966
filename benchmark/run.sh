#!/usr/bin/env bash
# Builds the benchmark from source and runs it, for a driver that calls
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout. Everything the build and the run write stays
# under .bench_build/ in that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
