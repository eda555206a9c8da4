#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores all
# live under .bench_build/ in the working directory, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
