#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload spark-th --seed 0 --seconds 20 --trace 0
#
# Build outputs, including the Go build cache, stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
