#!/usr/bin/env bash
# Builds prefetchbench from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload mc-wide --seed 1 --seconds 16 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/,
# and the toolchain never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/prefetchbench" ./cmd/prefetchbench
exec "$build/prefetchbench" "$@"
