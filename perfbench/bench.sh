#!/usr/bin/env bash
# Builds the benchmark program and the ciaoserve and ciaosweep binaries
# it drives from source inside the checkout, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/bench.sh --workload sweep-compute --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory (the Go build cache included), so nothing is written outside
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out" PPROF_TMPDIR="$out" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# One build, before anything is timed: the benchmark and the two
# repository binaries it drives.
go -C perfbench build -o "$out/bin/" . repro/cmd/ciaoserve repro/cmd/ciaosweep
exec "$out/bin/perfbench" "$@"
