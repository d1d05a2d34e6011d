#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it: the
# command of BENCHMARK.json. Everything the Go toolchain writes (build cache,
# temporary files, its own settings) stays under .bench_build, so a run reads
# and writes only inside its checkout. Run from the root of the checkout:
#
#   bash bench/run.sh --workload block-mixed --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
# Toolchain telemetry off before the first go command: in a fresh settings
# directory `go` otherwise starts a detached copy of itself to write its
# counters, which outlives a build that fails at once (a checkout without
# go.mod) and is left running when this script returns. The mode is read
# from this file only, not from the environment.
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
