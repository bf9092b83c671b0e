#!/bin/bash
# Builds the benchmark from source and runs it.  Run from the root of a
# checkout: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# bench/ is a module of its own (bench/go.mod) that replaces "repro" with the
# checkout around it.  Everything the toolchain writes (build cache, binary,
# telemetry) is kept under .bench_build in the checkout, so a run touches
# nothing outside it.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go build -C bench -o "$build/ficus-bench" .
exec "$build/ficus-bench" "$@"
