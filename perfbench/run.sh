#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: every build and run artifact stays under .bench_build there.
#
#   bash perfbench/run.sh --workload agree-adversarial --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
