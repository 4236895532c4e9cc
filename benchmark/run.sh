#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload replay-h2 --seed 7 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, module and configuration
# directories, temporary files, the binary) stays under .bench_build in the
# checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go -C "$root/benchmark" build -o "$build/jportal-bench" .
exec "$build/jportal-bench" "$@"
