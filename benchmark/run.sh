#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source into
# .bench_build/ under the current directory (the checkout root) and runs
# it with the arguments given. Everything the Go toolchain writes — build
# cache, work directories, telemetry counters — is kept inside
# .bench_build/ so a run leaves nothing outside the checkout.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local

go build -C "$root/benchmark" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
