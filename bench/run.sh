#!/usr/bin/env bash
# Entry point named by BENCHMARK.json and the benchmark's build file:
# builds ./bench (a package of module kqr) and runs it, keeping
# everything the Go toolchain writes — build cache, temp files,
# binaries — inside the checkout under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off # no dependencies: never reach for the network
cd "$root"
go build -o "$build/bin/kqr-sysbench" ./bench
exec "$build/bin/kqr-sysbench" "$@"
