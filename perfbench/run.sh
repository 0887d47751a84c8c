#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tree100 --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Build caches, cached inputs, run state,
# span files and layer tables all stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
pkg=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/modcache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$pkg" build -o "$build/perfbench" .
exec "$build/perfbench" --cache "$build/cache" --out "$build/out" "$@"
