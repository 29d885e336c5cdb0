#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload campaign-inmem --seed 3 --seconds 18 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and
# every artifact stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -root "$root" -out "$build/out" "$@"
