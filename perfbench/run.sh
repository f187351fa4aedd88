#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument through: run it from the repository root, e.g.
#   bash perfbench/run.sh --workload mget-heavytail --seed 1 --seconds 20 --trace 0
# Build output, the Go caches, scratch data and results all stay under
# the checkout's .bench_build directory (or $CARGO_TARGET_DIR).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config GOTMPDIR= TMPDIR=$out
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
