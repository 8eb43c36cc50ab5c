#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload engage --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache and
# the run's scratch files (stores, traces, last results) all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

bin="$build/perfbench"
go -C perfbench build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" --workdir "$build/perfbench-work" "$@"
