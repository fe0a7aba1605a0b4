#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the checkout, passing every argument through:
#
#   bash bench/run.sh --workload dc-policies --seed 1 --seconds 22 --trace 0
#
# The Go build cache and the toolchain's configuration directory (its
# telemetry counters) live in .bench_build/, so a run reads and writes only
# inside the checkout; the toolchain is used as installed (no downloads).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$root/.bench_build/agilebench" .
exec "$root/.bench_build/agilebench" "$@"
