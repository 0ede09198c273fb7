#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Invoke from
# the repository root:
#
#   bash e2ebench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# temporary CAS directories, span dumps) stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp"
# Pure-Go build (no C toolchain temp files), no toolchain download, and
# every cache and temp file inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	CGO_ENABLED=0 GOTOOLCHAIN=local GOFLAGS= GOWORK=off

bin="$build/e2ebench"
(cd "$root/e2ebench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" -root "$root" -out "$build" "$@"
