#!/usr/bin/env bash
# Builds the wire-level serve benchmark from the checkout it sits in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload inline-wal --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the working directory (Go build cache, binary, data dirs, traces).
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

# XDG_CONFIG_HOME keeps the go command's config and telemetry counters
# inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
