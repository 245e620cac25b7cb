#!/usr/bin/env bash
# Builds the rkmperf benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments, for example:
#
#   bash rkmperf/run.sh --workload admit-large --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build artefact, cache and data
# directory stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/rkmperf/go.mod" ]]; then
	echo "rkmperf: run from the repository root (go.mod, internal/core and rkmperf/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOPROXY=off

(cd "$root/rkmperf" && go build -o "$build/rkmperf" .)
exec "$build/rkmperf" -data "$build/data" "$@"
