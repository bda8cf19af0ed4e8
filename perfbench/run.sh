#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the sources to benchmark are missing" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/perfbench" "$build/home"
# HOME and the XDG directories point inside the build directory too: the go
# command keeps telemetry counters under the user's configuration directory.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
