#!/usr/bin/env bash
# Builds the meshsort benchmark from the sources of this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash meshbench/run.sh --workload perm-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) stays in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOFLAGS= \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config"
(cd "$root/meshbench" && go build -o "$build/meshbench" .)
exec "$build/meshbench" --workdir "$build" "$@"
