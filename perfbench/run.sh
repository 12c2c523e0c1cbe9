#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; all
# arguments are passed through (see perfbench/main.go). Run from the root
# of the repository. Build output and caches stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
