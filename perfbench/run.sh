#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload local-durable --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ there: the Go build cache, the binary, the
# stores of the run and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep every cache and config file Go touches inside the checkout, and
# never reach for the network: the module needs nothing outside it.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
