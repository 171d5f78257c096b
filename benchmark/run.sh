#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark with a Go
# build cache inside the checkout (.bench_build/), so nothing is written
# outside it, then replaces itself with the benchmark so signals reach
# the program that owns the daemons.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
# The go tool keeps telemetry counters and its env file under the user
# config directory; point that inside the checkout as well.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
