#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash perfbench/run.sh --workload night_load --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build in that directory: the Go build cache and
# scratch files, the binary and the durable logs of the durable_recover
# workload.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
