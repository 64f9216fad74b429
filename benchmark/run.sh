#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload reanalyze --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary, per-run scratch and span files) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -trimpath -o "$build/wmbench" .)
exec "$build/wmbench" "$@"
