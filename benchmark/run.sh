#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# The binary and every directory the go tool writes to live under
# benchmark/out/.build (ignored by benchmark/.gitignore, and skipped by the
# go tool's ./... for its leading dot), so a run reads and
# writes nothing outside the checkout. Without the module's go.mod (a
# directory holding only the benchmark's own files) there is no program to
# build and the script exits non-zero before printing a result, without
# starting the go tool.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
    echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not here" >&2
    exit 2
fi
build="$PWD/benchmark/out/.build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# The go command otherwise starts a detached telemetry child (its own
# session, never waited for) the first time it sees a fresh config
# directory; the mode file is the only switch for it.
echo off > "$build/home/.config/go/telemetry/mode"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
    go build -o "$build/cagnet-benchmark" ./benchmark
exec "$build/cagnet-benchmark" "$@"
