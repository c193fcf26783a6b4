#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given; see README.md. Build cache, binary and scratch
# files all stay under the checkout (.bench_build/ and bench/out/).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
