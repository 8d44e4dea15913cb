#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build and the run write
# stays inside the checkout: the Go build cache and temp dir are pointed
# at .bench_build/, results and scratch files go under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/gomd-bench" .)
cd "$root"
exec "$build/gomd-bench" "$@"
