#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it
# with the arguments given. Everything the build writes (binary, Go build
# cache, temporary files) stays under .bench_build in that checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local

go build -C benchmark -o "$build/servebench" .
exec "$build/servebench" "$@"
