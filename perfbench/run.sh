#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# argument is passed through (see main.go for the flags). Build products and
# the Go build cache stay under .bench_build/ in the checkout; trace outputs
# go to .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
