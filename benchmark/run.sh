#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the binary.
# Run from the repository root. Everything the build and the run leave behind
# stays under .bench_build/ (and benchmark/out/ for traces) in this checkout.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/karousos-benchmark" .
exec "$build/karousos-benchmark" "$@"
