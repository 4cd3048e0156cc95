#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go toolchain writes
# stays inside the checkout, and nothing is downloaded.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOPROXY=off GOTOOLCHAIN=local
go build -C "$(dirname "$0")" -o "$out/bench" .
exec "$out/bench" "$@"
