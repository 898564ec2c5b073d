#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# toolchain writes (build cache, binary) and everything the benchmark writes
# (results, traces) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/p2pstream-bench" .
cd "$root"
exec "$out/p2pstream-bench" "$@"
