#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json names this script as the command; the driver calls it
# from the root of a checkout as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes — the Go build cache, the binary, scratch data,
# trace.json — goes under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -workdir "$out" "$@"
