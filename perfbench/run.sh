#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sf-steady-100k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
