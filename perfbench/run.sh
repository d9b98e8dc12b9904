#!/usr/bin/env bash
# Builds the smrseek benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, scratch journals,
# traces and results) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
