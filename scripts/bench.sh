#!/bin/sh
# Regenerate the benchmark baseline, or compare a fresh run against it.
#
#   scripts/bench.sh            # rewrite BENCH_baseline.json
#   scripts/bench.sh compare    # run benchmarks, diff against the baseline
#   scripts/bench.sh smoke      # CI gate: simulator + extent-map benchmarks
#                               # at short benchtime, fail on >25% ns/op or
#                               # >25% allocs/op growth
#
# Run from the repo root. The experiment benchmarks self-scale (see
# -benchscale in bench_test.go), so a full run takes a few minutes; the
# baseline tracks trajectory across PRs, not absolute precision.
set -eu

cd "$(dirname "$0")/.."
out=BENCH_baseline.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if [ "${1:-}" = smoke ]; then
	# CI regression smoke: only the hot-path benchmarks (simulator
	# throughput, extent map) at a short benchtime. Short runs are
	# noisy, so the gates are wide — they catch structural regressions
	# (an accidentally-always-on probe, an O(n) slip, a lost scratch
	# buffer re-allocating per op), not jitter. allocs/op is gated too:
	# it is deterministic, so even a short run flags real growth.
	go test -run='^$' -bench='^(BenchmarkSimulatorThroughput|BenchmarkInsertFunc|BenchmarkLookupFunc|BenchmarkFragments|BenchmarkVolumeActor|BenchmarkVolumeTCP|BenchmarkVerifyDir|BenchmarkRecoverDir|BenchmarkBandClean)$' \
		-benchtime=0.3s -benchmem -timeout 10m . ./internal/extmap ./internal/volume ./internal/journal ./internal/stl ./internal/band |
		go run ./scripts/benchjson >"$tmp"
	go run ./scripts/benchjson -compare -gate 25 -gate-allocs 25 -match 'BenchmarkSimulator|internal/extmap|internal/volume|BenchmarkVerifyDir/seq|BenchmarkRecoverDir/seq|BenchmarkBandClean' "$out" "$tmp"
	exit 0
fi

go test -run='^$' -bench=. -benchmem -timeout 30m ./... |
	go run ./scripts/benchjson >"$tmp"

case "${1:-}" in
compare)
	go run ./scripts/benchjson -compare "$out" "$tmp"
	;;
"")
	mv "$tmp" "$out"
	trap - EXIT
	echo "wrote $out"
	;;
*)
	echo "usage: scripts/bench.sh [compare|smoke]" >&2
	exit 2
	;;
esac
