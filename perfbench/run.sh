#!/usr/bin/env bash
# Builds the benchmark and the simd server from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload bigcell --seed 1 --seconds 36 --trace 0
#
# Every build artefact and scratch file stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/simd" repro/cmd/simd)
exec "$out/perfbench" -simd "$out/simd" -tmp "$out/tmp" "$@"
