#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; arguments are
# passed through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-benign --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary, span files of traced runs) stays under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
