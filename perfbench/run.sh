#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload chat --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, scratch files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# Stdlib only: no module download, no toolchain switch, no workspace.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
