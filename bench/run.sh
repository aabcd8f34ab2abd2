#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload served --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/, so nothing outside the checkout
# is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$out/suit-bench" .
exec "$out/suit-bench" "$@"
