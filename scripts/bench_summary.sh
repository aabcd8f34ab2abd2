#!/usr/bin/env bash
# bench_summary.sh BASELINE.json CURRENT.json
#
# Renders a markdown delta table comparing a fresh suitbench report
# against the committed baseline: smoke-sweep throughput and hot-path
# ns/op per benchmark. CI appends the output to $GITHUB_STEP_SUMMARY so
# the numbers land on the job page without downloading the artifact;
# locally it just prints to stdout.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASELINE.json CURRENT.json" >&2
  exit 2
fi
base=$1
cur=$2

echo "## Hot-path bench: $(basename "$cur") vs $(basename "$base")"
echo
echo "| Sweep | baseline pts/s | current pts/s | delta |"
echo "|---|---:|---:|---:|"
jq -r --slurpfile b "$base" '
  ($b[0].sweep.points_per_sec // null) as $old
  | (.sweep.points_per_sec // null) as $new
  | if $new == null then empty
    elif $old == null or $old <= 0 then
      "| sweep | n/a | \($new | . * 100 | round / 100) | new |"
    else
      "| sweep | \($old | . * 100 | round / 100) | \($new | . * 100 | round / 100) | \((($new / $old - 1) * 1000 | round) / 10)% |"
    end' "$cur"
echo
echo "| Benchmark | baseline ns/op | current ns/op | delta |"
echo "|---|---:|---:|---:|"
jq -r --slurpfile b "$base" '
  ($b[0].benchmarks // [] | map({(.name): .min_ns_per_op}) | add // {}) as $old
  | (.benchmarks // [])[]
  | ($old[.name] // null) as $prev
  | if $prev == null or $prev <= 0 then
      "| \(.name) | n/a | \(.min_ns_per_op) | new |"
    else
      "| \(.name) | \($prev) | \(.min_ns_per_op) | \(((.min_ns_per_op / $prev - 1) * 1000 | round) / 10)% |"
    end' "$cur"

