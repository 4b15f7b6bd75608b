#!/usr/bin/env bash
# Runs the google-benchmark micro suite and refreshes BENCH_micro.json at
# the repo root — the perf-trajectory baseline future PRs are measured
# against.
#
# Usage:
#   bench/run_benchmarks.sh                 # full suite -> BENCH_micro.json
#   BENCH_FILTER='BM_EventQueue.*' bench/run_benchmarks.sh
#       # subset -> BENCH_micro.filtered.json (never clobbers the baseline)
#   BUILD_DIR=/tmp/vb bench/run_benchmarks.sh
#
# The figure-reproduction benches (fig06..fig13b, ablations, price_summary)
# are plain programs built alongside; run them directly from $BUILD_DIR.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-bench}"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DVALIDITY_BUILD_BENCHMARKS=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target micro_benchmarks

# A filtered run must not overwrite the committed full-suite baseline.
OUT="$ROOT/BENCH_micro.json"
if [[ -n "${BENCH_FILTER:-}" ]]; then
  OUT="$ROOT/BENCH_micro.filtered.json"
fi

# Provenance: the binary records its build type and sketch kernel; the
# commit it was built from rides in as context.
GIT_SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git -C "$ROOT" status --porcelain -- src bench 2>/dev/null)" ]]; then
  GIT_SHA="$GIT_SHA+dirty"
fi

"$BUILD_DIR/micro_benchmarks" \
  ${BENCH_FILTER:+--benchmark_filter="$BENCH_FILTER"} \
  --benchmark_context=git_sha="$GIT_SHA" \
  --benchmark_format=json \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

echo "wrote $OUT"
