#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against the committed baseline.

The committed BENCH_micro.json is the perf-trajectory yardstick every PR is
measured against (see bench/README.md). This tool diffs a fresh run — in CI
a short `--benchmark_min_time` smoke run — against it and reports every
benchmark whose real_time grew beyond a threshold.

Warn-only by default: CI containers drift +-15% in absolute speed, so a
smoke-run slowdown is a prompt to re-measure interleaved (build the old and
new binaries side by side and alternate runs), not an automatic failure.
Pass --strict to turn regressions into a non-zero exit, e.g. on a dedicated
perf runner.

Thread-scaling benchmarks ("threads:N" in the name, e.g.
BM_Sweep/threads:4) are only comparable when both machines can actually
run N workers: a baseline recorded on a 1-core VM serializes every thread
count, so its threads:4 number would flag a healthy multicore run (or mask a
real regression). Entries whose N exceeds the *smaller* of the two runs'
num_cpus are skipped with a note instead of compared.

Usage:
  tools/check_bench_regression.py --fresh fresh.json \
      [--baseline BENCH_micro.json] [--threshold 1.5] [--strict]

Benchmarks present in only one file (added or retired since the baseline)
are listed informationally and never fail the check.
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    """Returns (name -> (real_time, time_unit), context_num_cpus)."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetition runs).
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = (float(bench["real_time"]),
                              bench.get("time_unit", "ns"))
    num_cpus = doc.get("context", {}).get("num_cpus", 0)
    return out, int(num_cpus) if num_cpus else 0


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

THREADS_ARG_RE = re.compile(r"(?:^|/)threads:(\d+)(?:/|$)")


def to_ns(value, unit):
    return value * UNIT_NS.get(unit, 1.0)


def benchmark_threads(name):
    """The N of a "threads:N" name component, or None."""
    match = THREADS_ARG_RE.search(name)
    return int(match.group(1)) if match else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_micro.json",
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--fresh", required=True,
                        help="freshly recorded benchmark JSON")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="flag fresh/baseline real_time ratios above "
                             "this (default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when regressions are found")
    args = parser.parse_args()

    baseline, base_cpus = load_benchmarks(args.baseline)
    fresh, fresh_cpus = load_benchmarks(args.fresh)

    # A thread count both machines can truly parallelize; 0 = unknown
    # context, compare everything (old-format JSONs).
    comparable_cpus = 0
    if base_cpus and fresh_cpus:
        comparable_cpus = min(base_cpus, fresh_cpus)

    regressions = []
    improvements = []
    skipped_threads = []
    common = sorted(set(baseline) & set(fresh))
    for name in common:
        threads = benchmark_threads(name)
        if threads is not None and comparable_cpus and \
                threads > comparable_cpus:
            skipped_threads.append((name, threads))
            continue
        base_ns = to_ns(*baseline[name])
        fresh_ns = to_ns(*fresh[name])
        if base_ns <= 0:
            continue
        ratio = fresh_ns / base_ns
        if ratio > args.threshold:
            regressions.append((name, ratio, base_ns, fresh_ns))
        elif ratio < 1.0 / args.threshold:
            improvements.append((name, ratio))

    only_base = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))

    print(f"compared {len(common) - len(skipped_threads)} benchmarks "
          f"(threshold {args.threshold:.2f}x)")
    if skipped_threads:
        names = ", ".join(name for name, _ in skipped_threads)
        print(f"skipped (threads exceed min(num_cpus)={comparable_cpus}, "
              f"not comparable across machines): {names}")
    if only_fresh:
        print(f"new since baseline (ignored): {', '.join(only_fresh)}")
    if only_base:
        print(f"missing from fresh run (ignored): {', '.join(only_base)}")
    for name, ratio in improvements:
        print(f"  IMPROVED  {name}: {ratio:.2f}x of baseline")
    for name, ratio, base_ns, fresh_ns in regressions:
        print(f"  SLOWER    {name}: {ratio:.2f}x of baseline "
              f"({base_ns:.0f} ns -> {fresh_ns:.0f} ns)")

    if regressions:
        print(f"{len(regressions)} benchmark(s) exceeded the threshold. "
              "Re-measure interleaved before trusting an absolute smoke "
              "number (bench/README.md).")
        return 1 if args.strict else 0
    print("no benchmark exceeded the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
