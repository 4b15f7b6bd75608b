#!/usr/bin/env python3
"""The repository benchmark: builds the single-threaded runner from source
and runs one workload, or checks how steady a workload's figures are.

Run from the repository root:

  python3 perfbench/run.py --workload paper-churn --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10
  python3 perfbench/run.py --workload million-grid --steady 10 --seconds 10

A single run prints a human-readable report (provenance, result digest,
every measured metric with its unit) and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
runner times the untraced passes only and the metrics are BENCHMARK.json's
end_to_end list. With --trace 1 every query also runs traced, next to its
untraced run: the result line shows the per_layer list, and a query whose
traced and untraced results differ counts as failed.

--steady N runs the workload N times with seeds seed, seed+1, ... and
prints, for every metric, the median, the quartiles and the quartile
spread as a share of the median, next to the metric's bound, and each
bounded metric's value in every run. It then repeats the first seed and
checks that the result digest is identical.

Everything is built under .bench_build/ in the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("paper-churn", "million-grid", "service-open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(path=ROOT / "BENCHMARK.json"):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def check_checkout():
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise BenchError(
                f"{ROOT / needed} is missing: the benchmark builds the "
                "repository's library from source and must run inside a "
                "full checkout")


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; waits for it even on timeout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")


def build():
    check_checkout()
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise BenchError(f"{BUILD_DIR} is not a Release build; delete it "
                         "and rerun")
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j4", "--target",
                 "perfbench_runner"], BUILD_TIMEOUT_S)


def git_sha():
    # Only a checkout's own .git: never walk up into an enclosing repository.
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_runner(workload, seed, seconds, trace):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: runner timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: runner exit "
                         f"{proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload} seed {seed}: unreadable runner "
                         f"output: {e}")


def select_metrics(run, wanted):
    """The result line's metrics: exactly `wanted` (BENCHMARK.json
    entries), each present with the declared unit and a finite value."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        got = run["metrics"].get(name)
        if got is None:
            raise BenchError(f"runner did not report metric {name}")
        if got["unit"] != entry["unit"]:
            raise BenchError(f"metric {name}: unit {got['unit']} != "
                             f"{entry['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise BenchError(f"metric {name}: not a number")
        out[name] = {"value": got["value"], "unit": got["unit"]}
    return out


def result_line(run, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = int(run["attempted"])
    failed = int(run["failed"])
    if attempted < 1:
        raise BenchError("no queries attempted")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": select_metrics(run, wanted)}


def report(run, spec, sha):
    """Human-readable lines: provenance, correctness, every metric."""
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    prov = dict(run["provenance"], git_sha=sha)
    lines = [f"== {run['workload']} seed {run['seed']}",
             "provenance: " + json.dumps(prov, sort_keys=True),
             f"result_digest: {run['result_digest']}",
             f"attempted {run['attempted']}  failed {run['failed']}"]
    lines += [f"  failure: {why}" for why in run.get("failures", [])]
    for name, m in run["metrics"].items():
        kind = ("end-to-end" if name in e2e else
                "per-layer" if name in layer else "report-only")
        lines.append(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<6} "
                     f"[{kind}]")
    return lines


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(workload, seed, seconds, trace, runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    samples, first = {}, None
    for i in range(runs):
        run = run_runner(workload, seed + i, seconds, trace)
        first = first or run
        log(f"steady {workload} run {i + 1}/{runs} seed {seed + i}: "
            f"failed {run['failed']}/{run['attempted']}")
        if run["failed"]:
            raise BenchError(f"seed {seed + i}: {run['failed']} failed "
                             f"queries: {run.get('failures')}")
        for name, m in run["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
    again = run_runner(workload, seed, seconds, trace)
    same = again["result_digest"] == first["result_digest"]
    print(f"== steadiness: {workload}, {runs} runs of {seconds} s, seeds "
          f"{seed}..{seed + runs - 1}")
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, values in samples.items():
        if len(values) < 2:
            continue
        med, q1, q3, spread = quartile_spread(values)
        bound = bounds.get(name)
        print(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '':>6}")
    print("runs, in seed order:")
    for name in (n for n in bounds if n in samples):
        print(f"{name:<44} " + " ".join(f"{v:.6g}" for v in samples[name]))
    print(f"digest of seed {seed} repeated: "
          f"{'identical' if same else 'DIFFERENT'} ({first['result_digest']})")
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs with N seeds")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    try:
        spec = load_spec()
        build()
        if args.steady:
            if args.workload == "all" or args.steady < 4:
                parser.error("--steady needs one workload and N >= 4")
            return 0 if steady(args.workload, args.seed, args.seconds,
                               args.trace, args.steady, spec) else 1
        sha = git_sha()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            run = run_runner(name, args.seed, args.seconds, args.trace)
            for line in report(run, spec, sha):
                print(line)
            results[name] = result_line(run, spec, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
