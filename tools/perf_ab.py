#!/usr/bin/env python3
"""Interleaved old/new A/B runs of the repository benchmark.

The old side is a base revision, checked out into a detached git worktree
under .bench_build/ab/; the new side is the working tree. Each side's
perfbench runner is built by that side's own perfbench/run.py, then the two
runners run in pairs with matched seeds, the order alternating from pair to
pair (old first on even pairs, new first on odd ones).

  python3 tools/perf_ab.py                              # HEAD~1 vs working tree
  python3 tools/perf_ab.py --base main --workload million-grid \\
      --pairs 10 --seconds 30 --seed 11
  python3 tools/perf_ab.py --old-runner A --new-runner B  # prebuilt runners

For every end-to-end metric of BENCHMARK.json (the per-layer list with
--trace 1) it prints each side's median, the old side's quartile spread
(q3 - q1) / median, the median new/old ratio with its quartiles, the pairs
the new side won and the metric's bound. Exit status: 0 when every same-seed
pair agrees on result_digest and failed count, 1 when one differs (the two
sides computed different results), 2 when a side cannot be built or run.

The worktree is kept for the next comparison against the same base;
`git worktree remove .bench_build/ab/<sha>` deletes it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # write nothing under perfbench/
import run  # noqa: E402  perfbench/run.py: spec, quartiles

AB_DIR = ROOT / ".bench_build" / "ab"
RUNNER = Path(".bench_build") / "perfbench" / "perfbench_runner"
WORKLOADS = ("paper-churn", "million-grid", "service-open")
RUN_TIMEOUT_S = 900
BUILD_TIMEOUT_S = 1800


class AbError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise AbError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def checkout_base(base):
    """The base revision's checkout: a detached worktree, reused if it
    already exists at that commit."""
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}")
    tree = AB_DIR / sha[:12]
    if not (tree / ".git").exists():
        AB_DIR.mkdir(parents=True, exist_ok=True)
        git("worktree", "prune")  # forget worktrees deleted by hand
        git("worktree", "add", "--detach", str(tree), sha)
    return tree, sha


def build_runner(tree):
    """Builds `tree`'s runner with `tree`'s own perfbench/run.py."""
    script = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
              "run.build()")
    try:
        proc = subprocess.run([sys.executable, "-c", script], cwd=tree,
                              stdout=2, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise AbError(f"building {tree} timed out")
    if proc.returncode != 0:
        raise AbError(f"building {tree} failed (exit {proc.returncode})")
    return tree / RUNNER


def run_runner(runner, workload, seed, seconds, trace):
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise AbError(f"{' '.join(cmd)}: {e}")
    if proc.returncode != 0:
        raise AbError(f"{' '.join(cmd)}: exit {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise AbError(f"{' '.join(cmd)}: unreadable output: {e}")


def ratio(a, b):
    """a / b, with 0 / 0 = 1 (a count that is zero on both sides)."""
    if b:
        return a / b
    return 1.0 if a == 0 else float("inf")


def summarize(old, new, better):
    """Each side's median, the old side's quartile spread (q3 - q1) /
    median, and the median, quartiles and pairs won of the per-pair
    new/old ratios."""
    ratios = [ratio(n, o) for o, n in zip(old, new)]
    med, q1, q3, _ = run.quartile_spread(ratios)
    old_med, _, _, old_spread = run.quartile_spread(old)
    won = sum(n > o if better == "higher" else n < o
              for o, n in zip(old, new))
    return {"old": old_med, "new": statistics.median(new),
            "old_spread": old_spread, "median": med, "q1": q1, "q3": q3,
            "won": won, "pairs": len(ratios)}


def within(summary, better, bound):
    if bound is None:
        return ""
    if better == "higher":
        return "yes" if summary["median"] >= 1.0 - bound else "NO"
    return "yes" if summary["median"] <= 1.0 + bound else "NO"


def compare(workload, runners, pairs, seed, seconds, trace, spec):
    """Runs `pairs` interleaved pairs; returns (table lines, mismatches)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    samples = {"old": [], "new": []}
    mismatches = []
    for i in range(pairs):
        s = seed + i
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        runs = {}
        for side in order:
            runs[side] = run_runner(runners[side], workload, s, seconds, trace)
            samples[side].append(runs[side])
        old, new = runs["old"], runs["new"]
        for field in ("result_digest", "failed"):
            if old[field] != new[field]:
                mismatches.append(f"{workload} seed {s}: {field} old "
                                  f"{old[field]} new {new[field]}")
        log(f"ab {workload} pair {i + 1}/{pairs} seed {s} "
            f"({order[0]} first): digest {new['result_digest']}, failed "
            f"{old['failed']}/{new['failed']}")
    lines = [f"== {workload}: {pairs} pairs, --seconds {seconds}, seeds "
             f"{seed}..{seed + pairs - 1}, new/old",
             f"{'metric':<40} {'old':>10} {'new':>10} {'spread':>6} "
             f"{'ratio':>7} {'q1':>7} {'q3':>7} {'won':>7} {'bound':>5} "
             f"{'within':>6}"]
    for entry in wanted:
        name = entry["name"]
        try:
            old = [r["metrics"][name]["value"] for r in samples["old"]]
            new = [r["metrics"][name]["value"] for r in samples["new"]]
        except KeyError:
            lines.append(f"{name:<40} (not reported by both sides)")
            continue
        sm = summarize(old, new, entry["better"])
        bound = entry.get("bound")
        lines.append(f"{name:<40} {sm['old']:>10.4g} {sm['new']:>10.4g} "
                     f"{sm['old_spread']:>6.3f} {sm['median']:>7.4f} "
                     f"{sm['q1']:>7.4f} {sm['q3']:>7.4f} "
                     f"{sm['won']:>3}/{sm['pairs']:<3} "
                     f"{bound if bound is not None else '':>5} "
                     f"{within(sm, entry['better'], bound):>6}")
    lines.append("result_digest and failed: " +
                 ("DIFFERENT" if mismatches else "identical on every seed"))
    return lines, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="old side's revision (default HEAD~1)")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--old-runner", type=Path,
                        help="prebuilt old runner (skips --base)")
    parser.add_argument("--new-runner", type=Path,
                        help="prebuilt new runner (skips the build)")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--pairs must be >= 2, --seed >= 0 and --seconds in "
                     "1..600")
    try:
        spec = run.load_spec()
        runners = {"old": args.old_runner, "new": args.new_runner}
        if runners["old"] is None:
            tree, sha = checkout_base(args.base)
            log(f"ab: old side {args.base} = {sha} in {tree}")
            runners["old"] = build_runner(tree)
        if runners["new"] is None:
            runners["new"] = build_runner(ROOT)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        mismatches = []
        for name in names:
            lines, bad = compare(name, runners, args.pairs, args.seed,
                                 args.seconds, args.trace, spec)
            print("\n".join(lines), flush=True)
            mismatches += bad
    except (AbError, run.BenchError, OSError, ValueError) as e:
        log(f"perf_ab: {e}")
        return 2
    for m in mismatches:
        log(f"perf_ab: results differ: {m}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
