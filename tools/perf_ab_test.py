#!/usr/bin/env python3
"""Tests for perf_ab.py (wired into ctest by CMake).

Runs the A/B tool end to end with stub runners that print canned
perfbench JSON, so no build or benchmark run is needed: the interleaving
order, matched seeds, the ratio table and the exit-code contract.
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_ab  # noqa: E402

SPEC = json.loads((perf_ab.ROOT / "BENCHMARK.json").read_text())

STUB = """#!{python}
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open({log!r}, "a") as f:
    f.write({side!r} + " " + args["--workload"] + " " + str(seed) + "\\n")
if {crash}:
    sys.exit(3)
metrics = {{}}
for entry in {entries!r}:
    metrics[entry["name"]] = {{"value": (10.0 + seed) * {factor},
                              "unit": entry["unit"]}}
digest = "0x%016x" % (seed if seed != {bad_digest_seed} else 0xbad)
print("progress on stdout before the result line")
print(json.dumps({{"workload": args["--workload"], "seed": seed,
                  "attempted": 100, "failed": {failed},
                  "result_digest": digest, "metrics": metrics}}))
"""


class PerfAbTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.log = Path(self.dir.name) / "calls.log"

    def tearDown(self):
        self.dir.cleanup()

    def stub(self, side, factor=1.0, failed=0, bad_digest_seed=-1,
             crash=False):
        path = Path(self.dir.name) / f"{side}_runner"
        path.write_text(STUB.format(
            python=sys.executable, log=str(self.log), side=side,
            crash=crash, entries=SPEC["end_to_end"] + SPEC["per_layer"],
            factor=factor, failed=failed, bad_digest_seed=bad_digest_seed))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    def drive(self, old, new, *extra):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = perf_ab.main(["--old-runner", old, "--new-runner", new,
                                 "--workload", "million-grid", "--pairs",
                                 "4", "--seed", "7", "--seconds", "1",
                                 *extra])
        return code, out.getvalue(), err.getvalue()

    def row(self, table, metric):
        for line in table.splitlines():
            if line.split() and line.split()[0] == metric:
                return line.split()
        self.fail(f"no row for {metric} in:\n{table}")

    def test_pairs_alternate_with_matched_seeds(self):
        code, _, _ = self.drive(self.stub("old"), self.stub("new"))
        self.assertEqual(code, 0)
        calls = self.log.read_text().split("\n")[:-1]
        self.assertEqual(calls, [
            "old million-grid 7", "new million-grid 7",
            "new million-grid 8", "old million-grid 8",
            "old million-grid 9", "new million-grid 9",
            "new million-grid 10", "old million-grid 10"])

    def test_table_reports_ratio_quartiles_wins_and_bound(self):
        code, table, _ = self.drive(self.stub("old"),
                                    self.stub("new", factor=0.5))
        self.assertEqual(code, 0)
        self.assertIn("== million-grid: 4 pairs, --seconds 1, seeds 7..10",
                      table)
        # A lower-is-better metric at half the old value: the new side
        # wins every pair, within the bound.
        # Old runs read 17..20 (median 18.5, quartiles 17.25 and 19.75).
        self.assertEqual(self.row(table, "setup_s")[1:],
                         ["18.5", "9.25", "0.135", "0.5000", "0.5000",
                          "0.5000", "4/4", "0.25", "yes"])
        # A higher-is-better metric at half: every pair lost, out of bound.
        self.assertEqual(self.row(table, "queries_per_s")[4:],
                         ["0.5000", "0.5000", "0.5000", "0/4", "0.25", "NO"])
        self.assertIn("identical on every seed", table)
        # End-to-end metrics only without --trace.
        self.assertNotIn("common.values_ms", table)

    def test_trace_compares_per_layer_metrics(self):
        code, table, _ = self.drive(self.stub("old"),
                                    self.stub("new", factor=0.4),
                                    "--trace", "1")
        self.assertEqual(code, 0)
        self.assertEqual(self.row(table, "common.values_ms")[4:8],
                         ["0.4000", "0.4000", "0.4000", "4/4"])
        self.assertNotIn("peak_rss_mb", table)

    def test_different_digest_fails(self):
        code, table, err = self.drive(self.stub("old"),
                                      self.stub("new", bad_digest_seed=9))
        self.assertEqual(code, 1)
        self.assertIn("DIFFERENT", table)
        self.assertIn("million-grid seed 9: result_digest", err)

    def test_different_failed_count_fails(self):
        code, _, err = self.drive(self.stub("old"),
                                  self.stub("new", failed=1))
        self.assertEqual(code, 1)
        self.assertIn("failed old 0 new 1", err)

    def test_runner_error_is_exit_two(self):
        code, _, err = self.drive(self.stub("old"),
                                  self.stub("new", crash=True))
        self.assertEqual(code, 2)
        self.assertIn("exit 3", err)

    def test_unknown_base_is_exit_two(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = perf_ab.main(["--base", "no-such-revision-anywhere",
                                 "--new-runner", self.stub("new")])
        self.assertEqual(code, 2)
        self.assertIn("no-such-revision-anywhere", err.getvalue())

    def test_summarize_counts_wins_by_direction(self):
        low = perf_ab.summarize([2.0, 2.0, 2.0], [1.0, 3.0, 1.0], "lower")
        self.assertEqual((low["won"], low["pairs"]), (2, 3))
        high = perf_ab.summarize([2.0, 2.0, 2.0], [1.0, 3.0, 1.0], "higher")
        self.assertEqual(high["won"], 1)
        two = perf_ab.summarize([4.0, 4.0], [2.0, 2.0], "lower")
        self.assertEqual((two["median"], two["q1"], two["q3"]),
                         (0.5, 0.5, 0.5))
        self.assertEqual((two["old"], two["new"], two["old_spread"]),
                         (4.0, 2.0, 0.0))
        # A count that is zero on both sides is unchanged, not infinite.
        zero = perf_ab.summarize([0.0, 0.0], [0.0, 0.0], "lower")
        self.assertEqual((zero["median"], zero["won"]), (1.0, 0))


if __name__ == "__main__":
    unittest.main()
