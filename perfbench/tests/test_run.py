"""Tests for run.py's quartile helper and result-line schema.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fake_run(failed=0, drop=None, unit_override=None):
    metrics = {}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        metrics[entry["name"]] = {"value": 1.5, "unit": entry["unit"]}
    metrics["failed_frac"] = {"value": failed / 120, "unit": "frac"}
    if drop:
        del metrics[drop]
    if unit_override:
        name, unit = unit_override
        metrics[name]["unit"] = unit
    return {"workload": "paper-churn", "seed": 3, "attempted": 120,
            "failed": failed, "result_digest": "0x0000000000000001",
            "provenance": {"build_type": "Release", "compiler": "GNU 13",
                           "sketch_kernel": "avx2", "nproc": 4},
            "failures": [], "metrics": metrics}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 9.5, 11.0, 30.0, 10.5, 9.0, 10.2, 11.7, 10.9]
        q1, med, q3 = statistics.quantiles(values, n=4)
        got = run.quartile_spread(values)
        self.assertEqual(got[:3], (med, q1, q3))
        self.assertAlmostEqual(got[3], (q3 - q1) / med)

    def test_zero_median(self):
        self.assertEqual(run.quartile_spread([0.0, 0.0, 0.0, 0.0])[3],
                         float("inf"))


class ResultLineTest(unittest.TestCase):
    def check_schema(self, line, wanted):
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertIsInstance(line["correct"], bool)
        self.assertIsInstance(line["attempted"], int)
        self.assertIsInstance(line["failed"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in wanted])
        for entry in wanted:
            m = line["metrics"][entry["name"]]
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], entry["unit"])
        json.loads(json.dumps(line))  # one JSON object

    def test_untraced_line_has_exactly_the_end_to_end_metrics(self):
        line = run.result_line(fake_run(), SPEC, trace=0)
        self.check_schema(line, SPEC["end_to_end"])
        self.assertTrue(line["correct"])

    def test_traced_line_has_exactly_the_per_layer_metrics(self):
        line = run.result_line(fake_run(), SPEC, trace=1)
        self.check_schema(line, SPEC["per_layer"])

    def test_failures_make_the_run_incorrect(self):
        line = run.result_line(fake_run(failed=2), SPEC, trace=0)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(fake_run(drop="query_ms_p90"), SPEC, trace=0)

    def test_unit_mismatch_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(fake_run(unit_override=("setup_s", "ms")), SPEC,
                            trace=0)

    def test_report_carries_provenance_and_every_metric(self):
        lines = run.report(fake_run(), SPEC, "abc123")
        prov = json.loads(lines[1].split(": ", 1)[1])
        self.assertEqual(prov["git_sha"], "abc123")
        for key in ("build_type", "compiler", "sketch_kernel", "nproc"):
            self.assertIn(key, prov)
        text = "\n".join(lines)
        self.assertIn("result_digest: 0x0000000000000001", text)
        self.assertIn("failed_frac", text)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
