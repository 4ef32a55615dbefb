"""Tests of the spread check and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spread  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadTest(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread.spread(values), (q3 - q1) / 14.5)
        self.assertEqual(spread.spread([5.0] * 10), 0.0)

    def test_check_applies_every_bound(self):
        bounds = {"setup_s": 0.25, "op_cpu_ms": 0.1}
        steady = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        noisy = [1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        rows = spread.check({"setup_s": steady, "op_cpu_ms": steady}, bounds)
        self.assertEqual([r[4] for r in rows], [True, True])
        # Set-up time is held to its bound like every other metric.
        rows = spread.check({"setup_s": noisy, "op_cpu_ms": steady}, bounds)
        self.assertEqual([r[4] for r in rows], [False, True])
        rows = spread.check({"setup_s": steady, "op_cpu_ms": noisy}, bounds)
        self.assertEqual([r[4] for r in rows], [True, False])
        # A metric with no values fails.
        self.assertFalse(spread.check({}, {"op_cpu_ms": 0.1})[0][4])

    def test_medians_disagree_in_either_direction(self):
        bounds = {"op_cpu_ms": 0.1, "peak_rss_mb": 0.1}
        first = {"op_cpu_ms": [10.0] * 3, "peak_rss_mb": [100.0] * 3}
        self.assertEqual(spread.medians_disagree(first, first, bounds), [])
        near = {"op_cpu_ms": [10.9] * 3, "peak_rss_mb": [92.0] * 3}
        self.assertEqual(spread.medians_disagree(first, near, bounds), [])
        slower = {"op_cpu_ms": [11.5] * 3, "peak_rss_mb": [85.0] * 3}
        self.assertEqual(spread.medians_disagree(first, slower, bounds),
                         ["op_cpu_ms", "peak_rss_mb"])
        # An improvement beyond the bound is a disagreement too, and the
        # order of the sets does not matter.
        faster = {"op_cpu_ms": [5.0] * 3, "peak_rss_mb": [200.0] * 3}
        self.assertEqual(spread.medians_disagree(first, faster, bounds),
                         ["op_cpu_ms", "peak_rss_mb"])
        self.assertEqual(spread.medians_disagree(faster, first, bounds),
                         ["op_cpu_ms", "peak_rss_mb"])


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.doc = spread.load_benchmark()

    def test_top_level_keys(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_metric_entries(self):
        names = []
        for key, fields in [("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})]:
            for m in self.doc[key]:
                self.assertEqual(set(m), fields, m)
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], {"lower", "higher"})
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names are unique")
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = next(m for m in self.doc["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))

    def test_workloads_state_why(self):
        self.assertTrue(2 <= len(self.doc["workloads"]) <= 8)
        for w in self.doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_file_size(self):
        path = os.path.join(spread.ROOT, "BENCHMARK.json")
        self.assertLessEqual(os.path.getsize(path), 64 * 1024)
        with open(path) as f:
            json.load(f)


if __name__ == "__main__":
    unittest.main()
