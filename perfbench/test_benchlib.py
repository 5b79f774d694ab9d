"""Tests for the benchmark's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import benchlib
import run


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 90), 90)
        self.assertEqual(benchlib.nearest_rank(values, 95), 95)
        self.assertEqual(benchlib.nearest_rank([5.0], 99), 5.0)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(200, 95), 10)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail(list(range(1, 101)), 90), 90)
        self.assertIsNone(benchlib.tail(list(range(1, 100)), 90))
        self.assertEqual(benchlib.tail(list(range(1, 201)), 95), 190)
        self.assertIsNone(benchlib.tail(list(range(1, 200)), 95))
        self.assertEqual(benchlib.tail(list(range(1, 1001)), 99), 990)
        self.assertIsNone(benchlib.tail(list(range(1, 1000)), 99))

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q3 = benchlib.quartiles(values)
        self.assertAlmostEqual(q1, 11.75)
        self.assertAlmostEqual(q3, 17.25)
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 14.5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([(1, 0, 5, 25)]), {1: 20})

    def test_children_are_subtracted_once(self):
        spans = [
            (1, 0, 0, 100),
            (2, 1, 10, 30),
            (3, 1, 20, 50),   # overlaps span 2: 10..50 is covered once
            (4, 1, 90, 120),  # runs past its parent: only 90..100 counts
            (5, 2, 12, 14),   # grandchild: covered by span 2, not span 1
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20 - 2)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 2)

    def test_layer_self_times_per_operation(self):
        names = ["bench.op", "sim.engine_run", "io.export", "core.audit"]
        spans = [
            [1, 0, 1, 0, 0, 100],
            [2, 1, 1, 1, 0, 60],
            [3, 1, 1, 2, 60, 80],
            [4, 0, 2, 3, 200, 230],
        ]
        out = benchlib.layer_self_times(spans, names)
        self.assertEqual(out[1], {"bench": 20, "sim": 60, "io": 20})
        self.assertEqual(out[2], {"core": 30})


class CompareRuleTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        r = benchlib.compare(self.parent, change, "lower", 0.1)
        self.assertEqual(r["verdict"], "improved")
        self.assertEqual(r["wins"], 10)

    def test_nine_of_ten_wins_suffice(self):
        change = [v * 0.8 for v in self.parent]
        change[3] = self.parent[3] * 1.01
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.1)["verdict"],
                         "improved")
        change[4] = self.parent[4] * 1.01
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.1)["verdict"],
                         "within-bound")

    def test_gap_inside_parent_iqr_is_no_gain(self):
        change = [v - 0.05 for v in self.parent]  # wins every pair, tiny gap
        r = benchlib.compare(self.parent, change, "lower", 0.1)
        self.assertEqual(r["wins"], 10)
        self.assertEqual(r["verdict"], "within-bound")

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        change = [v * 0.5 for v in self.parent[:9]]
        self.assertEqual(benchlib.compare(self.parent[:9], change, "lower", 0.1)["verdict"],
                         "within-bound")

    def test_worse_beyond_bound_is_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.1)["verdict"],
                         "regressed")
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.1)["verdict"],
                         "within-bound")

    def test_higher_is_better(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "higher", 0.1)["verdict"],
                         "improved")
        change = [v * 0.7 for v in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "higher", 0.1)["verdict"],
                         "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.02 for v in parent]
        r = benchlib.compare(parent, change, "lower", 0.1)
        self.assertGreater(r["parent_spread"], 0.1)
        self.assertEqual(r["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        parent = [100.0, 140.0, 110.0, 120.0, 130.0, 105.0, 135.0, 115.0, 125.0, 100.0]
        change = [v / 3.0 for v in parent]
        self.assertEqual(benchlib.compare(parent, change, "lower", 0.1)["verdict"],
                         "improved")


class BenchmarkJsonTest(unittest.TestCase):
    """run.py's metric tables are what BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
