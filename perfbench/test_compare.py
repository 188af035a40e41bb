#!/usr/bin/env python3
"""Tests of compare.py on hand-built run records.

    python3 perfbench/test_compare.py
"""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p99", "unit": "us", "better": "lower", "bound": 0.2},
        {"name": "decided_correct_share", "unit": "share", "better": "higher",
         "bound": 0.02},
    ],
}
RATE = BENCHMARK["end_to_end"][0]
P99 = BENCHMARK["end_to_end"][1]


def record(seed, rate=100.0, p99=50.0, share=None, failed=0, correct=True,
           trace=False):
    share = 0.97 + seed * 0.001 if share is None else share
    return {
        "workload": "w", "seed": seed, "trace": trace, "correct": correct,
        "attempted": 1000, "failed": failed,
        "metrics": {"rate": {"value": rate, "unit": "1/s"},
                    "p99": {"value": p99, "unit": "us"},
                    "decided_correct_share": {"value": share, "unit": "share"}},
    }


def by_seed(values):
    return dict(enumerate(values))


class CompareMetricTest(unittest.TestCase):
    def test_gain_needs_ten_pairs_nine_wins_and_more_than_parent_iqr(self):
        parent = by_seed([100 + i * 0.1 for i in range(10)])
        change = by_seed([105 + i * 0.1 for i in range(10)])
        self.assertEqual(compare.compare_metric(parent, change, RATE)["verdict"], "gain")

    def test_fewer_than_ten_pairs_claims_no_gain(self):
        parent = by_seed([100 + i * 0.1 for i in range(9)])
        change = by_seed([105 + i * 0.1 for i in range(9)])
        self.assertEqual(compare.compare_metric(parent, change, RATE)["verdict"], "same")

    def test_eight_wins_of_ten_claims_no_gain(self):
        parent = by_seed([100.0] * 10)
        change = by_seed([106.0] * 8 + [99.0, 99.0])
        result = compare.compare_metric(parent, change, RATE)
        self.assertEqual(result["wins"], 8)
        self.assertEqual(result["verdict"], "same")

    def test_ties_count_for_neither_side(self):
        parent = by_seed([100.0] * 10)
        change = by_seed([106.0] * 9 + [100.0])
        result = compare.compare_metric(parent, change, RATE)
        self.assertEqual(result["wins"], 9)
        self.assertEqual(result["verdict"], "gain")

    def test_difference_within_parent_iqr_is_not_a_gain(self):
        parent = by_seed([96, 97, 98, 99, 100, 100, 101, 102, 103, 104])
        change = by_seed([v + 0.5 for v in parent.values()])
        result = compare.compare_metric(parent, change, RATE)
        self.assertEqual(result["wins"], 10)
        self.assertEqual(result["verdict"], "same")

    def test_regression_beyond_bound_is_worse(self):
        parent = by_seed([100.0, 100.5, 99.5, 100.2])
        change = by_seed([85.0, 85.5, 84.5, 85.2])
        result = compare.compare_metric(parent, change, RATE)
        self.assertAlmostEqual(result["worse_by"], 0.15, places=3)
        self.assertEqual(result["verdict"], "worse")

    def test_regression_within_bound_is_same(self):
        parent = by_seed([100.0, 100.5, 99.5, 100.2])
        change = by_seed([95.0, 95.5, 94.5, 95.2])
        self.assertEqual(compare.compare_metric(parent, change, RATE)["verdict"], "same")

    def test_lower_is_better_orientation(self):
        parent = by_seed([50.0, 51.0, 49.0, 50.5])
        slower = by_seed([65.0, 66.0, 64.0, 65.5])
        faster = by_seed([40.0, 41.0, 39.0, 40.5])
        self.assertEqual(compare.compare_metric(parent, slower, P99)["verdict"], "worse")
        self.assertLess(compare.compare_metric(parent, faster, P99)["worse_by"], 0)

    def test_wide_spread_is_unresolved(self):
        parent = by_seed([70, 90, 100, 110, 130])
        change = by_seed([60, 80, 95, 120, 125])
        result = compare.compare_metric(parent, change, RATE)
        self.assertGreater(result["spread"], RATE["bound"])
        self.assertEqual(result["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_worse(self):
        parent = by_seed([100, 120, 140, 160])
        change = by_seed([50, 55, 60, 65])
        self.assertEqual(compare.compare_metric(parent, change, RATE)["verdict"], "worse")


class CompareRecordsTest(unittest.TestCase):
    def test_higher_failed_share_is_worse(self):
        parent = [record(s) for s in range(3)]
        change = [record(s, failed=1 if s == 0 else 0) for s in range(3)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["failed_share"]["verdict"], "worse")
        self.assertEqual(rows["rate"]["verdict"], "same")

    def test_failed_gate_is_worse(self):
        parent = [record(s) for s in range(3)]
        change = [record(s, correct=s != 1) for s in range(3)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["failed_share"]["verdict"], "worse")

    def test_deterministic_metric_equal_per_seed_is_same(self):
        # Seeds spread the share by far more than its bound; pairs still agree.
        parent = [record(s * 10) for s in range(10)]
        change = [record(s * 10) for s in range(10)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["decided_correct_share"]["verdict"], "same")
        self.assertEqual(rows["decided_correct_share"]["pairs"], 10)

    def test_deterministic_metric_moving_on_one_seed_is_worse(self):
        parent = [record(s) for s in range(10)]
        change = [record(s, share=0.5 if s == 3 else None) for s in range(10)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["decided_correct_share"]["verdict"], "worse")
        # A move in the better direction is a change of decisions too.
        change = [record(s, share=0.999 if s == 3 else None) for s in range(10)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["decided_correct_share"]["verdict"], "worse")

    def test_deterministic_metric_without_shared_seed_is_unresolved(self):
        parent = [record(s) for s in range(3)]
        change = [record(s) for s in range(3, 6)]
        rows = {name: r for _, name, r in compare.compare(parent, change, BENCHMARK)}
        self.assertEqual(rows["decided_correct_share"]["verdict"], "unresolved")

    def test_load_records_keeps_untraced_records_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            directory = pathlib.Path(tmp)
            (directory / "a.json").write_text(json.dumps(record(1)))
            (directory / "b.json").write_text(json.dumps(record(2, trace=True)))
            (directory / "c.json").write_text("not json")
            (directory / "d.txt").write_text(json.dumps(record(3)))
            records = compare.load_records(directory)
        self.assertEqual([r["seed"] for r in records], [1])


if __name__ == "__main__":
    unittest.main()
