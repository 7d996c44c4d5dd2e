"""Tests of the runner's statistics and aggregation (perfbench/run.py).

    python3 -m unittest discover -s perfbench/tests -p "test_*.py"
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_use_the_exclusive_method(self):
        # statistics.quantiles(n=4) with the default exclusive method, the
        # one the acceptance check applies to ten runs.
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(run.quartiles(values), [2.75, 5.5, 8.25])

    def test_relative_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(run.relative_spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.relative_spread([7.0] * 10), 0.0)


class Aggregate(unittest.TestCase):
    declared = [
        {"name": "wall_s", "unit": "s"},
        {"name": "failed_frac", "unit": "ratio"},
        {"name": "sweep.cells", "unit": "count"},
    ]

    def test_takes_medians_and_lists_what_was_not_measured(self):
        records = [{"metrics": {"wall_s": w}} for w in (3.0, 1.0, 2.0)]
        metrics, absent = run.aggregate(records, self.declared, 0.25)
        self.assertEqual(metrics["wall_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(metrics["failed_frac"], {"value": 0.25, "unit": "ratio"})
        self.assertEqual(metrics["sweep.cells"]["value"], 0.0)
        self.assertEqual(absent, ["sweep.cells"])


if __name__ == "__main__":
    unittest.main()
