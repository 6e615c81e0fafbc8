"""Tests of the benchmark's statistics and guards on synthetic inputs.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.95), 95)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile([7], 0.95), 7)

    def test_ten_samples_beyond(self):
        self.assertFalse(stats.supports(19, 0.5))
        self.assertTrue(stats.supports(20, 0.5))
        self.assertFalse(stats.supports(199, 0.95))
        self.assertTrue(stats.supports(200, 0.95))
        self.assertEqual(stats.samples_beyond(208, 0.95), 10)
        self.assertFalse(stats.supports(999, 0.99))
        self.assertTrue(stats.supports(1000, 0.99))

    def test_empty_sample_rejected(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class Geomean(unittest.TestCase):
    def test_per_kind_medians(self):
        # Kind a: median 2; kind b: median 8 -> geomean 4, whatever
        # the kinds' sample counts.
        op_ms = [1, 2, 3, 8, 8, 9, 7, 100]
        op_kind = [0, 0, 0, 1, 1, 1, 1, 1]
        self.assertAlmostEqual(stats.geomean_of_medians(op_ms, op_kind), 4.0)

    def test_small_kind_stays_visible(self):
        # One cheap and one dear kind: the geomean moves by the same
        # factor when either kind gets twice as slow.
        base = stats.geomean_of_medians([1, 1000], [0, 1])
        cheap = stats.geomean_of_medians([2, 1000], [0, 1])
        dear = stats.geomean_of_medians([1, 2000], [0, 1])
        self.assertAlmostEqual(cheap / base, math.sqrt(2))
        self.assertAlmostEqual(dear / base, math.sqrt(2))


class DeterminismGuard(unittest.TestCase):
    def test_agreeing_counts_pass(self):
        counts = [("AST/branch_nodes", 3293), ("FMM/cegis_rounds", 2),
                  ("AST/branch_nodes", 3293), ("FMM/cegis_rounds", 2)]
        self.assertEqual(stats.determinism_guard(counts), {})

    def test_disagreeing_count_is_reported(self):
        counts = [("ast/rules_evaluated", 8000010),
                  ("ast/rules_evaluated", 8000010),
                  ("ast/rules_evaluated", 8000011),
                  ("rendertree/rules_evaluated", 5)]
        self.assertEqual(stats.determinism_guard(counts),
                         {"ast/rules_evaluated": [8000010, 8000011]})


class DriftGuard(unittest.TestCase):
    def test_flat_run_passes(self):
        op_ms = [1.0, 1.1, 0.9, 1.0] * 50
        trend, ok = stats.drift_guard(op_ms, [0] * len(op_ms), 0.1)
        self.assertTrue(ok)
        self.assertAlmostEqual(trend, 0.0)

    def test_growing_state_trips(self):
        # Re-execute time tripling over a run, as when orphan rows pile
        # up because the arena is never reset.
        op_ms = [0.15 + 0.33 * i / 999 for i in range(1000)]
        trend, ok = stats.drift_guard(op_ms, [0] * 1000, 0.1)
        self.assertFalse(ok)
        self.assertGreater(trend, 1.0)

    def test_shrinking_trips(self):
        op_ms = [1.0 - 0.5 * i / 399 for i in range(400)]
        trend, ok = stats.drift_guard(op_ms, [0] * 400, 0.1)
        self.assertFalse(ok)
        self.assertLess(trend, -0.3)

    def test_noisy_growth_trips(self):
        # Op time growing 1.4x over a run under 20% per-op noise (the
        # guard trips on ~70% of such runs, ~98% at 1.5x; the quarter
        # trend of a 1.4x ramp is only ~0.29).
        rng = random.Random(2)
        op_ms = [(1.0 + 0.4 * i / 399) * math.exp(rng.gauss(0.0, 0.2))
                 for i in range(400)]
        trend, ok = stats.drift_guard(op_ms, [0] * 400, 0.25)
        self.assertGreater(trend, 0.25)
        self.assertFalse(ok)

    def test_noisy_host_step_passes(self):
        # The same noise over a host that slows 1.5x a third of the way
        # through the run and stays slow.
        rng = random.Random(7)
        op_ms = [(1.5 if i >= 130 else 1.0) * math.exp(rng.gauss(0.0, 0.2))
                 for i in range(400)]
        trend, ok = stats.drift_guard(op_ms, [0] * 400, 0.25)
        self.assertGreater(trend, 0.25)
        self.assertTrue(ok)

    def test_slow_host_window_passes(self):
        # One slow stretch in the middle of the run, then back to the
        # start level, then a slower last quarter: not a trend the
        # run's own state explains.
        op_ms = [1.0] * 100 + [1.5] * 100 + [0.9] * 100 + [1.4] * 100
        trend, ok = stats.drift_guard(op_ms, [0] * 400, 0.1)
        self.assertAlmostEqual(trend, 0.4)
        self.assertTrue(ok)

    def test_host_step_passes(self):
        # The host drops to two thirds of its speed halfway through the
        # run and stays there.
        op_ms = [1.0] * 200 + [1.5] * 200
        trend, ok = stats.drift_guard(op_ms, [0] * 400, 0.1)
        self.assertAlmostEqual(trend, 0.5)
        self.assertTrue(ok)

    def test_kinds_are_normalized(self):
        # Two kinds 100x apart, interleaved unevenly: no drift, because
        # each op is compared with its own kind's median.
        op_ms, op_kind = [], []
        for i in range(400):
            kind = 0 if i % 5 else 1
            op_ms.append(100.0 if kind else 1.0)
            op_kind.append(kind)
        trend, ok = stats.drift_guard(op_ms, op_kind, 0.1)
        self.assertTrue(ok)
        self.assertAlmostEqual(trend, 0.0)

    def test_short_run_has_no_trend(self):
        self.assertEqual(stats.drift_guard([1, 2, 3], [0, 0, 0], 0.1),
                         (None, True))


if __name__ == "__main__":
    unittest.main()
