"""Tests for stats.py. Run: python3 -m unittest discover -s perfbench"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.tail(list(range(1000)))[0], "p99")
        self.assertEqual(stats.tail(list(range(999)))[0], "p90")

    def test_p90_and_p50(self):
        self.assertEqual(stats.tail(list(range(100)))[0], "p90")
        self.assertEqual(stats.tail(list(range(99)))[0], "p50")
        self.assertEqual(stats.tail(list(range(20)))[0], "p50")

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([4.0, 1.0, 3.0]), ("max", 4.0))

    def test_every_reported_tail_has_ten_samples_beyond(self):
        for count in range(1, 2500, 7):
            values = list(range(count))
            label, value = stats.tail(values)
            if label != "max":
                self.assertGreaterEqual(sum(v > value for v in values), 10)


class SummaryTest(unittest.TestCase):
    def test_summary_states_count(self):
        s = stats.summarize([1.0, 2.0, 3.0])
        self.assertEqual(s["count"], 3)
        self.assertEqual(s["p50"], 2.0)
        self.assertEqual((s["tail_at"], s["tail"]), ("max", 3.0))


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        self.assertEqual(stats.ratio(3, 4), {"value": 0.75, "of": 3, "base": 4})

    def test_empty_base(self):
        self.assertEqual(stats.ratio(0, 0)["value"], 0.0)


class ClassMedianTest(unittest.TestCase):
    def test_weights_each_class_median_by_its_share(self):
        values = [1.0, 2.0, 3.0, 100.0, 10.0]
        classes = [0, 0, 0, 0, 1]
        shares = [0.75, 0.75, 0.75, 0.75, 0.25]
        # class 0 median 2.5, class 1 median 10
        self.assertAlmostEqual(
            stats.class_median(values, classes, shares), 0.75 * 2.5 + 2.5)

    def test_mix_does_not_move_it(self):
        few = stats.class_median([1.0, 9.0], [0, 1], [0.5, 0.5])
        many = stats.class_median([1.0] * 9 + [9.0], [0] * 9 + [1],
                                  [0.5] * 10)
        self.assertEqual(few, many)

    def test_missing_class_renormalizes(self):
        self.assertEqual(stats.class_median([4.0], [3], [0.2]), 4.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.class_median([], [], [])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
