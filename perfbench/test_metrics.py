"""Unit tests for the benchmark's metric code.

    python3 -m unittest discover -s perfbench -p 'test_metrics.py'
"""

import unittest

import metrics
import run


def raw_report(**overrides):
    raw = {
        "workload": "serve_zipf",
        "setup_s": [1.0, 1.2, 1.1],
        "build_s": [0.5, 0.6, 0.4],
        "build_tokens": 1000,
        "chunk_ops": [100, 100],
        "chunk_s": [1.0, 1.0],
        "query_ms": [float(v) for v in range(1, 201)],
        "attempted": 200,
        "failed": 0,
        "refused": 0,
        "index_bytes": 4000,
        "indexed_tokens": 1000,
        "peak_rss_mb": 50.0,
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertIsNone(metrics.percentile(list(range(19)), 50))
        self.assertEqual(metrics.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(metrics.percentile(list(range(999)), 99))
        self.assertEqual(metrics.percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(metrics.percentile([], 50))

    def test_unordered_input(self):
        self.assertEqual(metrics.percentile(list(range(40, 0, -1)), 50), 20)

    def test_median_needs_twenty_queries(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw_report(query_ms=[1.0] * 19))

    def test_tail_falls_back_to_a_reportable_percentile(self):
        self.assertEqual(metrics.tail_latency(raw_report())[0], "p90")
        self.assertEqual(
            metrics.tail_latency(raw_report(query_ms=[1.0] * 1000))[0], "p99")
        self.assertIsNone(metrics.tail_latency(raw_report(query_ms=[1.0] * 30)))

    def test_table_prints_sample_counts(self):
        raw = raw_report()
        values, samples = metrics.end_to_end(raw)
        lines = "\n".join(run.table("serve_zipf", raw, values, samples))
        self.assertIn("search_p50_ms = query_p50_ms", lines)
        self.assertIn("(n=200)", lines)
        self.assertIn("search_p90_ms", lines)


class FailedOpsTest(unittest.TestCase):
    def test_failed_and_refused_count_against_attempts(self):
        self.assertAlmostEqual(metrics.failed_op_ratio(100, 3, 2), 0.05)
        values, _ = metrics.end_to_end(
            raw_report(attempted=200, failed=6, refused=4))
        self.assertAlmostEqual(values["ok_op_ratio"], 0.95)

    def test_no_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.failed_op_ratio(0, 0, 0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["parent", 0.0, 100.0, -1],
            ["child", 10.0, 30.0, 0],
            ["child", 20.0, 50.0, 0],  # overlaps the first child
        ]
        totals = metrics.self_times(spans)
        self.assertAlmostEqual(totals["parent"], 60.0)
        self.assertAlmostEqual(totals["child"], 50.0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            ["root", 0.0, 100.0, -1],
            ["mid", 0.0, 60.0, 0],
            ["leaf", 10.0, 50.0, 1],
        ]
        totals = metrics.self_times(spans)
        self.assertAlmostEqual(totals["root"], 40.0)
        self.assertAlmostEqual(totals["mid"], 20.0)
        self.assertAlmostEqual(totals["leaf"], 40.0)

    def test_never_negative(self):
        spans = [
            ["parent", 10.0, 20.0, -1],
            ["child", 5.0, 25.0, 0],  # clock skew: wider than its parent
        ]
        self.assertEqual(metrics.self_times(spans)["parent"], 0.0)


if __name__ == "__main__":
    unittest.main()
