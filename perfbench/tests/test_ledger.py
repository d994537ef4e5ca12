"""Unit tests of the metric reduction: percentile rule and self times."""

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import ledger  # noqa: E402


def span(span_id, parent, layer, start, end, concurrent=0):
    return {"name": f"s{span_id}", "cat": layer, "ph": "X", "ts": start,
            "dur": end - start,
            "args": {"id": span_id, "parent": parent,
                     "concurrent": concurrent}}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(ledger.supported_percentile(1000, 99.0), 99.0)
        self.assertEqual(ledger.supported_percentile(10000, 99.0), 99.0)
        self.assertEqual(ledger.supported_percentile(10000, 99.9), 99.9)
        self.assertEqual(ledger.supported_percentile(999, 99.0), 90.0)
        self.assertEqual(ledger.supported_percentile(100, 99.0), 90.0)
        self.assertEqual(ledger.supported_percentile(99, 99.0), 50.0)
        self.assertEqual(ledger.supported_percentile(20, 50.0), 50.0)
        self.assertIsNone(ledger.supported_percentile(19, 50.0))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(ledger.percentile(values, 50.0), 50)
        self.assertEqual(ledger.percentile(values, 99.0), 99)
        self.assertEqual(ledger.percentile(values, 90.0), 90)

    def test_failed_request_misses_every_percentile(self):
        requests = [[0, 64, 0.001]] * 999 + [[0, 64, -1.0]]
        raw = {"samples": {}, "values": {}, "attempted": 1000, "failed": 1,
               "requests": requests}
        e2e, notes = ledger.end_to_end(raw)
        self.assertEqual(notes["serve_p99_ms"], 99.0)
        self.assertAlmostEqual(e2e["serve_p99_ms"], 1.0)
        raw["requests"] = [[0, 64, 0.001]] * 985 + [[0, 64, -1.0]] * 15
        e2e, _ = ledger.end_to_end(raw)
        self.assertEqual(e2e["serve_p99_ms"], ledger.MISSED_MS)
        self.assertAlmostEqual(e2e["success_rate"], 0.999)

    def test_median_over_passes(self):
        # Three passes of 1000 requests; the slow one sets neither value.
        requests = []
        for index, scale in ((0, 1.0), (1, 3.0), (2, 1.2)):
            requests += [[index, 64, scale * (k + 1) / 1e6]
                         for k in range(1000)]
        raw = {"samples": {"serve.pass_rows": [10.0, 10.0, 10.0],
                           "serve.pass_s": [1.0, 5.0, 2.0]},
               "values": {}, "attempted": 3000, "failed": 0,
               "requests": requests}
        e2e, notes = ledger.end_to_end(raw)
        self.assertEqual(notes["serve_passes"], 3)
        self.assertEqual(notes["serve_samples"], 3000)
        self.assertAlmostEqual(e2e["serve_p99_ms"], 1.2 * 990 / 1e3)
        self.assertAlmostEqual(e2e["serve_rows_per_s"], 5.0)

    def test_p50_pools_every_pass(self):
        # Pass 0 answers in 1..1000 us, passes 1 and 2 in 1001..2000 us. The
        # median of the passes' p50s would be 1500 us; the pooled p50 is the
        # 1500th of the 3000 latencies.
        requests = [[0, 64, (k + 1) / 1e6] for k in range(1000)]
        for index in (1, 2):
            requests += [[index, 64, (k + 1001) / 1e6] for k in range(1000)]
        raw = {"samples": {}, "values": {}, "attempted": 3000, "failed": 0,
               "requests": requests}
        e2e, notes = ledger.end_to_end(raw)
        self.assertEqual(notes["serve_p50_ms"], 50.0)
        self.assertAlmostEqual(e2e["serve_p50_ms"], 1250 / 1e3)
        self.assertAlmostEqual(e2e["serve_p99_ms"], 1990 / 1e3)


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_children(self):
        spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "fi", 10, 60),      # children cover 10 + 15
            span(3, 2, "sim", 20, 30),
            span(4, 2, "sim", 35, 50),
            span(5, 1, "ml", 70, 90),      # child covers 5
            span(6, 5, "core", 80, 85),
        ]
        by_layer, root_self, wall = ledger.self_times(spans)
        self.assertAlmostEqual(by_layer["fi"] * 1e6, 25)
        self.assertAlmostEqual(by_layer["sim"] * 1e6, 25)
        self.assertAlmostEqual(by_layer["ml"] * 1e6, 15)
        self.assertAlmostEqual(by_layer["core"] * 1e6, 5)
        self.assertAlmostEqual(root_self * 1e6, 30)
        self.assertAlmostEqual(wall * 1e6, 100)
        self.assertAlmostEqual(sum(by_layer.values()) + root_self, wall)

    def test_concurrent_spans_are_not_subtracted(self):
        spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "net", 0, 80),
            span(3, 2, "net", 5, 75, concurrent=1),  # a worker thread
        ]
        by_layer, root_self, wall = ledger.self_times(spans)
        self.assertAlmostEqual(by_layer["net"] * 1e6, 80)
        self.assertAlmostEqual(root_self * 1e6, 20)
        self.assertTrue(math.isclose(sum(by_layer.values()) + root_self, wall))


class Declaration(unittest.TestCase):
    def test_benchmark_json_declares_the_reported_metrics(self):
        path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
        declared = json.loads(path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            list(ledger.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            list(ledger.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
