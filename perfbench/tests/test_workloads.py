"""The seeded generator reproduces the same inputs for a seed."""

import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                self.assertEqual(
                    workloads.scenario_yaml(workload, 7, size),
                    workloads.scenario_yaml(workload, 7, size))
        self.assertEqual(workloads.request_stream_text(7),
                         workloads.request_stream_text(7))

    def test_seed_moves_streams_not_sizes(self):
        a = workloads.scenario_yaml("campaign", 1)
        b = workloads.scenario_yaml("campaign", 2)
        self.assertNotEqual(a, b)
        strip = [line for line in a.splitlines() if "seed" not in line]
        self.assertEqual(
            strip, [line for line in b.splitlines() if "seed" not in line])
        self.assertEqual(workloads.scenario_yaml("retrain", 1),
                         workloads.scenario_yaml("retrain", 2))
        self.assertNotEqual(workloads.request_stream(1),
                            workloads.request_stream(2))
        self.assertEqual(
            sorted(r for _, r, _, _ in workloads.request_stream(1)),
            sorted(r for _, r, _, _ in workloads.request_stream(2)))

    def test_request_classes_per_connection(self):
        stream = workloads.request_stream(3)
        per_conn = workloads.SIZES["full"]["requests_per_connection"]
        for conn in range(workloads.SERVE_CONNECTIONS):
            counts = Counter(r for c, r, _, _ in stream if c == conn)
            self.assertEqual(sum(counts.values()), per_conn)
            for rows, share in workloads.REQUEST_CLASSES:
                self.assertEqual(counts[rows], round(per_conn * share))
            sizes = [r for c, r, _, _ in stream if c == conn]
            block = workloads.BLOCK_REQUESTS
            for start in range(0, per_conn, block):
                self.assertEqual(sizes[start:start + block].count(4096), 1)
        self.assertTrue(all(s % 2 == 1 for _, _, _, s in stream))

    def test_campaign_serve_fleet_share_a_scenario(self):
        self.assertEqual(workloads.scenario_yaml("campaign", 5),
                         workloads.scenario_yaml("fleet", 5))
        self.assertEqual(workloads.scenario_yaml("campaign", 5),
                         workloads.scenario_yaml("serve", 5))
        self.assertIn("grid_search: true",
                      workloads.scenario_yaml("retrain", 5))


if __name__ == "__main__":
    unittest.main()
