"""Tiny-size run of every workload through run.py, untraced and traced:
each must pass its output checks and report every metric."""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import ledger  # noqa: E402
import workloads  # noqa: E402

RUN = HERE.parent / "run.py"


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload(self):
        for workload in workloads.WORKLOADS:
            for trace, metrics in ((0, ledger.END_TO_END),
                                   (1, ledger.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {name for name, _ in metrics})


if __name__ == "__main__":
    unittest.main()
