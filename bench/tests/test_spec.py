"""BENCHMARK.json names what run.py prints."""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_names_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], list(run.PER_LAYER))

    def test_limits(self):
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        for workload in self.spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertLessEqual(len(json.dumps(self.spec)), 64 * 1024)


if __name__ == "__main__":
    unittest.main()
