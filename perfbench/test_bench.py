#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json is well formed, and the
smoke mode runs every workload at a tiny size with the output schema and
every correctness gate checked.

    python3 perfbench/test_bench.py          # from the root of a checkout
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        for path in self.spec["paths"]:
            self.assertTrue((ROOT / path).is_dir(), path)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["compress-hcci", "stream-append",
                                 "serve-zipf"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(set(e2e), {
            "setup_s", "peak_rss_mb", "compress_s", "compression_ratio",
            "stream_steps_per_s", "query_qps", "query_p50_us",
            "query_p99_us"})
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]),
                         ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        all_names = [m["name"] for m in self.spec["end_to_end"] +
                     self.spec["per_layer"]] + [
                         w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(all_names), len(set(all_names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(proc.stdout.count(": ok"), 6, proc.stdout)


if __name__ == "__main__":
    unittest.main()
