#!/usr/bin/env python3
"""Toy-size self-test of the benchmark driver.

    python3 perfbench/test_perfbench.py        # from the repository root

Runs every workload at toy sizes (--toy: a 21-day paper trace, a 14-day
ingest world, 0.1 s ladder steps) untraced and traced through run.py, and
asserts that each run is correct and prints every metric BENCHMARK.json
names for it, with its unit and a finite value; then runs compare.py on the
recorded results. Takes about a minute after the driver is built.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("offline-paper", "serve-paper", "ingest-live")


class ToyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        build_root = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        cls.record = tempfile.mkdtemp(prefix="selftest-", dir=build_root)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.record, ignore_errors=True)

    def run_toy(self, workload, trace, seed=3):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", "1", "--trace",
             str(trace), "--toy", "--record", self.record],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if "bound" in m:  # End-to-end metrics are never 0.
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check_result(self.run_toy(workload, 0),
                                  self.spec["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check_result(self.run_toy(workload, 1),
                                  self.spec["per_layer"])
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), self.record,
             self.record], stdout=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0)
        for workload in WORKLOADS:
            self.assertIn(f"== {workload}", proc.stdout)


if __name__ == "__main__":
    unittest.main()
