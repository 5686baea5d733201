"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that two traced runs give identical counters, and that the
benchmark refuses to run without the rinehart sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("algebra", "kernel", "grid")


def bench(workload: str, trace: int, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    return proc


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.doc = json.load(fh)

    def assert_metrics(self, res: dict, section: str):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {e["name"]: e["unit"] for e in self.doc[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for v in res["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(workload, 0)
                self.assert_metrics(res, "end_to_end")
                for v in res["metrics"].values():
                    self.assertGreater(v["value"], 0)

    def test_traced_counters_repeat(self):
        layers = {}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = result(workload, 1), result(workload, 1)
                self.assert_metrics(first, "per_layer")
                self.assert_metrics(second, "per_layer")
                counters = {k: v["value"] for k, v in first["metrics"].items()
                            if v["unit"] != "s"}
                again = {k: v["value"] for k, v in second["metrics"].items()
                         if v["unit"] != "s"}
                self.assertEqual(counters, again)
                self.assertEqual(counters["scalars.float_results"], 0)
                layers[workload] = counters
        self.assertEqual(layers["kernel"]["tensorqp.omega_extract.calls"], 3)
        self.assertEqual(layers["kernel"]["tensorqp.omega_extract.distinct"], 1)
        self.assertEqual(layers["algebra"]["linalg.rref.calls"], 0)
        self.assertGreater(layers["algebra"]["superpoly.mul.calls"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("algebra", 0, root=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
