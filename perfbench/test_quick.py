#!/usr/bin/env python3
"""Quick-mode self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/test_quick.py

Runs every workload of BENCHMARK.json briefly (run.py --quick), plain
and traced, and asserts that each prints every metric BENCHMARK.json
names, with its unit, and passes its correctness checks. It also
asserts that unknown workloads and malformed seeds or arguments are
rejected with exit status 2 and no result line. Takes a few minutes
(the first run builds the driver).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)


class SpecMatchesCode(unittest.TestCase):
    def test_names_and_units(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER_UNITS)


class QuickRuns(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        proc = bench("--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", trace, "--quick")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({name: m["unit"]
                          for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in expected})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, "0", SPEC["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, "1", SPEC["per_layer"])


class Rejections(unittest.TestCase):
    GOOD = {"--workload": "belle2-paper", "--seed": "1", "--seconds": "1",
            "--trace": "0"}

    def assert_rejected(self, **overrides):
        args = dict(self.GOOD)
        args.update(overrides)
        argv = [x for k, v in args.items() if v is not None for x in (k, v)]
        proc = bench(*argv)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_bad_arguments(self):
        cases = [{"--workload": "belle3"}, {"--workload": ""},
                 {"--seed": "abc"}, {"--seed": "-1"}, {"--seed": "1.5"},
                 {"--seed": ""}, {"--seconds": "abc"}, {"--seconds": "0"},
                 {"--seconds": "2.5"}, {"--trace": "2"}, {"--trace": "yes"},
                 {"--seed": None}, {"--workload": None}]
        for case in cases:
            with self.subTest(case=case):
                self.assert_rejected(**case)


if __name__ == "__main__":
    unittest.main()
