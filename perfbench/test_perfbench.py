#!/usr/bin/env python3
"""Tests of the benchmark itself, on the short mode of each workload.

    python3 perfbench/test_perfbench.py

They build the benchmark (as perfbench/run.py does), check that every
metric is printed by name, that BENCHMARK.json and the code agree on the
metric set, and that a wrong pinned digest counts as a failed operation.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args):
    """Run perfbench/run.py in short mode; returns (rc, stdout, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--short",
           "--seconds", "0.3", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout, result


class DefinitionTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            self.layers = json.load(f)

    def test_metric_sets_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_layers_json_maps_every_per_layer_metric_once(self):
        mapped = [m for layer in self.layers["layers"] for m in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(run.PER_LAYER))
        self.assertEqual(set(self.layers["workloads"]), set(run.WORKLOADS))
        for layer in self.layers["layers"]:
            for metric, workloads in layer["moves"].items():
                self.assertIn(metric, run.END_TO_END)
                self.assertTrue(set(workloads) <= set(run.WORKLOADS))


class CompareTest(unittest.TestCase):
    def compare(self, before_fp, after_fp):
        def result(fp):
            return {"fingerprint": fp, "results": [
                {"workload": "city_100k",
                 "metrics": {"cpu_s": {"value": 6.0, "unit": "s"}}}]}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, fp in (("before", before_fp), ("after", after_fp)):
                paths.append(os.path.join(tmp, name + ".json"))
                with open(paths[-1], "w") as f:
                    json.dump(result(fp), f)
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--before", paths[0], "--after", paths[1]],
                capture_output=True, text=True)

    def test_same_host_is_compared(self):
        fp = {"cpu_model": "x", "nproc": 4}
        proc = self.compare(fp, fp)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("cpu_s", proc.stdout)

    def test_different_hosts_are_refused(self):
        proc = self.compare({"cpu_model": "x", "nproc": 4},
                            {"cpu_model": "x", "nproc": 1})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("refused", proc.stderr)


class ShortRunTest(unittest.TestCase):
    def test_every_end_to_end_metric_is_printed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, out, result = bench("--workload", w, "--trace", "0")
                self.assertEqual(rc, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for name, unit in run.END_TO_END.items():
                    self.assertRegex(out, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}\n")
                    self.assertGreater(result["metrics"][name]["value"], 0)
                self.assertIn("error_rate", out)

    def test_every_per_layer_metric_is_printed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, out, result = bench("--workload", w, "--trace", "1")
                self.assertEqual(rc, 0, out)
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                for name in run.PER_LAYER:
                    self.assertRegex(out, rf"\n  {re.escape(name)} +\S")
                coverage = result["metrics"]["trace.span_coverage_pct"]["value"]
                self.assertGreater(coverage, 95.0)

    def test_wrong_pinned_digest_is_a_failed_operation(self):
        with open(os.path.join(HERE, "pinned.json")) as f:
            pinned = json.load(f)
        pinned["venue_campaign/short"]["runs"][5] = "0123456789abcdef"
        pinned["city_100k/short"]["digest"] = "0123456789abcdef"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pinned.json")
            with open(path, "w") as f:
                json.dump(pinned, f)
            for w in ("venue_campaign", "city_100k"):
                with self.subTest(workload=w):
                    rc, out, result = bench("--workload", w, "--pinned", path)
                    self.assertNotEqual(rc, 0)
                    self.assertFalse(result["correct"])
                    # Exactly one operation per cycle is wrong: run 5 of
                    # the first of the 6 draws of the mix, or the city run
                    # itself.
                    per_cycle = 6 * 48 if w == "venue_campaign" else 1
                    self.assertEqual(result["failed"],
                                     result["attempted"] // per_cycle)
                    self.assertIn("MISMATCH", out)

    def test_other_seed_is_checked_against_its_serial_reference(self):
        rc, out, result = bench("--workload", "venue_campaign", "--seed", "7")
        self.assertEqual(rc, 0, out)
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
