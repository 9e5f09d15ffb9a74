#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does), then runs every workload of
BENCHMARK.json at tiny size with a seed the timings are not tuned on,
in both modes. It checks that every end-to-end (--trace 0) or per-layer
(--trace 1) metric is emitted exactly once, with its declared unit and
a finite value, and that every host-time metric is positive; that every
job passes (ok_frac is 1); that the simulated-output digest repeats
across invocations; and that the benchmark refuses to run, without
printing a result, where src/ is absent.
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
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SEED = "7"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads(spec):
    return [w["name"] for w in spec["workloads"]]


# Host-time per-layer metrics: each must be positive, since a zero means
# its span or clock never recorded anything.
HOST_TIME_UNITS = {"ns", "accesses/s"}
HOST_TIME_RATIOS = {"system.construct_frac", "shard.wall_max_over_mean",
                    "shard.busy_frac", "tracing.overhead", "tracing.coverage"}


def invoke(workload, trace, seed=SEED):
    """Run the built binary at tiny size; returns (stdout, code, stderr)."""
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", seed,
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    return proc.stdout.strip().splitlines(), proc.returncode, proc.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.spec = load_spec()

    def check_metrics(self, workload, trace, declared):
        lines, code, stderr = invoke(workload, trace)
        self.assertEqual(code, 0, stderr)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return metrics

    def test_end_to_end_metrics_on_every_workload(self):
        for name in workloads(self.spec):
            with self.subTest(workload=name):
                metrics = self.check_metrics(name, 0,
                                             self.spec["end_to_end"])
                # fail_frac = 1 - ok_frac must be 0 on the current code.
                self.assertEqual(metrics["ok_frac"]["value"], 1)
                for metric in ("accesses_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(metrics[metric]["value"], 0, metric)

    def test_per_layer_metrics_on_every_workload(self):
        for name in workloads(self.spec):
            with self.subTest(workload=name):
                metrics = self.check_metrics(name, 1, self.spec["per_layer"])
                for m in self.spec["per_layer"]:
                    if (m["unit"] in HOST_TIME_UNITS
                            or m["name"] in HOST_TIME_RATIOS):
                        self.assertGreater(metrics[m["name"]]["value"], 0,
                                           m["name"])

    def test_digest_repeats_across_invocations(self):
        digests = []
        for _ in range(2):
            lines, code, stderr = invoke("functional-warmup", 1)
            self.assertEqual(code, 0, stderr)
            digests.append([l for l in lines if " digest " in l])
        self.assertEqual(len(digests[0]), 1)
        self.assertEqual(digests[0], digests[1])

    def test_refuses_without_sources(self):
        os.makedirs(run.BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "detailed-mix", "--seed", SEED, "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
