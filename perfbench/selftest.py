"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-built spans, that a traced function
returns exactly what the original returns, that a one-second run of every
workload emits every metric BENCHMARK.json names with its unit, and that the
benchmark fails without printing a result when the package is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from bqrnet import losses, network, smoothing  # noqa: E402

from tracing import Tracer, covered_ns, self_times_ns  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # root [0, 100] has children a [10, 30] and b [25, 50], which overlap
        # by 5; a has child c [12, 20]; d [60, 70] is a second root.
        spans = [["root", 0, 100, -1, 0], ["a", 10, 30, 0, 0],
                 ["b", 25, 50, 0, 0], ["c", 12, 20, 1, 0],
                 ["d", 60, 70, -1, 0]]
        self.assertEqual(self_times_ns(spans), [60, 12, 25, 8, 10])

    def test_children_clipped_to_parent(self):
        self.assertEqual(covered_ns([(5, 15), (18, 30)], 10, 20), 7)
        self.assertEqual(covered_ns([], 0, 10), 0)


class Wrapping(unittest.TestCase):
    def test_wrapped_returns_exactly_what_original_returns(self):
        grid = network.TauGrid.default()
        net = network.init_net(1, [8, 8], grid, seed=0)
        x = np.linspace(-1, 1, 17)[:, None]
        y = (x[:, 0] > 0).astype(float)
        z = network.forward(net, x)
        spec = losses.LossSpec(grid, lam=1.0)
        tracer = Tracer()
        cases = [(losses.total_loss, (y, z, spec)),
                 (network.forward, (net, x)),
                 (smoothing.delta_score, (z[3], grid)),
                 (smoothing.prediction_interval, (z[5], grid, 0.5))]
        for fn, args in cases:
            want = fn(*args)
            got = tracer.wrap(fn.__name__, fn)(*args)
            self.assertEqual(type(got), type(want))
            if isinstance(want, np.ndarray):
                self.assertEqual(got.dtype, want.dtype)
                np.testing.assert_array_equal(got, want)
            else:
                self.assertEqual(got, want)
        self.assertEqual([s[0] for s in tracer.spans],
                         [fn.__name__ for fn, _ in cases])

    def test_exceptions_pass_through_and_install_is_undone(self):
        orig = smoothing.delta_score
        tracer = Tracer()
        with tracer.installed([(smoothing, "delta_score", "d", None)]):
            self.assertIsNot(smoothing.delta_score, orig)
            with self.assertRaises(ValueError):
                smoothing.delta_score(np.zeros(3), network.TauGrid.default())
        self.assertIs(smoothing.delta_score, orig)
        self.assertEqual(len(tracer.spans), 1)
        self.assertGreater(tracer.spans[0][2], 0)


class Smoke(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        sections = {0: MANIFEST["end_to_end"], 1: MANIFEST["per_layer"]}
        for wl in MANIFEST["workloads"]:
            for trace, section in sections.items():
                with self.subTest(workload=wl["name"], trace=trace):
                    proc = run_bench(wl["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in section})

    def test_fails_without_the_package(self):
        bare = HERE / "out" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench(MANIFEST["workloads"][0]["name"], 0, cwd=bare,
                             script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
