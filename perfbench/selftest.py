"""Self-tests of the benchmark, at toy sizes.

    python3 perfbench/selftest.py

Each workload runs at toy size, traced and untraced.  The tests check that
every metric of BENCHMARK.json appears with its unit, that a corrupted
certificate or a non-maximum exact answer counts as a failed op and a
wrong answer, that an op over the per-op limit, or one that raises,
scores twice the limit, that op times scale by the nearest reference
slices, and that the median and the tail take each op's median score.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import run  # noqa: E402
import spans  # noqa: E402
from induced_trees import finders, oracle  # noqa: E402
from workloads import WORKLOADS, Checked, Op, Workload  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKDIR = HERE.parent / ".perfbench-work" / f"selftest-{os.getpid()}"


def toy_run(workload: Workload, trace: bool = False):
    return run.run(workload, 1, 0.0, trace, workload.toy, WORKDIR)


def corrupted(find):
    """A finder whose certificates gain a vertex the graph does not have."""
    def wrapper(g, v, *rest):
        cert = find(g, v, *rest)
        return dataclasses.replace(cert, vertices=cert.vertices | {g.n})
    return wrapper


def fake_workload(calls, limit_s=0.05) -> Workload:
    def ops(_inputs):
        for idx, call in enumerate(calls):
            yield Op(f"fake#{idx}", call, lambda value: Checked(None, json.dumps(value)))
    return Workload("fake", limit_s, lambda *a: {}, ops)


def spin(seconds):
    def call():
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return seconds
    return call


class MetricsNamedWithUnits(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for name in (w["name"] for w in BENCH["workloads"]):
            for trace, group in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    stamp, result = toy_run(WORKLOADS[name], trace)
                    self.assertTrue(result["correct"], stamp["errors"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_tracer_restores_the_package(self):
        original = finders.find_tree_triangle_free
        toy_run(WORKLOADS["tf-layered"], trace=True)
        self.assertIs(finders.find_tree_triangle_free, original)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            self.assertIsNot(finders.find_tree_triangle_free, original)
        finally:
            tracer.uninstall()
        self.assertIs(finders.find_tree_triangle_free, original)

    def test_trace_counts_the_recursion(self):
        _, result = toy_run(WORKLOADS["tf-sparse-deep"], trace=True)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["finders.recursion.max_depth"], 1)
        self.assertEqual(metrics["finders.recursion.calls"],
                         metrics["graph.component_masks.calls"])
        self.assertGreater(metrics["trace.overhead_ratio"], 0)


class CorruptedCertificates(unittest.TestCase):
    def assert_all_wrong(self, workload, kind):
        stamp, result = toy_run(workload)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(list(stamp["failures"]), [kind])

    def test_finder_certificate(self):
        find = finders.find_tree_triangle_free
        with mock.patch.object(finders, "find_tree_triangle_free", corrupted(find)):
            self.assert_all_wrong(WORKLOADS["tf-layered"], "verification")

    def test_check_does_not_trust_the_package_verifier(self):
        find = finders.find_tree_kr_free
        with mock.patch.object(finders, "find_tree_kr_free", corrupted(find)), \
                mock.patch.object(finders, "verify_certificate", lambda g, c: True):
            self.assert_all_wrong(WORKLOADS["kr-mixed"], "verification")

    def test_cli_report(self):
        find = finders.find_tree_triangle_free
        with mock.patch.object(finders, "find_tree_triangle_free", corrupted(find)):
            self.assert_all_wrong(WORKLOADS["tf-sparse-deep"], "cli-exit-1")

    def test_exact_maximum_that_is_not_maximum(self):
        def one_vertex(g, budget):
            return 1, frozenset({0})
        with mock.patch.object(oracle, "max_induced_tree_exact", one_vertex):
            stamp, result = toy_run(WORKLOADS["exact-desk"])
        self.assertFalse(result["correct"])
        self.assertEqual(stamp["failures"]["oracle"], 6)  # two grid graphs, ms_layered(2..5)


class Scoring(unittest.TestCase):
    def test_op_over_limit_scores_twice_the_limit(self):
        workload = fake_workload([spin(0.0), spin(0.5)], limit_s=0.05)
        res = run.run_pass(workload, {})
        self.assertEqual(res.failures, [None, "timeout"])
        self.assertEqual(res.scores_ms[1], 100.0)
        self.assertLess(res.scores_ms[0], 50.0)

    def test_pass_count_ends_nearest_to_the_run_length(self):
        self.assertTrue(run.more_passes(12.0, 2, 20))    # a third pass ends at 18
        self.assertFalse(run.more_passes(19.0, 2, 20))   # 28.5 is farther than 19
        self.assertTrue(run.more_passes(18.0, 9, 20))    # a tenth pass ends at 20
        self.assertFalse(run.more_passes(20.0, 10, 20))

    def test_op_time_scales_by_the_nearest_reference_slices(self):
        speed = run.HostSpeed()
        speed.starts_ns = [i * 10**6 for i in range(30)]
        speed.slices_ns = [3 * 10**6] * 15 + [15 * 10**5] * 15  # half speed, then reference speed
        self.assertEqual(speed.factor(0), 0.5)
        self.assertEqual(speed.factor(29 * 10**6), 1.0)

    def test_median_and_tail_take_each_ops_median(self):
        passes = []
        for slow in (False, False, True):
            res = run.PassResult()
            res.scores_ms = [float(i) for i in range(1, 21)]
            res.failures = [None] * 20
            if slow:
                res.scores_ms[0] = 1000.0  # one slow pass of op 0
            passes.append(res)
        metrics = run.end_to_end(passes, [1.0])
        self.assertEqual(metrics["op_tail_ms"], 15.0)  # five ops above it
        self.assertEqual(metrics["op_p50_ms"], 10.5)

    def test_exception_is_a_failure_not_a_wrong_answer(self):
        def deep(k=0):
            return deep(k + 1)
        stamp, result = run.run(fake_workload([deep, spin(0.0)]), 1, 0, False, {}, WORKDIR)
        self.assertTrue(result["correct"])
        self.assertEqual((result["failed"], result["attempted"]), (2, 4))  # two passes
        self.assertEqual(stamp["failures"], {"exception:RecursionError": 1})
        self.assertEqual(stamp["recursion_limit"], run.DEFAULT_RECURSION_LIMIT)
        self.assertAlmostEqual(result["metrics"]["ok_ratio"]["value"], 0.5)


def setUpModule():
    signal.signal(signal.SIGALRM, run._Alarm.fire)
    WORKDIR.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
