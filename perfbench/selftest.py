"""Self-tests of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few seconds.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402

worker.load_dsumm()

import dsumm  # noqa: E402
import goldens  # noqa: E402
import tracer as tracing  # noqa: E402
from jobs import DEFAULT_SEED, Job, jobs_for  # noqa: E402

# Names the package imports into other modules; each binding must be wrapped.
SHARED_BINDINGS = {
    "padded_prefix": ("seqcore", "convergence", "classcheck", "battery"),
    "window_sum_table": ("seqcore", "convergence", "classcheck", "battery"),
    "window_mean": ("seqcore", "convergence", None),
    "check_cbp_regular": ("classcheck", "cli", "battery", None),
    "check_strongly_regular": ("classcheck", "cli", "battery", None),
    "check_strong_to_bp": ("classcheck", "cli", "battery", None),
    "check_B_domain_class": ("classcheck", "cli", None),
    "dual_membership": ("classcheck", "cli", "battery", None),
    "beta_dual_report": ("classcheck", "cli", "battery", None),
    "gamma_dual_report": ("classcheck", "cli", "battery", None),
}
METHODS = (
    (dsumm.DoubleSequence, "__call__"),
    (dsumm.DoubleSequence, "grid"),
    (dsumm.FourDimMatrix, "__call__"),
    (dsumm.FourDimMatrix, "block4"),
    (dsumm.FourDimMatrix, "row_block"),
)


def _module(short):
    return sys.modules["dsumm" if short is None else f"dsumm.{short}"]


def _run(job):
    with tempfile.TemporaryDirectory() as tmp:
        paths = worker.write_configs([job], tmp)
        return worker.run_job(job, paths[job.job_id])


class GoldenCheck(unittest.TestCase):
    def setUp(self):
        self.jobs = jobs_for("battery", DEFAULT_SEED)
        self.checker = worker.Checker("battery", default_seed=True)
        self.job = self.jobs[0]
        self.golden = self.checker.table[self.job.job_id]

    def test_matching_output_passes(self):
        run = worker.Run(self.golden["exit"], self.golden["stdout"], 0.0)
        self.checker.check(self.job, run, "pass 1")
        self.assertEqual(self.checker.failures, [])

    def test_corrupted_stdout_is_a_named_failure(self):
        bad = self.golden["stdout"].replace("PASS", "PASX", 1)
        self.checker.check(self.job, worker.Run(self.golden["exit"], bad, 0.0), "pass 1")
        self.assertEqual(len(self.checker.failures), 1)
        self.assertIn(self.job.job_id, self.checker.failures[0])
        self.assertIn("line 2", self.checker.failures[0])

    def test_wrong_exit_code_is_a_failure(self):
        run = worker.Run(0, self.golden["stdout"], 0.0)
        self.checker.check(self.job, run, "pass 1")
        self.assertEqual(len(self.checker.failures), 1)

    def test_rerun_that_differs_is_a_failure(self):
        checker = worker.Checker("battery", default_seed=False)
        other = Job("battery/x", ("battery", "--seed", "7"), None, 1)
        checker.check(other, worker.Run(1, "a\n", 0.0), "pass 1")
        checker.check(other, worker.Run(1, "a\n", 0.0), "pass 2")
        self.assertEqual(checker.failures, [])
        checker.check(other, worker.Run(1, "b\n", 0.0), "pass 3")
        self.assertEqual(len(checker.failures), 1)
        self.assertIn("differs from the first pass", checker.failures[0])

    def test_missing_golden_fails_only_at_the_default_seed(self):
        other = Job("battery/x", ("battery", "--seed", "7"), None, 1)
        self.checker.check(other, worker.Run(1, "a\n", 0.0), "pass 1")
        self.assertEqual(len(self.checker.failures), 1)
        lenient = worker.Checker("battery", default_seed=False)
        lenient.check(other, worker.Run(1, "a\n", 0.0), "pass 1")
        self.assertEqual(lenient.failures, [])

    def test_worker_self_test_passes_on_real_goldens(self):
        self.assertIsNone(self.checker.self_test(self.jobs))

    def test_golden_applies_only_to_identical_config(self):
        job = jobs_for("kernels", DEFAULT_SEED)[0]
        table = goldens.load("kernels")
        self.assertTrue(goldens.applies(table[job.job_id], job))
        changed = Job(job.job_id, job.argv, job.config + "\n", job.expected_exit)
        self.assertFalse(goldens.applies(table[job.job_id], changed))


class Tracing(unittest.TestCase):
    def test_untraced_run_installs_no_wrapper(self):
        originals = {(c, n): vars(c)[n] for c, n in METHODS}
        self.assertEqual(tracing.installed_wrappers(), [])
        run = _run(jobs_for("sequences", DEFAULT_SEED)[0])
        self.assertEqual(run.error, "")
        self.assertEqual(tracing.installed_wrappers(), [])
        for (cls, name), fn in originals.items():
            self.assertIs(vars(cls)[name], fn)

    def test_every_binding_is_wrapped_and_restored(self):
        before = {(s, name): getattr(_module(s), name)
                  for name, mods in SHARED_BINDINGS.items() for s in mods}
        methods = {(c, n): vars(c)[n] for c, n in METHODS}
        with tracing.Tracer():
            for (short, name), original in before.items():
                bound = getattr(_module(short), name)
                self.assertTrue(tracing.is_wrapper(bound), f"{short}.{name}")
                self.assertIs(getattr(bound, "__perfbench_original__"), original)
            for cls, name in METHODS:
                self.assertTrue(tracing.is_wrapper(vars(cls)[name]), f"{cls.__name__}.{name}")
        for (short, name), original in before.items():
            self.assertIs(getattr(_module(short), name), original)
        for (cls, name), fn in methods.items():
            self.assertIs(vars(cls)[name], fn)
        self.assertEqual(tracing.installed_wrappers(), [])

    def test_traced_battery_job_counts_every_layer_it_touches(self):
        job = jobs_for("battery", DEFAULT_SEED)[0]
        with tracing.Tracer() as tr:
            tr.job = job.job_id
            run = _run(job)
        self.assertEqual(run.stdout, goldens.load("battery")[job.job_id]["stdout"])
        touched = (
            "cli.main", "battery.run_all", "seqcore.scalar", "seqcore.window_mean",
            "seqcore.grid", "seqcore.window_table", "seqcore.norm", "convergence.verdict",
            "matrix4d.block4", "matrix4d.row_block", "matrix4d.apply",
            "classcheck.suite", "classcheck.dual",
        )
        for boundary in touched:
            self.assertGreater(tr.calls.get(boundary, 0), 0, boundary)
            self.assertGreater(tr.self_s.get(boundary, 0.0), 0.0, boundary)
        self.assertEqual(tr.calls["cli.main"], 1)
        self.assertGreater(tr.grid_cells, 0)
        self.assertGreater(tr.block4_bytes, 0)
        roots = [s for s in tr.spans if s.parent is None]
        self.assertEqual([s.name for s in roots], ["cli.main"])
        self.assertTrue(all(s.job == job.job_id for s in tr.spans))

    def test_self_times_partition_the_job(self):
        job = jobs_for("sequences", DEFAULT_SEED)[0]
        with tracing.Tracer() as tr:
            _run(job)
        root = tr.spans[0]
        self.assertEqual(root.name, "cli.main")
        self.assertAlmostEqual(sum(tr.self_s.values()), root.end - root.start, delta=1e-6)

    def test_recursive_eval_counts_only_the_outer_call(self):
        job = next(j for j in jobs_for("sequences", DEFAULT_SEED) if j.job_id == "verdict/expr2/Mu")
        with tracing.Tracer() as tr:
            run = _run(job)
        self.assertEqual(run.error, "")
        self.assertEqual(tr.calls["expr.eval"], 1)


if __name__ == "__main__":
    unittest.main()
