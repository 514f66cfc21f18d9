"""One workload in one fresh process: write the configs, run the jobs, check them.

Started by run.py, once per setup sample with `--setup-only` and once for
the measured run.  Each job is one in-process call of `dsumm.cli.main` with
stdout and stderr captured.  Jobs run in a fixed order in a single thread
(a closed loop with one client).  The result goes to `--result` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median

import goldens

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS threads are pinned: a threaded matmul competes for the few cores
# with everything else on the machine and adds scheduler noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The tail percentile needs ten samples beyond it, so p50 needs twenty in
# all; two passes at least, so every job's stdout is compared across reruns.
MIN_SAMPLES = 20
MIN_PASSES = 2
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_dsumm():
    """Import dsumm from this checkout's src/ with BLAS pinned to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "dsumm", "__init__.py")):
        raise SystemExit(f"no dsumm sources under {SRC}")
    sys.path.insert(0, SRC)
    import dsumm
    import dsumm.cli

    where = os.path.dirname(os.path.abspath(dsumm.__file__))
    if where != os.path.join(SRC, "dsumm"):
        raise SystemExit(f"imported dsumm from {where}, not from {SRC}")
    return dsumm


@dataclass
class Run:
    exit: int
    stdout: str
    seconds: float
    error: str = ""


def run_job(job, config_path) -> Run:
    import dsumm.cli

    argv = list(job.argv) + (["--config", config_path] if config_path else [])
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = dsumm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    if not error and code != job.expected_exit:
        error = f"stderr: {err.getvalue().strip()[:300]}"
    return Run(code, out.getvalue(), seconds, error)


def write_configs(jobs, workdir) -> dict:
    """Write each job's config file; return job id -> path (None for `battery`).

    Files are rewritten in place rather than truncated or recreated: on a
    journalling file system, creating a few hundred files takes from 3 to
    60 ms depending on the journal's state, which would swamp the set-up
    time of the program itself.  run.py creates the files once per run.
    """
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for i, job in enumerate(jobs):
        if job.config is None:
            paths[job.job_id] = None
            continue
        path = os.path.join(workdir, f"{i:03d}.ini")
        data = job.config.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        paths[job.job_id] = path
    return paths


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(n_min: int) -> float:
    """Highest listed percentile with at least ten samples beyond it among n_min."""
    for pct in PERCENTILES:
        if n_min - max(1, math.ceil(pct / 100.0 * n_min)) >= 10:
            return pct
    raise ValueError(f"{n_min} samples leave no percentile with ten beyond it")


class Checker:
    """Counts failed job executions: raised, wrong exit code, golden or rerun mismatch."""

    def __init__(self, workload, default_seed: bool):
        self.table = goldens.load(workload)
        self.default_seed = default_seed
        self.first = {}
        self.attempted = 0
        self.failures = []

    def check(self, job, run: Run, phase: str):
        self.attempted += 1
        reason = run.error and f"{job.job_id}: {run.error}"
        golden = self.table.get(job.job_id)
        if not reason and goldens.applies(golden, job):
            reason = goldens.mismatch(job, run.exit, run.stdout, golden)
        elif not reason and self.default_seed:
            reason = f"{job.job_id}: no golden output recorded for this job"
        if not reason and job.job_id in self.first:
            if self.first[job.job_id] != run.stdout:
                reason = f"{job.job_id}: {phase} stdout differs from the first pass"
        self.first.setdefault(job.job_id, run.stdout)
        if reason:
            self.failures.append(reason)

    def self_test(self, jobs) -> str | None:
        """Corrupt one stored output and make sure the comparison notices."""
        for job in jobs:
            golden = self.table.get(job.job_id)
            if goldens.applies(golden, job):
                text = golden["stdout"]
                bad = text[:-2] + ("x" if text[-2:-1] != "x" else "y") + text[-1:]
                if goldens.mismatch(job, golden["exit"], bad, golden) is None:
                    return "golden check missed a corrupted stdout"
                if goldens.mismatch(job, golden["exit"] + 1, text, golden) is None:
                    return "golden check missed a wrong exit code"
                return None
        return "no golden applies to any job"


def run_pass(jobs, paths, checker, phase, samples, tracer=None):
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.job_id
        run = run_job(job, paths[job.job_id])
        checker.check(job, run, phase)
        samples.setdefault(job.job_id, []).append(run.seconds)
    return time.perf_counter() - t0


def end_to_end(jobs, samples, pass_s):
    flat = sorted(s for values in samples.values() for s in values)
    n_min = max(len(jobs) * MIN_PASSES, MIN_SAMPLES)
    pct = tail_percentile(n_min)
    tail, beyond = nearest_rank(flat, pct)
    medians = [median(samples[job.job_id]) for job in jobs]
    geomean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    return {
        "jobs_per_s": len(jobs) / median(pass_s),
        "job_p50_ms": 1e3 * nearest_rank(flat, 50.0)[0],
        "job_tail_ms": 1e3 * tail,
        "job_geomean_ms": 1e3 * geomean,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "samples": len(flat),
        "timed_s": sum(pass_s),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "job_median_ms": {job.job_id: 1e3 * median(samples[job.job_id]) for job in jobs},
    }


def layer_metrics(tracer, traced_job_s, traced_elapsed, untraced_rate, root_s):
    calls, self_s = tracer.calls, tracer.self_s
    ms = lambda *names: 1e3 * sum(self_s.get(n, 0.0) for n in names)
    n = lambda *names: sum(calls.get(c, 0) for c in names)
    requests = n("seqcore.grid")
    traced_rate = n("cli.main") / traced_elapsed
    return {
        "seqcore.scalar_calls": n("seqcore.scalar"),
        "seqcore.scalar_ms": ms("seqcore.scalar", "seqcore.window_mean"),
        "seqcore.scalar_share": ms("seqcore.scalar", "seqcore.window_mean") / (1e3 * traced_job_s),
        "seqcore.grid_calls": requests,
        "seqcore.grid_ms": ms("seqcore.grid"),
        "seqcore.grid_cells": tracer.grid_cells,
        "seqcore.grid_hit_ratio": tracer.grid_hits / requests if requests else 0.0,
        "seqcore.window_table_calls": n("seqcore.window_table"),
        "seqcore.window_table_ms": ms("seqcore.window_table"),
        "seqcore.window_table_cells": tracer.window_table_cells,
        "seqcore.norm_calls": n("seqcore.norm"),
        "seqcore.norm_ms": ms("seqcore.norm"),
        "convergence.verdict_calls": n("convergence.verdict"),
        "convergence.verdict_ms": ms("convergence.verdict"),
        "matrix4d.block4_calls": n("matrix4d.block4"),
        "matrix4d.block4_ms": ms("matrix4d.block4"),
        "matrix4d.block4_share": ms("matrix4d.block4") / (1e3 * traced_job_s),
        "matrix4d.block4_bytes": tracer.block4_bytes,
        "matrix4d.block4_max_bytes": tracer.block4_max_bytes,
        "matrix4d.row_block_calls": n("matrix4d.row_block"),
        "matrix4d.row_block_ms": ms("matrix4d.row_block"),
        "matrix4d.entry_calls": n("matrix4d.entry"),
        "matrix4d.entry_ms": ms("matrix4d.entry"),
        "matrix4d.apply_calls": n("matrix4d.apply"),
        "matrix4d.apply_ms": ms("matrix4d.apply"),
        "classcheck.suite_calls": n("classcheck.suite"),
        "classcheck.suite_ms": ms("classcheck.suite"),
        "classcheck.dual_calls": n("classcheck.dual"),
        "classcheck.dual_ms": ms("classcheck.dual"),
        "expr.eval_calls": n("expr.eval"),
        "expr.eval_ms": ms("expr.eval"),
        "cli.self_ms": ms("cli.main"),
        "battery.self_ms": ms("battery.run_all"),
        "trace.overhead_ratio": traced_rate / untraced_rate,
        "trace.unattributed_ms": 1e3 * (traced_job_s - root_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_dsumm()
    import tracer as tracing
    from jobs import DEFAULT_SEED, jobs_for

    jobs = jobs_for(args.workload, args.seed)
    paths = write_configs(jobs, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    checker = Checker(args.workload, args.seed == DEFAULT_SEED)
    self_checks = []
    problem = checker.self_test(jobs)
    if problem:
        self_checks.append(problem)
    if tracing.installed_wrappers():
        self_checks.append("untraced run found wrappers installed")

    samples = {}
    first = run_pass(jobs, paths, checker, "pass 1", samples)
    wanted = 1 if args.trace else max(
        MIN_PASSES, math.ceil(MIN_SAMPLES / len(jobs)), round(args.seconds / first))
    pass_s = [first]
    for i in range(2, wanted + 1):
        pass_s.append(run_pass(jobs, paths, checker, f"pass {i}", samples))
    metrics, detail = end_to_end(jobs, samples, pass_s)

    if args.trace:
        traced = {}
        with tracing.Tracer() as tr:
            missing = [f"{m}.{q}" for m, q, _, _ in tracing.BOUNDARIES
                       if not tracing.is_wrapper(getattr(*tracing.resolve(m, q)))]
            if missing:
                self_checks.append(f"tracer left unwrapped: {', '.join(missing)}")
            traced_elapsed = run_pass(jobs, paths, checker, "traced pass", traced, tr)
        detail["traced_s"] = traced_elapsed
        if tracing.installed_wrappers():
            self_checks.append("tracer left wrappers installed")
        root_s = sum(s.end - s.start for s in tr.spans if s.name == "cli.main")
        job_s = sum(v[0] for v in traced.values())
        metrics = layer_metrics(tr, job_s, traced_elapsed, metrics["jobs_per_s"], root_s)
        tr.write_spans(os.path.join(args.workdir, "spans.jsonl"))
        detail["spans"] = len(tr.spans)

    result = {
        "metrics": metrics,
        "detail": detail,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "self_checks": self_checks,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
