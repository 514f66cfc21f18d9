"""The dsumm benchmark: one workload of CLI jobs, measured end to end or traced.

    python3 perfbench/run.py --workload {battery,sequences,kernels} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from `src/`;
nothing is installed.  Set-up is timed over several fresh processes, then
one fresh worker process runs the workload (see worker.py) with BLAS pinned
to one thread.  Every job's exit code and stdout are checked: against the
golden output where one applies, and across passes always.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass, which wraps the package's layer boundaries from outside (see
tracer.py).  The lines before it say the same for a reader, with the
Python, numpy and BLAS versions and the core count.  Full results and the
spans of a traced pass are kept under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from jobs import WORKLOADS, jobs_for  # noqa: E402
from worker import THREAD_VARS, write_configs  # noqa: E402

SETUP_SAMPLES = 21
DEADLINE_S = 170.0


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, workdir, extra, deadline):
    """Run a worker to its end; return the seconds until it printed 'ready'."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "dsumm", "__init__.py")):
        print(f"error: no dsumm sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    # Compile once up front so the first set-up sample does not pay for it.
    compileall.compile_dir(os.path.join(SRC, "dsumm"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    work = os.path.join(OUT, f"work-{os.getpid()}")
    result_path = os.path.join(work, "result.json")
    try:
        # Every sample writes the same configs into the same files; they
        # are created here, untimed (see worker.write_configs).
        write_configs(jobs_for(args.workload, args.seed), work)
        # Half the set-up samples are taken after the workload, so that one
        # burst of outside load cannot move the median.
        setup = [spawn(args, work, ["--setup-only"], deadline)
                 for _ in range(SETUP_SAMPLES // 2)]
        setup.append(spawn(args, work, ["--result", result_path], deadline))
        setup += [spawn(args, work, ["--setup-only"], deadline)
                  for _ in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.copyfile(spans, os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = sorted(setup)[len(setup) // 2]
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        result["self_checks"].append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    # error_rate is 0 on a healthy run, so BENCHMARK.json carries it as
    # attempted and failed instead of as a bounded metric.
    error_rate = result["failed"] / result["attempted"]
    env = environment()
    detail = result["detail"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_samples_s": setup, **result,
              "metrics": metrics, "error_rate": error_rate}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("python {python}, numpy {numpy}, BLAS {blas}, nproc {nproc}, "
          "BLAS threads pinned to 1".format(**env))
    if args.trace:
        print(f"{len(detail['job_median_ms'])} jobs: one untraced pass of {detail['timed_s']:.2f} s "
              f"and one traced pass of {detail['traced_s']:.2f} s, {detail['spans']} spans")
    else:
        print(f"{detail['samples']} job runs in {detail['passes']} passes, "
              f"{detail['timed_s']:.2f} s timed; tail is p{detail['tail_percentile']:g} "
              f"with {detail['tail_beyond']} samples beyond it")
    for failure in result["failures"] + result["self_checks"]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units.get(name, '?')}")
    print(f"  {'error_rate':30s} {error_rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} job runs failed)")

    summary = {
        "correct": result["failed"] == 0 and not result["self_checks"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
