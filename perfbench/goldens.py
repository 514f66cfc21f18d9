"""Golden CLI outputs: the exit code and exact stdout of every job at the default seed.

`golden/<workload>.json` maps a job id to the command line and config it
was recorded from, its exit code and its stdout.  A golden applies to a job
only when both the command line and the config text are identical, so jobs
whose config does not depend on the seed are checked under every seed.

Refresh after a deliberate behaviour change, naming the jobs:

    python3 perfbench/goldens.py --workload kernels --job check/s32/identity/strongly-regular

`--all` rewrites every golden of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def golden_path(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json")


def load(workload: str) -> dict:
    path = golden_path(workload)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def entry(job, exit_code: int, stdout: str) -> dict:
    return {"argv": list(job.argv), "config": job.config, "exit": exit_code, "stdout": stdout}


def applies(golden, job) -> bool:
    return golden is not None and golden["argv"] == list(job.argv) and golden["config"] == job.config


def mismatch(job, exit_code: int, stdout: str, golden) -> str | None:
    """Why this output differs from the golden, or None when it matches."""
    if golden["exit"] != exit_code:
        return f"{job.job_id}: exit code {exit_code}, golden {golden['exit']}"
    if golden["stdout"] != stdout:
        a, b = golden["stdout"], stdout
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        line = a.count("\n", 0, at) + 1
        return f"{job.job_id}: stdout differs from golden at line {line}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record golden outputs at the default seed.")
    parser.add_argument("--workload", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--job", action="append", help="job id to refresh (repeatable)")
    group.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)

    import worker
    from jobs import DEFAULT_SEED, jobs_for

    worker.load_dsumm()

    jobs = jobs_for(args.workload, DEFAULT_SEED)
    known = {job.job_id for job in jobs}
    wanted = known if args.all else set(args.job)
    unknown = sorted(wanted - known)
    if unknown:
        print(f"unknown job ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    goldens = {} if args.all else load(args.workload)
    workdir = os.path.join(worker.ROOT, ".perfbench", "goldens")
    paths = worker.write_configs(jobs, workdir)
    for job in jobs:
        if job.job_id in wanted:
            run = worker.run_job(job, paths[job.job_id])
            if run.error:
                print(f"{job.job_id}: {run.error}", file=sys.stderr)
                return 1
            goldens[job.job_id] = entry(job, run.exit, run.stdout)
    os.makedirs(os.path.dirname(golden_path(args.workload)), exist_ok=True)
    ordered = {job.job_id: goldens[job.job_id] for job in jobs if job.job_id in goldens}
    with open(golden_path(args.workload), "w", encoding="utf-8") as fh:
        json.dump(ordered, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(wanted)} of {len(ordered)} goldens to {golden_path(args.workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
