"""One workload process: set up, then run jobs in a closed loop.

Run by run.py, one fresh process at a time:

    python3 perfbench/worker.py --workload free --seed 3 --seconds 30 --trace 0

Set-up is the import of cosegal, input generation, document writing and the
warm-up, which runs the recorded-seed reference jobs and digests their
outputs.  The worker then prints ``READY <digest>`` and, unless ``--setup-only``, runs
jobs one after another (one client, the next job starts when the previous
one has finished) until ``--seconds`` have passed.  With ``--trace 1`` it
runs the same jobs a second time with the tracer installed.  Its last line
of standard output is a JSON record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def digest(outputs: list[bytes]) -> str:
    """sha256 over the length-prefixed canonical outputs, in job order."""
    h = hashlib.sha256()
    for b in outputs:
        h.update(len(b).to_bytes(8, "big"))
        h.update(b)
    return h.hexdigest()


def reference_outputs(name: str, seed: int, workdir: str) -> list[bytes]:
    """Canonical outputs of the first reference_jobs jobs of `seed`."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed, w.reference_jobs)
    args = w.prepare(inputs.items, workdir, "ref")
    return [w.output(w.job(a)) for a in args]


def run_jobs(job, args: list, order: list[int], tracer: Tracer | None = None):
    """Run args[k] for k in order; returns (durations, failures)."""
    durations, failures = [], 0
    for k in order:
        if tracer:
            tracer.begin_job(k)
        t0 = time.perf_counter()
        try:
            job(args[k])
        except Exception:  # a failed job is counted, never dropped or redrawn
            failures += 1
            traceback.print_exc(file=sys.stderr)
        durations.append(time.perf_counter() - t0)
    return durations, failures


def timed_loop(job, args: list, seconds: float):
    """Cycle through args until `seconds` have passed; returns the job order,
    durations, failures and the wall time from first start to last end."""
    order, durations, failures = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k = len(order) % len(args)
        d, f = run_jobs(job, args, [k])
        order.append(k)
        durations += d
        failures += f
    return order, durations, failures, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, w.pool)
        job_args = w.prepare(inputs.items, workdir, "in")
        os.chdir(workdir)
        try:
            ref_digest = digest(reference_outputs(args.workload, args.reference_seed, workdir))
        except Exception:  # reported as a digest mismatch, which fails the run
            traceback.print_exc(file=sys.stderr)
            ref_digest = None
        print(f"READY {ref_digest}", flush=True)
        if args.setup_only:
            return 0

        # a traced run splits its time: untraced jobs, then the same jobs traced
        seconds = args.seconds / 2 if args.trace else args.seconds
        order, durations, failures, wall = timed_loop(w.job, job_args, seconds)
        record = {
            "durations": durations,
            "failed": failures,
            "wall_s": wall,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "pool": len(job_args),
            "redraws": inputs.redraws,
            "sizes": inputs.sizes,
            "numpy": np.__version__,
            "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        }
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_failed = run_jobs(w.job, job_args, order, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json.gz"))
            record["traced_durations"] = traced
            record["traced_failed"] = traced_failed
            record["layers"] = tracer.metrics()
        print(json.dumps(record), flush=True)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
