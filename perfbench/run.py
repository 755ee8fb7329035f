"""The cosegal benchmark: one workload, one run.

    python3 perfbench/run.py --workload free --seed 3 --seconds 30 --trace 0

Workloads (details and the reasons for each in NOTES.md):
  free        gamma_na + universal_extension on seeded N = 3 towers
  cosegalify  the in-process CLI chain validate / cosegalify / pushout-k2
  lifting     model-category predicates on seeded maps over Q and F_5

Each run starts fresh worker processes (worker.py) one at a time: set-up
probes that stop after set-up, then the measured process, a closed loop with
one client.  BLAS runs on one thread.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it reports the per-layer
metrics, from the same jobs run again under the tracer, and the tracing
overhead.  Every job's output is checked exactly, and the outputs of the
recorded-seed reference jobs must match perfbench/digests.json bit for bit.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full record,
with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 3  # fresh processes whose set-up is timed; the median is reported
BLAS_THREADS = 1  # one client, one thread: at most nproc threads
DEADLINE_S = 170.0  # a run that has not finished by then is killed and fails


def _read_lines(proc, deadline: float):
    """Yield (line, time read) from proc's stdout until EOF or the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError("worker exceeded the run deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode(), time.perf_counter()


def run_worker(args, deadline: float, setup_only: bool):
    """Start one worker; returns (set-up seconds, reference digest, record)."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference-seed", str(args.reference_seed),
    ]
    if setup_only:
        argv.append("--setup-only")
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0)
    try:
        setup, ref, record = None, None, None
        for line, t in _read_lines(proc, deadline):
            if line.startswith("READY "):
                setup, ref = t - t0, line.split()[1]
            elif line.startswith("{"):
                record = json.loads(line)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None or (record is None and not setup_only):
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return setup, ref, record


def tail(durations: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 jobs beyond it, and its
    nearest-rank value; with 10 jobs or fewer, the maximum (as p100)."""
    n = len(durations)
    s = sorted(durations)
    if n <= 10:
        return 100, s[-1]
    q = 100 * (n - 10) // n
    return q, s[math.ceil(q * n / 100) - 1]


def environment(record: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            src.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": record["numpy"],
        "openblas": record["openblas"],
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="Run one cosegal benchmark workload.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cosegal", "__init__.py")):
        print("error: no cosegal sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    args.reference_seed = recorded["reference_seed"]
    expected = recorded["workloads"].get(args.workload, {}).get("sha256")

    deadline = time.monotonic() + DEADLINE_S
    setups, refs = [], []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setup, ref, _ = run_worker(args, deadline, setup_only=True)
            setups.append(setup)
            refs.append(ref)
        setup, ref, rec = run_worker(args, deadline, setup_only=False)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    refs.append(ref)

    durations = rec["durations"]
    failed = rec["failed"]
    attempted = len(durations)
    q, tail_s = tail(durations)
    p50 = statistics.median(durations)
    values = {
        "job_s.tail": tail_s,
        "jobs_per_s": (attempted - failed) / rec["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024,
    }
    if args.trace:
        traced = rec["traced_durations"]
        attempted += len(traced)
        failed += rec["traced_failed"]
        values = dict(rec["layers"])
        values["trace.overhead_s"] = statistics.median(traced) - p50
    digest_ok = expected is not None and all(r == expected for r in refs)
    correct = failed == 0 and digest_ok

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pool {rec['pool']} inputs  redraws {rec['redraws']}")
    for name, m in metrics.items():
        note = ""
        if name == "job_s.tail":
            note = f"  (p{q} of {len(durations)} jobs)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{note}")
    # printed and recorded, but not bounded in BENCHMARK.json (see NOTES.md)
    print(f"  {'job_s.p50':<44} {p50:.6g} s  (untraced, not bounded)")
    print(f"  {'fail_ratio':<44} {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    print(f"  reference digest {'matches' if digest_ok else 'MISMATCH'}: {refs[-1]} "
          f"(seed {args.reference_seed}, recorded {expected})")
    env = environment(rec)
    print("  environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    os.makedirs(OUT, exist_ok=True)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "jobs": attempted, "failed": failed,
        "job_s.p50": p50, "fail_ratio": failed / attempted, "tail_percentile": q,
        "setup_samples": setups,
        "reference_digests": refs, "recorded_digest": expected, "metrics": metrics,
        "pool": rec["pool"], "redraws": rec["redraws"], "input_sizes": rec["sizes"],
        "job_durations": durations,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
