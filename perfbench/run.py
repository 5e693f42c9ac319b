"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with BLAS and OpenMP pinned to one thread: set-up is timed
from process start to the worker's ``ready`` line, several times, and the
last worker then runs the workload. The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``BENCHMARK.json`` gates the first two workloads; ``mc_wide`` and
``penalty_audit`` run the same way but are too noisy to gate (see README).
This file uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("moons_protocol", "certify", "mc_wide", "penalty_audit")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args: list, deadline: float):
    """Start a worker; returns (seconds until ready, its last output line)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        buf, ready_s = b"", None
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                    raise WorkerError("worker timed out")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
                if ready_s is None and b"ready\n" in buf:
                    ready_s = time.perf_counter() - t0
        proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = buf.decode().splitlines()
    return ready_s, lines[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds between 1 and 60")
    if not (ROOT / "src" / "mixreg" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'mixreg'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [run_worker(common + ["--seconds", "0", "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready_s, last = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    setup.append(ready_s)
    worker = json.loads(last)

    if args.trace:
        if worker["per_layer"] is None:
            print(f"{args.workload}: every traced operation failed", file=sys.stderr)
            return 1
        metrics = worker["per_layer"]
        print(f"{args.workload}: spans written to {worker['spans_file']}")
    else:
        if not worker["op_s"]:
            print(f"{args.workload}: every timed operation failed", file=sys.stderr)
            return 1
        times = worker["op_s"]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "op_s": metric(statistics.median(times), "s"),
            "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
        }
        print(
            f"{args.workload}: {len(times)} timed ops, op_s median {statistics.median(times):.4f} s "
            f"(min {min(times):.4f}, max {max(times):.4f}); set-up samples {[round(s, 4) for s in setup]}"
        )
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    out = ROOT / "perfbench" / "results" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
