"""One workload in one fresh process.

The process imports the program from the checkout's ``src/``, builds the
workload (its set-up), prints ``ready``, and, unless ``--setup-only`` is
given, runs one untimed warm-up operation, then timed operations while one
more is expected to end within ``--seconds`` (at least two). The outputs of
every operation are checked. Its last line of standard output is one JSON
object for ``run.py``.

With ``--trace 1`` it runs rounds of one untraced and one traced operation
in the same way (at least one round), so the tracing overhead is measured in
the same process, and writes the spans of the traced operations to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
# a run times at least two operations, so op_s is never one sample
MIN_TIMED_OPS = 2


def import_program():
    """Import mixreg from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mixreg

    if Path(mixreg.__file__).resolve().parent != (src / "mixreg").resolve():
        raise SystemExit(f"mixreg was imported from {mixreg.__file__}, not from {src}")


def _timed(op):
    t0 = time.perf_counter()
    out = op()
    return out, time.perf_counter() - t0


class Runner:
    """Runs and checks operations, keeping the counts the result reports."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _quiet_op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.workload.op()

    def run(self, execute=None):
        """One operation; returns its wall seconds, or None when it raised.

        ``execute(op)`` runs the operation and returns (output, seconds).
        """
        self.attempted += 1
        try:
            out, seconds = (execute or _timed)(self._quiet_op)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        problems = self.workload.check(out)
        if problems:
            self.correct = False
            print("\n".join(f"check failed: {p}" for p in problems), file=sys.stderr)
        return seconds


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, at the mean pace so far, ends within the run."""
    return (time.perf_counter() - start) * (done + 1) / done <= seconds


def run_untraced(runner: Runner, seconds: float) -> dict:
    times = []
    start, first = time.perf_counter(), runner.attempted
    while True:
        t = runner.run()
        if t is not None:
            times.append(t)
        done = runner.attempted - first
        if done >= MIN_TIMED_OPS and not _another_fits(start, done, seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"op_s": times, "peak_rss_mb": rss_mb}


def run_traced(runner: Runner, seconds: float, header: dict) -> dict:
    import tracer

    spans = tracer.Tracer()
    untraced, traced, per_op = [], [], []

    def execute(op):
        out, wall, root = spans.run_op(op)
        per_op.append(tracer.op_metrics(spans.spans, root))
        return out, wall

    start, rounds = time.perf_counter(), 0
    while True:
        for times, how in ((untraced, None), (traced, execute)):
            t = runner.run(how)
            if t is not None:
                times.append(t)
        rounds += 1
        if not _another_fits(start, rounds, seconds):
            break
    name = f"trace-{header['workload']}-seed{header['seed']}.json"
    spans.write(RESULTS / name, dict(header, traced_op_s=traced, untraced_op_s=untraced))
    layers = tracer.summarize(per_op, traced, untraced) if traced and untraced else None
    return {"per_layer": layers, "spans_file": f"perfbench/results/{name}"}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(workload)
        runner.run()  # untimed warm-up
        if args.trace:
            header = {"workload": args.workload, "seed": args.seed}
            result = run_traced(runner, args.seconds, header)
        else:
            result = run_untraced(runner, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed, correct=runner.correct)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
