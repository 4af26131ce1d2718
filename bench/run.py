"""Benchmark of stirling2adic: one workload, timed end to end, or with
``--trace 1`` layer by layer.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 25 --trace 0

The package is imported from the ``src/`` next to this directory, so each
checkout measures its own code.  Everything runs in this process with
``workers=1``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from stirling2adic.cli import main; raise SystemExit(main(['predict', '12', '10']))"
)
SETUP_ANSWER = "predictions for nu2(S(12,10)):\n"

# A shared host's speed drifts by up to 1.85x over tens of seconds when other
# tenants load it.  A reference op, timed every REFERENCE_EVERY_S seconds of
# op time, measures that speed: every time is scaled by REFERENCE_S over the
# reference op's median time in the run.  REFERENCE_S is the reference op's
# time in the fast phases of the 2-core host where the benchmark was defined.
REFERENCE_EVERY_S = 0.2
REFERENCE_S = 0.0035

# (metric, unit) printed by an untraced run, in order
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

clock = time.perf_counter


def measure_setup() -> tuple[float, str | None]:
    """Median scaled wall time of a fresh interpreter importing the package
    and answering one ``predict`` command, and the first problem seen."""
    times = []
    problem = None
    reference = Reference()
    for _ in range(SETUP_RUNS):
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        times.append(clock() - t0)
        reference.after_op(times[-1])
        if proc.returncode != 0 or not proc.stdout.startswith(SETUP_ANSWER):
            problem = problem or f"setup: exit {proc.returncode}, {proc.stderr.strip()[-200:]}"
    return statistics.median(times) * reference.finish(), problem


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, or None below 20 samples, where it would lie under the median."""
    n = len(samples)
    if n < 20:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def reference_op() -> float:
    """Seconds taken by a fixed computation that does not use the package:
    an interpreter loop, small numpy vector operations and big-integer
    powers, the three kinds of work the package does."""
    t0 = clock()
    x = 0
    for i in range(4000):
        x = (x * 31 + i) & 0xFFFFFFFF
    a = np.ones(1024, dtype=np.uint64)
    b = np.arange(1024, dtype=np.uint64)
    for _ in range(100):
        np.multiply(a, b, out=a)
        a += b
    y = 3
    for _ in range(15):
        y = pow(y, 65537, (1 << 2048) - 159)
    return clock() - t0


class Reference:
    """Reference-op times, sampled every REFERENCE_EVERY_S seconds of op time."""

    def __init__(self) -> None:
        self.times = [reference_op()]
        self._since = 0.0

    def after_op(self, elapsed: float) -> None:
        self._since += elapsed
        if self._since >= REFERENCE_EVERY_S:
            self.times.append(reference_op())
            self._since = 0.0

    def finish(self) -> float:
        """One last sample, then the factor that scales this run's times."""
        self.times.append(reference_op())
        return REFERENCE_S / statistics.median(self.times)


class Runner:
    """Runs ops, times them, checks them, and counts failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.cells = 0

    def execute(self, op) -> float:
        """Run op, check its output, and return the seconds the run took.
        An op that raises, or whose output fails or breaks its check, is a
        failed op; the benchmark goes on."""
        self.attempted += 1
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:
            elapsed = clock() - t0
            self.fail(f"{op.label}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - t0
        try:
            self.cells += op.check(out)
        except Exception as exc:
            self.fail(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed

    def fail(self, problem: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {problem}", file=sys.stderr)


def timed_run(workload, seconds: float, runner: Runner) -> dict[str, float]:
    setup_s, problem = measure_setup()
    runner.attempted += 1  # the set-up command counts as one op
    if problem:
        runner.fail(problem)
    runner.execute(workload.warm_up())
    # whole rounds only, so every run measures the same mix of ops
    samples = []
    by_kind: dict[str, list[float]] = defaultdict(list)
    rounds = 0
    reference = Reference()
    start = clock()
    while clock() - start < seconds:
        for op in workload.round():
            samples.append(runner.execute(op))
            by_kind[op.label].append(samples[-1])
            reference.after_op(samples[-1])
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = reference.finish()
    busy = sum(samples)
    # An op kind's mean spans the host's speed phases the way the reference
    # scale does; a median over all samples picks a phase instead.
    p50_s = statistics.median(statistics.fmean(times) for times in by_kind.values())
    tail_s, tail_p = tail(samples) or (p50_s, 50.0)
    metrics = {
        "cells_per_s": runner.cells / (busy * scale),
        "op_p50_s": p50_s * scale,
        "op_tail_s": tail_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    print(
        f"{len(samples)} ops in {rounds} rounds, {clock() - start:.1f} s; "
        f"op_tail_s is p{tail_p:.1f} of {len(samples)} samples; "
        f"times scaled by {scale:.4f} from {len(reference.times)} reference ops "
        f"(unscaled: {runner.cells / busy:.6g} cells/s, p50 {p50_s:.6g} s, tail {tail_s:.6g} s)",
        file=sys.stderr,
    )
    return metrics


def scaled_pass(ops, runner: Runner, tracer=None) -> float:
    """Scaled total time of one pass over ops."""
    reference = Reference()
    busy = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        elapsed = runner.execute(op)
        reference.after_op(elapsed)
        busy += elapsed
    return busy * reference.finish()


def traced_run(workload, spans_path: Path, runner: Runner) -> dict[str, float]:
    runner.execute(workload.warm_up())
    ops = workload.round()
    # untraced passes before and after the traced one, so that neither
    # side of the overhead ratio gets the first, colder pass alone
    plain = scaled_pass(ops, runner)
    tracer = Tracer()
    tracer.install_package()
    try:
        traced = scaled_pass(ops, runner, tracer)
    finally:
        tracer.uninstall()
    plain += scaled_pass(ops, runner)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = 2 * traced / plain
    tracer.write_spans(spans_path)
    print(
        f"{len(ops)} ops traced, {len(tracer.name)} spans written to {spans_path}",
        file=sys.stderr,
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweeps", "scan", "xval", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stirling2adic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stirling2adic

    if Path(stirling2adic.__file__).resolve().parent != SRC / "stirling2adic":
        print(f"error: imported {stirling2adic.__file__}, not the package in {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner()
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
        values = traced_run(workload, spans, runner)
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = timed_run(workload, args.seconds, runner)
        units = list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        error_rate = runner.failed / runner.attempted
        print(f"  {'error_rate':36s} {error_rate:.6g} ratio (JSON: failed / attempted)", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
