"""Benchmark for gaussian-bc: one workload per run, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload region_trace --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times ops for ``--seconds`` seconds, starting
fresh interpreters that import ``gaussian_bc.cli`` and build its parser
(the set-up time) at nine points between ops, and reports the end-to-end
metrics. With
``--trace 1`` it times ops the same way, then runs a fixed number of
further ops with every layer's public functions wrapped, and reports the
per-layer metrics. Every op's output is checked. The last line of
standard output is one JSON object; the lines before it are for people.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The ops make no BLAS calls. Left to itself, OpenBLAS starts a thread pool
# when numpy is imported, and how long that takes depends on whether the
# machine's other core is free; set before numpy loads, and inherited by
# the set-up interpreters.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"

# A fresh interpreter imports the CLI module and builds its parser; the
# child times itself, so interpreter start-up is not counted.
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gaussian_bc.cli\n"
    "gaussian_bc.cli._build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
SETUP_REPS = 9
DIGEST_OPS = 8  # the output digest covers this many leading ops
TAIL_BEYOND = 10  # op_tail_ms: the latency with this many ops above it
WINDOW_S = 1.0  # ops_per_s: the median over windows of consecutive ops this long

# On a shared 2-core VM, identical code was seen to run up to 2x slower,
# for spans from a fraction of a second to tens of seconds. A fixed kernel is
# timed right before and right after each op; the lesser of the two (a
# spike in one timing is not a change of speed) scales the op's time to a
# machine on which the kernel takes CAL_REF_S. Interpreter-bound and
# numpy-bound code slow down differently, so each workload is calibrated
# with the kernel that matches its op.
CAL_REF_S = 1e-3


def _interpreter_kernel() -> float:
    acc = 0.0
    for i in range(1, 5001):
        a = i / 5000.0
        b = 1.0 - a
        q = a * a + a * b + b * b
        acc += (2.0 * q + a) / (q + 1.0) + math.sqrt(q)
    return acc


def _numpy_kernel() -> float:
    x = np.random.Generator(np.random.PCG64(7)).standard_normal(12000)
    return math.fsum(x * x)


def calibration_s(numpy_bound: bool) -> float:
    """One timing of the calibration kernel: the machine's current speed."""
    kernel = _numpy_kernel if numpy_bound else _interpreter_kernel
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def setup_time_s() -> float:
    """Seconds a fresh interpreter takes to import gaussian_bc.cli and build its parser.

    Not scaled by the calibration kernel, which does not track it: import
    time goes mostly to loading extension modules and unmarshalling code.
    """
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


class Loop:
    """Closed loop of ops: latencies, failures, tallies and the output digest."""

    def __init__(self, workload, stream, smoke: bool) -> None:
        self.workload, self.stream, self.smoke = workload, stream, smoke
        self.latencies: list[float] = []  # raw seconds
        self.calibration: list[float] = []  # per op: the lesser of calibration_s() before and after it
        self.failed = 0
        self.failures: list[str] = []
        self.tallies: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.digested = 0

    def run(self, seconds: float, min_ops: int, max_ops: int | None = None, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            op = self.workload.make(self.stream.next(), self.smoke)
            gc.collect()
            before = calibration_s(self.workload.numpy_bound)
            if tracer is not None:
                tracer.op_id = len(self.latencies)
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                output = op.run()
                error = None
            except Exception as exc:  # an op that raises is counted as failed
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.recording = False
            self.latencies.append(t1 - t0)
            self.calibration.append(min(before, calibration_s(self.workload.numpy_bound)))
            if error is None:
                error = self._check(op, output)
            if error is not None:
                self.failed += 1
                self.failures.append(error)
            done = len(self.latencies)
            if max_ops is not None and done >= max_ops:
                break
            if done >= min_ops and time.perf_counter() - start >= seconds:
                break

    def _check(self, op, output) -> str | None:
        try:
            tallies = op.check(output)
        except Exception as exc:  # CheckFailed, or output too malformed to parse
            return f"check failed: {type(exc).__name__}: {exc}"
        for key, value in tallies.items():
            self.tallies[key] = self.tallies.get(key, 0) + value
        if self.digested < DIGEST_OPS:
            self.digest.update(op.digest(output))
            self.digested += 1
        return None

    def scaled(self) -> list[float]:
        """Op latencies scaled to the reference machine speed (CAL_REF_S)."""
        return [latency * CAL_REF_S / cal for latency, cal in zip(self.latencies, self.calibration)]


def throughput(latencies: list[float]) -> tuple[float, int]:
    """Median ops per second over windows of consecutive ops with WINDOW_S of op time.

    Returns the median and the number of windows. The median keeps a
    burst of load from elsewhere on the machine out of the figure; a
    trailing partial window is dropped.
    """
    rates, count, busy = [], 0, 0.0
    for latency in latencies:
        count += 1
        busy += latency
        if busy >= WINDOW_S:
            rates.append(count / busy)
            count, busy = 0, 0.0
    if not rates:
        return len(latencies) / sum(latencies), 0
    return statistics.median(rates), len(rates)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND ops above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based rank of the reported op
    return ordered[rank - 1], 100.0 * rank / n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per phase at reduced op size")
    args = parser.parse_args(argv)

    if not (SRC / "gaussian_bc" / "__init__.py").is_file():
        print(f"perfbench: no gaussian_bc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, ProblemStream

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    min_ops = 1 if args.smoke else 2 * TAIL_BEYOND

    print(f"workload={workload.name} op={workload.op!r} seed={args.seed} loop=closed clients=1 trace={args.trace}")
    timed = Loop(workload, ProblemStream(workload.name, args.seed), args.smoke)
    notes: dict[str, str] = {}
    if args.trace:
        timed.run(args.seconds, min_ops)
        tracer = Tracer()
        traced = Loop(workload, ProblemStream(workload.name + ":traced", args.seed), args.smoke)
        tracer.install()
        tracer.start_cache_window()
        try:
            ops = 1 if args.smoke else workload.traced_ops
            traced.run(0.0, ops, max_ops=ops, tracer=tracer)
        finally:
            tracer.uninstall()
        loops = [timed, traced]
        overhead = 1.0 - throughput(traced.scaled())[0] / throughput(timed.scaled())[0]
        metrics = tracer.metrics(len(traced.latencies), 1e3 * sum(traced.latencies), overhead)
        spans_path = SPANS_DIR / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        print(f"spans={tracer.span_count} written to {spans_path.relative_to(ROOT)}")
    else:
        reps = 2 if args.smoke else SETUP_REPS
        setup_time_s()  # warms the file cache and writes the bytecode caches
        setup_times = []
        # The set-up samples are spread over the run, between ops, so that
        # one slow spell of the machine does not catch all of them.
        for rep in range(reps):
            setup_times.append(setup_time_s())
            timed.run(args.seconds / reps, min_ops if rep == reps - 1 else 0)
        setup_s = statistics.median(setup_times)
        loops = [timed]
        scaled = timed.scaled()
        n = len(scaled)
        ops_per_s, windows = throughput(scaled)
        tail_s, tail_pct = tail(scaled)
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
        notes = {
            "ops_per_s": (f"median of {windows} windows of {WINDOW_S:g} s op time, n={n} ops" if windows
                          else f"all n={n} ops, less than one window"),
            "op_p50_ms": f"n={n} ops",
            "op_tail_ms": f"p{tail_pct:.4g}, {min(TAIL_BEYOND, n - 1)} ops beyond, n={n} ops",
            "peak_rss_mb": "whole process",
            "setup_s": f"median of {reps} fresh interpreters",
        }
        print(f"calibration kernel: median {1e3 * statistics.median(timed.calibration):.4g} ms; "
              f"op times are scaled to {1e3 * CAL_REF_S:g} ms")
        raw_tail_s, _ = tail(timed.latencies)
        print(f"raw (unscaled): ops_per_s={throughput(timed.latencies)[0]:.6g} 1/s "
              f"op_p50_ms={1e3 * statistics.median(timed.latencies):.6g} ms op_tail_ms={1e3 * raw_tail_s:.6g} ms")
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"fail_frac={failed / attempted:.6g} frac ({failed}/{attempted} ops failed)")
    for message in [m for loop in loops for m in loop.failures][:5]:
        print(f"failure: {message}")
    for key, value in sorted(timed.tallies.items()):
        print(f"tally {key}={value}")
    print(f"output_sha256={timed.digest.hexdigest()} over the first {timed.digested} ops")
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name}={value!r} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
