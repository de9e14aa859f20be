"""Per-layer tracing by rebinding the package's public functions.

The tracer replaces each target function with a recording wrapper in
every ``gaussian_bc`` module that holds it, so that calls between
modules (``region`` -> ``closed_forms``, ``closed_forms`` -> ``params``)
and calls within a module through its globals are all seen. The
original objects stay reachable, so ``cache_info()`` of the
``lru_cache``-wrapped functions still reads the real caches. Nothing in
``src/`` changes, and the untimed and timed runs execute no wrapper.

Each call becomes one span (name, start, end, parent span, op id) in
flat arrays kept in memory; self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs whose calls become spans. Layer names are the
# package's module names.
TARGETS = (
    ("cli", "run"),
    ("region", "trace_uncoded_boundary"),
    ("region", "verify_matching"),
    ("region", "converse_at"),
    ("closed_forms", "solve_alpha_for_d1"),
    ("closed_forms", "d2_min_at_rx1"),
    ("closed_forms", "optimal_witness"),
    ("closed_forms", "d2_converse_bound"),
    ("closed_forms", "combiner_mse_bound"),
    ("closed_forms", "uncoded_distortions"),
    ("closed_forms", "is_uncoded_optimal"),
    ("rate_distortion", "r_joint_numeric"),
    ("montecarlo", "simulate"),
    ("montecarlo", "analytic_distortions"),
    ("params", "validate_problem"),
)

# Which statistics each traced function reports, in output order.
STATS = {
    "rate_distortion.r_joint_numeric": ("calls", "total_ms", "mean_us"),
    "closed_forms.solve_alpha_for_d1": ("calls", "total_ms", "self_ms", "hit_ratio"),
    "closed_forms.d2_min_at_rx1": ("calls", "total_ms", "self_ms", "hit_ratio"),
    "closed_forms.optimal_witness": ("calls", "total_ms"),
    "closed_forms.d2_converse_bound": ("calls", "total_ms", "errors"),
    "closed_forms.combiner_mse_bound": ("calls", "total_ms"),
    "closed_forms.uncoded_distortions": ("calls", "total_ms"),
    "closed_forms.is_uncoded_optimal": ("calls", "total_ms"),
    "params.validate_problem": ("calls", "calls_per_op"),
    "region.trace_uncoded_boundary": ("calls", "total_ms", "self_ms"),
    "region.verify_matching": ("calls", "total_ms", "self_ms"),
    "region.converse_at": ("calls", "total_ms", "errors"),
    "montecarlo.simulate": ("calls", "total_ms", "self_ms"),
    "montecarlo.analytic_distortions": ("calls", "total_ms"),
    "cli.run": ("calls", "self_ms", "exit2"),
}

UNITS = {
    "calls": "count",
    "total_ms": "ms",
    "self_ms": "ms",
    "mean_us": "us",
    "hit_ratio": "ratio",
    "errors": "count",
    "exit2": "count",
    "calls_per_op": "calls/op",
}

# Metrics computed from the spans as a whole rather than per function.
EXTRA_UNITS = {
    "montecarlo.blocks": "count",
    "montecarlo.normal_draws": "count",
    "montecarlo.msym_per_s": "Msym/s",
    "bench.traced_ops": "count",
    "bench.traced_op_ms": "ms",
    "bench.trace_overhead_frac": "frac",
}

# Status codes of a span.
_OK, _RAISED, _EXIT2 = 0, 1, 2

_BLOCK_SIZE = 1 << 16  # Monte-Carlo block length of the simulator
_DRAWS_PER_SAMPLE = 4  # s1, u, z1, z2


def _simulated_samples(args, kwargs) -> int:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.samples


class Tracer:
    """Records a span per call of each target function while ``recording``."""

    def __init__(self) -> None:
        self.names = [f"{module}.{func}" for module, func in TARGETS]
        self.recording = False
        self.op_id = -1
        self._name = array("H")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._status = array("b")
        self._stack = [-1]
        self._samples: list[int] = []  # samples of each completed simulate call
        self._originals: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every target, in every package module that holds it."""
        homes = [importlib.import_module(f"gaussian_bc.{module}") for module, _ in TARGETS]
        package_modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "gaussian_bc" or name.startswith("gaussian_bc."))
        ]
        for index, (home, (_, func_name)) in enumerate(zip(homes, TARGETS)):
            original = getattr(home, func_name, None)
            if original is None:  # the function no longer exists: report zeros
                continue
            name = self.names[index]
            self._originals[name] = original
            wrapper = self._wrap(index, original)
            for module in package_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def start_cache_window(self) -> None:
        self._cache_before = {name: _cache_counts(fn) for name, fn in self._originals.items()}

    def hit_ratio(self, name: str) -> float:
        fn = self._originals.get(name)
        if fn is None or name not in self._cache_before:
            return 0.0
        hits0, misses0 = self._cache_before[name]
        hits1, misses1 = _cache_counts(fn)
        lookups = (hits1 - hits0) + (misses1 - misses0)
        return (hits1 - hits0) / lookups if lookups else 0.0

    def _wrap(self, index: int, fn):
        tracer = self
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, status, stack = self._start, self._end, self._status, self._stack
        clock = time.perf_counter
        is_cli_run = TARGETS[index] == ("cli", "run")
        is_simulate = TARGETS[index] == ("montecarlo", "simulate")

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            status.append(_OK)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                status[span] = _RAISED
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if is_cli_run and result == 2:
                status[span] = _EXIT2
            if is_simulate:
                tracer._samples.append(_simulated_samples(args, kwargs))
            return result

        return traced

    # -- results -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._name)

    def save(self, path: Path) -> None:
        """Write the spans as one ``.npz`` file of parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            op=np.frombuffer(self._op, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            status=np.frombuffer(self._status, dtype=np.int8),
        )

    def metrics(self, ops: int, op_ms: float, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics derived from the recorded spans."""
        count = len(self.names)
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = (np.frombuffer(self._end, dtype=np.float64)
                    - np.frombuffer(self._start, dtype=np.float64)) * 1e3
        status = np.frombuffer(self._status, dtype=np.int8)
        has_parent = parent >= 0
        child_ms = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        self_ms = duration - child_ms
        calls = np.bincount(name, minlength=count)
        total = np.bincount(name, weights=duration, minlength=count)
        own = np.bincount(name, weights=self_ms, minlength=count)
        raised = np.bincount(name[status == _RAISED], minlength=count)
        exit2 = np.bincount(name[status == _EXIT2], minlength=count)

        out: dict[str, tuple[float, str]] = {}
        for key, stats in STATS.items():
            i = self.names.index(key)
            values = {
                "calls": int(calls[i]),
                "total_ms": float(total[i]),
                "self_ms": float(own[i]),
                "mean_us": float(total[i]) * 1e3 / int(calls[i]) if calls[i] else 0.0,
                "hit_ratio": self.hit_ratio(key),
                "errors": int(raised[i]),
                "exit2": int(exit2[i]),
                "calls_per_op": int(calls[i]) / ops if ops else 0.0,
            }
            for stat in stats:
                out[f"{key}.{stat}"] = (values[stat], UNITS[stat])

        samples = sum(self._samples)
        sim_ms = out["montecarlo.simulate.total_ms"][0]
        extra = {
            "montecarlo.blocks": sum(math.ceil(n / _BLOCK_SIZE) for n in self._samples),
            "montecarlo.normal_draws": _DRAWS_PER_SAMPLE * samples,
            "montecarlo.msym_per_s": samples / sim_ms / 1e3 if sim_ms else 0.0,
            "bench.traced_ops": ops,
            "bench.traced_op_ms": op_ms,
            "bench.trace_overhead_frac": overhead_frac,
        }
        out.update((key, (value, EXTRA_UNITS[key])) for key, value in extra.items())
        return out


def _cache_counts(fn) -> tuple[int, int]:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return (0, 0)
    stats = info()
    return (stats.hits, stats.misses)
