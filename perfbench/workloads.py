"""The four workloads, their seeded problem generator and their output checks.

Every op draws a fresh problem, so no op finds an ``lru_cache`` entry
left by an earlier op, except inside one ``witness_sweep`` op, which
exists to query the same d1 many times.

Problems follow a randomly shifted Kronecker (R_d) sequence: coordinate
j of problem k is frac(shift_j + k * a_j), with the shift drawn from the
seed. Every coordinate is equidistributed, so each parameter has exactly
its stated distribution, and any run of consecutive ops covers the
parameter box evenly. The mix of cheap and expensive problems (set
mostly by P/n1 and |rho|, which decide how much of the boundary the
converse covers) is then the same from seed to seed and from one window
of a run to the next.

The ranges deliberately leave out the extreme scales (sigma2 near 1e-300
or 1e300, P/n1 near 1e-200 or 1e200, rho near 1) that raise today; those
belong to regression tests, not to a speed workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import struct
from dataclasses import dataclass
from typing import Callable

from gaussian_bc import cli, closed_forms, montecarlo
from gaussian_bc.errors import BoundUndefinedError
from gaussian_bc.params import ChannelParams, SourceParams, negate_rho_transform

_DIMS = 8  # P/n1, |rho|, sigma2, n1, n2/n1, u, sign, mode


def _kronecker_steps(dims: int) -> list[float]:
    """The R_d steps a_j = phi**-(j+1), phi the root of x**(d+1) = x + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return [phi ** -(j + 1) % 1.0 for j in range(dims)]


_STEPS = _kronecker_steps(_DIMS)

TRACE_HEADER = "alpha,d1,d2_uncoded,d2_converse,a1_star,a2_star,optimal_flag"
VERIFY_FIELDS = (
    "matched_points",
    "excluded_points",
    "max_residual",
    "matching",
    "oracle_points",
    "oracle_max_error_bits",
    "oracle_consistent",
    "verify",
)
SIMULATE_FIELDS = (
    "alpha",
    "beta",
    "samples",
    "seed",
    "empirical_d1",
    "empirical_d2",
    "empirical_power",
    "ci_half_width_d1",
    "ci_half_width_d2",
    "analytic_d1",
    "analytic_d2",
)
_MATCH_TOL = 1e-9  # |achievable - converse| and witness slack, in units of sigma2
_CI_MULTIPLE = 5.0  # empirical vs analytic distortion, in CI half-widths


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Problem:
    sigma2: float
    rho: float  # signed: a quarter of the draws are negative (the sign flip)
    power: float
    n1: float
    n2: float
    u: float  # uniform on [0, 1): alpha, or the d1 position in the covered range
    d1_target: bool  # mc_simulate: a --d1-target run instead of an --alpha run
    seed: int  # mc_simulate: the simulation seed

    def flags(self) -> list[str]:
        return [
            "--sigma2", repr(self.sigma2),
            "--rho", repr(self.rho),
            "--power", repr(self.power),
            "--n1", repr(self.n1),
            "--n2", repr(self.n2),
        ]

    def canonical(self) -> tuple[SourceParams, ChannelParams]:
        source, _ = negate_rho_transform(SourceParams(self.sigma2, self.rho))
        return source, ChannelParams(self.power, self.n1, self.n2)

    def below_simple_threshold(self) -> bool:
        rho = abs(self.rho)
        return self.power / self.n1 <= 2.0 * rho / (1.0 - rho)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class ProblemStream:
    """Seeded problem draws: the same (label, seed) gives the same problems."""

    def __init__(self, label: str, seed: int) -> None:
        self._rng = random.Random(f"{label}:{seed}")
        self._shift = [self._rng.random() for _ in range(_DIMS)]
        self._count = 0

    def next(self) -> Problem:
        k = self._count
        self._count += 1
        snr, rho, sigma2, n1, n2_ratio, u, sign, mode = (
            (shift + k * step) % 1.0 for shift, step in zip(self._shift, _STEPS)
        )
        noise = _log_uniform(n1, 1e-2, 1e2)
        return Problem(
            sigma2=_log_uniform(sigma2, 1e-2, 1e2),
            rho=0.95 * rho * (-1.0 if sign < 0.25 else 1.0),
            power=_log_uniform(snr, 0.1, 10.0) * noise,
            n1=noise,
            n2=noise * (1.1 + 8.9 * n2_ratio),
            u=u,
            d1_target=mode < 0.5,
            seed=self._rng.getrandbits(63),
        )


def covered_d1(problem: Problem) -> float:
    """A d1 strictly inside the valid range, where the SNR threshold holds.

    The valid range runs from d_min(1) to d1_min_at_d2min. Below the
    conditional variance cv the threshold is at least t = P/n1 exactly
    where (1+t)*d**2 - (2+t)*cv*d + sigma2*cv >= 0, so the covered part
    is at most two intervals; d1 is placed by ``problem.u`` along their
    joint length, 2% away from each end.
    """
    s2, rho, p, n1 = problem.sigma2, abs(problem.rho), problem.power, problem.n1
    lo = s2 * n1 / (n1 + p)
    hi = s2 * (n1 + p * (1.0 - rho * rho)) / (n1 + p)
    cv = s2 * (1.0 - rho * rho)
    t = p / n1
    a, b, c = 1.0 + t, -(2.0 + t) * cv, s2 * cv
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        pieces = [(lo, hi)]
    else:
        root = math.sqrt(disc)
        pieces = [(lo, min((-b - root) / (2.0 * a), hi)), (max((-b + root) / (2.0 * a), lo), hi)]
        pieces = [(x, y) for x, y in pieces if y > x]
    position = problem.u * sum(y - x for x, y in pieces)
    for x, y in pieces:
        if position <= y - x or (x, y) == pieces[-1]:
            frac = min(position / (y - x), 1.0)
            return x + (y - x) * (0.02 + 0.96 * frac)
        position -= y - x
    raise AssertionError("unreachable")


@dataclass
class Op:
    run: Callable[[], object]  # the timed call
    check: Callable[[object], dict[str, int]]  # raises CheckFailed; returns tallies
    digest: Callable[[object], bytes]  # the output bytes fed to the run digest


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one op is, at full size
    make: Callable[[Problem, bool], Op]  # (problem, smoke) -> op
    traced_ops: int  # ops in the traced phase of a --trace 1 run
    numpy_bound: bool = False  # op time is mostly numpy (selects the calibration kernel)


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def run() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out)
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_digest(output: tuple[int, str, str]) -> bytes:
    code, text, _ = output
    return f"{code}\n{text}".encode()


def _exit_code(output: tuple[int, str, str], allowed: tuple[int, ...]) -> tuple[int, str]:
    code, text, err = output
    if code not in allowed:
        raise CheckFailed(f"exit code {code}: {err.strip()[-200:]}")
    return code, text


def _key_values(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    missing = [key for key in keys if key not in fields]
    if missing:
        raise CheckFailed(f"missing fields {missing}")
    return fields


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- mc_simulate --------------------------------------------------------------


def _mc_simulate(problem: Problem, smoke: bool) -> Op:
    samples = 70_000 if smoke else 1_000_000
    target = covered_d1(problem) if problem.d1_target else None
    mode = ["--d1-target", repr(target)] if target is not None else ["--alpha", repr(problem.u)]
    argv = ["simulate", *problem.flags(), *mode, "--samples", str(samples), "--seed", str(problem.seed)]
    _, channel = problem.canonical()

    def check(output) -> dict[str, int]:
        _, text = _exit_code(output, (0,))
        f = _key_values(text, SIMULATE_FIELDS)
        _require(int(f["samples"]) == samples and int(f["seed"]) == problem.seed, "samples/seed echo")
        for i in ("1", "2"):
            gap = abs(float(f[f"empirical_d{i}"]) - float(f[f"analytic_d{i}"]))
            _require(gap <= _CI_MULTIPLE * float(f[f"ci_half_width_d{i}"]), f"empirical d{i} off analytic")
        report = montecarlo.SimulationReport(
            empirical_d1=float(f["empirical_d1"]),
            empirical_d2=float(f["empirical_d2"]),
            empirical_power=float(f["empirical_power"]),
            ci_half_width_d1=float(f["ci_half_width_d1"]),
            ci_half_width_d2=float(f["ci_half_width_d2"]),
            samples=samples,
            seed=problem.seed,
        )
        # x is Gaussian with variance P, so the mean of x**2 has standard error P*sqrt(2/n)
        _require(montecarlo.power_check(report, channel, _CI_MULTIPLE * math.sqrt(2.0 / samples)), "power")
        if target is not None:
            _require(abs(float(f["analytic_d1"]) - target) <= _MATCH_TOL * problem.sigma2, "d1 target missed")
        else:
            _require(float(f["alpha"]) == problem.u, "alpha echo")
        return {"d1_target_runs": int(target is not None), "sign_flip_runs": int(problem.rho < 0)}

    return Op(_cli_run(argv), check, _cli_digest)


# -- region_trace ---------------------------------------------------------------


def _region_trace(problem: Problem, smoke: bool) -> Op:
    points = 101 if smoke else 1001
    argv = ["trace", "--points", str(points), *problem.flags()]
    tol = _MATCH_TOL * problem.sigma2

    def check(output) -> dict[str, int]:
        _, text = _exit_code(output, (0,))
        lines = text.splitlines()
        _require(bool(lines) and lines[0] == TRACE_HEADER, "header")
        _require(len(lines) == points + 1, f"{len(lines) - 1} rows, expected {points}")
        prev_d1 = math.inf
        covered = 0
        for line in lines[1:]:
            cells = line.split(",")
            _require(len(cells) == 7 and cells[6] in ("true", "false"), f"malformed row {line!r}")
            d1, d2 = float(cells[1]), float(cells[2])
            _require(d1 < prev_d1, "d1 not strictly decreasing")
            prev_d1 = d1
            if cells[3]:
                covered += 1
                _require(abs(d2 - float(cells[3])) <= tol, f"converse misses achievable at d1={d1!r}")
        return {
            "covered_points": covered,
            "uncovered_points": points - covered,
            "configs_below_simple_threshold": int(problem.below_simple_threshold()),
        }

    return Op(_cli_run(argv), check, _cli_digest)


# -- region_verify --------------------------------------------------------------


def _region_verify(problem: Problem, smoke: bool) -> Op:
    grid = 10 if smoke else 50  # 50 is the CLI default; the full op passes no --grid
    argv = ["verify", *problem.flags(), *(["--grid", str(grid)] if smoke else [])]

    def check(output) -> dict[str, int]:
        code, text = _exit_code(output, (0, 1))
        f = _key_values(text, VERIFY_FIELDS)
        _require(f["verify"] in ("PASS", "FAIL"), "verdict")
        _require((code == 0) == (f["verify"] == "PASS"), f"exit {code} with verify={f['verify']}")
        matched, excluded = int(f["matched_points"]), int(f["excluded_points"])
        _require(matched + excluded == grid, "point counts")
        return {
            "covered_points": matched,
            "excluded_points": excluded,
            "oracle_points": int(f["oracle_points"]),
            "verify_fail": int(code == 1),
        }

    return Op(_cli_run(argv), check, _cli_digest)


# -- witness_sweep --------------------------------------------------------------


def _witness_sweep(problem: Problem, smoke: bool) -> Op:
    steps = 11 if smoke else 101  # the 101x101 grid of acceptance criterion 4
    source, channel = problem.canonical()
    d1 = covered_d1(problem)
    scale = (steps - 1) / 2.0

    def run() -> tuple[float, list[float]]:
        best = closed_forms.d2_converse_bound(
            source, channel, d1, closed_forms.optimal_witness(source, channel, d1)
        )
        grid = []
        for i in range(steps):
            for j in range(steps):
                witness = closed_forms.BoundWitness(i / scale, j / scale)
                try:
                    grid.append(closed_forms.d2_converse_bound(source, channel, d1, witness))
                except BoundUndefinedError:
                    grid.append(math.nan)
        return best, grid

    def check(output) -> dict[str, int]:
        best, grid = output
        _require(math.isfinite(best), "optimal bound not finite")
        defined = [value for value in grid if not math.isnan(value)]
        _require(all(best >= value - _MATCH_TOL * problem.sigma2 for value in defined), "witness not maximal")
        return {"grid_points_undefined": len(grid) - len(defined)}

    def digest(output) -> bytes:
        best, grid = output
        return struct.pack(f"<{len(grid) + 1}d", best, *grid)

    return Op(run, check, digest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_simulate", "simulate --samples 1000000", _mc_simulate, traced_ops=4, numpy_bound=True),
        Workload("region_trace", "trace --points 1001", _region_trace, traced_ops=16),
        Workload("region_verify", "verify (grid 50, tol 1e-9, 12 oracle points)", _region_verify, traced_ops=32),
        Workload("witness_sweep", "optimal_witness + 101x101 d2_converse_bound grid", _witness_sweep, traced_ops=16),
    )
}
