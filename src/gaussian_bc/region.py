"""Distortion-region computations: boundary trace, converse curve, matching.

The achievable boundary of the uncoded scheme is traced by sweeping the
mixing weight alpha over [0, 1] (beta = 1 - alpha); the map alpha -> d1
is monotone decreasing, so consumers can re-interpolate in either
coordinate. Wherever the converse preconditions hold (d1 strictly below
``d1_min_at_d2min`` and SNR at or below the threshold) each traced point
also carries the converse value at the optimal witness; the two curves
coincide there, which :func:`verify_matching` checks on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import (
    BoundWitness,
    d1_min_at_d2min,
    d2_converse_bound,
    d_min,
    is_uncoded_optimal,
    optimal_witness,
    solve_alpha_for_d1,
    uncoded_distortions,
)
from .errors import OutOfRangeError
from .params import ChannelParams, SourceParams, UncodedCoeffs, validate_problem

__all__ = [
    "BoundaryPoint",
    "MatchPoint",
    "MatchReport",
    "converse_at",
    "trace_uncoded_boundary",
    "verify_matching",
]


@dataclass(frozen=True)
class BoundaryPoint:
    """One traced point of the uncoded achievability curve.

    ``d2_converse`` and ``witness`` are None where the converse
    preconditions fail; ``optimal_flag`` records whether the SNR threshold
    condition holds at this d1 (points beyond the range condition are
    uncoded-achievable for every SNR, so the flag is true there as well --
    the threshold is infinite on that stretch).
    """

    alpha: float
    d1: float
    d2_achievable: float
    d2_converse: float | None
    witness: BoundWitness | None
    optimal_flag: bool


@dataclass(frozen=True)
class MatchPoint:
    """One grid point of a matching verification run."""

    d1: float
    covered: bool
    d2_achievable: float | None
    d2_converse: float | None
    residual: float | None
    witness: BoundWitness | None


@dataclass(frozen=True)
class MatchReport:
    """Outcome of :func:`verify_matching`.

    ``passed`` is true iff every covered point has residual <= tol and a
    nonnegative witness; points not covered by the threshold condition are
    excluded from pass/fail.
    """

    grid_size: int
    tol: float
    points: tuple[MatchPoint, ...]
    max_residual: float | None
    passed: bool

    @property
    def covered_count(self) -> int:
        return sum(1 for p in self.points if p.covered)

    @property
    def excluded_count(self) -> int:
        return sum(1 for p in self.points if not p.covered)


def converse_at(
    source: SourceParams, channel: ChannelParams, d1: float
) -> tuple[float, BoundWitness]:
    """Converse value and its optimal witness at the given d1.

    Raises DistortionRangeError or SnrThresholdError when the respective
    precondition fails, so callers can tell the two apart.
    """
    witness = optimal_witness(source, channel, d1)
    return d2_converse_bound(source, channel, d1, witness), witness


def trace_uncoded_boundary(
    source: SourceParams, channel: ChannelParams, num_points: int
) -> list[BoundaryPoint]:
    """Trace the uncoded curve at num_points uniform alpha values on [0, 1].

    Points are ordered by ascending alpha, hence strictly decreasing d1 and
    strictly increasing d2. Converse fields are populated only where the
    converse preconditions hold.
    """
    validate_problem(source, channel)
    if num_points < 2:
        raise OutOfRangeError("num_points must be >= 2")
    points: list[BoundaryPoint] = []
    for i in range(num_points):
        alpha = i / (num_points - 1)
        pair = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha))
        flag = is_uncoded_optimal(source, channel, pair.d1)
        try:
            psi_value, witness = converse_at(source, channel, pair.d1)
        except OutOfRangeError:
            psi_value, witness = None, None
        points.append(
            BoundaryPoint(
                alpha=alpha,
                d1=pair.d1,
                d2_achievable=pair.d2,
                d2_converse=psi_value,
                witness=witness,
                optimal_flag=flag,
            )
        )
    return points


def verify_matching(
    source: SourceParams, channel: ChannelParams, grid_size: int, tol: float
) -> MatchReport:
    """Check that achievability and converse coincide on a d1 grid.

    The grid is uniform over the open interval between ``d_min(1)`` and
    ``d1_min_at_d2min``; grid_size = 1 probes the midpoint. Points where
    the threshold condition fails are recorded as not covered and excluded
    from the pass/fail verdict. Failures are data in the report, never
    exceptions; a tol that is not a finite number >= 0 (which would pass
    or fail every point vacuously) raises OutOfRangeError, and so does a
    d1 range too narrow to hold the grid strictly inside it in floating
    point (its width is sigma2*power*(1 - rho**2)/(power + n1)).
    """
    validate_problem(source, channel)
    if grid_size < 1:
        raise OutOfRangeError("grid_size must be >= 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise OutOfRangeError("tol must be a finite number >= 0")
    lo = d_min(source, channel, 1)
    hi = d1_min_at_d2min(source, channel)
    grid = [lo + (hi - lo) * (i + 1) / (grid_size + 1) for i in range(grid_size)]
    if not lo < grid[0] <= grid[-1] < hi:
        raise OutOfRangeError(
            f"power too small (or |rho| too close to 1): the d1 range ({lo!r}, {hi!r}) "
            f"holds no {grid_size}-point grid in floating point"
        )
    points: list[MatchPoint] = []
    max_residual: float | None = None
    passed = True
    for d1 in grid:
        if not is_uncoded_optimal(source, channel, d1):
            points.append(MatchPoint(d1, False, None, None, None, None))
            continue
        alpha = solve_alpha_for_d1(source, channel, d1)
        d2_ach = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha)).d2
        psi_value, witness = converse_at(source, channel, d1)
        residual = abs(d2_ach - psi_value)
        points.append(MatchPoint(d1, True, d2_ach, psi_value, residual, witness))
        if max_residual is None or residual > max_residual:
            max_residual = residual
        if residual > tol or witness.a1 < 0 or witness.a2 < 0:
            passed = False
    return MatchReport(
        grid_size=grid_size,
        tol=tol,
        points=tuple(points),
        max_residual=max_residual,
        passed=passed,
    )
