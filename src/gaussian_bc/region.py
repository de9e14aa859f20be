"""Distortion-region computations: boundary trace, converse curve, matching.

The achievable boundary of the uncoded scheme is traced by sweeping the
mixing weight alpha over [0, 1] (beta = 1 - alpha); the map alpha -> d1
is monotone decreasing, so consumers can re-interpolate in either
coordinate. A point is covered iff the SNR is at or below the threshold
at its d1, decided exactly by the row kernel ``closed_forms._Curve``: a
trace row by the sign of the converse kernel's margin ``A =
rho*n1*q - power*alpha*(1 - alpha)*(1 - rho**2)`` at its own alpha, and
a verifier's grid point, like :func:`converse_at`, by the kernel's d1
predicate. Each falls back to exact rational arithmetic where its float
margin is within rounding of 0. A covered point with alpha > 0 (d1 strictly below
``d1_min_at_d2min``) also carries the converse value at the optimal
witness; the two curves coincide there, which :func:`verify_matching`
checks on a grid (a grid with no covered point fails that check). At
the same covered grid points it checks the other side of the theorem:
the joint rate-distortion oracle at ``(d1, d2_min_at_rx1(d1))`` equals
receiver 1's channel capacity.

Each public function builds the row kernel ``closed_forms._Curve`` once
per call, before its own argument checks. Building it is the problem's
validation and fixes its units (sigma2 as ``s2u*2**e``, the channel in
``closed_forms._channel_unit``), so every result is the same at every
common power-of-two scale of the channel. Every point is then evaluated
through that curve (and, in the verifier, the oracle kernel of
:mod:`.rate_distortion`), which never validates again.
A trace row is two kernel calls: ``forms`` gives q, d1 and the
achievable d2, and ``converse``, at the same q, the converse at the
optimal witness, whose None is "not covered". The trace has each row's
alpha already, so it solves none. The verifier evaluates each grid point
with the kernel's ``at_d1``, the one evaluation of a d1, which the
per-d1 record ``closed_forms._rx1_point`` makes too: the d1 predicate
decides, so a d1 that is not covered takes no solve, and a covered one
is solved and its converse taken. A trace makes no kernel call outside
its rows. This module evaluates no threshold of its own, and diagnoses
no kernel failure: a converse the kernel cannot hold (P/n1 past the
float range) is already an OutOfRangeError naming power when it
arrives. No point of either goes through the
public (memoized) closed forms, so neither re-validates the problem nor
fills the per-d1 cache. :func:`converse_at`, exported from here and
defined in ``closed_forms`` (which does not list it), is one read of
that cache's record, which it shares with the public per-d1 functions.

``BoundaryPoint``, ``MatchPoint`` and ``MatchReport`` are named tuples,
like every record of the package (see :mod:`.params`). They are
immutable and hashable, print as ``Name(field=value, ...)``, and, being
tuples, compare equal to plain tuples of their fields. A
``BoundaryPoint`` is flat: its seven fields are the seven columns of the
trace CSV in order, so a trace builds one tuple per row and no
``closed_forms.BoundWitness``; its ``witness`` is derived on access.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .closed_forms import BoundWitness, _Curve, converse_at
from .errors import OutOfRangeError
from .params import ChannelParams, SourceParams
from .rate_distortion import _r_joint, channel_capacity

__all__ = [
    "BoundaryPoint",
    "MatchPoint",
    "MatchReport",
    "converse_at",
    "trace_uncoded_boundary",
    "verify_matching",
]


class BoundaryPoint(NamedTuple):
    """One traced point of the uncoded achievability curve: one row of the trace CSV.

    The fields are the CSV columns ``alpha, d1, d2_uncoded, d2_converse,
    a1_star, a2_star, optimal_flag`` in order. ``optimal_flag`` records
    whether the SNR threshold condition holds at this d1, decided exactly
    as the sign of the converse kernel's margin A at the row's floats
    (alpha, 1 - alpha) (on the stretch from the conditional variance up,
    where the threshold is infinite, A > 0 and the flag is true). ``d2_converse`` and the optimal witness
    ``(a1_star, a2_star)`` are set iff the flag is true and alpha > 0; the
    alpha = 0 row sits at ``d1_min_at_d2min``, where the converse is
    undefined.
    """

    alpha: float
    d1: float
    d2_achievable: float
    d2_converse: float | None
    a1_star: float | None
    a2_star: float | None
    optimal_flag: bool

    @property
    def witness(self) -> BoundWitness | None:
        """The optimal witness ``BoundWitness(a1_star, a2_star)``, None where the converse is absent."""
        return None if self.d2_converse is None else BoundWitness(self.a1_star, self.a2_star)


class MatchPoint(NamedTuple):
    """One grid point of a matching verification run.

    ``oracle_error_bits`` is ``|R(d1, d2_min_at_rx1(d1)) - C1|``: the
    joint-rate oracle at the point against receiver 1's capacity. Like
    the converse fields it is None where the point is not covered.
    """

    d1: float
    covered: bool
    d2_achievable: float | None
    d2_converse: float | None
    residual: float | None
    witness: BoundWitness | None
    oracle_error_bits: float | None


class MatchReport(NamedTuple):
    """Outcome of :func:`verify_matching`.

    ``passed`` is true iff at least one point is covered and every covered
    point has residual <= tol*sigma2 (``tol`` is relative to sigma2, as the
    residual scales with it); points not covered by the threshold
    condition are excluded from pass/fail, and a grid with none covered
    matches nothing, so it does not pass.
    ``max_residual`` and ``max_oracle_error_bits`` are maxima over the
    covered points, None when there are none. The oracle error is
    reported, not judged: its tolerance is the caller's.
    """

    grid_size: int
    tol: float
    points: tuple[MatchPoint, ...]
    max_residual: float | None
    max_oracle_error_bits: float | None
    passed: bool

    @property
    def covered_count(self) -> int:
        return sum(1 for p in self.points if p.covered)

    @property
    def excluded_count(self) -> int:
        return sum(1 for p in self.points if not p.covered)


def _d1_grid(lo: float, hi: float, size: int) -> list[float]:
    """``size`` uniform d1 values strictly inside (lo, hi) in exact arithmetic.

    Each is ``lo + (hi - lo)*(i + 1)/(size + 1)``, taken in the power-of-two
    unit of hi so that ``(hi - lo)*(i + 1)`` cannot overflow near the top
    of the float range; where it does not, the unit leaves every bit as
    it is.
    """
    hi, e = math.frexp(hi)
    lo = math.ldexp(lo, -e)
    return [math.ldexp(lo + (hi - lo) * (i + 1) / (size + 1), e) for i in range(size)]


def trace_uncoded_boundary(
    source: SourceParams, channel: ChannelParams, num_points: int
) -> list[BoundaryPoint]:
    """Trace the uncoded curve at num_points uniform alpha values on [0, 1].

    Points are ordered by ascending alpha, hence strictly decreasing d1 and
    strictly increasing d2. Each row's flag is the converse kernel's
    exact coverage test at the row's own alpha (the sign of its margin A), and
    converse fields are populated iff the row is covered and alpha > 0,
    from the same kernel call.
    The distortions are sigma2 times ratios in [0, 1], so they overflow
    nowhere sigma2 does not. A covered row whose converse the kernel
    cannot hold as a float (P/n1 past the float range; the alpha = 1 row
    is always covered) raises the kernel's OutOfRangeError naming power.
    Short of that, a d1 at alpha = 1, the last row's and the least on
    the curve, that underflows to 0 raises OutOfRangeError naming
    sigma2. The row kernel runs in the unit of sigma2 and in that of the
    channel (see ``closed_forms``), so no common scale of either is
    refused.
    """
    curve = _Curve(source, channel)
    if num_points < 2:
        raise OutOfRangeError("num_points must be >= 2")
    forms, converse = curve.forms, curve.converse
    points: list[BoundaryPoint] = []
    # tuple.__new__ is what BoundaryPoint._make does, minus a Python frame per row
    new = tuple.__new__
    last = num_points - 1
    for i in range(num_points):
        alpha = i / last
        beta = 1.0 - alpha
        q, d1, d2 = forms(alpha, beta)
        row = converse(alpha, beta, q)
        if row is not None and alpha > 0.0:
            points.append(new(BoundaryPoint, (alpha, d1, d2, row[1], row[2], row[3], True)))
        else:
            points.append(new(BoundaryPoint, (alpha, d1, d2, None, None, None, row is not None)))
    if not d1 > 0.0:  # d1 at alpha = 1 (i/last is exactly 1.0), the least on the curve
        raise OutOfRangeError("sigma2 too small: d1 at alpha = 1, sigma2*n1/(power + n1), underflows to 0")
    return points


def verify_matching(
    source: SourceParams, channel: ChannelParams, grid_size: int, tol: float
) -> MatchReport:
    """Check that achievability and converse coincide on a d1 grid.

    The grid is uniform over the open interval between ``d_min(1)`` and
    ``d1_min_at_d2min``; grid_size = 1 probes the midpoint. Each point is
    the row kernel's ``at_d1``: its d1 predicate decides, exactly,
    whether the point is covered (``is_uncoded_optimal`` reads the same
    predicate), a point not covered takes no solve and is excluded from
    the pass/fail verdict, and at a covered point the alpha is solved
    once and the converse taken there. ``d2_min_at_rx1`` refuses exactly
    the points not covered. A covered point passes
    when its residual is at most ``tol*sigma2``; a nan residual never
    passes, and a grid with no covered point does not pass. Each covered
    point also carries the joint-rate oracle's error against receiver 1's
    capacity, evaluated at the companion floor of the alpha solved for
    d1, where the converse is taken too. The oracle and the converse run
    in the unit of sigma2 (``math.frexp``; see ``closed_forms``), so the
    report is the same at every scale of sigma2. Failures are data in the
    report, never exceptions; a tol that is not a finite number >= 0
    (which would pass or fail every point vacuously) raises
    OutOfRangeError, and so does a d1 range too narrow to hold the grid
    strictly inside it in floating point (its width is
    sigma2*power*(1 - rho**2)/(power + n1); the error names sigma2 where
    the range is subnormal, and power otherwise). The kernels take the
    channel in its unit (``closed_forms._channel_unit``), so the report
    is also the same at every common scale of (power, n1, n2).
    """
    curve = _Curve(source, channel)
    if grid_size < 1:
        raise OutOfRangeError("grid_size must be >= 1")
    if not (0.0 <= tol <= sys.float_info.max):  # exact for an int past the float range
        raise OutOfRangeError("tol must be a finite number >= 0")
    lo, hi = curve.lo_d, curve.hi_d
    grid = _d1_grid(lo, hi, grid_size)
    if not lo < grid[0] <= grid[-1] < hi:
        # subnormal ends are too coarse for a grid at any power: sigma2 is the cause
        cause = "sigma2 too small" if hi < sys.float_info.min else "power too small (or |rho| too close to 1)"
        raise OutOfRangeError(
            f"{cause}: the d1 range ({lo!r}, {hi!r}) holds no {grid_size}-point grid in floating point"
        )
    capacity = channel_capacity(channel.power, channel.n1)
    at_d1 = curve.at_d1
    s2u, down, ldexp = curve.s2u, -curve.e, math.ldexp  # d*2**down is d in the oracle's unit, sigma2 = s2u
    rho, limit = source.rho, tol * source.sigma2
    new = tuple.__new__
    points: list[MatchPoint] = []
    # running maxima with builtin max's semantics (y replaces x iff y > x,
    # in grid order, so a leading nan stays); None until a point is covered
    max_residual = max_oracle_error = None
    within = True
    for d1 in grid:
        point = at_d1(d1)
        if point is None:
            points.append(new(MatchPoint, (d1, False, None, None, None, None, None)))
            continue
        _, _, _, d2_ach, d2t, (_, psi_value, a1, a2) = point
        residual = abs(d2_ach - psi_value)
        oracle_error = abs(_r_joint(s2u, rho, ldexp(d1, down), ldexp(d2t, down)) - capacity)
        witness = new(BoundWitness, (a1, a2))
        points.append(new(MatchPoint, (d1, True, d2_ach, psi_value, residual, witness, oracle_error)))
        if max_residual is None:
            max_residual, max_oracle_error = residual, oracle_error
        else:
            max_residual = residual if residual > max_residual else max_residual
            max_oracle_error = oracle_error if oracle_error > max_oracle_error else max_oracle_error
        within = within and residual <= limit
    return MatchReport(
        grid_size=grid_size,
        tol=tol,
        points=tuple(points),
        max_residual=max_residual,
        max_oracle_error_bits=max_oracle_error,
        passed=max_residual is not None and within,
    )
