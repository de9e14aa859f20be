"""Rate-distortion functions and the information bounds behind the converse.

Scalar pieces are closed forms in bits (log base 2 throughout):

* ``r_scalar``       -- rate for one Gaussian component,
* ``r_conditional``  -- rate for the first component when the second is
  side information at both ends,
* ``channel_capacity`` -- AWGN capacity ``0.5*log2(1 + P/N)``.

``r_joint_numeric`` is an independent numeric oracle for the joint
rate-distortion function of the correlated pair under per-component MSE
constraints. It never transcribes a formula: for jointly Gaussian test
channels the rate is ``0.5*log2(det K_S / det K_E)`` where the error
covariance K_E = [[d1, e], [e, d2]] may be any matrix with

    0 <= K_E,   K_S - K_E >= 0 (both PSD),   d1 <= Delta1,   d2 <= Delta2,

so the oracle maximizes det K_E over that feasible set. At the optimum
at least one diagonal constraint is active, so it suffices to search the
two boundary segments {d1 = Delta1} and {d2 = Delta2}. On each segment
the inner maximization over the off-diagonal e is exact: det is the
concave parabola d1*d2 - e**2, maximized at e = 0 clamped into the
analytically-computed feasible interval. The outer maximization over the
free diagonal entry runs a coarse scan plus golden refinement (det is
quasi-concave on the convex feasible set, hence unimodal along lines).
Converged well below 1e-6 bits.

``conditional_info_bound`` and ``d2_lower_via_rx1`` are the two
converse endpoints: the per-symbol cap on what receiver 1's observation
can reveal about the first component given the second, for any scheme
with receiver-2 distortion delta2; and the floor on receiver-2
distortion implied by a side-information distortion at receiver 1. Both
are arranged so that their anchor identities -- zero information at the
receiver-2 floor, and the floor value at the full conditional variance
-- hold exactly in IEEE arithmetic, not just up to rounding.
"""

from __future__ import annotations

import math

from .errors import InfeasibleDistortionError, OutOfRangeError
from .params import (
    ChannelParams,
    SourceParams,
    conditional_variance,
    validate_problem,
    validate_source,
)

__all__ = [
    "channel_capacity",
    "conditional_info_bound",
    "d2_lower_via_rx1",
    "r_conditional",
    "r_joint_numeric",
    "r_scalar",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Scan size and golden-section tolerance of the oracle's diagonal search:
# it is curvature-limited and far below the 1e-6-bit convergence budget.
_D_SCAN = 256
_D_XTOL_REL = 1e-8


def r_scalar(variance: float, delta: float) -> float:
    """Rate for a single Gaussian component: ``max(0, 0.5*log2(variance/delta))``."""
    if not (variance > 0):
        raise OutOfRangeError("variance must be > 0")
    if not (delta > 0):
        raise OutOfRangeError("delta must be > 0")
    return max(0.0, 0.5 * math.log2(variance / delta))


def r_conditional(source: SourceParams, delta1: float) -> float:
    """Rate for the first component with the second as two-sided side information.

    ``0.5*log2(sigma2*(1-rho**2)/delta1)`` for
    ``0 < delta1 <= sigma2*(1-rho**2)``.
    """
    validate_source(source)
    cv = conditional_variance(source)
    if not (0 < delta1 <= cv):
        raise OutOfRangeError(
            f"delta1 must satisfy 0 < delta1 <= {cv!r} (the conditional variance)"
        )
    return 0.5 * math.log2(cv / delta1)


def channel_capacity(power: float, noise: float) -> float:
    """AWGN capacity ``0.5*log2(1 + power/noise)`` in bits per use."""
    if not (power > 0):
        raise OutOfRangeError("power must be > 0")
    if not (noise > 0):
        raise OutOfRangeError("noise must be > 0")
    return 0.5 * math.log2(1.0 + power / noise)


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """Max of a unimodal f on [lo, hi]; returns the best value seen."""
    best = max(f(lo), f(hi))
    if hi - lo <= xtol:
        return max(best, f(0.5 * (lo + hi)))
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
    return max(best, f1, f2)


def _best_det_at(sigma2: float, rho_sig: float, d1: float, d2: float) -> float:
    """Max of ``d1*d2 - e**2`` over off-diagonals e keeping both PSD conditions.

    Feasible e lie in [-sqrt(d1*d2), sqrt(d1*d2)] intersected with
    [rho_sig - s, rho_sig + s] where s = sqrt((sigma2-d1)*(sigma2-d2));
    both intervals follow from the 2x2 PSD determinant conditions. The
    objective is a concave parabola in e, so its maximum over the interval
    sits at e = 0 clamped into it. Returns -inf when the intersection is
    empty.
    """
    lim = math.sqrt(d1 * d2)
    s = math.sqrt(max((sigma2 - d1) * (sigma2 - d2), 0.0))
    lo = max(-lim, rho_sig - s)
    hi = min(lim, rho_sig + s)
    if lo > hi:
        return -math.inf
    e = min(max(0.0, lo), hi)
    return d1 * d2 - e * e


def _best_det_on_edge(
    sigma2: float, rho_sig: float, fixed: float, free_cap: float
) -> float:
    """Max determinant on the segment {one diagonal = fixed, the other <= free_cap}."""

    def h(d: float) -> float:
        return _best_det_at(sigma2, rho_sig, d, fixed)

    xs = [free_cap * (j + 1) / _D_SCAN for j in range(_D_SCAN)]
    vals = [h(x) for x in xs]
    best = max(vals)
    if not math.isfinite(best):
        return -math.inf
    j = vals.index(best)
    lo = xs[j - 1] if j > 0 else xs[0] / 2.0
    hi = xs[j + 1] if j < _D_SCAN - 1 else free_cap
    return max(best, _golden_max(h, lo, hi, _D_XTOL_REL * free_cap))


def r_joint_numeric(source: SourceParams, delta1: float, delta2: float) -> float:
    """Joint rate-distortion oracle for the correlated pair, in bits.

    Minimizes the mutual information over jointly Gaussian test channels by
    maximizing det K_E over feasible error covariances (see module
    docstring); distortion arguments above sigma2 are clamped to sigma2
    (distortion beyond the variance is free). Clamped at 0 bits.
    """
    validate_source(source)
    if not (delta1 > 0):
        raise OutOfRangeError("delta1 must be > 0")
    if not (delta2 > 0):
        raise OutOfRangeError("delta2 must be > 0")
    s2 = source.sigma2
    rho_sig = source.rho * s2
    cap1 = min(delta1, s2)
    cap2 = min(delta2, s2)
    det_ks = s2 * s2 - rho_sig * rho_sig
    best = max(
        _best_det_on_edge(s2, rho_sig, cap1, cap2),  # d1 pinned at its cap
        _best_det_on_edge(s2, rho_sig, cap2, cap1),  # d2 pinned at its cap
    )
    if not (best > 0.0):
        # Unreachable: the MMSE-chain error covariance is always feasible.
        raise OutOfRangeError("no feasible error covariance found")
    return max(0.0, 0.5 * math.log2(det_ks / best))


def conditional_info_bound(
    source: SourceParams, channel: ChannelParams, delta2: float
) -> float:
    """Per-symbol cap (bits) on receiver-1 information about s1 given s2.

    For any scheme whose receiver-2 distortion is delta2:

        0.5 * log2(((power + n2)*delta2/sigma2 - n2 + n1) / n1)

    evaluated relative to the receiver-2 floor so that the value is exactly
    0.0 at ``delta2 = d_min(2)`` for every parameter set. Distortions below
    that floor are unachievable and rejected.
    """
    validate_problem(source, channel)
    s2 = source.sigma2
    p, n1, n2 = channel.power, channel.n1, channel.n2
    d2_floor = s2 * n2 / (n2 + p)
    if delta2 < d2_floor:
        raise InfeasibleDistortionError(
            f"delta2 is below the single-user minimum {d2_floor!r}"
        )
    # Algebraically identical to the display above; the floor-relative form
    # cancels exactly at delta2 == d2_floor.
    arg = (p + n2) * (delta2 - d2_floor) / (s2 * n1) + 1.0
    return max(0.0, 0.5 * math.log2(arg))


def d2_lower_via_rx1(
    source: SourceParams, channel: ChannelParams, cond_d1: float
) -> float:
    """Floor on receiver-2 distortion from the receiver-1 side-information chain.

        sigma2/(power + n2) * (sigma2*(1-rho**2)*n1/cond_d1 + n2 - n1)

    for ``0 < cond_d1 <= sigma2*(1-rho**2)``; diverges as cond_d1 -> 0. The
    grouping below makes the value equal ``d_min(2)`` bit-for-bit at
    ``cond_d1 == conditional_variance(source)``.
    """
    validate_problem(source, channel)
    cv = conditional_variance(source)
    if not (0 < cond_d1 <= cv):
        raise OutOfRangeError(
            f"cond_d1 must satisfy 0 < cond_d1 <= {cv!r} (the conditional variance)"
        )
    p, n1, n2 = channel.power, channel.n1, channel.n2
    ratio = cv / cond_d1  # exactly 1.0 at the endpoint
    return source.sigma2 * (n1 * (ratio - 1.0) + n2) / (n2 + p)
