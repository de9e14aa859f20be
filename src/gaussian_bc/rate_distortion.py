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
free diagonal entry d is exact too: with the other entry pinned at f,
the best determinant is unimodal in d and peaks at the stationary point
d* = sigma2 - rho**2*(sigma2 - f), the MMSE of the free component given
the pinned one observed with error f. So each segment's maximum is the
better of its two candidates d = cap and d = min(cap, d*); no search.
The two segments share the candidate where both entries sit at their
caps, so the oracle evaluates three candidates in all.

``verify`` calls the oracle kernel at every covered grid point, and the
kernel is a few dozen float operations, so a builtin ``max`` or ``min``
call (about four times the cost of a conditional expression) was most
of its time. The kernels write each as the conditional expression that
returns the same float, nan and signed zeros included (see
``_best_det_at``).

The oracle's value depends on the distortions and sigma2 only through
their ratios, and ``_r_joint`` multiplies sigma2-sized entries, so its
callers pass them in the unit of sigma2: with ``sigma2 = s2u*2**e``
(``math.frexp``), they pass s2u and each distortion times ``2**-e``.
That is exact, so it keeps every bit where the plain entries are normal
floats, and at any other sigma2 no product underflows or overflows.

``conditional_info_bound`` and ``d2_lower_via_rx1`` are the two
converse endpoints: the per-symbol cap on what receiver 1's observation
can reveal about the first component given the second, for any scheme
with receiver-2 distortion delta2; and the floor on receiver-2
distortion implied by a side-information distortion at receiver 1 (the
converse d2 of ``closed_forms._psi``, its one copy). Both are arranged
so that their anchor identities -- zero information at the receiver-2
floor, and the floor value at the full conditional variance -- hold
exactly in IEEE arithmetic, not just up to rounding.
"""

from __future__ import annotations

import math

from .closed_forms import _Curve, _psi
from .errors import InfeasibleDistortionError, OutOfRangeError
from .params import ChannelParams, SourceParams, conditional_variance, validate_source

__all__ = [
    "channel_capacity",
    "conditional_info_bound",
    "d2_lower_via_rx1",
    "r_conditional",
    "r_joint_numeric",
    "r_scalar",
]

# The SNR below which channel_capacity takes log1p, not log2 of 1 + snr
_SMALL_SNR = 2.0**-20


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
    """AWGN capacity ``0.5*log2(1 + power/noise)`` in bits per use.

    Where ``power/noise`` overflows, the value is taken as
    ``0.5*(log2(power) - log2(noise))``, so it is finite at every pair of
    positive finite floats. Below an SNR of 2**-20, where ``1 + snr``
    would round away the SNR's low digits, it is taken through ``log1p``.
    """
    if not (power > 0):
        raise OutOfRangeError("power must be > 0")
    if not (noise > 0):
        raise OutOfRangeError("noise must be > 0")
    snr = power / noise
    if snr == math.inf:  # past the float range, where the + 1 is below rounding
        return 0.5 * (math.log2(power) - math.log2(noise))
    if snr < _SMALL_SNR:
        return 0.5 * math.log1p(snr) / math.log(2.0)
    return 0.5 * math.log2(1.0 + snr)


def _best_det_at(sigma2: float, rho_sig: float, d1: float, d2: float) -> float:
    """Max of ``d1*d2 - e**2`` over off-diagonals e keeping both PSD conditions.

    Feasible e lie in [-sqrt(d1*d2), sqrt(d1*d2)] intersected with
    [rho_sig - s, rho_sig + s] where s = sqrt((sigma2-d1)*(sigma2-d2));
    both intervals follow from the 2x2 PSD determinant conditions. The
    objective is a concave parabola in e, so its maximum over the interval
    sits at e = 0 clamped into it. Returns -inf when the intersection is
    empty. The result is symmetric in (d1, d2) bit for bit, as IEEE
    products are.

    ``verify`` runs this kernel three times per covered grid point, so it
    takes no builtin ``max``/``min``: a call to either costs about four
    conditional expressions here. Each ``max(x, y)`` is written
    ``y if y > x else x`` and each ``min(x, y)`` ``y if y < x else x``,
    which is what the builtins return, nan and signed zeros included.
    """
    dd = d1 * d2
    lim = math.sqrt(dd)
    g = (sigma2 - d1) * (sigma2 - d2)
    s = math.sqrt(0.0 if 0.0 > g else g)
    lo = rho_sig - s
    lo = lo if lo > -lim else -lim
    hi = rho_sig + s
    hi = hi if hi < lim else lim
    if lo > hi:
        return -math.inf
    e = lo if lo > 0.0 else 0.0
    e = hi if hi < e else e
    return dd - e * e


def _r_joint(s2: float, rho: float, delta1: float, delta2: float) -> float:
    """Kernel of :func:`r_joint_numeric` for a validated source and positive deltas.

    The best determinant on each boundary segment rises up to the
    stationary point ``d_star = sigma2 - rho**2*(sigma2 - fixed)`` of the
    free diagonal entry, with the other pinned at ``fixed``, and falls
    beyond it; so each segment's maximum is at ``min(free_cap, d_star)``,
    with the cap itself kept as a candidate so that rounding near d_star
    cannot lose it. The two segments share that cap candidate, the corner
    where both diagonal entries sit at their caps, so three candidates
    cover both.
    """
    rho_sig = rho * s2
    cap1 = s2 if s2 < delta1 else delta1
    cap2 = s2 if s2 < delta2 else delta2
    det_ks = s2 * s2 - rho_sig * rho_sig
    rr = rho * rho
    best = _best_det_at(s2, rho_sig, cap2, cap1)  # the corner
    d_star = s2 - rr * (s2 - cap1)  # d1 pinned at its cap, d2 free
    det = _best_det_at(s2, rho_sig, d_star if d_star < cap2 else cap2, cap1)
    if det > best:
        best = det
    d_star = s2 - rr * (s2 - cap2)  # d2 pinned at its cap, d1 free
    det = _best_det_at(s2, rho_sig, d_star if d_star < cap1 else cap1, cap2)
    if det > best:
        best = det
    if not (best > 0.0):
        # Unreachable: the MMSE-chain error covariance is always feasible.
        raise OutOfRangeError("no feasible error covariance found")
    rate = 0.5 * math.log2(det_ks / best)
    return rate if rate > 0.0 else 0.0


def r_joint_numeric(source: SourceParams, delta1: float, delta2: float) -> float:
    """Joint rate-distortion oracle for the correlated pair, in bits.

    Minimizes the mutual information over jointly Gaussian test channels by
    maximizing det K_E over feasible error covariances (see module
    docstring); distortion arguments above sigma2 are clamped to sigma2
    (distortion beyond the variance is free). Clamped at 0 bits. Taken in
    the unit of sigma2, so the value is the same at every scale.
    """
    validate_source(source)
    if not (delta1 > 0):
        raise OutOfRangeError("delta1 must be > 0")
    if not (delta2 > 0):
        raise OutOfRangeError("delta2 must be > 0")
    s2 = source.sigma2
    s2u, e = math.frexp(s2)
    # clamped before scaling, as _r_joint would clamp them, so no ldexp overflows
    delta1 = s2 if s2 < delta1 else delta1
    delta2 = s2 if s2 < delta2 else delta2
    return _r_joint(s2u, source.rho, math.ldexp(delta1, -e), math.ldexp(delta2, -e))


def conditional_info_bound(
    source: SourceParams, channel: ChannelParams, delta2: float
) -> float:
    """Per-symbol cap (bits) on receiver-1 information about s1 given s2.

    For any scheme whose receiver-2 distortion is delta2:

        0.5 * log2(((power + n2)*delta2/sigma2 - n2 + n1) / n1)

    evaluated relative to the receiver-2 floor so that the value is exactly
    0.0 at ``delta2 = d_min(2)`` for every parameter set. Distortions below
    that floor are unachievable and rejected, and so is a delta2 that is
    not a finite number. The floor is ``d_min(2)``'s kernel, the excess
    over it is taken in the unit of sigma2, and the channel in its own
    unit (see ``closed_forms``), so the value is the same at every scale
    of sigma2 and every common scale of the channel, and ``s2u*n1`` is
    never 0. Where a product or quotient in the argument of the log
    leaves the float range in those units, the argument is taken as a
    mantissa times a power of two, so the value is finite wherever it is
    a finite number.
    """
    curve = _Curve(source, channel)
    if not math.isfinite(delta2):
        raise OutOfRangeError(f"delta2 must be a finite number, got {delta2!r}")
    s2u, e, n1, pn2 = curve.s2u, curve.e, curve.n1, curve.pn2
    d2_floor = curve.ends(curve.n2)[0]
    if delta2 < d2_floor:
        raise InfeasibleDistortionError(
            f"delta2 is below the single-user minimum {d2_floor!r}"
        )
    # Algebraically identical to the display above; the floor-relative form
    # cancels exactly at delta2 == d2_floor.
    excess = delta2 - d2_floor
    try:
        arg = pn2 * math.ldexp(excess, -e) / (s2u * n1) + 1.0
    except OverflowError:
        arg = math.inf
    if arg != math.inf:
        return max(0.0, 0.5 * math.log2(arg))
    # a product or quotient left the float range on the way: take the ratio
    # as a mantissa t times 2**k, and drop the + 1 only where it is below rounding
    (m1, k1), (m2, k2), (m3, k3) = math.frexp(pn2), math.frexp(excess), math.frexp(n1)
    t, k = m1 * m2 / (s2u * m3), k1 + k2 - k3 - e
    try:
        return 0.5 * math.log2(math.ldexp(t, k) + 1.0)
    except OverflowError:
        return 0.5 * (math.log2(t) + k)


def d2_lower_via_rx1(
    source: SourceParams, channel: ChannelParams, cond_d1: float
) -> float:
    """Floor on receiver-2 distortion from the receiver-1 side-information chain.

        sigma2*(n1*(sigma2*(1-rho**2)/cond_d1 - 1) + n2)/(power + n2)

    for ``0 < cond_d1 <= sigma2*(1-rho**2)``; diverges as cond_d1 -> 0, and
    raises OutOfRangeError where it passes the float range. This is the
    converse d2 kernel ``closed_forms._psi`` at eta = cond_d1, with the
    channel in its unit (see ``closed_forms._channel_unit``), whose
    grouping makes the value equal ``d_min(2)`` bit-for-bit at
    ``cond_d1 == conditional_variance(source)``.
    """
    curve = _Curve(source, channel)
    cv = conditional_variance(source)
    if not (0 < cond_d1 <= cv):
        raise OutOfRangeError(
            f"cond_d1 must satisfy 0 < cond_d1 <= {cv!r} (the conditional variance)"
        )
    return _psi(curve.s2u, curve.e, curve.n1, curve.n2, curve.pn2, cv, cond_d1)
