"""Closed-form distortion quantities for the uncoded linear scheme.

The channel input is the power-normalized linear combination

    x = sqrt(P / (sigma2 * q)) * (alpha * s1 + beta * s2),
    q = alpha**2 + 2*alpha*beta*rho + beta**2,

decoded by scalar MMSE at each receiver. This module evaluates:

* the single-user distortion floors ``d_min`` and the two corner points
  of the achievable region (``d1_min_at_d2min``, ``d2_min_at_d1min``),
* the distortion pair ``(D1u, D2u)`` of the scheme as rational functions
  of (alpha, beta), each sigma2 times a ratio in [0, 1],
* the SNR threshold below which the scheme attains the region boundary
  (the paper's statement in the d1 coordinate; on the curve the same
  test is the sign of a margin A(alpha), below),
* the companion floor ``d2_min_at_rx1`` -- the least distortion on the
  second component achievable at receiver 1 once receiver 1 attains a
  given d1 on the first component,
* the converse functional: for any equal-sign witness pair (a1, a2),

      eta = sigma2 - a1*(sigma2 - d1)*(2 - a1) - a2*sigma2*(2*rho - a2)
            + 2*a1*a2*sqrt((sigma2 - d1)*(sigma2 - d2_min_at_rx1(d1)))

  upper-bounds the side-information MSE of the combiner
  ``a1*s1_hat + a2*s2``, and

      psi = sigma2*(n1*(sigma2*(1 - rho**2)/eta - 1) + n2)/(P + n2)

  lower-bounds every achievable d2, together with the closed-form
  witness pair that maximizes the bound and makes it meet the
  achievable curve.

All functions are pure.

Validation policy: building the row kernel ``_Curve`` is the one
boundary of a problem. Its constructor validates the problem first and
then fixes its units (below), so holding a curve means holding a valid
problem in its units. Every public function that evaluates a problem,
here and in ``region``, ``rate_distortion`` and ``montecarlo``, builds
one curve and reads the units, floors and corners from it. The curve's
methods and the other ``_``-prefixed kernels (``_product_threshold``,
``_low_root``, the coverage margins and their exact fallback,
``_witness_eta`` and ``_psi``) never validate and call no public
function. Every kernel keeps the operation order of the
public function it serves, so all routes give the same bits. A d1 is
checked once too, where it enters: ``solve_alpha_for_d1`` checks its
target's range, ``_rx1_point`` its d1's, and ``region.verify_matching``
its grid's; the curve's ``alpha_for`` and ``at_d1`` check none.

``_Curve`` is the row kernel, and the one place where D1u, D2u, the
converse at the optimal witness and the alpha inverse of d1 are written
out. Built once per problem, it hoists the factors that do not depend on
alpha or d1. The trace calls its ``forms`` and ``converse`` once per
row. Its ``at_d1`` is the one evaluation of a d1, which the verifier
and ``_rx1_point`` share: the d1 predicate ``covers`` decides first, so
a d1 that is not covered takes no solve, and at a covered d1
``alpha_for`` solves the alpha and ``forms`` and ``converse`` run there.
``uncoded_distortions`` (the analytic pair ``simulate`` prints) and
``d2_min_at_rx1`` read their values from it too, so the public and the
region routes give the same bits. ``_Curve.ends`` is the one copy of
the floors and corners: ``d_min``, the two corners, the curve's own d1
range and the floor of ``rate_distortion.conditional_info_bound`` read
it.
``1 - rho**2`` is always ``om = (1 - rho)*(1 + rho)``, which does not
cancel near rho = 1.

The converse has one route, ``_Curve.converse``: the converse at the
optimal witness of the curve point alpha, from rational forms in
(alpha, 1 - alpha) with no square root or alpha solve.

Coverage (the paper's ``P/n1 <= T(d1)``) is one exact predicate in each
coordinate, both on the curve, so this module alone decides it:

* in d1, ``_Curve.covers``: the sign of ``_d1_margin``, the threshold
  test multiplied out so that nothing cancels. ``is_uncoded_optimal``,
  and through ``at_d1`` the verifier and every per-d1 function
  (``bound``), read it;
* in alpha, inside ``_Curve.converse``: the sign of ``A = rho*n1*q -
  P*alpha*(1 - alpha)*(1 - rho**2)``, the numerator of the witness's
  a2*. On the curve ``T(D1u(alpha)) - P/n1`` carries the factor A (its
  other factors have a fixed sign). The trace, whose rows are indexed by
  alpha, reads it, so ``region`` names no threshold.

Each predicate evaluates its margin in floats with a stated forward error
bound, and falls back to exact rational arithmetic on its float inputs
(``_exact_nonneg``) only inside that bound: Shewchuk's static-filter
adaptive predicate ("Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates", Discrete Comput. Geom. 1997). So a d1
or a row is covered exactly where the paper's condition holds at its
floats, and ``is_uncoded_optimal``, ``bound`` and ``verify`` agree at
every d1. On the curve b = 1 - a, A is affine in a*b, so a point is
covered iff ``a*b <= t*`` (``_product_threshold``); no predicate uses
that form. ``snr_threshold`` keeps the paper's quotient as a value; no
coverage function calls it.

At any other
witness, ``combiner_mse_bound`` and ``d2_converse_bound`` take the root
``sqrt((sigma2 - d1)*(sigma2 - d2_min_at_rx1(d1)))`` as the perfect
square it is on the curve, ``sigma2*P*(a + b*rho)*(a*rho + b)/(q*(P + n1))``
at the alpha of d1, so no square root is taken there either.

``_psi`` is the one copy of the converse d2: ``_Curve.converse``,
``d2_converse_bound`` and ``rate_distortion.d2_lower_via_rx1`` all call
it. Its two errors (eta <= 0, a value past the float range) are a
witness's own off the curve. On the curve their one cause is P/n1 past
the float range, so ``_Curve.converse``, which ``trace``, ``verify``
and ``bound`` share, re-raises either as an OutOfRangeError naming
power: the one place a curve failure is diagnosed.

The region is the same at every scale of sigma2, and at every common
scale of (P, n1, n2), and so are the kernels. sigma2 enters them as the
exact split ``sigma2 = s2u*2**e`` of ``math.frexp``, with s2u in
[0.5, 1): no kernel multiplies two sigma2-sized values, or sigma2 by a
channel scale, and each works in the unit s2u and scales its result by
``2**e`` once. The channel enters them as ``_channel_unit``'s
``(P, n1, n2)*2**-c``, whose c shifts by k when the channel is scaled by
2**k: every output is homogeneous of degree 0 in (P, n1, n2), so no
result is scaled back. Scaling by a power of two commutes with rounding.
So where the plain formula's every intermediate is a normal float the
units give the same bits, and elsewhere they do not underflow or
overflow. ``snr_threshold``, which takes a source alone, splits sigma2
the same way; every kernel reads both units from the curve, which takes
them when it is built. The one channel refusal left is
``_channel_unit``'s, of values spread wider than the float range can
hold in any one unit, and it runs as the curve is built.

``_rx1_point`` memoizes the per-d1 record ``(root, cv, s2u, e, n1, n2,
power + n2, (d2t, eta*, psi, a1*, a2*))``, with the channel in its unit:
the curve's ``at_d1`` kept as floats, which every per-d1 function
reads (``converse_at`` among them, which ``region`` exports). The
witness sweeps call ``combiner_mse_bound`` and ``d2_converse_bound``
thousands of times at one d1, and a cache hit (a key builds its curve,
and so is validated, on its first miss only) leaves each call the
witness kernel ``_witness_eta`` and, for the converse, ``_psi``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DegenerateCoefficientsError,
    BoundUndefinedError,
    DistortionRangeError,
    OutOfRangeError,
    ParameterError,
    SnrThresholdError,
)
from .params import (
    ChannelParams,
    DistortionPair,
    SourceParams,
    UncodedCoeffs,
    validate_coeffs,
    validate_problem,
    validate_source,
)

__all__ = [
    "BoundWitness",
    "combiner_mse_bound",
    "d1_min_at_d2min",
    "d2_converse_bound",
    "d2_min_at_d1min",
    "d2_min_at_rx1",
    "d_min",
    "is_uncoded_optimal",
    "optimal_witness",
    "simple_snr_threshold",
    "snr_threshold",
    "solve_alpha_for_d1",
    "uncoded_distortions",
]

# Residual contract of solve_alpha_for_d1 on the d1 curve, in units of
# sigma2; also the slack allowed on its range check.
_RESIDUAL_TOL = 1e-12


class BoundWitness(NamedTuple):
    """Equal-sign weight pair of the side-information linear combiner."""

    a1: float
    a2: float


def _checked_q(rho: float, alpha: float, beta: float) -> float:
    """The encoder's quadratic form q, or DegenerateCoefficientsError where it is 0 or not finite."""
    q = alpha * alpha + 2.0 * alpha * beta * rho + beta * beta
    if not (q > 0.0) or not math.isfinite(q):
        raise DegenerateCoefficientsError(
            "alpha, beta give a degenerate encoder normalization (quadratic form is 0)"
        )
    return q


def _product_threshold(rho: float, snr: float) -> float:
    """``t*``: a curve point is covered iff ``alpha*(1 - alpha) <= t*``, with snr = P/n1.

    ``t* = rho*n1/((1 - rho)*(2*rho*n1 + P*(1 + rho)))``, here divided
    through by n1 so that no product of two channel scales can overflow
    (``tests/test_converse_algebra.py`` proves the factorization). ``t* >=
    1/4``, where every point is covered, iff ``P/n1 <= 2*rho/(1 - rho)``,
    the paper's simple threshold. Needs ``snr > 0`` at rho = 0.
    """
    return rho / ((1.0 - rho) * (2.0 * rho + snr * (1.0 + rho)))


def _low_root(t: float) -> float:
    """The lesser root ``a`` of ``a*(1 - a) = t`` for ``0 <= t <= 1/4``, in cancellation-free form."""
    return 2.0 * t / (1.0 + math.sqrt(1.0 - 4.0 * t))


# The float filters of the two coverage predicates (``_Curve.covers`` in d1,
# ``_Curve.converse`` in alpha): a float margin farther from 0 than its
# bound has the sign of the exact margin, and one inside it is decided by
# ``_exact_nonneg``. The relative bounds are 32 and 16 units of 2**-53,
# twice the worst case derived at each predicate; ``_UNDERFLOW`` covers
# the absolute error of the products that may underflow.
_D1_EPS = 2.0**-48
_ALPHA_EPS = 2.0**-49
_UNDERFLOW = 2.0**-1068


def _d1_margin(s2, rho, power, n1, d1):
    """``n1*((cv - d1)**2 + rho**2*sigma2*cv) - power*d1*(cv - d1)``, ``cv = sigma2*(1 - rho)*(1 + rho)``.

    The margin of the paper's threshold in d1, in any arithmetic (the
    exact fallback calls it on Fractions): a d1 is covered iff it is >= 0.
    It is ``n1*num - power*den`` for the threshold ``T = num/den`` of
    :func:`snr_threshold` (``tests/test_converse_algebra.py``), with
    ``num = sigma2*cv - 2*d1*cv + d1**2`` written as ``(cv - d1)**2 +
    rho**2*sigma2*cv``, a sum of nonnegative terms that cannot cancel.
    From cv up the first term is >= 0 and the second <= 0, so the one
    inequality also holds where T is infinite.
    """
    cv = s2 * (1 - rho) * (1 + rho)
    gap = cv - d1
    return n1 * (gap * gap + rho * rho * s2 * cv) - power * d1 * gap


def _alpha_margin(rho, power, n1, a, b):
    """The margin ``A = rho*n1*q - power*a*b*(1 - rho)*(1 + rho)`` at the weights (a, b), in any arithmetic."""
    q = a * a + 2 * a * b * rho + b * b
    return rho * n1 * q - power * a * b * (1 - rho) * (1 + rho)


def _exact_nonneg(margin, *floats: float) -> bool:
    """Whether ``margin(*floats) >= 0`` in exact rational arithmetic: the fallback of both coverage predicates.

    Every float is a rational number and each margin is a polynomial in
    its floats, so ``fractions.Fraction`` decides its sign exactly.
    A predicate calls this only where its float margin lies inside its
    error bound, a d1 or an alpha within a few ulp of an end of the
    covered set, so ``fractions`` (and the ``decimal`` it loads, ~2 ms)
    is imported on this path only.
    """
    from fractions import Fraction

    return margin(*map(Fraction, floats)) >= 0


class _Curve:
    """The row kernel of one problem, and its boundary: the one copy of D1u, D2u and the converse.

    Building one validates the problem (``validate_problem``, before
    anything else) and fixes its units: ``sigma2 = s2u*2**e`` and the
    channel ``(p, n1, n2) = (power, n1, n2)*2**-ce`` in ``_channel_unit``.
    No method validates again.

    With ``q = a**2 + 2*a*b*rho + b**2`` at the weights (a, b) and
    ``om = (1 - rho)*(1 + rho)``, the distortions at a receiver with
    noise n are sigma2 times a ratio in [0, 1],

        D1u(n) = sigma2*((P*b**2*om + n*q) / ((P + n)*q))
        D2u(n) = sigma2*((P*a**2*om + n*q) / ((P + n)*q))

    (the paper's forms over ``(P + n)**2*q``, with P + n cancelled;
    ``tests/test_converse_algebra.py``). No sum is squared, and the
    channel is taken in ``_channel_unit``, so ``P + n1`` and ``P + n2``
    are normal floats at every channel the unit accepts.

    ``converse`` is the converse at the optimal witness, and decides
    coverage at its weights (the alpha predicate); ``covers`` decides it
    at a d1 (the d1 predicate); ``alpha_for`` inverts D1u(n1) along the
    curve (a, b) = (alpha, 1 - alpha); ``at_d1`` is ``covers``, then the
    converse at the alpha of a covered d1. None checks the range of its
    d1, which its caller has checked where the d1 entered. The
    constructor computes once per problem every factor that does not
    depend on the weights or on d1; each method keeps the operation order of the
    formula it writes out, so a hoisted factor is the float its
    expression would give in place. ``forms`` returns q with D1u(n1) and
    D2u(n2), and ``d2_rx1`` and ``converse`` take that q, so a trace row
    (``forms`` then ``converse``) computes it once. rho enters as
    ``rho + 0.0``, which maps -0.0 to 0.0 and leaves every other float
    as it is, so no zero of the converse carries the sign of a -0.0 rho.
    """

    __slots__ = (
        "s2", "s2u", "e", "rho", "p", "n1", "n2", "pn1", "pn2", "om", "rho_n1", "a1_scale",
        "lo_d", "hi_d", "lo_edge", "hi_edge", "snap_lo", "snap_hi", "n1_share", "c", "omr", "opr",
        "ce", "cvu", "side", "tiny",
    )

    def __init__(self, source: SourceParams, channel: ChannelParams) -> None:
        validate_problem(source, channel)
        s2, rho = source.sigma2, source.rho + 0.0
        p, n1, n2, self.ce = _channel_unit(channel)
        self.s2, self.rho, self.p, self.n1, self.n2 = s2, rho, p, n1, n2
        self.s2u, self.e = math.frexp(s2)  # sigma2 = s2u*2**e exactly, the unit of _psi
        self.pn1 = pn1 = p + n1
        self.pn2 = p + n2
        self.omr, self.opr = 1.0 - rho, 1.0 + rho
        self.om = self.omr * self.opr
        self.rho_n1 = rho * n1
        self.a1_scale = pn1 * self.om
        # the factors of alpha_for
        lo_d, hi_d = self.ends(n1)
        edge = _RESIDUAL_TOL * s2  # tolerate endpoint rounding
        # the slack below lo_d stops at the least positive float: no distortion <= 0 is in range
        self.lo_d, self.hi_d, self.lo_edge, self.hi_edge = lo_d, hi_d, max(lo_d - edge, 5e-324), hi_d + edge
        snap = 4.0 * math.ulp(hi_d)  # 0 <= lo_d <= hi_d
        if hi_d - lo_d > 2.0 * snap:
            self.snap_lo, self.snap_hi = lo_d + snap, hi_d - snap
        else:  # a range a few ulp wide snaps its ends only
            self.snap_lo, self.snap_hi = lo_d, hi_d
        self.n1_share = n1 / pn1
        self.c = self.opr * p / pn1
        # the factors of covers: the conditional variance in the unit s2u,
        # rho**2*s2u times it, and the underflow floor of its error bound
        self.cvu = cvu = self.s2u * self.om
        self.side = rho * rho * self.s2u * cvu
        self.tiny = (p + n1 + 1.0) * _UNDERFLOW

    def ends(self, noise: float) -> tuple[float, float]:
        """``(sigma2*n/(n + P), sigma2*(n + P*om)/(n + P))``: the one copy of the floors and corners.

        The distortion at the receiver with noise n when its own component,
        or the other one, is sent alone: ``d_min(1)`` and ``d1_min_at_d2min``
        (``lo_d`` and ``hi_d``, the ends of the d1 curve at alpha = 1 and 0)
        at n1, ``d_min(2)`` and ``d2_min_at_d1min`` at n2. Taken in the unit
        s2u of ``sigma2 = s2u*2**e``.
        """
        s2u, p = self.s2u, self.p
        pn = noise + p
        hi = s2u * (noise + p * self.om) / pn
        return math.ldexp(s2u * noise / pn, self.e), math.ldexp(hi, self.e)

    def alpha_for(self, d1: float) -> float:
        """Invert the d1 curve: the alpha in [0, 1] with ``D1u(alpha, 1 - alpha) = d1``.

        The kernel of :func:`solve_alpha_for_d1`, which gives the formula.
        It checks no range: each d1 is checked once, where it enters
        (``solve_alpha_for_d1``, ``_rx1_point`` and ``verify``'s grid).
        A target below ``lo_d`` snaps to alpha = 1, and one above ``hi_d``
        to alpha = 0. On a curve one float wide ``hi_d`` is ``lo_d`` and
        snaps to 1, so ``solve_alpha_for_d1``, the one caller whose target
        may lie above ``hi_d``, takes such a target as ``hi_d``.

        Near-endpoint targets snap to the alpha endpoints: the d1 curve is
        quadratically flat at alpha = 1 (and at alpha = 0 when rho = 0),
        so inverting a target an ulp away from an endpoint would amplify
        that ulp to ~sqrt(ulp) in alpha. The snap, 4 ulp of ``hi_d``,
        stays far inside the residual contract; a range at most two snaps
        wide snaps only a target at or past an end. Inside such a range,
        a few ulp wide, three guards fire (each pinned by a test): ``w``
        rounds to 0 or below at the alpha = 1 end, the radicand rounds
        below 0, and the root lands below alpha = 0. The root is ``1 -
        w/den`` with ``w > 0`` and ``den > 0``, so no alpha exceeds 1.
        Each ``max`` is written as a conditional expression, for the
        reason given at ``rate_distortion._best_det_at``.
        """
        if d1 <= self.snap_lo:
            return 1.0
        if d1 >= self.snap_hi:
            return 0.0
        w = d1 / self.s2 - self.n1_share
        if not w > 0.0:  # rounding below the alpha = 1 end
            return 1.0
        omr_w = self.omr * w
        rad = omr_w * (self.c - self.opr * w)
        alpha = 1.0 - w / (omr_w + math.sqrt(0.0 if 0.0 > rad else rad))
        return 0.0 if 0.0 > alpha else alpha

    def covers(self, d1: float) -> bool:
        """Whether the d1 is covered (``power/n1 <= snr_threshold(d1)``), decided exactly: the d1 predicate.

        The sign of ``_d1_margin``, evaluated in the unit s2u (``d =
        d1*2**-e``, ``cvu = s2u*om``) and the channel's unit, with the
        per-problem factors hoisted. Its float is within
        ``14u*n1*((cvu + d)**2 + side) + 7u*power*d*(cvu + d)`` of the
        exact margin at the same d (u = 2**-53): cvu carries 4 roundings,
        so ``cvu - d`` is within ``5u*(cvu + d)`` of its exact value, and
        at most 9 more roundings reach either product. The products that
        may underflow, and d where it rounds to a subnormal, add at most
        ``(8*n1 + 2*power + 3)*2**-1075``. The bound takes the relative
        part at 32u and ``tiny = (power + n1 + 1)*2**-1068`` for the
        rest. Outside the bound the float sign is the exact one; inside,
        ``_exact_nonneg`` takes the margin of the float inputs themselves,
        homogeneous in sigma2 and in the channel, so the units do not move
        its sign. It checks no range: every caller's d1 lies in (0,
        sigma2].
        """
        d = math.ldexp(d1, -self.e)
        cvu, side = self.cvu, self.side
        gap = cvu - d
        pd = self.p * d
        margin = self.n1 * (gap * gap + side) - pd * gap
        span = cvu + d
        bound = (self.n1 * (span * span + side) + pd * span) * _D1_EPS + self.tiny
        return margin > bound or (
            margin >= -bound and _exact_nonneg(_d1_margin, self.s2, self.rho, self.p, self.n1, d1)
        )

    def at_d1(self, d1: float) -> tuple[float, float, float, float, float, tuple[float, float, float, float]] | None:
        """``(a, b, q, D2u(n2), D2u(n1), converse)`` at the curve point of d1, or None where it is not covered.

        The one evaluation of a d1, which ``verify`` and the per-d1 record
        (``_rx1_point``) share. The d1 predicate ``covers`` decides first,
        so a d1 that is not covered takes no solve. At a covered d1,
        ``alpha_for`` solves its alpha once, (a, b) = (alpha, 1 - alpha),
        and ``converse`` runs there at the q of ``forms``, as covered, and
        is returned as it is, ``(eta*, psi, a1*, a2*)``. It checks no
        range: ``_rx1_point`` refuses a d1 outside ``[lo_edge, hi_d)``,
        and ``verify``'s grid lies inside ``(lo_d, hi_d)``, before either
        calls it.
        """
        if not self.covers(d1):
            return None
        a = self.alpha_for(d1)
        b = 1.0 - a
        q, _, d2 = self.forms(a, b)
        return a, b, q, d2, self.d2_rx1(a, b, q), self.converse(a, b, q, True)

    def forms(self, a: float, b: float) -> tuple[float, float, float]:
        """``(q, D1u(n1), D2u(n2))`` at the weights (a, b)."""
        q = a * a + 2.0 * a * b * self.rho + b * b
        p, om, s2 = self.p, self.om, self.s2
        d1 = s2 * ((p * b * b * om + self.n1 * q) / (self.pn1 * q))
        d2 = s2 * ((p * a * a * om + self.n2 * q) / (self.pn2 * q))
        return q, d1, d2

    def d2_rx1(self, a: float, b: float, q: float) -> float:
        """D2u(n1), the second component at receiver 1, at the weights (a, b) of form q."""
        return self.s2 * ((self.p * a * a * self.om + self.n1 * q) / (self.pn1 * q))

    def converse(self, a: float, b: float, q: float, covered: bool = False) -> tuple[float, float, float, float] | None:
        """``(eta*, psi, a1*, a2*)``: the converse at the optimal witness, at the curve point a = alpha, b = 1 - alpha.

        None where the point is not covered; a caller that has decided
        coverage already (``at_d1``, by the d1 predicate) passes
        ``covered``. The witness is returned as
        its two floats: a trace row stores them as they are, and only the
        public functions that return a witness build a ``BoundWitness``.
        On the curve the optimal witness and its combiner bound are
        rational in (a, b). With
        ``om = (1 - rho)*(1 + rho)``, ``den = power*a**2*om + n1*q`` and
        the margin ``A = rho*n1*q - power*a*b*om``:

            eta* = sigma2*n1*om*q/den
            a1*  = a*(power + n1)*om*q/((a + b*rho)*den)
            a2*  = A/den

        (a1*, a2*) is exactly the witness that maximizes the converse at
        ``d1 = D1u(alpha)``, and eta* is ``combiner_mse_bound`` there
        (``tests/test_converse_algebra.py``). The rational forms take no
        square root of a difference and re-solve no alpha, so they stay
        accurate where a chain through ``sqrt((sigma2 - d1)*(sigma2 - d2t))``
        cancels (rho near 1, P/n1 large at the alpha = 1 corner). ``psi``
        is ``_psi`` at eta*, a formula apart from the achievable
        ``D2u(n2)`` it equals in exact arithmetic. It takes the ratio
        ``sigma2*(1 - rho**2)/eta*`` as ``om/x``, with eta* = sigma2*x,
        so neither sigma2 nor a cancelling ``1 - rho*rho`` enters it.
        Where ``_psi`` fails here, P/n1 is past the float range: x
        underflows to 0, or ``om/x`` overflows. Its BoundUndefinedError
        or OutOfRangeError is re-raised as ``OutOfRangeError("power too
        large relative to n1 ...")``, which the CLI reports as
        ``--power``; the callers map nothing.

        The alpha predicate: the point is covered iff the exact A at the
        floats (a, b) is >= 0. ``T(D1u(alpha)) - P/n1`` is A times factors
        of fixed sign below the conditional variance, and A > 0 on the
        stretch above it where the threshold is infinite (rho > 0;
        ``tests/test_converse_algebra.py``). A does not involve sigma2, so
        coverage does not depend on its scale. Its two terms are
        nonnegative and each carries at most 6 roundings (q 4, om 3), so
        the float A is within ``6u*(held + spent)`` of the exact one (u =
        2**-53), plus a few 2**-1075 where a product underflows; the
        filter takes 16u and ``_UNDERFLOW``, and ``_exact_nonneg`` decides
        inside that. An end of the curve, a or b exactly 0, is covered
        without it: there A is ``rho*n1*q`` exactly, and rho >= 0 (at rho
        = 0 both terms are exactly 0 and the float margin lies inside the
        underflow term of the bound).

        a2* is ``A/den`` where the float A is >= 0, and 0.0 where it is
        negative at a covered point, so a covered point never carries a2*
        < 0. The float A is then off an exact A >= 0 by its error: by its
        rounding, inside the filter's bound, at the trace's own (a, b);
        by the solve's error at the alpha ``alpha_for`` solves for a d1
        the d1 predicate covers, where the exact alpha has A >= 0. So the
        exact a2* is >= 0 and the quotient below 0 is error; 0.0 is the
        nonnegative value nearest to it, and no farther from the exact
        a2* than the quotient is.
        """
        om = self.om
        pa = self.p * a
        held = self.rho_n1 * q
        spent = pa * b * om
        margin = held - spent
        if not covered:
            bound = (held + spent) * _ALPHA_EPS + _UNDERFLOW
            if not (margin > bound or (
                margin >= -bound and (
                    a == 0.0 or b == 0.0  # a weight of exactly 0 leaves A = rho*n1*q >= 0
                    or _exact_nonneg(_alpha_margin, self.rho, self.p, self.n1, a, b)
                )
            )):
                return None
        den = pa * a * om + self.n1 * q
        lead = a + b * self.rho
        # a/lead is 1 for every a > 0 at rho = 0, and the alpha = 0 end takes that value
        a1 = self.a1_scale * q / den * (a / lead if lead > 0.0 else 1.0)
        x = self.n1 / den * om * q  # eta* in units of sigma2
        try:
            psi = _psi(self.s2u, self.e, self.n1, self.n2, self.pn2, om, x)
        except (BoundUndefinedError, OutOfRangeError) as exc:
            raise OutOfRangeError(f"power too large relative to n1 (P/n1 = {self.p / self.n1:.3g}): {exc}") from exc
        return self.s2 * x, psi, a1, margin / den if margin >= 0.0 else 0.0


def _psi(s2u: float, e: int, n1: float, n2: float, pn2: float, cv: float, eta: float) -> float:
    """The converse d2 of a combiner bound eta, ``sigma2*(n1*(cv/eta - 1) + n2)/(power + n2)``: its one copy.

    ``cv/eta`` is the ratio of the conditional variance
    ``sigma2*(1 - rho**2)`` to eta; a caller passes any pair of floats in
    that ratio, so the row kernel passes the unitless ``(om, eta/sigma2)``.
    sigma2 is ``s2u*2**e`` (``math.frexp``) and pn2 is ``power + n2``.
    The value is taken in the unit s2u and scaled by ``2**e`` once, so it
    has the plain formula's bits wherever those intermediates are normal
    floats, and at every other scale it neither underflows nor overflows
    before its end. The grouping ``n1*(ratio - 1) + n2`` makes the value
    ``d_min(2)`` exactly where the ratio is 1. A nonpositive eta raises
    BoundUndefinedError, and a value past the float range OutOfRangeError;
    both guard witnesses from outside the curve.
    """
    if eta <= 0.0:
        raise BoundUndefinedError("combiner bound is nonpositive; the converse is undefined for this witness")
    psi = s2u * (n1 * (cv / eta - 1.0) + n2) / pn2
    if math.isfinite(psi):
        try:
            return math.ldexp(psi, e)
        except OverflowError:
            pass
    raise OutOfRangeError(f"combiner bound too small: the converse d2 at eta = {eta!r} is past the float range")


def _channel_unit(channel: ChannelParams) -> tuple[float, float, float, int]:
    """``(power, n1, n2)*2**-c`` and c: the channel in the one power-of-two unit every kernel takes it in.

    Every output depends on the channel only through the ratios of P, n1
    and n2, so a kernel may take the channel in any unit. c is the mean of
    the binary exponents of the largest input, ``max(power, n2)``, and the
    smallest, ``min(power, n1)``: it shifts by exactly k when the channel
    is scaled by 2**k, and it centres the scaled inputs about 1, so no
    scaled input or sum of two leaves the normal range. The largest input
    ends below 2**1022 where the smallest ends at 2**-1022 or above; a
    channel whose largest value is more than about 2**2043 times its
    smallest (past 1e615) fits no unit, and raises OutOfRangeError naming
    the smaller of power and n1.
    """
    p, n1, n2 = channel.power, channel.n1, channel.n2
    low = math.frexp(min(p, n1))[1]
    c = (math.frexp(max(p, n2))[1] + low) >> 1
    if low - c < -1021:  # the smallest scaled value would be subnormal
        raise OutOfRangeError(f"{'power' if p < n1 else 'n1'} too small: the channel spans more than the float range")
    return math.ldexp(p, -c), math.ldexp(n1, -c), math.ldexp(n2, -c), c


def d_min(source: SourceParams, channel: ChannelParams, receiver: int) -> float:
    """Single-user distortion floor ``sigma2 * n_i / (n_i + power)``, taken in the unit of sigma2."""
    curve = _Curve(source, channel)
    if receiver not in (1, 2):
        raise OutOfRangeError("receiver must be 1 or 2")
    return curve.lo_d if receiver == 1 else curve.ends(curve.n2)[0]


def d1_min_at_d2min(source: SourceParams, channel: ChannelParams) -> float:
    """Least d1 compatible with receiver 2 sitting at its single-user floor.

    Equals ``sigma2 * (n1 + power*(1 - rho**2)) / (n1 + power)`` and is
    attained by sending the second component alone (alpha=0, beta=1).
    """
    return _Curve(source, channel).hi_d


def d2_min_at_d1min(source: SourceParams, channel: ChannelParams) -> float:
    """Least d2 compatible with receiver 1 sitting at its single-user floor.

    Equals ``sigma2 * (n2 + power*(1 - rho**2)) / (n2 + power)`` and is
    attained by sending the first component alone (alpha=1, beta=0).
    """
    curve = _Curve(source, channel)
    return curve.ends(curve.n2)[1]


def uncoded_distortions(
    source: SourceParams, channel: ChannelParams, coeffs: UncodedCoeffs
) -> DistortionPair:
    """Distortion pair of the uncoded scheme for mixing weights (alpha, beta).

    Both components are rational in (alpha, beta) with the common quadratic
    form ``q = alpha**2 + 2*alpha*beta*rho + beta**2`` in the denominator,
    so the result depends on the weights only through the ratio alpha/beta.
    It is evaluated at the weights times the power of two that puts their
    sum in (0.5, 1], which is exact, so any weights whose raw q is a
    positive finite float give the pair of their ratio. The channel is
    taken in its unit (see ``_channel_unit``), so the pair is the same
    at every common power-of-two scale of (power, n1, n2).
    """
    curve = _Curve(source, channel)
    validate_coeffs(coeffs)
    a, b = coeffs.alpha, coeffs.beta
    _checked_q(source.rho, a, b)  # before the forms divide by q
    # one exact power-of-two scale puts a + b in (0.5, 1]: then q <= 1, so
    # neither P*w*w nor (P + n)*q overflows, and weights that sum to 1 are
    # left as they are
    m, e = math.frexp(a + b)
    if m == 0.5:
        e -= 1
    _, d1, d2 = curve.forms(math.ldexp(a, -e), math.ldexp(b, -e))
    return DistortionPair(d1, d2)


def snr_threshold(source: SourceParams, d1: float) -> float:
    """SNR threshold below which the uncoded scheme is optimal at this d1.

    For ``0 < d1 < sigma2*(1 - rho**2)`` the value is

        (sigma2**2*(1-rho**2) - 2*d1*sigma2*(1-rho**2) + d1**2)
        / (d1 * (sigma2*(1-rho**2) - d1))

    and ``+inf`` otherwise. The infinity is the ordinary IEEE value so
    comparisons against P/n1 stay branch-free. The value depends on d1
    and sigma2 only through d1/sigma2, and is taken in the unit of sigma2
    (see the module docstring) with the conditional variance ``s2u*om``,
    so it is the same at every scale and does not cancel near rho = 1. A
    denominator that still underflows to 0, which takes a d1 below about
    1e-300 times sigma2, raises OutOfRangeError naming d1.
    """
    validate_source(source)
    s2 = source.sigma2
    if not (0.0 < d1 <= s2):
        raise OutOfRangeError("d1 must satisfy 0 < d1 <= sigma2")
    s2u, e = math.frexp(s2)
    cv = s2u * ((1.0 - source.rho) * (1.0 + source.rho))
    d = math.ldexp(d1, -e)
    if d >= cv:
        return math.inf
    num = s2u * cv - 2.0 * d * cv + d * d
    den = d * (cv - d)
    if den == 0.0:
        raise OutOfRangeError(
            f"d1 too small relative to sigma2 for the SNR threshold, got {d1!r}: "
            "d1*(sigma2*(1 - rho**2) - d1), in the unit of sigma2, underflows to 0"
        )
    return num / den


def simple_snr_threshold(source: SourceParams) -> float:
    """The floor ``2*rho/(1 - rho)`` of the threshold curve.

    Whenever P/n1 is at or below this value the uncoded scheme attains the
    entire region boundary, regardless of d1.
    """
    validate_source(source)
    return 2.0 * source.rho / (1.0 - source.rho)


def is_uncoded_optimal(source: SourceParams, channel: ChannelParams, d1: float) -> bool:
    """True iff ``power/n1 <= snr_threshold(source, d1)`` in exact arithmetic, for every d1 in (0, sigma2].

    The curve's d1 predicate (``_Curve.covers``), which ``bound`` and
    ``verify`` read too, so the three agree at every d1. It takes no
    quotient of the threshold, so no d1 in the range is refused.
    """
    curve = _Curve(source, channel)
    if not (0.0 < d1 <= source.sigma2):
        raise OutOfRangeError("d1 must satisfy 0 < d1 <= sigma2")
    return curve.covers(d1)


def solve_alpha_for_d1(
    source: SourceParams, channel: ChannelParams, d1_target: float
) -> float:
    """Invert the d1 curve: find alpha in [0, 1] with D1u(alpha, 1-alpha) = d1_target.

    Valid targets span the closed interval from ``d_min(1)`` (alpha=1) up to
    ``d1_min_at_d2min`` (alpha=0). With ``t = 1 - alpha``,
    ``w = d1/sigma2 - n1/(power + n1)`` and ``c = (1 + rho)*power/(power + n1)``,
    ``D1u = d1`` is the quadratic

        (1-rho)*(c - 2*w)*t**2 + 2*(1-rho)*w*t - w = 0,

    whose root in [0, 1] is taken in the cancellation-free form
    ``t = w / ((1-rho)*w + sqrt((1-rho)*w*(c - (1+rho)*w)))``. Only
    dimensionless ratios enter, so extreme P/n1 cannot overflow it; the
    d1 residual stays within 1e-12 * sigma2.

    The one caller of ``_Curve.alpha_for`` whose target comes from
    outside the curve, so the range is checked here: a target more than
    ``1e-12 * sigma2`` outside the interval raises OutOfRangeError, and
    one above ``d1_min_at_d2min`` is taken as that end (on a curve one
    float wide the kernel would snap it to alpha = 0, not 1). The slack
    below ``d_min(1)`` stops at the least positive float, so a target
    <= 0 is refused at every P/n1 (``_rx1_point`` shares the edge).
    """
    curve = _Curve(source, channel)
    if not (curve.lo_edge <= d1_target <= curve.hi_edge):
        raise OutOfRangeError(f"d1_target must lie in [{curve.lo_d!r}, {curve.hi_d!r}], got {d1_target!r}")
    return curve.alpha_for(curve.hi_d if curve.hi_d < d1_target else d1_target)


def d2_min_at_rx1(source: SourceParams, channel: ChannelParams, d1: float) -> float:
    """Least distortion on the second component achievable at receiver 1.

    Defined for d1 strictly below ``d1_min_at_d2min`` and SNR at or below
    the threshold; equals the second-component distortion form of the
    scheme evaluated with receiver 1's noise,
    ``sigma2*((P*a**2*(1 - rho**2) + n1*q)/((P + n1)*q))`` at the
    (a, b) = (alpha, 1 - alpha) solving ``D1u = d1``. Always sandwiched
    between ``d_min(1)`` and ``sigma2``. A d1 below ``d_min(1)`` raises
    DistortionRangeError, and one where the threshold fails (the margin A
    of ``_Curve.converse`` is negative at the alpha of d1)
    SnrThresholdError. Read from the per-d1 record (see ``_rx1_point``).
    """
    return _rx1_point(source, channel, d1)[7][0]


@lru_cache(maxsize=4096)
def _rx1_point(
    source: SourceParams, channel: ChannelParams, d1: float
) -> tuple[float, float, float, int, float, float, float, tuple[float, float, float, float, float]]:
    """The record ``(root, cv, s2u, e, n1, n2, power + n2, (d2t, eta*, psi, a1*, a2*))`` at d1 of the per-d1 functions.

    Builds the problem's curve, which validates it, on a cache miss only,
    and raises as :func:`d2_min_at_rx1` does: its range check is the one
    of every per-d1 function. A miss keeps the row
    kernel's ``at_d1``, whose ``d2_rx1`` and ``converse`` are the answers
    of ``d2_min_at_rx1``, ``optimal_witness`` and ``converse_at``,
    as floats, not the kernel, so the cache stays small. Coverage is the
    d1 predicate that ``verify`` and ``is_uncoded_optimal`` read at the
    same d1, so a d1 that ``bound`` accepts is one both cover, exactly,
    at every scale of sigma2, and a d1 that is not covered is refused
    with no solve.
    ``root`` is ``sqrt((sigma2 - d1)*(sigma2 - d2_min_at_rx1(d1)))`` in its
    proved perfect-square form ``sigma2*P*(a + b*rho)*(a*rho + b)/(q*(P + n1))``
    at (a, b) = (alpha, 1 - alpha), a product of nonnegative factors with
    no square root of a difference or clamp. ``cv`` is the conditional
    variance ``sigma2*om`` with the row kernel's ``om = (1 - rho)*(1 +
    rho)``, and the next five are the row kernel's ``_psi`` arguments,
    the channel in its unit (see ``_channel_unit``).
    """
    curve = _Curve(source, channel)
    if not d1 < curve.hi_d:
        raise DistortionRangeError(
            f"d1 must be < {curve.hi_d!r} (the range condition), got {d1!r}"
        )
    if not curve.lo_edge <= d1:  # the edge slack of solve_alpha_for_d1
        raise DistortionRangeError(f"d1 must be >= {curve.lo_d!r} (d_min(1)), got {d1!r}")
    point = curve.at_d1(d1)
    if point is None:
        raise SnrThresholdError(
            "d1 lies where power/n1 exceeds the SNR threshold; the companion floor "
            "has no closed form there"
        )
    a, b, q = point[:3]
    shape = (a + b * source.rho) * (a * source.rho + b) / q
    root = source.sigma2 * (curve.p / curve.pn1 * shape)
    cv = source.sigma2 * curve.om
    return root, cv, curve.s2u, curve.e, curve.n1, curve.n2, curve.pn2, (point[4], *point[5])


def _witness_eta(source: SourceParams, delta: float, witness: BoundWitness, root: float) -> float:
    """The combiner bound eta at a finite, equal-sign witness, given ``_rx1_point``'s root at delta."""
    a1, a2 = witness.a1, witness.a2
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ParameterError("witness components must be finite")
    if a1 * a2 < 0.0:
        raise ParameterError("witness components a1, a2 must have equal sign")
    s2 = source.sigma2
    return s2 - a1 * (s2 - delta) * (2.0 - a1) - a2 * s2 * (2.0 * source.rho - a2) + 2.0 * a1 * a2 * root


def combiner_mse_bound(
    source: SourceParams,
    channel: ChannelParams,
    delta: float,
    witness: BoundWitness,
) -> float:
    """Upper bound on the side-information MSE of the combiner a1*s1_hat + a2*s2.

        sigma2 - a1*(sigma2 - delta)*(2 - a1) - a2*sigma2*(2*rho - a2)
        + 2*a1*a2*sqrt((sigma2 - delta)*(sigma2 - d2_min_at_rx1(delta)))

    Requires delta in the domain of :func:`d2_min_at_rx1` and an equal-sign
    witness. The root is taken in its perfect-square form at the alpha of
    delta (see ``_rx1_point``).
    """
    return _witness_eta(source, delta, witness, _rx1_point(source, channel, delta)[0])


def d2_converse_bound(
    source: SourceParams,
    channel: ChannelParams,
    delta: float,
    witness: BoundWitness,
) -> float:
    """Lower bound on every achievable d2, given d1 = delta and a witness pair.

        sigma2*(n1*(sigma2*(1 - rho**2)/eta - 1) + n2)/(power + n2)

    with ``eta = combiner_mse_bound(...)``; undefined (error) when eta <= 0,
    and an OutOfRangeError where the value is past the float range.
    """
    root, cv, s2u, e, n1, n2, pn2, _ = _rx1_point(source, channel, delta)
    return _psi(s2u, e, n1, n2, pn2, cv, _witness_eta(source, delta, witness, root))


def optimal_witness(source: SourceParams, channel: ChannelParams, d1: float) -> BoundWitness:
    """The closed-form witness pair maximizing the converse bound at this d1.

    With (a, b) = (alpha, 1 - alpha) at the alpha solving ``D1u = d1``,
    ``q = a**2 + 2*a*b*rho + b**2``, ``om = (1 - rho)*(1 + rho)`` and
    ``den = power*a**2*om + n1*q``:

        a1 = a*(power + n1)*om*q/((a + b*rho)*den)
        a2 = (rho*n1*q - power*a*b*om)/den

    Both components are nonnegative wherever the preconditions of
    :func:`d2_min_at_rx1` hold; a2 is 0 at the threshold. The numerator
    of a2 is the coverage margin A, so the float that decides coverage
    is never negative here. The witness of :func:`converse_at`.
    """
    return converse_at(source, channel, d1)[2]


def converse_at(source: SourceParams, channel: ChannelParams, d1: float) -> tuple[float, float, BoundWitness]:
    """``(eta, psi, witness)``: the converse at the optimal witness at the given d1.

    ``eta`` is the combiner bound at the optimal witness and ``psi`` the
    converse value. One read of the per-d1 record (see ``_rx1_point``),
    validated on a miss. Raises DistortionRangeError or SnrThresholdError
    when the respective precondition fails, so callers can tell the two
    apart. Public as ``region.converse_at``, so it is not in this
    module's ``__all__``.
    """
    _, eta, psi, a1, a2 = _rx1_point(source, channel, d1)[7]
    return eta, psi, BoundWitness(a1, a2)
