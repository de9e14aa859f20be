"""Closed-form distortion quantities for the uncoded linear scheme.

The channel input is the power-normalized linear combination

    x = sqrt(P / (sigma2 * q)) * (alpha * s1 + beta * s2),
    q = alpha**2 + 2*alpha*beta*rho + beta**2,

decoded by scalar MMSE at each receiver. This module evaluates:

* the single-user distortion floors ``d_min`` and the two corner points
  of the achievable region (``d1_min_at_d2min``, ``d2_min_at_d1min``),
* the distortion pair ``(D1u, D2u)`` of the scheme as rational functions
  of (alpha, beta),
* the SNR threshold below which the scheme attains the region boundary,
* the companion floor ``d2_min_at_rx1`` -- the least distortion on the
  second component achievable at receiver 1 once receiver 1 attains a
  given d1 on the first component,
* the converse functional: for any equal-sign witness pair (a1, a2),

      eta = sigma2 - a1*(sigma2 - d1)*(2 - a1) - a2*sigma2*(2*rho - a2)
            + 2*a1*a2*sqrt((sigma2 - d1)*(sigma2 - d2_min_at_rx1(d1)))

  upper-bounds the side-information MSE of the combiner
  ``a1*s1_hat + a2*s2``, and

      psi = sigma2/(P + n2) * (sigma2*(1 - rho**2)*n1/eta + n2 - n1)

  lower-bounds every achievable d2, together with the closed-form
  witness pair that maximizes the bound and makes it meet the
  achievable curve.

All functions are pure.

Validation policy: a public function validates its problem once, then
computes through ``_``-prefixed kernels (``_d1u_form``, ``_d2u_form``,
``_d1_range``, ``_snr_threshold``, ``_is_uncoded_optimal``,
``_solve_alpha``, ``_rx1_alpha``, ``_d2_min_at_rx1`` and the converse
kernels below). A kernel assumes a validated problem and calls no public
function, so ``region`` and ``cli`` call the kernels directly once they
have validated a problem themselves. Every kernel keeps the operation
order of the public function it serves, so both routes give the same
bits.

The converse has two routes, with one copy of each formula:

* ``_converse_at_alpha`` is the converse at the optimal witness of the
  curve point alpha, from rational forms in (alpha, 1 - alpha) with no
  square root, alpha solve or clamp. ``region`` computes every point's
  converse through it: the trace at each row's alpha, and the verifier
  and ``converse_at`` at the alpha they solve once per d1.
* The public per-witness functions (``optimal_witness``,
  ``combiner_mse_bound``, ``d2_converse_bound``, and so ``bound``) keep
  the root chain at any d1 and any witness: ``_root`` takes
  ``sqrt((sigma2 - d1)*(sigma2 - d2t))`` with its radicand clamp, and
  ``_witness``, ``_eta`` and ``_psi`` evaluate the witness pair, the
  combiner bound and the d2 bound. Moving them to the rational forms
  alone made ``bound``'s corner value less accurate, since it would still
  print the chain's per-witness eta; that move waits until ``bound``
  prints the kernel's value.

``d2_min_at_rx1`` is memoized for the public per-witness functions: the
witness sweeps call ``combiner_mse_bound`` and ``d2_converse_bound``
thousands of times at one d1, and the cache keeps both the alpha solve
and the validation off that path (a key is validated on its first miss
only). ``optimal_witness`` is a per-d1 function; it validates once and
calls the ``_d2_min_at_rx1`` kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegenerateCoefficientsError,
    BoundUndefinedError,
    DistortionRangeError,
    InternalInvariantError,
    OutOfRangeError,
    ParameterError,
    SnrThresholdError,
)
from .params import (
    ChannelParams,
    DistortionPair,
    SourceParams,
    UncodedCoeffs,
    conditional_variance,
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

# At threshold-equality points a witness component vanishes, and its
# formula subtracts a square root whose radicand is itself an ulp-level
# difference; the root amplifies rounding to ~sqrt(ulp) ~ 1e-8. Clamp
# negatives up to 1e-6 (components are dimensionless O(1); genuine
# formula bugs show up at O(1)).
_WITNESS_CLAMP = 1e-6
# Radicands of the form (sigma2 - d)*(sigma2 - d2t) are nonnegative in
# exact arithmetic; tolerate rounding-level excursions below zero.
_RADICAND_CLAMP = 1e-12


@dataclass(frozen=True)
class BoundWitness:
    """Equal-sign weight pair of the side-information linear combiner."""

    a1: float
    a2: float


def _quadratic_form(rho: float, alpha: float, beta: float) -> float:
    return alpha * alpha + 2.0 * alpha * beta * rho + beta * beta


def _checked_q(rho: float, alpha: float, beta: float) -> float:
    q = _quadratic_form(rho, alpha, beta)
    if not (q > 0.0) or not math.isfinite(q):
        raise DegenerateCoefficientsError(
            "alpha, beta give a degenerate encoder normalization (quadratic form is 0)"
        )
    return q


def _d1u_form(
    sigma2: float, rho: float, power: float, noise: float, alpha: float, beta: float
) -> float:
    """Distortion on the first component at a receiver with the given noise."""
    q = _checked_q(rho, alpha, beta)
    num = (
        power * power * beta * beta * (1.0 - rho * rho)
        + power * noise * (alpha * alpha + 2.0 * alpha * beta * rho + beta * beta * (2.0 - rho * rho))
        + noise * noise * q
    )
    return sigma2 * num / ((power + noise) * (power + noise) * q)


def _d2u_form(
    sigma2: float, rho: float, power: float, noise: float, alpha: float, beta: float
) -> float:
    """Distortion on the second component at a receiver with the given noise."""
    q = _checked_q(rho, alpha, beta)
    num = (
        power * power * alpha * alpha * (1.0 - rho * rho)
        + power * noise * (alpha * alpha * (2.0 - rho * rho) + 2.0 * alpha * beta * rho + beta * beta)
        + noise * noise * q
    )
    return sigma2 * num / ((power + noise) * (power + noise) * q)


def _check_rx1_scale(power: float, n1: float) -> None:
    """Raise OutOfRangeError unless ``(power + n1)**2`` is a normal float.

    The distortion forms at receiver 1 divide by that square. As a
    subnormal it has lost precision: at power = n1 = 1e-160 the d1 form
    at alpha = 0.5 would give 0.62516... for the scale-free 0.625. At 0
    the forms divide by zero.
    """
    if not (power + n1) * (power + n1) >= sys.float_info.min:
        name = "power" if power >= n1 else "n1"
        raise OutOfRangeError(f"{name} too small: (power + n1)**2 underflows the distortion forms")


def _d1_range(source: SourceParams, channel: ChannelParams) -> tuple[float, float]:
    """``(d_min(1), d1_min_at_d2min)``: the ends of the d1 curve, at alpha = 1 and 0."""
    s2, p, n1 = source.sigma2, channel.power, channel.n1
    return s2 * n1 / (n1 + p), s2 * (n1 + p * (1.0 - source.rho * source.rho)) / (n1 + p)


def d_min(source: SourceParams, channel: ChannelParams, receiver: int) -> float:
    """Single-user distortion floor ``sigma2 * n_i / (n_i + power)``."""
    validate_problem(source, channel)
    if receiver == 1:
        noise = channel.n1
    elif receiver == 2:
        noise = channel.n2
    else:
        raise OutOfRangeError("receiver must be 1 or 2")
    return source.sigma2 * noise / (noise + channel.power)


def d1_min_at_d2min(source: SourceParams, channel: ChannelParams) -> float:
    """Least d1 compatible with receiver 2 sitting at its single-user floor.

    Equals ``sigma2 * (n1 + power*(1 - rho**2)) / (n1 + power)`` and is
    attained by sending the second component alone (alpha=0, beta=1).
    """
    validate_problem(source, channel)
    return _d1_range(source, channel)[1]


def d2_min_at_d1min(source: SourceParams, channel: ChannelParams) -> float:
    """Least d2 compatible with receiver 1 sitting at its single-user floor.

    Equals ``sigma2 * (n2 + power*(1 - rho**2)) / (n2 + power)`` and is
    attained by sending the first component alone (alpha=1, beta=0).
    """
    validate_problem(source, channel)
    s2, p, n2 = source.sigma2, channel.power, channel.n2
    return s2 * (n2 + p * (1.0 - source.rho * source.rho)) / (n2 + p)


def uncoded_distortions(
    source: SourceParams, channel: ChannelParams, coeffs: UncodedCoeffs
) -> DistortionPair:
    """Distortion pair of the uncoded scheme for mixing weights (alpha, beta).

    Both components are rational in (alpha, beta) with the common quadratic
    form ``q = alpha**2 + 2*alpha*beta*rho + beta**2`` in the denominator,
    so the result depends on the weights only through the ratio alpha/beta.
    """
    validate_problem(source, channel)
    validate_coeffs(coeffs)
    a, b = coeffs.alpha, coeffs.beta
    d1 = _d1u_form(source.sigma2, source.rho, channel.power, channel.n1, a, b)
    d2 = _d2u_form(source.sigma2, source.rho, channel.power, channel.n2, a, b)
    return DistortionPair(d1, d2)


def snr_threshold(source: SourceParams, d1: float) -> float:
    """SNR threshold below which the uncoded scheme is optimal at this d1.

    For ``0 < d1 < sigma2*(1 - rho**2)`` the value is

        (sigma2**2*(1-rho**2) - 2*d1*sigma2*(1-rho**2) + d1**2)
        / (d1 * (sigma2*(1-rho**2) - d1))

    and ``+inf`` otherwise. The infinity is the ordinary IEEE value so
    comparisons against P/n1 stay branch-free. A denominator that
    underflows to 0 (at sigma2 below about 1e-154) raises OutOfRangeError.
    """
    validate_source(source)
    return _snr_threshold(source, d1)


def _snr_threshold(source: SourceParams, d1: float) -> float:
    s2 = source.sigma2
    if d1 > s2 and d1 <= s2 * (1.0 + 1e-12):
        d1 = s2  # rounding excess from the scheme's own corner evaluations
    if not (0.0 < d1 <= s2):
        raise OutOfRangeError("d1 must satisfy 0 < d1 <= sigma2")
    cv = conditional_variance(source)
    if d1 >= cv:
        return math.inf
    num = s2 * cv - 2.0 * d1 * cv + d1 * d1
    den = d1 * (cv - d1)
    if den == 0.0:
        raise OutOfRangeError(
            f"sigma2 too small for the SNR threshold at d1 = {d1!r}: "
            "d1*(sigma2*(1 - rho**2) - d1) underflows to 0"
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
    """True iff ``power/n1 <= snr_threshold(source, d1)``."""
    validate_problem(source, channel)
    return _is_uncoded_optimal(source, channel, d1)


def _is_uncoded_optimal(source: SourceParams, channel: ChannelParams, d1: float) -> bool:
    return channel.power / channel.n1 <= _snr_threshold(source, d1)


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
    """
    validate_problem(source, channel)
    return _solve_alpha(source, channel, d1_target)


def _solve_alpha(source: SourceParams, channel: ChannelParams, d1_target: float) -> float:
    lo_d, hi_d = _d1_range(source, channel)
    edge = _RESIDUAL_TOL * source.sigma2  # tolerate endpoint rounding
    if not (lo_d - edge <= d1_target <= hi_d + edge):
        raise OutOfRangeError(
            f"d1_target must lie in [{lo_d!r}, {hi_d!r}], got {d1_target!r}"
        )
    target = min(max(d1_target, lo_d), hi_d)
    # Snap near-endpoint targets to the alpha endpoints: the d1 curve is
    # quadratically flat at alpha = 1 (and at alpha = 0 when rho = 0), so
    # inverting a target an ulp away from an endpoint would amplify that
    # ulp to ~sqrt(ulp) in alpha. The snap stays far inside the residual
    # contract.
    snap = 4.0 * math.ulp(max(abs(lo_d), abs(hi_d)))
    if hi_d - lo_d > 2.0 * snap:
        if target <= lo_d + snap:
            return 1.0
        if target >= hi_d - snap:
            return 0.0
    else:
        if target == lo_d:
            return 1.0
        if target == hi_d:
            return 0.0

    rho, p, n1 = source.rho, channel.power, channel.n1
    w = target / source.sigma2 - n1 / (p + n1)
    if not w > 0.0:  # rounding below the alpha = 1 end
        return 1.0
    c = (1.0 + rho) * p / (p + n1)
    rad = (1.0 - rho) * w * (c - (1.0 + rho) * w)
    t = w / ((1.0 - rho) * w + math.sqrt(max(rad, 0.0)))
    return min(max(1.0 - t, 0.0), 1.0)


@lru_cache(maxsize=4096)
def d2_min_at_rx1(source: SourceParams, channel: ChannelParams, d1: float) -> float:
    """Least distortion on the second component achievable at receiver 1.

    Defined for d1 strictly below ``d1_min_at_d2min`` and SNR at or below
    the threshold; equals the second-component distortion form of the
    scheme evaluated with receiver 1's noise, at the (alpha, 1-alpha)
    solving ``D1u = d1``. Always sandwiched between ``d_min(1)`` and
    ``sigma2``. A d1 below ``d_min(1)`` raises DistortionRangeError.
    """
    validate_problem(source, channel)
    _check_rx1_scale(channel.power, channel.n1)
    return _d2_min_at_rx1(source, channel, d1)


def _d2_min_at_rx1(source: SourceParams, channel: ChannelParams, d1: float) -> float:
    alpha = _rx1_alpha(source, channel, d1)
    return _d2u_form(source.sigma2, source.rho, channel.power, channel.n1, alpha, 1.0 - alpha)


def _rx1_alpha(source: SourceParams, channel: ChannelParams, d1: float) -> float:
    """The alpha at which receiver 1 attains d1, under the preconditions of ``d2_min_at_rx1``."""
    lo_d, hi_d = _d1_range(source, channel)
    if not d1 < hi_d:
        raise DistortionRangeError(
            f"d1 must be < {hi_d!r} (the range condition), got {d1!r}"
        )
    if not lo_d - _RESIDUAL_TOL * source.sigma2 <= d1:  # the edge slack of _solve_alpha
        raise DistortionRangeError(f"d1 must be >= {lo_d!r} (d_min(1)), got {d1!r}")
    if not _is_uncoded_optimal(source, channel, d1):
        raise SnrThresholdError(
            "d1 lies where power/n1 exceeds the SNR threshold; the companion floor "
            "has no closed form there"
        )
    return _solve_alpha(source, channel, d1)


def _check_witness(witness: BoundWitness) -> BoundWitness:
    if not (math.isfinite(witness.a1) and math.isfinite(witness.a2)):
        raise ParameterError("witness components must be finite")
    if witness.a1 * witness.a2 < 0.0:
        raise ParameterError("witness components a1, a2 must have equal sign")
    return witness


def _check_below_sigma2(sigma2: float, d1: float) -> None:
    # the root-chain witness formulas divide by sigma2 - d1; on the curve,
    # d1 >= sigma2 is reachable only through rounding at the rho = 0 corner
    if d1 >= sigma2:
        raise DistortionRangeError("d1 must be < sigma2 for the witness formulas")


def _root(s2: float, d1: float, d2t: float, error: type[Exception]) -> float:
    """``sqrt((sigma2 - d1)*(sigma2 - d2t))``, the root of the witness and combiner formulas.

    The radicand is nonnegative in exact arithmetic; a rounding-level
    excursion below zero is clamped to 0, and a larger one raises
    ``error``: InternalInvariantError for the witness (a formula bug),
    BoundUndefinedError for the combiner bound.
    """
    rad = (s2 - d1) * (s2 - d2t)
    if rad < 0.0:
        if rad < -_RADICAND_CLAMP * s2 * s2:
            if error is InternalInvariantError:
                raise error(f"negative radicand in the witness formulas: {rad!r}")
            raise error("negative radicand in the combiner bound")
        rad = 0.0
    return math.sqrt(rad)


def _clamped(value: float, name: str) -> float:
    # the rounding scale of the components is dimensionless (~sqrt(ulp))
    if value < -_WITNESS_CLAMP:
        raise InternalInvariantError(f"optimal witness component {name} is negative: {value!r}")
    return 0.0 if value < 0.0 else value


def _witness(s2: float, rho: float, d1: float, d2t: float, root: float) -> BoundWitness:
    a1 = ((s2 - d1) * s2 - rho * s2 * root) / ((s2 - d1) * d2t)
    a2 = (rho * s2 - root) / d2t
    return BoundWitness(_clamped(a1, "a1"), _clamped(a2, "a2"))


def _eta(s2: float, rho: float, delta: float, witness: BoundWitness, root: float) -> float:
    a1, a2 = witness.a1, witness.a2
    return s2 - a1 * (s2 - delta) * (2.0 - a1) - a2 * s2 * (2.0 * rho - a2) + 2.0 * a1 * a2 * root


def _psi(source: SourceParams, channel: ChannelParams, eta: float) -> float:
    if eta <= 0.0:
        raise BoundUndefinedError("combiner bound is nonpositive; the converse is undefined for this witness")
    p, n1, n2 = channel.power, channel.n1, channel.n2
    return source.sigma2 / (p + n2) * (conditional_variance(source) * n1 / eta + n2 - n1)


def _converse_at_alpha(source: SourceParams, channel: ChannelParams, alpha: float) -> tuple[float, BoundWitness]:
    """``(psi, witness)``: the converse at the optimal witness, at the point alpha of the curve.

    On the curve the optimal witness and its combiner bound are rational
    in (a, b) = (alpha, 1 - alpha). With ``q = a**2 + 2*a*b*rho + b**2``,
    ``om = (1 - rho)*(1 + rho)`` and ``den = power*a**2*om + n1*q``:

        eta* = sigma2*n1*om*q/den
        a1*  = a*(power + n1)*om*q/((a + b*rho)*den)
        a2*  = (rho*n1*q - power*a*b*om)/den

    These equal the root chain of ``optimal_witness`` and
    ``combiner_mse_bound`` at ``d1 = D1u(alpha)`` exactly; the rational
    forms take no square root of a difference and re-solve no alpha, so
    they stay accurate where the chain cancels (rho near 1, P/n1 large at
    the alpha = 1 corner). ``psi`` is ``_psi(eta*)``, a formula apart from
    the achievable ``D2u(n2)`` it equals in exact arithmetic. The caller
    decides coverage; where it holds, a2* >= 0 in exact arithmetic, and a
    value that rounds below 0 at a tie is returned as 0.0.
    """
    rho, p, n1 = source.rho, channel.power, channel.n1
    a, b = alpha, 1.0 - alpha
    q = _quadratic_form(rho, a, b)
    om = (1.0 - rho) * (1.0 + rho)
    den = p * a * a * om + n1 * q
    lead = a + b * rho
    # a/lead is 1 for every a > 0 at rho = 0, and the alpha = 0 end takes that value
    a1 = (p + n1) * om * q / den * (a / lead if lead > 0.0 else 1.0)
    a2 = (rho * n1 * q - p * a * b * om) / den
    eta = source.sigma2 * (n1 / den * om * q)  # in units of sigma2, then scaled once
    return _psi(source, channel, eta), BoundWitness(a1, a2 if a2 > 0.0 else 0.0)


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
    witness.
    """
    _check_witness(witness)
    root = _root(source.sigma2, delta, d2_min_at_rx1(source, channel, delta), BoundUndefinedError)
    return _eta(source.sigma2, source.rho, delta, witness, root)


def d2_converse_bound(
    source: SourceParams,
    channel: ChannelParams,
    delta: float,
    witness: BoundWitness,
) -> float:
    """Lower bound on every achievable d2, given d1 = delta and a witness pair.

        sigma2/(power + n2) * (sigma2*(1-rho**2)*n1/eta + n2 - n1)

    with ``eta = combiner_mse_bound(...)``; undefined (error) when eta <= 0.
    """
    _check_witness(witness)
    root = _root(source.sigma2, delta, d2_min_at_rx1(source, channel, delta), BoundUndefinedError)
    return _psi(source, channel, _eta(source.sigma2, source.rho, delta, witness, root))


def optimal_witness(source: SourceParams, channel: ChannelParams, d1: float) -> BoundWitness:
    """The closed-form witness pair maximizing the converse bound at this d1.

        a1 = ((sigma2 - d1)*sigma2 - rho*sigma2*root) / ((sigma2 - d1)*d2t)
        a2 = (rho*sigma2 - root) / d2t,
        root = sqrt((sigma2 - d1)*(sigma2 - d2t)),  d2t = d2_min_at_rx1(d1)

    Both components are nonnegative wherever the preconditions of
    :func:`d2_min_at_rx1` hold; a negative component signals a formula bug
    or a precondition leak and raises.
    """
    validate_problem(source, channel)
    _check_rx1_scale(channel.power, channel.n1)
    s2 = source.sigma2
    _check_below_sigma2(s2, d1)
    d2t = _d2_min_at_rx1(source, channel, d1)
    return _witness(s2, source.rho, d1, d2t, _root(s2, d1, d2t, InternalInvariantError))
