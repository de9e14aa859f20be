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

All functions are pure. ``d2_min_at_rx1`` is memoized because the
witness sweeps evaluate it at repeated arguments; the alpha solve behind
it is a closed-form quadratic root.
"""

from __future__ import annotations

import math
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
    s2, p, n1 = source.sigma2, channel.power, channel.n1
    return s2 * (n1 + p * (1.0 - source.rho * source.rho)) / (n1 + p)


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
    comparisons against P/n1 stay branch-free.
    """
    validate_source(source)
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
    return channel.power / channel.n1 <= snr_threshold(source, d1)


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
    lo_d = d_min(source, channel, 1)
    hi_d = d1_min_at_d2min(source, channel)
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
    ``sigma2``.
    """
    validate_problem(source, channel)
    hi_d = d1_min_at_d2min(source, channel)
    if not d1 < hi_d:
        raise DistortionRangeError(
            f"d1 must be < {hi_d!r} (the range condition), got {d1!r}"
        )
    if not is_uncoded_optimal(source, channel, d1):
        raise SnrThresholdError(
            "power/n1 exceeds the SNR threshold at this d1; the companion floor "
            "has no closed form there"
        )
    alpha = solve_alpha_for_d1(source, channel, d1)
    return _d2u_form(source.sigma2, source.rho, channel.power, channel.n1, alpha, 1.0 - alpha)


def _check_witness(witness: BoundWitness) -> BoundWitness:
    if not (math.isfinite(witness.a1) and math.isfinite(witness.a2)):
        raise ParameterError("witness components must be finite")
    if witness.a1 * witness.a2 < 0.0:
        raise ParameterError("witness components a1, a2 must have equal sign")
    return witness


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
    d2t = d2_min_at_rx1(source, channel, delta)
    s2, rho = source.sigma2, source.rho
    a1, a2 = witness.a1, witness.a2
    rad = (s2 - delta) * (s2 - d2t)
    if rad < 0.0:
        if rad < -_RADICAND_CLAMP * s2 * s2:
            raise BoundUndefinedError("negative radicand in the combiner bound")
        rad = 0.0
    return (
        s2
        - a1 * (s2 - delta) * (2.0 - a1)
        - a2 * s2 * (2.0 * rho - a2)
        + 2.0 * a1 * a2 * math.sqrt(rad)
    )


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
    eta = combiner_mse_bound(source, channel, delta, witness)
    if eta <= 0.0:
        raise BoundUndefinedError(
            "combiner bound is nonpositive; the converse is undefined for this witness"
        )
    s2 = source.sigma2
    p, n1, n2 = channel.power, channel.n1, channel.n2
    return s2 / (p + n2) * (conditional_variance(source) * n1 / eta + n2 - n1)


def optimal_witness(source: SourceParams, channel: ChannelParams, d1: float) -> BoundWitness:
    """The closed-form witness pair maximizing the converse bound at this d1.

        a1 = ((sigma2 - d1)*sigma2 - rho*sigma2*root) / ((sigma2 - d1)*d2t)
        a2 = (rho*sigma2 - root) / d2t,
        root = sqrt((sigma2 - d1)*(sigma2 - d2t)),  d2t = d2_min_at_rx1(d1)

    Both components are nonnegative wherever the preconditions of
    :func:`d2_min_at_rx1` hold; a negative component signals a formula bug
    or a precondition leak and raises.
    """
    s2, rho = source.sigma2, source.rho
    if d1 >= s2:
        # reachable only through rounding at the rho = 0 corner; the
        # witness formulas divide by sigma2 - d1
        raise DistortionRangeError("d1 must be < sigma2 for the witness formulas")
    d2t = d2_min_at_rx1(source, channel, d1)
    rad = (s2 - d1) * (s2 - d2t)
    if rad < 0.0:
        if rad < -_RADICAND_CLAMP * s2 * s2:
            raise InternalInvariantError(f"negative radicand in the witness formulas: {rad!r}")
        rad = 0.0
    root = math.sqrt(rad)
    a1 = ((s2 - d1) * s2 - rho * s2 * root) / ((s2 - d1) * d2t)
    a2 = (rho * s2 - root) / d2t

    def _clamped(value: float, name: str) -> float:
        # the rounding scale of the components is dimensionless (~sqrt(ulp))
        if value < 0.0:
            if value < -_WITNESS_CLAMP:
                raise InternalInvariantError(
                    f"optimal witness component {name} is negative: {value!r}"
                )
            return 0.0
        return value

    return BoundWitness(_clamped(a1, "a1"), _clamped(a2, "a2"))
