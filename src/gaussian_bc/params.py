"""Parameter records and the lossless problem transforms.

All records are immutable plain-data carriers, and every one of them is
a named tuple: it hashes and compares in C (the per-d1 cache of
``closed_forms`` hashes ``SourceParams`` and ``ChannelParams`` on every
per-witness call), prints as ``Name(field=value, ...)``, refuses field
assignment with AttributeError and, being a tuple, unpacks and compares
equal to a plain tuple of its fields. No record is a dataclass:
importing ``dataclasses`` loads ``inspect`` and ``ast``, ~8 ms that
every CLI process would pay before it parses an argument.
Validation is explicit (via :func:`validate_problem` and friends) rather
than baked into the constructors, so that invalid draws can be
represented and then rejected by the checker -- which is what the
property tests and the CLI error paths need.

Validation policy: a problem is validated once, at its one boundary:
building the row kernel ``closed_forms._Curve``, whose constructor calls
:func:`validate_problem` before anything else and then fixes the
problem's units. Every public function of ``closed_forms``, ``region``,
``rate_distortion`` and ``montecarlo`` that evaluates a problem builds
one curve and reads the units, floors and corners from it (coverage
too: ``closed_forms.is_uncoded_optimal`` reads the curve's d1
predicate); the curve's methods and the other ``_``-prefixed kernels
never re-validate. No other function calls :func:`validate_problem`,
and a function that takes a source alone calls :func:`validate_source`. The CLI does not validate: the
first library call of each command validates its problem, once per
run. The per-d1 cache ``closed_forms._rx1_point`` builds its curve, and
so validates, on a cache miss only, and the per-d1 and per-witness
functions validate through it (see ``closed_forms``).

Two transforms make arbitrary inputs canonical without loss:

* a negative correlation coefficient maps to its absolute value plus a
  sign-flip flag for the first stream (encode ``-s1``, negate the
  receiver-1 estimate; distortions are unchanged), and
* per-component variance scaling maps a distortion tuple
  ``(d1, d2, var1, var2)`` to ``(a1*d1, a2*d2, a1*var1, a2*var2)``,
  which is how unequal-variance problems reduce to the equal-variance
  canonical form used everywhere else in this package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError

__all__ = [
    "SourceParams",
    "ChannelParams",
    "UncodedCoeffs",
    "DistortionPair",
    "conditional_variance",
    "negate_rho_transform",
    "scale_variance_transform",
    "validate_channel",
    "validate_coeffs",
    "validate_problem",
    "validate_source",
]


class SourceParams(NamedTuple):
    """Correlated Gaussian pair: common variance ``sigma2``, correlation ``rho``.

    Canonical instances satisfy ``sigma2 > 0`` and ``0 <= rho < 1``.
    Negative raw correlations enter only through
    :func:`negate_rho_transform`, which records the sign flip.
    """

    sigma2: float
    rho: float


class ChannelParams(NamedTuple):
    """Average transmit power and the two branch noise variances.

    Valid instances satisfy ``power > 0`` and ``0 < n1 < n2`` (receiver 1
    is strictly the stronger one; equal noises are a different problem
    and are rejected).
    """

    power: float
    n1: float
    n2: float


class UncodedCoeffs(NamedTuple):
    """Nonnegative mixing weights of the linear encoder, not both zero."""

    alpha: float
    beta: float


class DistortionPair(NamedTuple):
    """Expected squared-error pair: ``d1`` at receiver 1, ``d2`` at receiver 2."""

    d1: float
    d2: float


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _finite(x: float) -> bool:
    """Whether x is an int or float inside the float range; an int past it is not."""
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _shown(x: float) -> str:
    """``repr(x)`` for a refusal message; an int too long for ``repr`` is named as one past the float range."""
    try:
        return repr(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return "an int past the float range"


def validate_source(source: SourceParams) -> SourceParams:
    """Check the source invariants; return the record or raise ParameterError."""
    _require(_finite(source.sigma2), "sigma2 must be a finite number")
    _require(source.sigma2 > 0, "sigma2 must be > 0")
    _require(_finite(source.rho), "rho must be a finite number")
    _require(source.rho >= 0, "rho must be >= 0 (negative values only via negate_rho_transform)")
    _require(source.rho < 1, "rho must be < 1")
    return source


def validate_channel(channel: ChannelParams) -> ChannelParams:
    """Check the channel invariants; return the record or raise ParameterError."""
    _require(_finite(channel.power), "power must be a finite number")
    _require(channel.power > 0, "power must be > 0")
    _require(_finite(channel.n1), "n1 must be a finite number")
    _require(channel.n1 > 0, "n1 must be > 0")
    _require(_finite(channel.n2), "n2 must be a finite number")
    _require(channel.n2 > 0, "n2 must be > 0")
    _require(channel.n1 < channel.n2, "n1 must be < n2")
    return channel


def validate_coeffs(coeffs: UncodedCoeffs) -> UncodedCoeffs:
    """Check the mixing-weight invariants; return the record or raise."""
    _require(_finite(coeffs.alpha), "alpha must be a finite number")
    _require(coeffs.alpha >= 0, "alpha must be >= 0")
    _require(_finite(coeffs.beta), "beta must be a finite number")
    _require(coeffs.beta >= 0, "beta must be >= 0")
    _require(coeffs.alpha + coeffs.beta > 0, "alpha + beta must be > 0")
    return coeffs


def validate_problem(
    source: SourceParams, channel: ChannelParams
) -> tuple[SourceParams, ChannelParams]:
    """Validate a full problem instance.

    Reports the first violated invariant by name (e.g. ``"n1 must be < n2"``).
    """
    return validate_source(source), validate_channel(channel)


def conditional_variance(source: SourceParams) -> float:
    """Variance of one component given the other: ``sigma2 * (1 - rho**2)``.

    Taken as ``sigma2*om`` with ``om = (1 - rho)*(1 + rho)``, the factor
    every formula of the package uses for ``1 - rho**2``: it does not
    cancel near rho = 1, where ``1 - rho*rho`` loses up to ~1e-9 relative.
    """
    return source.sigma2 * ((1.0 - source.rho) * (1.0 + source.rho))


def negate_rho_transform(source: SourceParams) -> tuple[SourceParams, bool]:
    """Map a raw correlation in (-1, 1) to the canonical nonnegative form.

    Returns ``(canonical_source, sign_flip)``. When ``sign_flip`` is true the
    scheme must encode the negated first stream and negate the receiver-1
    estimate; the resulting distortions are identical, so the transform is
    lossless. A rho of -0.0 maps to +0.0 with no sign flip, so its sign
    reaches no printed value. Other nonnegative inputs pass through
    untouched (identity; idempotent).
    """
    _require(_finite(source.sigma2), "sigma2 must be a finite number")
    _require(source.sigma2 > 0, "sigma2 must be > 0")
    _require(_finite(source.rho), "rho must be a finite number")
    _require(-1.0 < source.rho < 1.0, "rho must satisfy -1 < rho < 1")
    if math.copysign(1.0, source.rho) < 0.0:
        return SourceParams(source.sigma2, -source.rho), source.rho < 0.0
    return source, False


def scale_variance_transform(
    d1: float,
    d2: float,
    var1: float,
    var2: float,
    a1: float,
    a2: float,
) -> tuple[float, float, float, float]:
    """Rescale a distortion/variance tuple component-wise.

    Maps ``(d1, d2, var1, var2)`` to ``(a1*d1, a2*d2, a1*var1, a2*var2)``.
    Used to normalize unequal per-component variances to the canonical
    equal-variance form (choose ``a_i = 1/var_i``) and to map results back.
    """
    _require(_finite(a1) and a1 > 0, "scale factor a1 must be > 0")
    _require(_finite(a2) and a2 > 0, "scale factor a2 must be > 0")
    return (a1 * d1, a2 * d2, a1 * var1, a2 * var2)
