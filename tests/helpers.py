"""Shared test fixtures: the desk configuration, config draws, reference
solvers for alpha and for the joint-rate oracle's outer maximum, the
distortion pair from the MMSE gains, the paper's coverage condition in
exact rational arithmetic, a per-point reference verifier, the
distortion forms and the converse at the optimal witness in 50-digit
arithmetic, and the paper's SNR threshold in 60-digit arithmetic with
the error budget of ``snr_threshold``."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import mpmath

from gaussian_bc import ChannelParams, DistortionPair, SourceParams, UncodedCoeffs, uncoded_distortions
from gaussian_bc.closed_forms import BoundWitness, _Curve
from gaussian_bc.errors import OutOfRangeError
from gaussian_bc.params import validate_problem
from gaussian_bc.rate_distortion import _best_det_at, _r_joint, channel_capacity
from gaussian_bc.region import MatchPoint, MatchReport, _d1_grid

DESK_SOURCE = SourceParams(1.0, 0.5)
DESK_CHANNEL = ChannelParams(1.0, 1.0, 2.0)


def random_valid_configs(count: int, seed: int) -> list[tuple[SourceParams, ChannelParams]]:
    """Seeded draws of valid problem instances spanning moderate ranges."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        sigma2 = rng.uniform(0.1, 10.0)
        rho = rng.uniform(0.0, 0.99)
        power = rng.uniform(0.1, 10.0)
        n1 = rng.uniform(0.1, 5.0)
        n2 = n1 * rng.uniform(1.01, 5.0)
        configs.append((SourceParams(sigma2, rho), ChannelParams(power, n1, n2)))
    return configs


def bisect_alpha_for_d1(source: SourceParams, channel: ChannelParams, d1_target: float) -> float:
    """Reference alpha solve: bisection of the decreasing map alpha -> D1u(alpha, 1-alpha).

    Bisects to interval exhaustion; a zero residual counts as the high side,
    so plateaus of float-identical d1 values resolve toward the flat alpha = 1
    end. Targets outside the curve's range return the nearer endpoint.
    """

    def residual(alpha: float) -> float:
        return uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha)).d1 - d1_target

    if residual(0.0) < 0.0:
        return 0.0
    if residual(1.0) > 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gain_distortions(source: SourceParams, channel: ChannelParams, coeffs: UncodedCoeffs) -> DistortionPair:
    """Reference distortion pair from the MMSE gains: ``sigma2 - c_i**2*(power + n_i)``.

    An algebraic route apart from the rational forms of
    ``uncoded_distortions``; the two agree to rounding at moderate SNR.
    The difference cancels at high SNR (at ``power = 1e17``, alpha = 1,
    it gives d1 = 0 for 1e-17), so the package prints the rational forms.
    """
    from gaussian_bc import mmse_coefficients  # loads numpy, which only the Monte-Carlo tests need

    m = mmse_coefficients(source, channel, coeffs)
    s2 = source.sigma2
    d1 = s2 - m.c1 * m.c1 * (channel.power + channel.n1)
    d2 = s2 - m.c2 * m.c2 * (channel.power + channel.n2)
    return DistortionPair(d1, d2)


def exact_covered(source: SourceParams, channel: ChannelParams, d1: float) -> bool:
    """The paper's condition ``P/n1 <= T(d1)`` in exact rational arithmetic on the float inputs.

    Written in the paper's own form, ``T = (sigma2*cv - 2*d1*cv + d1**2)
    / (d1*(cv - d1))`` with ``cv = sigma2*(1 - rho**2)`` and ``T`` infinite
    from cv up, multiplied out by the positive ``n1*d1*(cv - d1)``; no
    kernel of the package is called.
    """
    s2, rho, d = Fraction(source.sigma2), Fraction(source.rho), Fraction(d1)
    p, n1 = Fraction(channel.power), Fraction(channel.n1)
    cv = s2 * (1 - rho**2)
    return d >= cv or p * d * (cv - d) <= n1 * (s2 * cv - 2 * d * cv + d**2)


def exact_alpha_covered(source: SourceParams, channel: ChannelParams, alpha: float, beta: float) -> bool:
    """The trace's coverage at the float weights (alpha, beta): ``rho*n1*q >= P*alpha*beta*(1 - rho**2)``, exactly."""
    rho, a, b = Fraction(source.rho), Fraction(alpha), Fraction(beta)
    p, n1 = Fraction(channel.power), Fraction(channel.n1)
    q = a**2 + 2 * a * b * rho + b**2
    return rho * n1 * q >= p * a * b * (1 - rho**2)


def per_point_verify_matching(
    source: SourceParams, channel: ChannelParams, grid_size: int, tol: float
) -> MatchReport:
    """Reference verifier: ``region.verify_matching`` with every grid point solved and decided exactly.

    The same checks, kernels and order of operations, but each point's
    alpha is solved, and its coverage is :func:`exact_covered`, not the
    kernel's predicate; a covered point takes the converse kernel as
    covered, the oracle runs in the unit of sigma2 as the verifier's
    does, and the maxima and the verdict are taken over the covered
    points afterwards.
    """
    validate_problem(source, channel)
    if grid_size < 1:
        raise OutOfRangeError("grid_size must be >= 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise OutOfRangeError("tol must be a finite number >= 0")
    s2 = source.sigma2
    curve = _Curve(source, channel)
    lo, hi = curve.lo_d, curve.hi_d
    grid = _d1_grid(lo, hi, grid_size)
    if not lo < grid[0] <= grid[-1] < hi:
        # subnormal ends are too coarse for a grid at any power: sigma2 is the cause
        cause = "sigma2 too small" if hi < sys.float_info.min else "power too small (or |rho| too close to 1)"
        raise OutOfRangeError(
            f"{cause}: the d1 range ({lo!r}, {hi!r}) holds no {grid_size}-point grid in floating point"
        )
    capacity = channel_capacity(channel.power, channel.n1)
    points: list[MatchPoint] = []
    for d1 in grid:
        alpha = curve.alpha_for(d1)
        beta = 1.0 - alpha
        q, _, d2_ach = curve.forms(alpha, beta)
        if not exact_covered(source, channel, d1):
            points.append(MatchPoint(d1, False, None, None, None, None, None))
            continue
        _, psi_value, a1, a2 = curve.converse(alpha, beta, q, True)
        d2t = curve.d2_rx1(alpha, beta, q)
        d1_u, d2t_u = math.ldexp(d1, -curve.e), math.ldexp(d2t, -curve.e)
        oracle_error = abs(_r_joint(curve.s2u, source.rho, d1_u, d2t_u) - capacity)
        points.append(
            MatchPoint(d1, True, d2_ach, psi_value, abs(d2_ach - psi_value), BoundWitness(a1, a2), oracle_error)
        )
    covered = [point for point in points if point.covered]
    return MatchReport(
        grid_size=grid_size,
        tol=tol,
        points=tuple(points),
        max_residual=max((point.residual for point in covered), default=None),
        max_oracle_error_bits=max((point.oracle_error_bits for point in covered), default=None),
        passed=bool(covered) and all(point.residual <= tol * s2 for point in covered),
    )


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_D_SCAN = 256
_D_XTOL_REL = 1e-8


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


def _scan_det_on_edge(sigma2: float, rho_sig: float, fixed: float, free_cap: float) -> float:
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


def scan_r_joint(sigma2: float, rho: float, delta1: float, delta2: float) -> float:
    """Reference joint rate in bits: the outer maximum over each edge by search.

    A 256-point scan of the free diagonal entry, refined by golden-section
    search around the best scan point, in place of the library's exact
    two-candidate maximum; the inner maximum over the off-diagonal is the
    library's. Converges to about 1e-9 bits.
    """
    rho_sig = rho * sigma2
    cap1, cap2 = min(delta1, sigma2), min(delta2, sigma2)
    best = max(
        _scan_det_on_edge(sigma2, rho_sig, cap1, cap2),
        _scan_det_on_edge(sigma2, rho_sig, cap2, cap1),
    )
    return max(0.0, 0.5 * math.log2((sigma2 * sigma2 - rho_sig * rho_sig) / best))


def exact_converse(
    source: SourceParams, channel: ChannelParams, alpha: float
) -> tuple[float, float, float, float, float]:
    """``(eta, d2_converse, a1, a2, a2_scale)`` at the curve point alpha, from 50-digit arithmetic.

    The converse at the optimal witness equals the achievable ``D2u(n2)``;
    the witness and its combiner bound ``eta`` are the rational forms
    proved in ``test_converse_algebra.py``.
    ``a2 = A/den`` is a difference, so its rounding error scales with
    ``a2_scale = (rho*n1*q + power*a*b*om)/den``, not with a2.
    """
    with mpmath.workdps(50):
        s2, rho = mpmath.mpf(source.sigma2), mpmath.mpf(source.rho)
        p, n1, n2 = (mpmath.mpf(x) for x in (channel.power, channel.n1, channel.n2))
        a = mpmath.mpf(alpha)
        b = 1 - a
        q = a * a + 2 * a * b * rho + b * b
        om = 1 - rho * rho
        den = p * a * a * om + n1 * q
        eta = s2 * n1 * om * q / den
        d2 = s2 * (p * a * a * om + n2 * q) / ((p + n2) * q)
        a1 = a * (p + n1) * om * q / ((a + b * rho) * den) if a + b * rho > 0 else (p + n1) * q / den
        a2 = (rho * n1 * q - p * a * b * om) / den
        a2_scale = (rho * n1 * q + p * a * b * om) / den
        return float(eta), float(d2), float(a1), float(a2), float(a2_scale)


def exact_distortions(
    source: SourceParams, channel: ChannelParams, alpha: float, beta: float
) -> tuple[float, float, float]:
    """``(D1u(n1), D2u(n2), D2u(n1))`` at the weights (alpha, beta), from 50-digit arithmetic.

    Written in the paper's expanded form over ``(P + n)**2*q``, not in
    the short form the package evaluates, so the two meet only through
    the identity proved in ``test_converse_algebra.py``.
    """
    with mpmath.workdps(50):
        s2, rho = mpmath.mpf(source.sigma2), mpmath.mpf(source.rho)
        p, n1, n2 = (mpmath.mpf(x) for x in (channel.power, channel.n1, channel.n2))
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        q = a * a + 2 * a * b * rho + b * b
        om, tr = 1 - rho * rho, 2 - rho * rho

        def d1u(n):
            return s2 * (p * p * b * b * om + p * n * (a * a + 2 * a * b * rho + b * b * tr) + n * n * q) / ((p + n) ** 2 * q)

        def d2u(n):
            return s2 * (p * p * a * a * om + p * n * (a * a * tr + 2 * a * b * rho + b * b) + n * n * q) / ((p + n) ** 2 * q)

        return float(d1u(n1)), float(d2u(n2)), float(d2u(n1))


def exact_snr_threshold(source: SourceParams, d1: float) -> mpmath.mpf:
    """The paper's threshold ``T(d1)`` at the float inputs, from 60-digit arithmetic.

    Written in the paper's expanded form, ``(sigma2*cv - 2*d1*cv +
    d1**2)/(d1*(cv - d1))`` with ``cv = sigma2*(1 - rho**2)``, infinite
    from cv up. Its terms cancel where rho is small and d1 near cv, by at
    most ~32 digits at rho >= 1e-16, which 60 digits hold.
    """
    with mpmath.workdps(60):
        s2, rho, d = mpmath.mpf(source.sigma2), mpmath.mpf(source.rho), mpmath.mpf(d1)
        cv = s2 * (1 - rho * rho)
        if d >= cv:
            return mpmath.inf
        return (s2 * cv - 2 * d * cv + d * d) / (d * (cv - d))


def snr_threshold_budget(source: SourceParams, d1: float) -> float:
    """``8u*(1 + cv/(cv - d))``: the relative error budget of ``snr_threshold`` at d1 (u = 2**-53).

    ``cv = s2u*om`` and ``d = d1*2**-e`` are the floats the function takes
    in the unit of sigma2 (``sigma2 = s2u*2**e``). Rounding cv moves
    ``cv - d`` by a few ulp of cv, which the quotient amplifies by
    ``cv/(cv - d)``. Infinite where ``d >= cv``, where the value is.
    """
    s2u, e = math.frexp(source.sigma2)
    rho = source.rho
    cv, d = mpmath.mpf(s2u * ((1.0 - rho) * (1.0 + rho))), mpmath.mpf(math.ldexp(d1, -e))
    if d >= cv:
        return math.inf
    with mpmath.workdps(30):
        return float(8 * mpmath.mpf(2) ** -53 * (1 + cv / (cv - d)))
