"""The algebra behind the converse kernel, as exact identities of rational functions.

``closed_forms._Curve.converse`` evaluates the converse at the optimal
witness from alpha alone. Each identity it relies on is checked here in
sympy, with positive symbols, by reducing ``lhs - rhs`` to a single
fraction and cancelling it to 0. The weights a and b are kept independent:
every form is homogeneous of degree 0 in (a, b), so the identities hold
on the normalized curve b = 1 - a as well. The per-witness functions
(``combiner_mse_bound``, ``d2_converse_bound``) rely on the first: they
take ``sqrt((sigma2 - d1)*(sigma2 - d2t))`` as the perfect square ROOT.
The coverage predicates rely on the threshold identities: the paper's
test ``P/n1 <= T(d1)`` is the sign of the d1 predicate's margin
(``closed_forms._d1_margin``), and, on the curve, the sign of the
kernel's margin A (``closed_forms._alpha_margin``). On the curve b = 1 -
a, A is affine in the product a*b, so a point is covered iff ``a*b <=
t*``; the proofs of that form and of ``t* - 1/4`` sit with a float check
of it against the kernel's own coverage test, and with a 50-digit check
of the covered set's ends: t*, its root a_lo and the d1 ends ``D1u(1 -
a_lo)``, ``D1u(a_lo)``.
"""

import random

import mpmath
import sympy as sp

from gaussian_bc import ChannelParams, SourceParams, trace_uncoded_boundary
from gaussian_bc.closed_forms import _alpha_margin, _Curve, _d1_margin, _low_root, _product_threshold

s2, rho, p, n1, n2, a, b = sp.symbols("sigma2 rho P n1 n2 a b", positive=True)
q = a**2 + 2 * a * b * rho + b**2
om = (1 - rho) * (1 + rho)
den = p * a**2 * om + n1 * q


def d1u(noise):
    """D1u: distortion on the first component, as ``closed_forms._Curve`` writes it."""
    num = (
        p * p * b * b * (1 - rho * rho)
        + p * noise * (a * a + 2 * a * b * rho + b * b * (2 - rho * rho))
        + noise * noise * q
    )
    return s2 * num / ((p + noise) * (p + noise) * q)


def d2u(noise):
    """D2u: distortion on the second component, as ``closed_forms._Curve`` writes it."""
    num = (
        p * p * a * a * (1 - rho * rho)
        + p * noise * (a * a * (2 - rho * rho) + 2 * a * b * rho + b * b)
        + noise * noise * q
    )
    return s2 * num / ((p + noise) * (p + noise) * q)


def vanishes(expr) -> bool:
    return sp.cancel(sp.together(expr)) == 0


# the optimal witness in its square-root form, at d1 = D1u(n1) with
# d2t = D2u(n1); ROOT is the root the per-witness converse of closed_forms
# takes at the alpha of d1
D1, D2T = d1u(n1), d2u(n1)
ROOT = s2 * p * (a + b * rho) * (a * rho + b) / (q * (p + n1))
A1_CHAIN = ((s2 - D1) * s2 - rho * s2 * ROOT) / ((s2 - D1) * D2T)
A2_CHAIN = (rho * s2 - ROOT) / D2T

# the kernel's rational forms
ETA_STAR = s2 * n1 * om * q / den
A1_STAR = a * (p + n1) * om * q / ((a + b * rho) * den)
MARGIN = rho * n1 * q - p * a * b * om  # A, the coverage margin
A2_STAR = MARGIN / den


def test_the_witness_radicand_is_a_perfect_square():
    # ROOT is nonnegative, so it is the chain's sqrt((sigma2 - d1)*(sigma2 - d2t))
    assert vanishes((s2 - D1) * (s2 - D2T) - ROOT**2)


def test_the_rational_witness_is_the_root_chain_witness():
    assert vanishes(A1_STAR - A1_CHAIN)
    assert vanishes(A2_STAR - A2_CHAIN)


def test_the_rational_eta_is_the_combiner_bound_at_that_witness():
    eta_chain = s2 - A1_STAR * (s2 - D1) * (2 - A1_STAR) - A2_STAR * s2 * (2 * rho - A2_STAR)
    eta_chain += 2 * A1_STAR * A2_STAR * ROOT
    assert vanishes(ETA_STAR - eta_chain)


def test_the_converse_meets_the_achievable_d2():
    psi = s2 / (p + n2) * (s2 * (1 - rho**2) * n1 / ETA_STAR + n2 - n1)
    assert vanishes(psi - d2u(n2))


def test_the_short_form_of_d1u():
    assert vanishes(d1u(n1) - s2 * (p * b**2 * om + n1 * q) / ((p + n1) * q))


def test_the_short_form_of_d2u():
    assert vanishes(d2u(n2) - s2 * (p * a**2 * om + n2 * q) / ((p + n2) * q))


def snr_threshold(d1):
    """``closed_forms.snr_threshold`` below the conditional variance cv."""
    cv = s2 * om
    return (s2 * cv - 2 * d1 * cv + d1**2) / (d1 * (cv - d1))


def test_the_d1_margin_is_the_threshold_test_times_its_denominator():
    # n1*num - P*den for T = num/den, so below cv (den > 0) P/n1 <= T iff
    # the margin is >= 0; the code's margin is the same polynomial
    cv = s2 * om
    margin = _d1_margin(s2, rho, p, n1, D1)
    assert vanishes(margin - n1 * D1 * (cv - D1) * (snr_threshold(D1) - p / n1))
    assert vanishes(_alpha_margin(rho, p, n1, a, b) - MARGIN)


def test_below_cv_the_threshold_test_is_the_sign_of_the_margin():
    # B and C are positive for rho > 0, and cv - d1 is positive below cv,
    # so P/n1 <= T(d1) there iff A >= 0
    B = rho * n1 * q + p * b * om * (a + 2 * b * rho)
    C = p * b**2 * om + n1 * q
    assert vanishes(snr_threshold(D1) - p / n1 - s2 * MARGIN * B / (n1 * C * q * (s2 * om - D1)))


def test_from_cv_up_the_margin_is_positive():
    # the threshold is infinite for d1 >= cv; there both terms on the
    # right are >= 0, so rho*A >= 0, and A >= 0 for rho > 0
    rhs = p * om * a * (a + b * rho) + (D1 - s2 * om) * (p + n1) * q / s2
    assert vanishes(rho * MARGIN - rhs)


# the covered set as one product: A >= 0 iff a*b <= T_STAR on the curve
T_STAR = rho * n1 / ((1 - rho) * (2 * rho * n1 + p * (1 + rho)))


def test_on_the_curve_the_margin_is_affine_in_alpha_beta():
    on_curve = {b: 1 - a}
    factored = rho * n1 - a * b * (1 - rho) * (2 * rho * n1 + p * (1 + rho))
    assert vanishes(MARGIN.subs(on_curve) - factored.subs(on_curve))
    # the factor of T_STAR - a*b is positive for rho < 1, so A >= 0 iff a*b <= T_STAR
    assert vanishes(factored - (1 - rho) * (2 * rho * n1 + p * (1 + rho)) * (T_STAR - a * b))


def test_the_product_threshold_against_a_quarter():
    # a*b <= 1/4 on the curve, so T_STAR >= 1/4 (every point covered) iff
    # P*(1 - rho) <= 2*rho*n1, the paper's simple threshold P/n1 <= 2*rho/(1 - rho)
    quarter = (1 + rho) * (2 * rho * n1 - p * (1 - rho)) / (4 * (1 - rho) * (p * (1 + rho) + 2 * rho * n1))
    assert vanishes(T_STAR - sp.Rational(1, 4) - quarter)


def test_the_product_threshold_is_the_kernels_coverage_in_floats():
    # off a relative 1e-12 band around t*, where either float may round
    # across, a*b <= t* decides coverage exactly as the kernel's margin does
    rng = random.Random(2611)
    rows = {True: 0, False: 0}
    for _ in range(300):
        s2, n1 = 10 ** rng.uniform(-5, 5), 10 ** rng.uniform(-3, 3)
        r, p_ = rng.uniform(0.0, 0.99), n1 * 10 ** rng.uniform(-2, 3)
        source, channel = SourceParams(s2, r), ChannelParams(p_, n1, n1 * rng.uniform(1.01, 10.0))
        t_star = _product_threshold(r, p_ / n1)
        curve = _Curve(source, channel)
        for point in trace_uncoded_boundary(source, channel, 101):
            alpha, beta = point.alpha, 1.0 - point.alpha
            ab = alpha * beta
            if abs(ab - t_star) <= 1e-12 * t_star:
                continue
            covered = curve.converse(alpha, beta, curve.forms(alpha, beta)[0]) is not None
            assert (ab <= t_star) == covered == point.optimal_flag
            rows[covered] += 1
    assert min(rows.values()) > 3000


def test_the_uncovered_interval_against_50_digits():
    # t* and a_lo = _low_root(t*) in floats, and the d1 interval ends
    # D1u(1 - a_lo) and D1u(a_lo) from the row kernel, each against the
    # exact chain from the same float inputs; t* near 1/4, where a_lo is
    # ill-conditioned (da/dt = 1/(1 - 2a)), is left out
    u = 2.0**-53
    rng = random.Random(2703)
    worst = {"t": 0.0, "a_of_t": 0.0, "a": 0.0, "lo": 0.0, "hi": 0.0}
    checked = 0
    for _ in range(2000):
        r = rng.choice([10 ** rng.uniform(-15, 0), 1.0 - 10 ** rng.uniform(-12, 0), rng.random()])
        r = min(r, 1.0 - 1e-12)
        s2_, n1_ = 10 ** rng.uniform(-100, 100), 10 ** rng.uniform(-100, 100)
        p_ = n1_ * 10 ** rng.uniform(-8, 12)
        t = _product_threshold(r, p_ / n1_)
        if not t < 0.24:
            continue
        a = _low_root(t)
        curve = _Curve(SourceParams(s2_, r), ChannelParams(p_, n1_, 2.0 * n1_))
        lo, hi = curve.forms(1.0 - a, a)[1], curve.forms(a, 1.0 - a)[1]
        with mpmath.workdps(50):
            r_, p50, n50, s50 = (mpmath.mpf(x) for x in (r, p_, n1_, s2_))
            t_x = r_ * n50 / ((1 - r_) * (2 * r_ * n50 + p50 * (1 + r_)))
            om_x = (1 - r_) * (1 + r_)

            def d1u(a_, b_):
                q_ = a_ * a_ + 2 * a_ * b_ * r_ + b_ * b_
                return s50 * (p50 * b_ * b_ * om_x + n50 * q_) / ((p50 + n50) * q_)

            def low_root(t_):
                return 2 * t_ / (1 + mpmath.sqrt(1 - 4 * t_))

            a_x = low_root(t_x)
            errors = {
                "t": (t - t_x) / t_x,
                "a_of_t": (a - low_root(mpmath.mpf(t))) / a_x,  # the root alone, at the float t
                "a": (a - a_x) / a_x,
                "lo": (lo - d1u(1 - a_x, a_x)) / lo,
                "hi": (hi - d1u(a_x, 1 - a_x)) / hi,
            }
        for key, error in errors.items():
            worst[key] = max(worst[key], abs(float(error)))
        checked += 1
    assert checked > 1000
    assert worst["t"] <= 6 * u and worst["a_of_t"] <= 3 * u and worst["a"] <= 8 * u
    assert worst["lo"] <= 8 * u and worst["hi"] <= 8 * u


def test_the_alpha_root_solves_d1u_equals_d1():
    # solve_alpha_for_d1 takes t = 1 - alpha as the cancellation-free root
    # of its quadratic; S stands for the square root of RAD in that root,
    # so the numerator of D1u - d1 must vanish modulo S**2 - RAD
    w, S = sp.symbols("w S", positive=True)
    c = (1 + rho) * p / (p + n1)
    rad = (1 - rho) * w * (c - (1 + rho) * w)
    t = w / ((1 - rho) * w + S)
    d1 = s2 * (w + n1 / (p + n1))  # w = d1/sigma2 - n1/(P + n1)
    num, _ = sp.fraction(sp.together(d1u(n1).subs({a: 1 - t, b: t}, simultaneous=True) - d1))
    assert vanishes(sp.rem(sp.expand(num), S**2 - rad, S))


def test_the_oracle_stationary_point():
    # on the edge {one diagonal = f, the other = d} the oracle's best
    # determinant, where its off-diagonal clamp binds at rho*sigma2 - s,
    # is d*f - (rho*sigma2 - s)**2 with s = sqrt((sigma2 - d)*(sigma2 - f));
    # it is stationary at d* = sigma2 - rho**2*(sigma2 - f). g = sigma2 - f
    # is positive below the cap f < sigma2
    d, g = sp.symbols("d g", positive=True)
    f = s2 - g
    det = d * f - (rho * s2 - sp.sqrt((s2 - d) * (s2 - f))) ** 2
    assert vanishes(sp.diff(det, d).subs(d, s2 - rho**2 * (s2 - f)))
