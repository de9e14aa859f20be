"""Accuracy of the floors, corners, conditional-variance forms and SNR threshold against mpmath.

Draws with ``1 - rho`` log-uniform in 1e-12..1e-1, where ``1 - rho*rho``
cancels, and sigma2 log-uniform in 1e-100..1e100. Each function's worst
relative error over the draws must stay within ``BOUND``. Written with
``1 - rho*rho``, the conditional variance was up to 3.7e-9 relative off
and the corners up to 5.1e-11; with ``om = (1 - rho)*(1 + rho)`` each is
a few ulp.

``snr_threshold`` is pinned on its whole domain too: sigma2 in 1e+-300,
rho from 1e-16 up to 1 - 1e-15, and d1 up to within 1e-15 of cv, each
value within its budget ``8u*(1 + cv/(cv - d))`` of 60-digit mpmath
(``helpers.snr_threshold_budget``). With the paper's expanded numerator,
which cancels where rho is small and d1 near cv, it was up to 2.6e8
relative off there.
"""

import functools
import math
import random

import mpmath
import pytest

from gaussian_bc import (
    ChannelParams,
    SourceParams,
    conditional_variance,
    d1_min_at_d2min,
    d2_lower_via_rx1,
    d2_min_at_d1min,
    d_min,
    r_conditional,
    snr_threshold,
)

from helpers import exact_snr_threshold, snr_threshold_budget

BOUND = 1e-15
DRAWS = 4000


@functools.cache
def worst_errors() -> dict[str, float]:
    """Worst relative error of each function over the seeded draws."""
    rng = random.Random(29)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    worst = {}
    with mpmath.workdps(50):
        for _ in range(DRAWS):
            sigma2, rho = log_uniform(1e-100, 1e100), 1.0 - log_uniform(1e-12, 1e-1)
            n1, power = log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3)
            n2 = n1 * log_uniform(1.01, 1e3)
            source, channel = SourceParams(sigma2, rho), ChannelParams(power, n1, n2)
            cv = conditional_variance(source)
            # d1 at most half the conditional variance, so that the
            # threshold's cv - d1 and r_conditional's log stay well conditioned
            d1 = rng.uniform(1e-3, 0.5) * cv
            cond_d1 = min(rng.uniform(1e-3, 1.0) * cv, cv)
            s, r, p, m1, m2, d, c = (mpmath.mpf(x) for x in (sigma2, rho, power, n1, n2, d1, cond_d1))
            x_cv = s * (1 - r * r)
            pairs = {
                "conditional_variance": (cv, x_cv),
                "d_min(1)": (d_min(source, channel, 1), s * m1 / (m1 + p)),
                "d_min(2)": (d_min(source, channel, 2), s * m2 / (m2 + p)),
                "d1_min_at_d2min": (d1_min_at_d2min(source, channel), s * (m1 + p * (1 - r * r)) / (m1 + p)),
                "d2_min_at_d1min": (d2_min_at_d1min(source, channel), s * (m2 + p * (1 - r * r)) / (m2 + p)),
                "snr_threshold": (snr_threshold(source, d1), (s * x_cv - 2 * d * x_cv + d * d) / (d * (x_cv - d))),
                "r_conditional": (r_conditional(source, d1), mpmath.log(x_cv / d, 2) / 2),
                "d2_lower_via_rx1": (d2_lower_via_rx1(source, channel, cond_d1), s * (m1 * (x_cv / c - 1) + m2) / (p + m2)),
            }
            for name, (value, exact) in pairs.items():
                worst[name] = max(worst.get(name, 0.0), float(abs(value - exact) / abs(exact)))
    return worst


@pytest.mark.parametrize(
    "name",
    ["conditional_variance", "d_min(1)", "d_min(2)", "d1_min_at_d2min", "d2_min_at_d1min",
     "snr_threshold", "r_conditional", "d2_lower_via_rx1"],
)
def test_within_bound_of_mpmath_near_rho_1_at_every_scale(name):
    assert worst_errors()[name] <= BOUND


WIDE_DRAWS = 6000


def _within_budget(source: SourceParams, d1: float) -> tuple[bool, float]:
    """Whether ``snr_threshold`` at d1 is within its budget of mpmath, and its error in units of the budget.

    Where the value is infinite, d1 must lie within the budget of the
    exact cv: only rounding cv may put it there.
    """
    value, exact, budget = snr_threshold(source, d1), exact_snr_threshold(source, d1), snr_threshold_budget(source, d1)
    if value == math.inf:
        cv = mpmath.mpf(source.sigma2) * (1 - mpmath.mpf(source.rho) ** 2)
        return exact == mpmath.inf or d1 >= cv * (1 - mpmath.mpf(2) ** -50), 0.0
    error = float(abs(value - exact) / exact) / budget
    return error <= 1.0, error


@pytest.mark.parametrize(
    "sigma2, rho, d1",
    [
        # the cancelling numerator was 1.1e-10, 1.2e-6 and 2.6e8 relative off
        (1.0, 1e-3, 0.999),
        (1.0, 1e-6, 0.99999),
        (236.85953704493895, 1.0168250703792798e-12, 236.85953704493772),
        # the touchpoint d1 = sigma2*(1 - rho), where T is the floor
        # 2*rho/(1 - rho); at sigma2 = 1 and rho = 1e-3 it is the first case
        (1.7, 1e-3, 1.7 * (1.0 - 1e-3)),
        (1.7, 1e-6, 1.7 * (1.0 - 1e-6)),
        (1.7, 1e-12, 1.7 * (1.0 - 1e-12)),
    ],
)
def test_the_snr_threshold_is_within_its_budget_at_small_rho(sigma2, rho, d1):
    ok, error = _within_budget(SourceParams(sigma2, rho), d1)
    assert ok, error


def test_the_snr_threshold_is_within_its_budget_over_its_domain():
    rng = random.Random(41)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    worst, finite = 0.0, 0
    for i in range(WIDE_DRAWS):
        sigma2 = log_uniform(1e-300, 1e300)
        # half the draws put rho near 0, where the expanded numerator
        # cancels, and half put 1 - rho near 0
        rho = log_uniform(1e-16, 0.5) if i % 2 else 1.0 - log_uniform(1e-15, 0.5)
        source = SourceParams(sigma2, rho)
        cv = conditional_variance(source)
        # d1 within a relative gap g of cv, g log-uniform, or uniform below cv
        d1 = cv * (1.0 - log_uniform(1e-15, 0.5)) if i % 4 < 2 else (1.0 - rng.random()) * cv
        ok, error = _within_budget(source, d1)
        assert ok, (source, d1, error)
        worst = max(worst, error)
        finite += snr_threshold(source, d1) < math.inf
    assert finite > WIDE_DRAWS // 2  # the budget is checked, not skipped
    assert worst > 0.01  # and the draws reach the rounding of cv
