"""Accuracy of the floors, corners and conditional-variance forms against 50-digit mpmath.

Draws with ``1 - rho`` log-uniform in 1e-12..1e-1, where ``1 - rho*rho``
cancels, and sigma2 log-uniform in 1e-100..1e100. Each function's worst
relative error over the draws must stay within ``BOUND``. Written with
``1 - rho*rho``, the conditional variance was up to 3.7e-9 relative off
and the corners up to 5.1e-11; with ``om = (1 - rho)*(1 + rho)`` each is
a few ulp.
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
