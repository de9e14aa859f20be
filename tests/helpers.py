"""Shared test fixtures: the desk configuration, config draws and a reference alpha solver."""

from __future__ import annotations

import random

from gaussian_bc import ChannelParams, SourceParams, UncodedCoeffs, uncoded_distortions

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
