"""Seeded Monte-Carlo simulation of the uncoded scheme.

The simulator is the empirical oracle for every closed form: it draws
correlated Gaussian pairs, encodes them with the power-normalized linear
map, corrupts each branch with independent Gaussian noise, decodes with
the scalar MMSE gains, and reports empirical distortions, empirical
transmit power, and 95% normal-approximation confidence half-widths.

Reproducibility contract
------------------------
The sample range is partitioned into fixed blocks of 65536 symbols.
Block ``i`` uses ``numpy.random.Generator(PCG64(SeedSequence((seed, i))))``
(128-bit state) and draws, in this order and nothing else:
``s1``, ``u``, ``z1``, ``z2``, each via ``standard_normal``. Per-block
sums are reduced in block order with exact (fsum) accumulation, so the
result is a pure function of ``(params, coeffs, samples, seed)`` --
bit-identical across runs and independent of any internal scheduling,
and stable for n up to 1e8 without summation drift.

The correlated pair is generated as ``s2 = rho*s1 + sqrt(1-rho**2)*u``
with ``s1, u`` independent N(0, sigma2). A ``sign_flip`` run simulates
the negative-correlation problem tied to the same seed: the first-stream
realization is negated, the encoder consumes its negation (recovering
the original stream), and the receiver-1 estimate is negated -- an exact
symmetry, so flipped and unflipped runs report identical distortions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import _checked_q
from .errors import ParameterError
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
    "BLOCK_SIZE",
    "MmseCoefficients",
    "SimulationConfig",
    "SimulationReport",
    "analytic_distortions",
    "mmse_coefficients",
    "power_check",
    "sample_source_pairs",
    "simulate",
]

BLOCK_SIZE = 1 << 16

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimulationConfig:
    """Sample count, 64-bit seed, and the mixing weights to simulate."""

    samples: int
    seed: int
    coeffs: UncodedCoeffs


@dataclass(frozen=True)
class MmseCoefficients:
    """Encoder gain and the two scalar MMSE decode gains.

    gamma = sqrt(power / (sigma2 * q)) normalizes E[x**2] to the power
    budget exactly; c_i = gamma*sigma2*(own + other*rho)/(power + n_i)
    with (own, other) = (alpha, beta) at receiver 1 and swapped at
    receiver 2.
    """

    gamma: float
    c1: float
    c2: float


@dataclass(frozen=True)
class SimulationReport:
    """Empirical distortions, power, and CI half-widths for one run.

    Half-widths are the 95% normal approximation from the sample variance
    of the per-symbol squared errors; +inf marks the degenerate
    single-sample case.
    """

    empirical_d1: float
    empirical_d2: float
    empirical_power: float
    ci_half_width_d1: float
    ci_half_width_d2: float
    samples: int
    seed: int


def mmse_coefficients(
    source: SourceParams, channel: ChannelParams, coeffs: UncodedCoeffs
) -> MmseCoefficients:
    """Closed-form encoder gain and per-receiver MMSE decode gains."""
    validate_problem(source, channel)
    validate_coeffs(coeffs)
    a, b = coeffs.alpha, coeffs.beta
    s2, rho = source.sigma2, source.rho
    q = _checked_q(rho, a, b)
    gamma = math.sqrt(channel.power / (s2 * q))
    c1 = gamma * s2 * (a + b * rho) / (channel.power + channel.n1)
    c2 = gamma * s2 * (b + a * rho) / (channel.power + channel.n2)
    return MmseCoefficients(gamma=gamma, c1=c1, c2=c2)


def analytic_distortions(
    source: SourceParams, channel: ChannelParams, coeffs: UncodedCoeffs
) -> DistortionPair:
    """Distortion pair implied by the MMSE gains: sigma2 - c_i**2 * (power + n_i).

    An algebraic route independent of the rational closed forms; the two
    must agree to rounding, which the tests pin down.
    """
    m = mmse_coefficients(source, channel, coeffs)
    s2 = source.sigma2
    d1 = s2 - m.c1 * m.c1 * (channel.power + channel.n1)
    d2 = s2 - m.c2 * m.c2 * (channel.power + channel.n2)
    return DistortionPair(d1, d2)


def _validate_run(source, channel, config) -> None:
    validate_problem(source, channel)
    validate_coeffs(config.coeffs)
    if not isinstance(config.samples, int) or config.samples < 1:
        raise ParameterError("samples must be an integer >= 1")
    if not isinstance(config.seed, int) or not (0 <= config.seed < 2**64):
        raise ParameterError("seed must be an integer in [0, 2**64)")


def _source_blocks(source: SourceParams, samples: int, seed: int):
    """Yield ``(rng, s1, s2)`` per block, with the source draws already taken.

    Block ``i`` seeds its own generator and draws ``s1`` then ``u``; a
    caller that needs noise draws them from ``rng`` next, which keeps the
    draw order of the reproducibility contract.
    """
    s_dev = math.sqrt(source.sigma2)
    mix = math.sqrt(1.0 - source.rho * source.rho)
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, samples - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
        s1 = s_dev * rng.standard_normal(count)
        u = s_dev * rng.standard_normal(count)
        yield rng, s1, source.rho * s1 + mix * u


def simulate(
    source: SourceParams,
    channel: ChannelParams,
    config: SimulationConfig,
    *,
    sign_flip: bool = False,
    decode_gains: tuple[float, float] | None = None,
) -> SimulationReport:
    """Run the uncoded scheme for config.samples symbols.

    ``sign_flip`` simulates the negative-correlation problem as described
    in the module docstring. ``decode_gains`` overrides the MMSE gains
    (c1, c2) -- useful for verifying that the MMSE choice is a strict
    minimum of the empirical distortion.
    """
    _validate_run(source, channel, config)
    m = mmse_coefficients(source, channel, config.coeffs)
    c1, c2 = decode_gains if decode_gains is not None else (m.c1, m.c2)
    a, b = config.coeffs.alpha, config.coeffs.beta
    z1_dev = math.sqrt(channel.n1)
    z2_dev = math.sqrt(channel.n2)
    flip = -1.0 if sign_flip else 1.0

    e1_sums: list[float] = []
    e1_sq_sums: list[float] = []
    e2_sums: list[float] = []
    e2_sq_sums: list[float] = []
    power_sums: list[float] = []

    n = config.samples
    for rng, s1, s2_arr in _source_blocks(source, n, config.seed):
        count = s1.size
        z1 = z1_dev * rng.standard_normal(count)
        z2 = z2_dev * rng.standard_normal(count)

        s1_src = flip * s1
        x = m.gamma * (a * (flip * s1_src) + b * s2_arr)
        err1 = s1_src - flip * (c1 * (x + z1))
        err2 = s2_arr - c2 * (x + z2)

        e1 = err1 * err1
        e2 = err2 * err2
        e1_sums.append(math.fsum(e1))
        e1_sq_sums.append(math.fsum(e1 * e1))
        e2_sums.append(math.fsum(e2))
        e2_sq_sums.append(math.fsum(e2 * e2))
        power_sums.append(math.fsum(x * x))

    sum_e1 = math.fsum(e1_sums)
    sum_e2 = math.fsum(e2_sums)
    return SimulationReport(
        empirical_d1=sum_e1 / n,
        empirical_d2=sum_e2 / n,
        empirical_power=math.fsum(power_sums) / n,
        ci_half_width_d1=_half_width(sum_e1, math.fsum(e1_sq_sums), n),
        ci_half_width_d2=_half_width(sum_e2, math.fsum(e2_sq_sums), n),
        samples=n,
        seed=config.seed,
    )


def _half_width(total: float, total_sq: float, n: int) -> float:
    if n < 2:
        return math.inf
    var = (total_sq - total * total / n) / (n - 1)
    return _Z95 * math.sqrt(max(var, 0.0) / n)


def sample_source_pairs(
    source: SourceParams, samples: int, seed: int, *, sign_flip: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The exact source realization a simulate() run with this seed consumes.

    Shares the per-block source draws of simulate() (the noise draws come
    after the source draws, so skipping them leaves the source stream
    untouched). Intended for sample-statistics checks at test scale.
    """
    validate_source(source)
    if samples < 1:
        raise ParameterError("samples must be an integer >= 1")
    flip = -1.0 if sign_flip else 1.0
    _, s1_blocks, s2_blocks = zip(*_source_blocks(source, samples, seed))
    return flip * np.concatenate(s1_blocks), np.concatenate(s2_blocks)


def power_check(report: SimulationReport, channel: ChannelParams, tol_rel: float) -> bool:
    """True iff the empirical power respects the budget up to tol_rel.

    The encoder normalization makes E[x**2] equal the budget exactly, so
    the empirical value concentrates there.
    """
    return report.empirical_power <= channel.power * (1.0 + tol_rel)
