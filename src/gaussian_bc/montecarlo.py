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
``s1``, ``u``, ``z1``, ``z2``, each via ``standard_normal``. Each per-block
sum is exact and rounded once: the values are split into exponent bins of
integer mantissa chunks, every bin is summed exactly, and the bins are
folded into one integer (the binned summation of Demmel & Nguyen,
"Parallel Reproducible Summation", IEEE TC 2015). A correctly rounded sum
is unique, so this is the float ``math.fsum`` returns. The block sums are
then reduced in block order with ``math.fsum``, so the result is a pure
function of ``(params, coeffs, samples, seed)`` -- bit-identical across
runs and independent of any internal scheduling, and stable for n up to
1e8 without summation drift.

The correlated pair is generated as ``s2 = rho*s1 + sqrt(1-rho**2)*u``
with ``s1, u`` independent N(0, sigma2). A ``sign_flip`` run simulates
the negative-correlation problem tied to the same seed: the first-stream
realization is negated, the encoder consumes its negation (recovering
the original stream), and the receiver-1 estimate is negated. Negation
is exact, so the encoder input is unchanged and the receiver-1 error only
changes sign, which squaring removes: flipped and unflipped runs report
identical distortions, and the kernel applies none of the negations.
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
        s1 = rng.standard_normal(count)
        s1 *= s_dev
        u = rng.standard_normal(count)
        u *= s_dev
        u *= mix
        s2 = source.rho * s1
        s2 += u
        yield rng, s1, s2


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float64 array: the float ``math.fsum`` returns.

    Precondition: ``values.size <= BLOCK_SIZE``. ``frexp`` splits each
    value into a binary exponent and a 53-bit integer mantissa, held as
    two chunks below 2**27 and 2**26; one ``bincount`` per chunk sums them
    per exponent. Each bin sum is an integer below 2**53 for up to 2**26
    values, hence exact in float64. The bins are folded into one Python
    int and rounded once by int true division, which CPython rounds
    correctly, subnormals included. An exact sum too large for a float
    raises OverflowError, as ``math.fsum`` does.
    """
    if values.size == 0:
        return 0.0
    mant, exp = np.frexp(values)
    e_min = int(exp.min())
    exp -= e_min
    mant *= 2.0**27
    hi_chunks = np.trunc(mant)
    hi_bins = np.bincount(exp, weights=hi_chunks)
    if not np.isfinite(hi_bins).all():  # an inf or a nan: no chunks to split
        return _special_sum(values)
    mant -= hi_chunks
    mant *= 2.0**26
    lo_bins = np.bincount(exp, weights=mant)
    total = 0
    for k, (hi, lo) in enumerate(zip(hi_bins.tolist(), lo_bins.tolist())):
        if hi or lo:
            total += ((int(hi) << 26) + int(lo)) << k
    shift = e_min - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _special_sum(values: np.ndarray) -> float:
    """What ``math.fsum`` returns for an array holding an inf or a nan."""
    specials = values[~np.isfinite(values)]
    infs = specials[np.isinf(specials)]
    if infs.size and infs.min() != infs.max():
        raise ValueError("-inf + inf in exact sum")
    return float(specials.sum())


def _squared_error_sums(s: np.ndarray, z: np.ndarray, x: np.ndarray, c: float, unit: float):
    """Exact sums of ``e`` and ``e**2`` for ``e = (unit*(s - c*(x + z)))**2``.

    Works in place in ``z``, in the operand order of the unfused
    expression, so every product and sum is bit-identical to it.
    """
    z += x
    z *= c
    np.subtract(s, z, out=z)
    z *= unit
    z *= z
    total = _exact_sum(z)
    z *= z
    return total, _exact_sum(z)


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
    in the module docstring; its negations are exact and cancel, so it
    cannot change the report, and the kernel does not apply them.
    ``decode_gains`` overrides the MMSE gains (c1, c2) -- useful for
    verifying that the MMSE choice is a strict minimum of the empirical
    distortion.
    """
    _validate_run(source, channel, config)
    m = mmse_coefficients(source, channel, config.coeffs)
    c1, c2 = decode_gains if decode_gains is not None else (m.c1, m.c2)
    a, b = config.coeffs.alpha, config.coeffs.beta
    z1_dev = math.sqrt(channel.n1)
    z2_dev = math.sqrt(channel.n2)
    # Squared errors scale like sigma2 and their squares like sigma2**2,
    # which overflow or underflow at extreme valid sigma2. The errors are
    # scaled by a power of two near 1/sqrt(sigma2) and the results scaled
    # back; powers of two commute with rounding, so no bit changes.
    half = math.frexp(source.sigma2)[1] // 2
    unit = math.ldexp(1.0, -half)

    e1_sums: list[float] = []
    e1_sq_sums: list[float] = []
    e2_sums: list[float] = []
    e2_sq_sums: list[float] = []
    power_sums: list[float] = []

    n = config.samples
    for rng, s1, s2 in _source_blocks(source, n, config.seed):
        z1 = rng.standard_normal(s1.size)
        z1 *= z1_dev
        z2 = rng.standard_normal(s1.size)
        z2 *= z2_dev

        x = a * s1
        x += b * s2
        x *= m.gamma

        e1, e1_sq = _squared_error_sums(s1, z1, x, c1, unit)
        e2, e2_sq = _squared_error_sums(s2, z2, x, c2, unit)
        e1_sums.append(e1)
        e1_sq_sums.append(e1_sq)
        e2_sums.append(e2)
        e2_sq_sums.append(e2_sq)
        x *= x
        power_sums.append(_exact_sum(x))

    sum_e1 = math.fsum(e1_sums)
    sum_e2 = math.fsum(e2_sums)
    scale = 2 * half
    return SimulationReport(
        empirical_d1=math.ldexp(sum_e1 / n, scale),
        empirical_d2=math.ldexp(sum_e2 / n, scale),
        empirical_power=math.fsum(power_sums) / n,
        ci_half_width_d1=math.ldexp(_half_width(sum_e1, math.fsum(e1_sq_sums), n), scale),
        ci_half_width_d2=math.ldexp(_half_width(sum_e2, math.fsum(e2_sq_sums), n), scale),
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
