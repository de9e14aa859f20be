"""Seeded Monte-Carlo simulation of the uncoded scheme.

The simulator is the empirical oracle for every closed form: it draws
correlated Gaussian pairs, encodes them with the power-normalized linear
map, corrupts each branch with independent Gaussian noise, decodes with
the scalar MMSE gains, and reports empirical distortions, empirical
transmit power, and 95% normal-approximation confidence half-widths.
It writes no distortion formula of its own: the analytic pair a run is
compared with is ``closed_forms.uncoded_distortions``.

Reproducibility contract
------------------------
The sample range is partitioned into fixed blocks of 65536 symbols.
Block ``i`` uses ``numpy.random.Generator(PCG64(SeedSequence((seed, i))))``
(128-bit state) and draws, in this order and nothing else:
``s1``, ``u``, ``z1``, ``z2``, each via ``standard_normal``. Each per-block
sum is the exact sum rounded once. Two levels of the error-free
extraction of Rump, Ogita & Oishi ("Accurate floating-point summation",
SIAM J. Sci. Comput. 2008) split the values, scaled to the block's
largest one, into integer parts summed exactly and small tails summed in
floats; a proved error bound on the tails brackets the exact sum, and
where both ends of the bracket round to the same float, that float is
the sum. Where they do not (a zero sum, or one at or next to a halfway
point between two floats), ``math.fsum`` gives it. A correctly rounded
sum is unique, so either route gives the same float. A block is
computed in five reused buffers of its thread and allocates no array:
the draws are written into them, and each sum is 11 numpy passes over
the whole block, each of which releases the GIL while it runs. The
blocks run on up to two threads, the caller's and one more, which take
alternate blocks, so at most two blocks are in memory at once. A
block's sums depend only on its index, and they are stored by index
and reduced in block order with ``math.fsum``. So the
result is a pure function of ``(params, coeffs, samples, seed)`` --
bit-identical across runs and thread counts, independent of scheduling,
and stable for n up to 1e8 without summation drift.

The correlated pair is generated as ``s2 = rho*s1 + sqrt(1-rho**2)*u``
with ``s1, u`` independent N(0, sigma2). A negative correlation needs no
run of its own: the negative-correlation problem tied to the same seed
negates the first-stream realization, the encoder consumes its negation
(recovering the original stream), and the receiver-1 estimate is
negated. Negation is exact, so the encoder input is unchanged and the
receiver-1 error only changes sign, which squaring removes. A run of the
canonical ``|rho|`` problem (see ``negate_rho_transform``) therefore
reports exactly the distortions of the ``-|rho|`` one.

``SimulationConfig``, ``MmseCoefficients`` and ``SimulationReport`` are
named tuples, like every record of the package (see :mod:`.params`):
they take their fields by keyword or position and compare equal to
plain tuples of their fields.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .closed_forms import _Curve, _checked_q
from .errors import OutOfRangeError, ParameterError
from .params import ChannelParams, SourceParams, UncodedCoeffs, validate_coeffs, validate_source

__all__ = [
    "BLOCK_SIZE",
    "MmseCoefficients",
    "SimulationConfig",
    "SimulationReport",
    "mmse_coefficients",
    "power_check",
    "sample_source_pairs",
    "simulate",
]

BLOCK_SIZE = 1 << 16

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class SimulationConfig(NamedTuple):
    """Sample count, 64-bit seed, and the mixing weights to simulate."""

    samples: int
    seed: int
    coeffs: UncodedCoeffs


class MmseCoefficients(NamedTuple):
    """Encoder gain and the two scalar MMSE decode gains.

    gamma = sqrt(power / (sigma2 * q)) normalizes E[x**2] to the power
    budget exactly; c_i = gamma*sigma2*(own + other*rho)/(power + n_i)
    with (own, other) = (alpha, beta) at receiver 1 and swapped at
    receiver 2.
    """

    gamma: float
    c1: float
    c2: float


class SimulationReport(NamedTuple):
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
    curve = _Curve(source, channel)
    validate_coeffs(coeffs)
    return _mmse_coefficients(curve, coeffs)


def _mmse_coefficients(curve: _Curve, coeffs: UncodedCoeffs) -> MmseCoefficients:
    """The gains of the problem of ``curve``, read from its units alone.

    gamma is taken in the unit s2u of ``sigma2 = s2u*2**e``: with
    ``power = m*2**k`` (the curve's ``p*2**ce``) and ``j = k - e`` made
    even by doubling m, it is ``root*2**h`` with ``root = sqrt(m/(s2u*q))``
    and ``h = j/2``, which is the plain root bit for bit wherever the
    plain intermediates are normal floats, and finite at every other
    scale. The decode gains take their numerator
    ``gamma*sigma2*(own + other*rho)`` as ``root*s2u*(own + other*rho)``
    times ``2**(h + e)``, and their sum ``power + n`` in the channel's
    unit ``2**ce``, so the one shift ``h + e - ce`` goes to ``_over``:
    neither overflows where the gain itself does not. A gain past the
    float range raises OutOfRangeError naming the parameter that is too
    small.
    """
    a, b, rho = coeffs.alpha, coeffs.beta, curve.rho
    q = _checked_q(rho, a, b)
    m, k = math.frexp(curve.p)
    j = k + curve.ce - curve.e
    if j & 1:
        m, j = 2.0 * m, j - 1
    root = math.sqrt(m / (curve.s2u * q))
    try:
        gamma = math.ldexp(root, j >> 1)
    except OverflowError:
        raise OutOfRangeError("sigma2 too small relative to power: the encoder gain is past the float range") from None
    shift = (j >> 1) + curve.e - curve.ce
    try:
        c1 = _over(root * curve.s2u * (a + b * rho), curve.pn1, shift)
        c2 = _over(root * curve.s2u * (b + a * rho), curve.pn2, shift)
    except OverflowError:
        raise OutOfRangeError("power too small relative to sigma2: a decode gain is past the float range") from None
    return MmseCoefficients(gamma=gamma, c1=c1, c2=c2)


def _over(num: float, total: float, down: int) -> float:
    """``num/(total*2**-down)``, rounded once, for a sum ``total`` taken in the unit ``2**-down``.

    With ``total = m*2**k``, the quotient is ``num/m*2**s`` for
    ``s = down - k``. At ``s >= 0`` it is no subnormal, so ``ldexp``
    scales the rounded ``num/m`` exactly, or raises OverflowError. At
    ``s < 0`` the scale goes into the divisor, ``m*2**j`` with
    ``j = min(-s, 1024)`` a normal float, and the rest, ``2**(s + j)``
    (1 unless the quotient is below the normal range), into num, so that
    the one division rounds a subnormal quotient too. Where that leaves
    ``num*2**(s + j)`` subnormal, the quotient is below 2**-2045 and
    rounds to zero either way.
    """
    m, k = math.frexp(total)
    s = down - k
    if s >= 0:
        return math.ldexp(num / m, s)
    j = min(-s, 1024)
    return math.ldexp(num, s + j) / math.ldexp(m, j)


def _check_draws(samples: int, seed: int) -> None:
    """The sample count and seed checks shared by every seeded draw."""
    if not isinstance(samples, int) or samples < 1:
        raise ParameterError("samples must be an integer >= 1")
    if not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ParameterError("seed must be an integer in [0, 2**64)")


def _source_block(source: SourceParams, seed: int, block: int, s1: np.ndarray, s2: np.ndarray, spare: np.ndarray):
    """Block ``block``'s generator, its source draws written into ``s1`` and ``s2``.

    The three arrays are float64 and of the block's length; ``spare``
    takes ``rho*s1`` and is dead on return. The generator is seeded with
    ``SeedSequence((seed, block))`` and has drawn ``s1`` then ``u``; a
    caller that needs noise draws it from the generator next, which keeps
    the draw order of the reproducibility contract. ``s2`` is built in
    ``u``'s buffer: ``u + rho*s1`` is ``rho*s1 + u`` bit for bit, as float
    addition commutes, and ``standard_normal(out=...)`` draws the values
    that ``standard_normal(size)`` returns.
    """
    s_dev = math.sqrt(source.sigma2)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
    rng.standard_normal(out=s1)
    s1 *= s_dev
    rng.standard_normal(out=s2)
    s2 *= s_dev
    s2 *= math.sqrt(1.0 - source.rho * source.rho)
    np.multiply(s1, source.rho, out=spare)
    s2 += spare
    return rng


def _block_count(samples: int) -> int:
    return (samples + BLOCK_SIZE - 1) // BLOCK_SIZE


_buffers = threading.local()  # each thread's five BLOCK_SIZE block buffers, made by its first block


def _block_buffers(count: int) -> np.ndarray:
    """This thread's five block buffers, cut to ``count`` values: a (5, count) view of rows.

    The buffers, 2.5 MB, are made on the thread's first block and kept
    for the thread's life, so a later block allocates no array; the
    worker threads of ``_map_blocks`` each have their own.
    """
    try:
        block = _buffers.block
    except AttributeError:
        block = _buffers.block = np.empty((5, BLOCK_SIZE))
    return block[:, :count]


def _worker_count(blocks: int) -> int:
    """Threads that share a run's blocks: at most two, one per core and one per block."""
    return min(2, os.cpu_count() or 1, blocks)


def _map_blocks(compute, blocks: int) -> list:
    """``[compute(i) for i in range(blocks)]``, computed on ``_worker_count(blocks)`` threads.

    The caller's thread is worker 0, and worker k computes blocks k,
    k + workers, ..., so at most ``workers`` blocks are in flight. Results
    are stored by block index. An exception stops each worker at its next
    block above the failed one, and once every thread has joined, the
    exception of the lowest failed block is raised in the caller: the
    block the serial loop would have failed at.
    """
    workers = _worker_count(blocks)
    results = [None] * blocks
    errors: dict[int, BaseException] = {}
    stop = blocks  # the lowest failed block; read without the lock, written under it
    lock = threading.Lock()

    def work(first: int) -> None:
        nonlocal stop
        for i in range(first, blocks, workers):
            if i > stop:
                return
            try:
                results[i] = compute(i)
            except BaseException as exc:  # re-raised in the caller after the join
                with lock:
                    errors[i] = exc
                    stop = min(stop, i)
                return

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


_LEVEL = 36  # bits of the scaled values taken by each level of the extraction


def _exact_sum(values: np.ndarray, t: np.ndarray, h: np.ndarray) -> float:
    """The correctly rounded exact sum of a float64 array.

    Precondition: ``values.size = n <= BLOCK_SIZE = 2**16``. Two fixed
    levels of the error-free extraction of Rump, Ogita & Oishi
    ("Accurate floating-point summation", SIAM J. Sci. Comput. 2008)
    bracket the exact sum between two integers; when both ends round to
    the same nonzero float, that float is the answer, and otherwise
    ``_fsum`` gives it (the float filter with an exact fallback of
    Shewchuk's adaptive predicates). ``t`` and ``h`` are the caller's
    scratch, float64 arrays of n values, and ``values`` is never written,
    so the fallback sums it as given. Each of the 11 passes is a numpy
    ufunc or reduction over the whole array, so the sum holds the GIL
    only between passes.

    The bracket. With ``M = max|v|`` and ``e = frexp(M)[1]``, every
    ``|v| < 2**e``. Each value is scaled to ``t = v*2**(36 - e)``, so
    ``|t| < 2**36``; that is exact except where t is subnormal, which
    loses at most 2**-1075. Level 1 takes ``h = trunc(t)`` and
    ``t -= h``, and level 2 does the same after ``t *= 2**36``. Each step
    is exact: a ``|t| >= 1`` has an ulp of at least 2**-52, so its
    fraction is a multiple of that ulp below 1, and a ``|t| < 1`` is its
    own fraction (``floor`` would round ``1 + t`` for a small negative
    t). Each h is an integer below 2**36 in magnitude, so with
    ``n <= 2**16`` every partial sum of a level's h is an integer below
    2**52, and the level's sum, W1 or W2, is exact in any order; the sum
    of the tails, each ``|t| < 1``, is the float r. So
    ``sum(values) = 2**(e - 72)*(W + R + d)`` with
    ``W = 2**36*W1 + W2``, R the exact sum of the tails, and
    ``|d| <= n*2**(36 - 1075) <= 2**-1023`` the subnormal loss. r is R
    summed by n - 1 roundings in some order, so
    ``|r - R| <= (n - 1)*2**-53/(1 - (n - 1)*2**-53)*n``, which is below
    ``2**-21*(1 - 2**-17)`` for ``n <= 2**16`` (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2002, section 4.2). Hence
    ``2**21*(R + d)`` lies strictly within 1 of ``2**21*r`` (an exact
    product), and ``lo = 2**21*W + floor(2**21*r) - 1`` and
    ``hi = 2**21*W + ceil(2**21*r) + 1`` bracket ``2**21*(W + R + d)``.
    Both are rounded by int true division, which CPython rounds
    correctly, subnormals included, after scaling by ``2**(e - 93)``.
    Rounding is monotone, so equal candidates are the rounded sum.

    The contract. A finite array gives its exact sum rounded once, with
    the sign of a zero sum as ``math.fsum`` gives it, and raises
    OverflowError iff that sum is past the float range. An array holding
    an inf or a nan goes to ``_special_sum``, which sums its inf and nan
    values as ``math.fsum`` does (an inf, a nan, or ValueError for
    -inf + inf), also where ``math.fsum`` would first raise OverflowError
    on the finite ones. An empty array sums to 0.0 (``values.max()``
    raises on it).

    The fallback. ``_fsum`` is ``math.fsum``, and on its intermediate
    overflow the exact rational sum; it runs on an M of 0, an e below
    -987 (where ``2**(36 - e)`` is not a normal float), a candidate past
    the float range, and unequal or zero candidates (a zero sum takes
    its sign from ``math.fsum``). On nonnegative values the sum is at
    least M, so the rounding boundaries lie at least 2**19 units of
    ``2**(e - 72)`` apart, and the bracket, 3*2**-21 units wide, meets
    one about once in 2**38 sums of random squares. A sum exactly on a
    tie always falls back. In ``simulate`` every fallback seen was one:
    at alpha 0 or 1 and a large P/n1 (1e27 and up), the squared errors
    are rounding residues with few distinct values, whose sums land on
    halfway points. Sums that cancel fall back often too.
    """
    if values.size == 0:
        return 0.0
    top = max(values.max(), -values.min())
    if not top < math.inf:  # an inf or a nan
        return _special_sum(values)
    e = math.frexp(top)[1]
    if top == 0.0 or e < _LEVEL - 1023:
        return _fsum(values)
    np.multiply(values, math.ldexp(1.0, _LEVEL - e), out=t)
    np.trunc(t, out=h)
    t -= h
    w1 = int(h.sum())
    t *= 2.0**_LEVEL
    np.trunc(t, out=h)
    t -= h
    w = ((w1 << _LEVEL) + int(h.sum())) << 21
    r = float(t.sum()) * 2.0**21
    try:
        lo = _scaled(w + math.floor(r) - 1, e - 2 * _LEVEL - 21)
        hi = _scaled(w + math.ceil(r) + 1, e - 2 * _LEVEL - 21)
    except OverflowError:
        return _fsum(values)
    if lo == hi != 0.0:
        return lo
    return _fsum(values)


def _fsum(values: np.ndarray) -> float:
    """``_exact_sum``'s fallback for finite values: ``math.fsum``, which rounds the exact sum once.

    ``math.fsum`` raises OverflowError where a partial sum leaves the
    float range, also where the exact sum does not (``[M, M, -M, -M, x]``
    for the float max M); there the sum is taken in ``Fraction``, whose
    conversion raises OverflowError only where the exact sum is past the
    range. The partial sums of nonnegative values, which are all that
    ``simulate`` sums, never pass their exact sum, so ``fractions`` is
    imported on that path only.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        from fractions import Fraction

        return float(sum(map(Fraction, values.tolist()), Fraction(0)))


def _scaled(total: int, shift: int) -> float:
    """``total*2**shift`` rounded once: int true division rounds correctly, subnormals included."""
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _special_sum(values: np.ndarray) -> float:
    """The sum of an array holding an inf or a nan: its inf and nan values summed as ``math.fsum`` sums them."""
    specials = values[~np.isfinite(values)]
    infs = specials[np.isinf(specials)]
    if infs.size and infs.min() != infs.max():
        raise ValueError("-inf + inf in exact sum")
    return float(specials.sum())


def _squared_error_sums(
    s: np.ndarray, z: np.ndarray, x: np.ndarray, c: float, unit: float, t: np.ndarray, h: np.ndarray
):
    """Exact sums of ``e`` and ``e**2`` for ``e = (unit*(s - c*(x + z)))**2``.

    Works in place in ``z``, in the operand order of the unfused
    expression, so every product and sum is bit-identical to it. The
    sums take ``t`` and ``h`` as their scratch, which may be ``s``'s
    buffer: ``s`` is read before the first sum.
    """
    z += x
    z *= c
    np.subtract(s, z, out=z)
    z *= unit
    z *= z
    total = _exact_sum(z, t, h)
    z *= z
    return total, _exact_sum(z, t, h)


def simulate(
    source: SourceParams,
    channel: ChannelParams,
    config: SimulationConfig,
    *,
    decode_gains: tuple[float, float] | None = None,
) -> SimulationReport:
    """Run the uncoded scheme for config.samples symbols.

    ``decode_gains`` overrides the MMSE gains (c1, c2) -- useful for
    verifying that the MMSE choice is a strict minimum of the empirical
    distortion. A statistic past the float range raises OutOfRangeError
    naming sigma2 (a distortion or its half-width) or power.
    """
    curve = _Curve(source, channel)
    validate_coeffs(config.coeffs)
    _check_draws(config.samples, config.seed)
    m = _mmse_coefficients(curve, config.coeffs)
    c1, c2 = decode_gains if decode_gains is not None else (m.c1, m.c2)
    a, b = config.coeffs.alpha, config.coeffs.beta
    z1_dev = math.sqrt(channel.n1)
    z2_dev = math.sqrt(channel.n2)
    # Squared errors scale like sigma2 and their squares like sigma2**2,
    # which overflow or underflow at extreme valid sigma2; so do the
    # transmitted powers with P. The errors are scaled by a power of two
    # near 1/sqrt(sigma2), the inputs by one near 1/sqrt(P), and the
    # results scaled back; powers of two commute with rounding, so no bit
    # changes.
    half = curve.e // 2
    unit = math.ldexp(1.0, -half)
    p_half = math.frexp(channel.power)[1] // 2
    p_unit = math.ldexp(1.0, -p_half)

    n = config.samples

    def block_sums(i: int) -> tuple[float, float, float, float, float]:
        # s1 is dead once e1 is formed, and from then on it is the sums' scratch t
        s1, s2, x, z, h = _block_buffers(min(BLOCK_SIZE, n - i * BLOCK_SIZE))
        rng = _source_block(source, config.seed, i, s1, s2, x)
        np.multiply(s2, b, out=z)
        np.multiply(s1, a, out=x)
        x += z
        x *= m.gamma
        rng.standard_normal(out=z)  # z1
        z *= z1_dev
        e1, e1_sq = _squared_error_sums(s1, z, x, c1, unit, s1, h)
        rng.standard_normal(out=z)  # z2, drawn into z1's spent buffer
        z *= z2_dev
        e2, e2_sq = _squared_error_sums(s2, z, x, c2, unit, s1, h)
        x *= p_unit
        x *= x
        return e1, e1_sq, e2, e2_sq, _exact_sum(x, s1, h)

    e1_sums, e1_sq_sums, e2_sums, e2_sq_sums, power_sums = zip(
        *_map_blocks(block_sums, _block_count(n))
    )
    sum_e1 = math.fsum(e1_sums)
    sum_e2 = math.fsum(e2_sums)
    return SimulationReport(
        empirical_d1=_scaled_back(sum_e1 / n, half, "sigma2"),
        empirical_d2=_scaled_back(sum_e2 / n, half, "sigma2"),
        empirical_power=_scaled_back(math.fsum(power_sums) / n, p_half, "power"),
        ci_half_width_d1=_scaled_back(_half_width(sum_e1, math.fsum(e1_sq_sums), n), half, "sigma2"),
        ci_half_width_d2=_scaled_back(_half_width(sum_e2, math.fsum(e2_sq_sums), n), half, "sigma2"),
        samples=n,
        seed=config.seed,
    )


def _scaled_back(value: float, half: int, name: str) -> float:
    """A statistic taken in the unit ``2**-(2*half)``, scaled back once per run.

    Past the float range it raises OutOfRangeError naming the parameter
    the statistic grows with; the one-sample half-width, +inf, stays so.
    """
    try:
        return math.ldexp(value, 2 * half)
    except OverflowError:
        raise OutOfRangeError(f"{name} too large: a simulated statistic is past the float range") from None


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
    ``sign_flip`` negates the first stream, as the negative-correlation
    problem does.
    """
    validate_source(source)
    _check_draws(samples, seed)
    s1, s2 = np.empty(samples), np.empty(samples)
    spare = np.empty(min(samples, BLOCK_SIZE))
    for i in range(_block_count(samples)):
        start = i * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, samples)
        _source_block(source, seed, i, s1[start:stop], s2[start:stop], spare[: stop - start])
    if sign_flip:
        s1 *= -1.0
    return s1, s2


def power_check(report: SimulationReport, channel: ChannelParams, tol_rel: float) -> bool:
    """True iff the empirical power respects the budget up to tol_rel.

    The encoder normalization makes E[x**2] equal the budget exactly, so
    the empirical value concentrates there.
    """
    return report.empirical_power <= channel.power * (1.0 + tol_rel)
