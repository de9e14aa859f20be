"""The coverage predicates decide exactly, and the verifier's skip of an uncovered point is invisible.

``region.verify_matching`` records a grid point that the row kernel's d1
predicate (``closed_forms._Curve.covers``, through its ``at_d1``) refuses
as not covered without solving its alpha. These tests hold it to the
per-point verifier of ``helpers`` (every point solved, coverage decided
by the paper's condition in exact rational arithmetic) over a wide box of
problems and at the named edges, report against report. A band sweep
steps d1 and the trace's alpha ulp by ulp across both ends of the covered
set, where a float verdict can round either way, and holds every route
to the exact verdict there.
"""

import math
import random

import pytest

from gaussian_bc import (
    ChannelParams,
    SourceParams,
    converse_at,
    d2_min_at_rx1,
    is_uncoded_optimal,
    region,
    verify_matching,
)
from gaussian_bc import closed_forms
from gaussian_bc.closed_forms import _Curve, _low_root, _product_threshold
from gaussian_bc.errors import GaussianBcError, SnrThresholdError
from gaussian_bc.region import _d1_grid
from helpers import DESK_CHANNEL, exact_alpha_covered, exact_covered, per_point_verify_matching


def wide_box_problem(rng: random.Random) -> tuple[SourceParams, ChannelParams]:
    """rho down to 1e-15 and 1 - rho down to 1e-12, P/n1 in 1e-8..1e12, sigma2 and n1 in 1e-100..1e100."""
    kind = rng.randrange(3)
    if kind == 0:
        rho = 10 ** rng.uniform(-15, 0)
    elif kind == 1:
        rho = 1.0 - 10 ** rng.uniform(-12, 0)
    else:
        rho = rng.random()
    rho = min(rho, 1.0 - 1e-12)
    sigma2, n1 = 10 ** rng.uniform(-100, 100), 10 ** rng.uniform(-100, 100)
    power = n1 * 10 ** rng.uniform(-8, 12)
    return SourceParams(sigma2, rho), ChannelParams(power, n1, n1 * rng.uniform(1.0001, 10.0))


def outcome(verify, source, channel, grid_size):
    """The report's repr, or the type and message of the error it raised."""
    try:
        return repr(verify(source, channel, grid_size, 1e-9))
    except GaussianBcError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcome(source, channel, grid_size):
    """The verifier's report (or error) is the per-point verifier's, byte for byte."""
    got = outcome(verify_matching, source, channel, grid_size)
    expected = outcome(per_point_verify_matching, source, channel, grid_size)
    if got != expected:  # a short message: a diff of two long reprs takes pytest minutes
        at = next(i for i, (x, y) in enumerate(zip(got + " ", expected + " ")) if x != y)
        near = slice(max(at - 80, 0), at + 80)
        pytest.fail(f"{source}, {channel}, grid {grid_size}: {got[near]} != {expected[near]}")
    return got


def skipped_points(source, channel, grid_size):
    """The grid points the verifier records as not covered without a solve: those the d1 predicate refuses."""
    curve = _Curve(source, channel)
    return sum(not curve.covers(d1) for d1 in _d1_grid(curve.lo_d, curve.hi_d, grid_size))


def test_the_report_is_the_per_point_verifiers_over_a_wide_box():
    rng = random.Random(2701)
    skipped = reports = 0
    for k in range(240):
        source, channel = wide_box_problem(rng)
        grid_size = (1, 50, 1000)[k % 3]
        if assert_same_outcome(source, channel, grid_size).startswith("MatchReport"):
            reports += 1
            skipped += skipped_points(source, channel, grid_size)
    assert reports > 200
    assert skipped > 40_000


_THRESHOLD_RHOS = (1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12)


@pytest.mark.parametrize(
    "source, channel, grid_size",
    [
        # t* = 0: only the alpha = 0 and 1 ends are covered
        *[(SourceParams(1.0, rho), DESK_CHANNEL, size) for rho in (0.0, -0.0, 1e-300) for size in (1, 50, 1000)],
        (SourceParams(1e-100, 1e-300), ChannelParams(1e-20, 1e-100, 1e-99), 50),  # rho*n1 underflows to 0
        # P/n1 at the simple threshold 2*rho/(1 - rho), where t* rounds to about 1/4
        *[
            (SourceParams(1.0, rho), ChannelParams(2.0 * rho / (1.0 - rho) * scale, scale, 2.0 * scale), size)
            for rho in _THRESHOLD_RHOS
            for scale in (1e-90, 1.0, 1e90)
            for size in (1, 50, 1000)
        ],
        (SourceParams(1.0, 0.5), ChannelParams(1e300, 1.0, 2.0), 50),  # --power 1e300: nothing covered
        (SourceParams(1.0, 0.5), ChannelParams(1e300, 1.0, 2.0), 1000),
        (SourceParams(1.0, 0.0), ChannelParams(1.5e-15, 1.0, 2.0), 1),  # a d1 range a few ulp wide
        (SourceParams(1.0, 1e-300), ChannelParams(2.0e-15, 1.0, 2.0), 3),
        (SourceParams(1.0, 0.0), ChannelParams(1e-318, 1e-305, 2e-305), 50),  # power subnormal
        # n1 subnormal and P*(1 - rho**2) about 1e-321: the margin's terms
        # were subnormal, and the verifier skipped nothing. In the channel's
        # unit they are normal floats, and it skips 45 of the 50 points
        (SourceParams(1e150, 0.9999999999999993), ChannelParams(2.1236836862603217e-307, 1.5e-323, 1.0), 50),
        # channels spread over 1e600 and more, where P*(1 - rho**2) is below
        # 2**-900 even in the channel's unit; the verifier skips there too
        (SourceParams(6.742806353007217e-126, 0.9999931276537972),
         ChannelParams(2.14907681692877e-296, 4.072921710345596e-303, 3.443955476734795e+300), 50),
        (SourceParams(7.309973064432463e+250, 0.9999995265100927),
         ChannelParams(5.2381455e-316, 1.24e-322, 1.7357564668325392e+283), 50),
    ],
)
def test_the_report_is_the_per_point_verifiers_at_the_edges(source, channel, grid_size):
    assert_same_outcome(source, channel, grid_size)


def test_the_edges_skip_where_expected():
    # t* = 0 skips every grid point; at the simple threshold every point is
    # covered; on a d1 range a few ulp wide at rho = 0 (or 1e-300) no grid
    # point is covered either, exactly as the paper's condition says
    assert skipped_points(SourceParams(1.0, 0.0), DESK_CHANNEL, 1000) == 1000
    assert skipped_points(SourceParams(1.0, 1e-300), DESK_CHANNEL, 50) == 50
    assert skipped_points(SourceParams(1.0, 0.5), ChannelParams(1e300, 1.0, 2.0), 1000) == 1000
    for rho in _THRESHOLD_RHOS:
        assert skipped_points(SourceParams(1.0, rho), ChannelParams(2.0 * rho / (1.0 - rho), 1.0, 2.0), 50) == 0
    assert skipped_points(SourceParams(1.0, 0.0), ChannelParams(1.5e-15, 1.0, 2.0), 1) == 1
    assert skipped_points(SourceParams(1.0, 1e-300), ChannelParams(2.0e-15, 1.0, 2.0), 3) == 3
    # a subnormal n1 near rho = 1 skipped nothing while the margin's terms
    # were subnormal; in the channel's unit they are normal floats
    source, channel = SourceParams(1e150, 0.9999999999999993), ChannelParams(2.1236836862603217e-307, 1.5e-323, 1.0)
    assert skipped_points(source, channel, 50) == 45


def band_problem(rng: random.Random) -> tuple[SourceParams, ChannelParams]:
    """A problem above the simple threshold (t* < 1/4), so that the covered set has two inner ends."""
    rho = rng.uniform(0.01, 0.99)
    n1 = 10 ** rng.uniform(-2, 2)
    power = n1 * 2.0 * rho / (1.0 - rho) * 10 ** rng.uniform(0.01, 3)
    return SourceParams(10 ** rng.uniform(-3, 3), rho), ChannelParams(power, n1, n1 * rng.uniform(1.1, 10.0))


def ulp_steps(x: float, reach: int) -> list[float]:
    """The floats from ``reach`` ulp below x to ``reach`` ulp above it, in order."""
    below, above = [x], [x]
    for _ in range(reach):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def test_every_route_gives_the_exact_verdict_in_the_band(monkeypatch):
    # d1 within 40 ulp of both crossings D1u(a_lo) and D1u(1 - a_lo), and
    # the trace's alpha within 40 ulp of a_lo and of 1 - a_lo: there a
    # float verdict can round either way. is_uncoded_optimal, bound (the
    # companion floor's SnrThresholdError), verify's covered flag (its grid
    # set to the band) and the trace's row kernel (forms, then converse)
    # each equal the paper's condition in exact rational arithmetic, and
    # no covered point carries a2* < 0
    rng = random.Random(3701)
    closed_forms._rx1_point.cache_clear()
    tally = {True: 0, False: 0}
    rows = {True: 0, False: 0}
    for _ in range(40):
        source, channel = band_problem(rng)
        curve = _Curve(source, channel)
        a_lo = _low_root(_product_threshold(source.rho, channel.power / channel.n1))
        band = sorted(
            d1
            for end in (curve.forms(a_lo, 1.0 - a_lo)[1], curve.forms(1.0 - a_lo, a_lo)[1])
            for d1 in ulp_steps(end, 40)
            if curve.lo_d < d1 < curve.hi_d
        )
        exact = [exact_covered(source, channel, d1) for d1 in band]
        monkeypatch.setattr(region, "_d1_grid", lambda lo, hi, size: band)
        report = verify_matching(source, channel, len(band), 1e-9)
        assert [point.covered for point in report.points] == exact, source
        for d1, covered in zip(band, exact):
            assert is_uncoded_optimal(source, channel, d1) == covered, (source, channel, d1)
            try:
                _, _, witness = converse_at(source, channel, d1)
            except SnrThresholdError:
                assert not covered, (source, channel, d1)
            else:
                assert covered and witness.a2 >= 0.0, (source, channel, d1, witness)
            tally[covered] += 1
        for alpha in ulp_steps(a_lo, 40) + ulp_steps(1.0 - a_lo, 40):
            beta = 1.0 - alpha
            row = curve.converse(alpha, beta, curve.forms(alpha, beta)[0])
            covered = exact_alpha_covered(source, channel, alpha, beta)
            assert (row is not None) == covered, (source, channel, alpha)
            assert row is None or row[3] >= 0.0
            rows[covered] += 1
    closed_forms._rx1_point.cache_clear()
    assert min(tally.values()) > 2000 and min(rows.values()) > 2000


def test_bound_refuses_exactly_the_points_verify_does_not_cover(monkeypatch):
    # verify and the per-d1 record share the row kernel's evaluation of a
    # d1, so the companion floor raises SnrThresholdError at the grid points
    # verify reports as not covered, and nowhere else, and those are the
    # points where the paper's condition fails in exact arithmetic; at a
    # covered point the converse and the witness are verify's, bit for bit.
    # Next to its own grid, verify takes points a relative 1e-12 .. 1e-3
    # off each end of the covered set, so no interval of points skipped
    # unsolved can reach past an end unseen
    rng = random.Random(2704)
    closed_forms._rx1_point.cache_clear()
    counts = {True: 0, False: 0}
    for _ in range(80):
        source, channel = wide_box_problem(rng)
        try:
            curve = _Curve(source, channel)
        except GaussianBcError:
            continue
        grid = _d1_grid(curve.lo_d, curve.hi_d, 50)
        t_star = _product_threshold(source.rho, channel.power / channel.n1) if channel.power > 0.0 else 1.0
        if t_star < 0.25:
            a_lo = _low_root(t_star)
            for end in (curve.forms(a_lo, 1.0 - a_lo)[1], curve.forms(1.0 - a_lo, a_lo)[1]):
                grid += [end * (1.0 + k * 10.0**-j) for j in (12, 9, 6, 3) for k in (-1, 1)]
        grid = sorted(d1 for d1 in set(grid) if curve.lo_d < d1 < curve.hi_d)
        if not grid:
            continue
        monkeypatch.setattr(region, "_d1_grid", lambda lo, hi, size, grid=grid: grid)
        try:
            report = verify_matching(source, channel, len(grid), 1e-9)
        except GaussianBcError:
            continue
        for point in report.points:
            assert point.covered == exact_covered(source, channel, point.d1), (source, channel, point.d1)
            try:
                d2_min_at_rx1(source, channel, point.d1)
            except SnrThresholdError:
                assert not point.covered, (source, channel, point.d1)
            else:
                assert point.covered, (source, channel, point.d1)
                _, psi, witness = converse_at(source, channel, point.d1)
                assert repr((psi, witness)) == repr((point.d2_converse, point.witness))
            counts[point.covered] += 1
    closed_forms._rx1_point.cache_clear()
    assert min(counts.values()) > 500
