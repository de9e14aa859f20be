"""The verifier's closed-form skip of the uncovered d1 interval is invisible in its report.

``region.verify_matching`` records a grid point strictly inside the row
kernel's uncovered interval ``(skip_lo, skip_hi)`` (``closed_forms._Curve``,
through its ``at_d1``) as not covered without solving its alpha. These
tests hold it to the per-point verifier of ``helpers`` (every point
solved and tested) over a wide box of problems and at the named edges,
report against report, and probe the interval's ends a few ulp inside.
"""

import math
import random

import pytest

from gaussian_bc import ChannelParams, SourceParams, converse_at, d2_min_at_rx1, verify_matching
from gaussian_bc import closed_forms
from gaussian_bc.closed_forms import _Curve
from gaussian_bc.errors import GaussianBcError, SnrThresholdError
from gaussian_bc.region import _d1_grid
from helpers import DESK_CHANNEL, per_point_verify_matching


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
    """The grid points the verifier records as not covered without a solve."""
    curve = _Curve(source, channel)
    lo, hi = curve.skip_lo, curve.skip_hi
    return sum(lo < d1 < hi for d1 in _d1_grid(curve.lo_d, curve.hi_d, grid_size))


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
    # t* = 0 skips every grid point; at the simple threshold and on a
    # range a few ulp wide the interval is empty
    assert skipped_points(SourceParams(1.0, 0.0), DESK_CHANNEL, 1000) == 1000
    assert skipped_points(SourceParams(1.0, 1e-300), DESK_CHANNEL, 50) == 50
    assert skipped_points(SourceParams(1.0, 0.5), ChannelParams(1e300, 1.0, 2.0), 1000) == 1000
    for rho in _THRESHOLD_RHOS:
        assert skipped_points(SourceParams(1.0, rho), ChannelParams(2.0 * rho / (1.0 - rho), 1.0, 2.0), 50) == 0
    curve = _Curve(SourceParams(1.0, 0.0), ChannelParams(1.5e-15, 1.0, 2.0))
    assert not curve.skip_lo < curve.skip_hi
    # a subnormal n1 near rho = 1 skipped nothing while the margin's terms
    # were subnormal; in the channel's unit they are normal floats
    source, channel = SourceParams(1e150, 0.9999999999999993), ChannelParams(2.1236836862603217e-307, 1.5e-323, 1.0)
    assert skipped_points(source, channel, 50) == 45


def per_point_covered(curve, d1):
    alpha = curve.alpha_for(d1)
    beta = 1.0 - alpha
    return curve.converse(alpha, beta, curve.forms(alpha, beta)[0]) is not None


def test_a_few_ulp_inside_the_ends_the_per_point_test_says_not_covered():
    rng = random.Random(2702)
    probed = 0
    for _ in range(3000):
        source, channel = wide_box_problem(rng)
        try:
            curve = _Curve(source, channel)
        except GaussianBcError:
            continue
        lo, hi = curve.skip_lo, curve.skip_hi
        if not lo < hi:
            continue
        ends = [lo + k * math.ulp(lo) for k in (1, 2, 3)] + [hi - k * math.ulp(hi) for k in (1, 2, 3)]
        for d1 in ends:
            if lo < d1 < hi:
                assert not per_point_covered(curve, d1), (source, channel, d1)
                probed += 1
    assert probed > 9_000


def test_bound_refuses_exactly_the_points_verify_does_not_cover():
    # verify and the per-d1 record share the row kernel's evaluation of a
    # d1, so the companion floor raises SnrThresholdError at the grid points
    # verify reports as not covered, and nowhere else; at a covered point
    # the converse and the witness are verify's, bit for bit
    rng = random.Random(2704)
    closed_forms._rx1_point.cache_clear()
    counts = {True: 0, False: 0}
    for _ in range(80):
        source, channel = wide_box_problem(rng)
        try:
            report = verify_matching(source, channel, 50, 1e-9)
        except GaussianBcError:
            continue
        for point in report.points:
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
