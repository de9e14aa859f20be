"""Boundary trace, converse curve, and the matching verifier."""

import math

import pytest

from gaussian_bc import (
    BoundWitness,
    ChannelParams,
    DistortionRangeError,
    OutOfRangeError,
    SourceParams,
    converse_at,
    d2_converse_bound,
    trace_uncoded_boundary,
    verify_matching,
)

from helpers import DESK_CHANNEL, DESK_SOURCE

HIGH_SNR_SOURCE = SourceParams(1.0, 0.1)
HIGH_SNR_CHANNEL = ChannelParams(100.0, 1.0, 2.0)


class TestTrace:
    def test_three_point_desk_trace(self):
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 3)
        assert [p.alpha for p in points] == [0.0, 0.5, 1.0]
        assert points[0].d1 == pytest.approx(0.875, rel=1e-12)
        assert points[1].d1 == pytest.approx(0.625, rel=1e-12)
        assert points[2].d1 == pytest.approx(0.5, rel=1e-12)
        # the alpha = 0 corner sits exactly on the range boundary: converse absent
        assert points[0].d2_converse is None and points[0].witness is None
        assert points[0].optimal_flag  # threshold is infinite there
        for p in points[1:]:
            assert p.d2_converse is not None
            assert abs(p.d2_achievable - p.d2_converse) <= 1e-9

    def test_two_points_give_the_corners(self):
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 2)
        assert points[0].d1 == pytest.approx(0.875, rel=1e-12)
        assert points[0].d2_achievable == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert points[1].d1 == pytest.approx(0.5, rel=1e-12)
        assert points[1].d2_achievable == pytest.approx(11.0 / 12.0, rel=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(OutOfRangeError):
            trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 1)

    @pytest.mark.parametrize(
        "channel", [ChannelParams(1e20, 1.0, 2.0), ChannelParams(1.0, 1e-300, 2e-300)]
    )
    def test_undefined_converse_is_a_power_range_error(self, channel):
        # the combiner bound rounds to <= 0 at P/n1 this high; the
        # BoundUndefinedError used to abort the trace with no parameter named
        with pytest.raises(OutOfRangeError, match=r"^power too large relative to n1"):
            trace_uncoded_boundary(DESK_SOURCE, channel, 11)

    @pytest.mark.parametrize(
        "source, channel",
        [
            (SourceParams(1e300, 0.5), ChannelParams(1e10, 1.0, 2.0)),
            (SourceParams(1e300, 0.999999), ChannelParams(1e10, 1.0, 2.0)),
            (SourceParams(1e300, 0.5), ChannelParams(1.0, 1.0, 1e5)),
        ],
    )
    def test_overflowing_distortion_numerator_is_a_sigma2_range_error(self, source, channel):
        # sigma2 * num overflows at an end of the curve: the first d1 used
        # to be inf (first two cases), or every d2 (the last one)
        with pytest.raises(OutOfRangeError, match=r"^sigma2 too large"):
            trace_uncoded_boundary(source, channel, 11)

    def test_large_sigma2_below_the_overflow_still_traces(self):
        points = trace_uncoded_boundary(SourceParams(1e300, 0.5), ChannelParams(1e4, 1.0, 2.0), 11)
        assert all(math.isfinite(p.d1) and math.isfinite(p.d2_achievable) for p in points)

    def test_strict_monotonicity_along_the_trace(self):
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 101)
        for a, b in zip(points, points[1:]):
            assert a.d1 > b.d1
            assert a.d2_achievable < b.d2_achievable

    def test_match_and_flags_at_every_covered_point(self):
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 101)
        assert all(p.optimal_flag for p in points)  # desk SNR is below the floor
        for p in points:
            if p.d2_converse is None:
                continue
            assert abs(p.d2_achievable - p.d2_converse) <= 1e-9
            assert p.witness.a1 >= 0 and p.witness.a2 >= 0

    def test_threshold_violating_points_lack_converse(self):
        points = trace_uncoded_boundary(HIGH_SNR_SOURCE, HIGH_SNR_CHANNEL, 51)
        uncovered = [p for p in points if not p.optimal_flag]
        assert uncovered, "expected mid-range points beyond the threshold"
        assert all(p.d2_converse is None for p in uncovered)

    def test_converse_dominates_every_witness_on_a_grid(self):
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 21)
        for p in points:
            if p.d2_converse is None:
                continue
            for i in range(11):
                for j in range(11):
                    witness = BoundWitness(2.0 * i / 10, 2.0 * j / 10)
                    psi = d2_converse_bound(DESK_SOURCE, DESK_CHANNEL, p.d1, witness)
                    assert p.d2_achievable + 1e-9 >= psi


class TestConverseAt:
    def test_desk_values(self):
        psi, witness = converse_at(DESK_SOURCE, DESK_CHANNEL, 0.625)
        assert psi == pytest.approx(0.75, rel=1e-9)
        assert witness.a1 == pytest.approx(0.8, rel=1e-9)
        assert witness.a2 == pytest.approx(0.2, rel=1e-9)

    def test_at_the_receiver1_floor(self):
        psi, _ = converse_at(DESK_SOURCE, DESK_CHANNEL, 0.5)
        assert psi == pytest.approx(11.0 / 12.0, rel=1e-9)

    def test_range_violation(self):
        with pytest.raises(DistortionRangeError):
            converse_at(DESK_SOURCE, DESK_CHANNEL, 0.875)


class TestVerifyMatching:
    def test_desk_grid_passes(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 50, 1e-9)
        assert report.passed
        assert report.covered_count == 50
        assert report.excluded_count == 0
        assert report.max_residual <= 1e-9

    def test_single_point_is_the_midpoint(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 1, 1e-9)
        assert len(report.points) == 1
        assert report.points[0].d1 == pytest.approx(0.6875, rel=1e-12)

    def test_corrupted_tolerance_fails(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 50, 1e-18)
        assert not report.passed

    def test_uncovered_points_are_excluded_not_failed(self):
        # P/n1 = 3 sits between the threshold floor (2) and its values near
        # both grid ends, so the grid mixes covered and uncovered points
        report = verify_matching(DESK_SOURCE, ChannelParams(3.0, 1.0, 2.0), 40, 1e-9)
        assert report.excluded_count > 0
        assert report.covered_count > 0
        assert report.passed  # covered points still match

    def test_zero_grid_rejected(self):
        with pytest.raises(OutOfRangeError):
            verify_matching(DESK_SOURCE, DESK_CHANNEL, 0, 1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(OutOfRangeError, match="tol must be a finite number >= 0"):
            verify_matching(DESK_SOURCE, DESK_CHANNEL, 5, tol)

    @pytest.mark.parametrize(
        "source, channel",
        [
            (DESK_SOURCE, ChannelParams(1e-200, 1.0, 2.0)),  # the range is (1.0, 1.0)
            (DESK_SOURCE, ChannelParams(2e-16, 1.0, 2.0)),  # one ulp wide: no interior grid
            (SourceParams(1.0, 0.9999999999999999), DESK_CHANNEL),  # 1 - rho**2 near eps
        ],
    )
    def test_collapsed_d1_range_is_an_argument_error(self, source, channel):
        with pytest.raises(OutOfRangeError, match=r"^power too small"):
            verify_matching(source, channel, 50, 1e-9)

    def test_narrow_d1_range_that_holds_the_grid_still_runs(self):
        report = verify_matching(DESK_SOURCE, ChannelParams(1e-14, 1.0, 2.0), 50, 1e-9)
        assert report.covered_count == 50
        assert report.passed

    def test_zero_tolerance_is_accepted(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 5, 0.0)
        assert report.tol == 0.0
