"""Boundary trace, converse curve, and the matching verifier."""

import math
import random

import pytest

from gaussian_bc import (
    BoundaryPoint,
    BoundWitness,
    ChannelParams,
    DistortionRangeError,
    OutOfRangeError,
    SourceParams,
    channel_capacity,
    converse_at,
    d2_converse_bound,
    d2_min_at_rx1,
    is_uncoded_optimal,
    optimal_witness,
    r_joint_numeric,
    trace_uncoded_boundary,
    region,
    snr_threshold,
    solve_alpha_for_d1,
    UncodedCoeffs,
    uncoded_distortions,
    verify_matching,
)

from gaussian_bc import rate_distortion
from gaussian_bc.closed_forms import _Curve
from helpers import DESK_CHANNEL, DESK_SOURCE, exact_converse, exact_distortions, random_valid_configs

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

    def test_negative_zero_rho_traces_the_rows_of_rho_0(self):
        # the alpha = 1 corner's a2 = A/den took the sign of rho = -0.0
        channel = ChannelParams(1.0, 1.0, 2.0)
        points = trace_uncoded_boundary(SourceParams(1.0, -0.0), channel, 3)
        assert repr(points[-1].witness.a2) == "0.0"
        assert repr(points) == repr(trace_uncoded_boundary(SourceParams(1.0, 0.0), channel, 3))

    def test_single_point_rejected(self):
        with pytest.raises(OutOfRangeError):
            trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 1)

    @pytest.mark.parametrize(
        "channel", [ChannelParams(1e20, 1.0, 2.0), ChannelParams(1.0, 1e-300, 2e-300)]
    )
    def test_high_snr_traces_an_accurate_converse(self, channel):
        # the root chain's combiner bound rounded to <= 0 at P/n1 this high,
        # and the trace was refused
        covered = [p for p in trace_uncoded_boundary(DESK_SOURCE, channel, 11) if p.d2_converse is not None]
        assert covered
        for p in covered:
            d2 = exact_converse(DESK_SOURCE, channel, p.alpha)[1]
            assert abs(p.d2_converse - d2) <= 1e-15 * d2

    def test_undefined_converse_is_a_power_range_error(self):
        # P/n1 beyond the float range: n1/(power + n1), so d1 at alpha = 1,
        # underflows to 0, and the trace names the power, not sigma2
        source, channel = SourceParams(1e10, 0.5), ChannelParams(1e100, 1e-224, 2e-224)
        with pytest.raises(OutOfRangeError, match=r"^power too large relative to n1"):
            trace_uncoded_boundary(source, channel, 11)

    @pytest.mark.parametrize("snr", [1e8, 1e12, 1e16])
    def test_the_alpha_1_corner_is_accurate(self, snr):
        # the root chain re-solved a flat alpha there: at P/n1 = 1e16 it
        # printed d2_converse = 0.6755... for 0.75
        channel = ChannelParams(snr, 1.0, 2.0)
        corner = trace_uncoded_boundary(DESK_SOURCE, channel, 11)[-1]
        assert corner.alpha == 1.0
        values = (corner.d2_converse, corner.witness.a1, corner.witness.a2)
        for value, exact in zip(values, exact_converse(DESK_SOURCE, channel, 1.0)[1:]):
            assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize(
        "source, channel",
        [
            (SourceParams(1e300, 0.5), ChannelParams(1e10, 1.0, 2.0)),
            (SourceParams(1e300, 0.999999), ChannelParams(1e10, 1.0, 2.0)),
            (SourceParams(1e300, 0.5), ChannelParams(1.0, 1.0, 1e5)),
        ],
    )
    def test_a_large_sigma2_traces_the_rows_of_sigma2_1(self, source, channel):
        # sigma2 * num overflowed at an end of the curve: the first d1 used
        # to be inf (first two cases), or every d2 (the last one); then the
        # trace refused these as a sigma2 out of range. Each row is now
        # sigma2 times the ratio of sigma2 = 1, and the converse d2 is
        # within 1e-15 relative of 50-digit arithmetic
        points = trace_uncoded_boundary(source, channel, 11)
        unit = trace_uncoded_boundary(SourceParams(1.0, source.rho), channel, 11)
        for p, u in zip(points, unit, strict=True):
            assert (p.alpha, p.a1_star, p.a2_star, p.optimal_flag) == (u.alpha, u.a1_star, u.a2_star, u.optimal_flag)
            assert (p.d1, p.d2_achievable) == (source.sigma2 * u.d1, source.sigma2 * u.d2_achievable)
            assert (p.d2_converse is None) == (u.d2_converse is None)
            if p.d2_converse is not None:
                d2 = exact_converse(source, channel, p.alpha)[1]
                assert abs(p.d2_converse - d2) <= 1e-15 * d2

    def test_large_sigma2_below_the_overflow_still_traces(self):
        # near the top of the accepted range the rows are those of sigma2 = 1;
        # at sigma2 = 1e300 the SNR threshold was nan, and every point but
        # the first was flagged uncovered
        channel = ChannelParams(1e4, 1.0, 2.0)
        points = trace_uncoded_boundary(SourceParams(9e153, 0.5), channel, 11)
        unit = trace_uncoded_boundary(SourceParams(1.0, 0.5), channel, 11)
        assert all(math.isfinite(p.d1) and math.isfinite(p.d2_achievable) for p in points)
        assert [p.optimal_flag for p in points] == [p.optimal_flag for p in unit]
        assert [p.d2_converse is None for p in points] == [p.d2_converse is None for p in unit]

    @pytest.mark.parametrize(
        "source, channel",
        [
            (SourceParams(1e-300, 0.5), DESK_CHANNEL),  # divided by zero
            (SourceParams(1.49e-154, 0.5), DESK_CHANNEL),
            (SourceParams(1e200, 0.5), DESK_CHANNEL),  # a2 = -inf
            (SourceParams(9.5e153, 0.0), DESK_CHANNEL),  # 2*sigma2**2 overflows
            (SourceParams(1e288, 0.5), ChannelParams(1e10, 1.0, 2.0)),  # nan threshold
        ],
    )
    def test_sigma2_beyond_the_old_converse_range_traces_and_verifies(self, source, channel):
        # these were refused as a sigma2 outside about [1.5e-154, 9.4e153];
        # the converse and the oracle run in the unit of sigma2, so the
        # trace flags and the verifier's report are those of sigma2 = 1
        unit = SourceParams(1.0, source.rho)
        flags = [(p.optimal_flag, p.d2_converse is None) for p in trace_uncoded_boundary(source, channel, 11)]
        assert flags == [(p.optimal_flag, p.d2_converse is None) for p in trace_uncoded_boundary(unit, channel, 11)]
        report, unit_report = verify_matching(source, channel, 5, 1e-9), verify_matching(unit, channel, 5, 1e-9)
        assert [p.covered for p in report.points] == [p.covered for p in unit_report.points]
        assert report.passed == unit_report.passed
        assert report.max_oracle_error_bits == pytest.approx(unit_report.max_oracle_error_bits, abs=1e-15)

    @pytest.mark.parametrize("sigma2", [1.5e-154, 9.4e153])
    def test_the_ends_of_the_sigma2_range_still_trace(self, sigma2):
        points = trace_uncoded_boundary(SourceParams(sigma2, 0.5), DESK_CHANNEL, 11)
        assert sum(p.d2_converse is not None for p in points) == 10

    def test_the_converse_d2_is_within_1e_15_of_mpmath(self):
        # the converse d2 read 1 - rho*rho through the conditional variance,
        # up to 3.0e-9 relative off with 1 - rho in [1e-12, 0.1], and
        # multiplied sigma2-sized factors; it now takes the ratio om/x in
        # the unit of sigma2
        rng = random.Random(2801)
        rows = 0
        for _ in range(150):
            rho = 1.0 - 10 ** rng.uniform(-12, -1) if rng.random() < 0.7 else rng.random()
            sigma2, n1 = 10 ** rng.uniform(-250, 250), 10 ** rng.uniform(-100, 100)
            source = SourceParams(sigma2, rho)
            channel = ChannelParams(n1 * 10 ** rng.uniform(-6, 6), n1, n1 * rng.uniform(1.01, 100.0))
            for p in trace_uncoded_boundary(source, channel, 11):
                if p.d2_converse is not None:
                    d2 = exact_converse(source, channel, p.alpha)[1]
                    assert abs(p.d2_converse - d2) <= 1e-15 * d2, (source, channel, p.alpha)
                    rows += 1
        assert rows > 800

    @pytest.mark.parametrize(
        "source, channel",
        [
            # 1 - rho*rho cancels: the converse d2 was 4.3e-12 relative off
            (SourceParams(1.0, 0.999999998894937), ChannelParams(4.6e-7, 1.0, 130.0)),
            # eta = sigma2*x is subnormal: it was 1.45e-4 off
            (SourceParams(1.6081955504962998e-88, 0.8498023827398443),
             ChannelParams(2.442603629922496e99, 5.915991352087539e-134, 1.4296057624147059e-131)),
        ],
    )
    def test_the_converse_d2_is_accurate_at_its_old_error_classes(self, source, channel):
        rows = [p for p in trace_uncoded_boundary(source, channel, 101) if p.d2_converse is not None]
        assert rows
        for p in rows:
            d2 = exact_converse(source, channel, p.alpha)[1]
            assert abs(p.d2_converse - d2) <= 1e-15 * d2, p.alpha

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

    def test_a_row_has_a_converse_iff_it_is_covered_and_alpha_is_positive(self):
        # the alpha = 0 row sits at d1_min_at_d2min, where the converse is
        # undefined; it carried one wherever that d1 rounded below the range end
        rows = [p for s, c in random_valid_configs(40, seed=2001) for p in trace_uncoded_boundary(s, c, 101)]
        assert any(not p.optimal_flag for p in rows)
        for p in rows:
            assert (p.d2_converse is not None) == (p.optimal_flag and p.alpha > 0.0)
            assert (p.witness is not None) == (p.d2_converse is not None)

    def test_the_flag_is_the_public_threshold_test_away_from_ties(self):
        # the trace flags a row by the sign of the kernel's margin A; the
        # paper's test P/n1 <= T(d1) at the row's d1 must agree wherever
        # the two sides are not within rounding of each other
        rng = random.Random(2002)
        rows = ties = 0
        for _ in range(100):
            n1 = 10.0 ** rng.uniform(-2.0, 2.0)
            source = SourceParams(10.0 ** rng.uniform(-2.0, 2.0), 0.95 * rng.random())
            channel = ChannelParams(n1 * 10.0 ** rng.uniform(-1.0, 1.0), n1, n1 * rng.uniform(1.1, 10.0))
            snr = channel.power / channel.n1
            for p in trace_uncoded_boundary(source, channel, 201):
                threshold = snr_threshold(source, p.d1)
                if abs(threshold - snr) <= 1e-9 * snr:
                    ties += 1
                    continue
                rows += 1
                assert p.optimal_flag == is_uncoded_optimal(source, channel, p.d1), (source, channel, p.alpha)
        assert rows > 19000 and ties < 20

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
        eta, psi, witness = converse_at(DESK_SOURCE, DESK_CHANNEL, 0.625)
        assert eta == pytest.approx(0.6, rel=1e-9)
        assert psi == pytest.approx(0.75, rel=1e-9)
        assert witness.a1 == pytest.approx(0.8, rel=1e-9)
        assert witness.a2 == pytest.approx(0.2, rel=1e-9)

    def test_at_the_receiver1_floor(self):
        _, psi, _ = converse_at(DESK_SOURCE, DESK_CHANNEL, 0.5)
        assert psi == pytest.approx(11.0 / 12.0, rel=1e-9)

    def test_range_violation(self):
        with pytest.raises(DistortionRangeError):
            converse_at(DESK_SOURCE, DESK_CHANNEL, 0.875)

    def test_a_d1_at_sigma2_gets_the_verify_converse(self):
        # at rho = 0 the range end can round above sigma2; the square-root
        # witness divided by sigma2 - d1, and refused d1 = sigma2 here,
        # while verify already took the kernel's converse at that point
        source = SourceParams(0.8962530287024857, 0.0)
        channel = ChannelParams(5.021225900416578e-15, 0.6346300968214699, 4.0)
        (point,) = [p for p in verify_matching(source, channel, 50, 1e-9).points if p.d1 >= source.sigma2]
        _, psi, witness = converse_at(source, channel, point.d1)
        assert repr((psi, witness)) == repr((point.d2_converse, point.witness))
        assert optimal_witness(source, channel, point.d1) == witness


class TestVerifyMatching:
    def test_desk_grid_passes(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 50, 1e-9)
        assert report.passed
        assert report.covered_count == 50
        assert report.excluded_count == 0
        assert report.max_residual <= 1e-9

    def test_one_row_kernel_and_one_oracle_call_per_covered_point(self, monkeypatch):
        # the per-point cost of verify: every grid point runs on one row
        # kernel, and only a covered point runs the oracle, once
        curves, oracle_calls = [], []
        init, r_joint = _Curve.__init__, rate_distortion._r_joint

        def counted_init(curve, *args):
            curves.append(args)
            init(curve, *args)

        def counted_r_joint(*args):
            oracle_calls.append(args)
            return r_joint(*args)

        monkeypatch.setattr(_Curve, "__init__", counted_init)
        for module in (region, rate_distortion):
            monkeypatch.setattr(module, "_r_joint", counted_r_joint)
        # P/n1 = 3 leaves part of the grid uncovered
        report = verify_matching(DESK_SOURCE, ChannelParams(3.0, 1.0, 2.0), 50, 1e-9)
        assert 0 < report.covered_count < 50
        assert len(curves) == 1
        assert len(oracle_calls) == report.covered_count

    @pytest.mark.parametrize("channel", [ChannelParams(3.0, 1.0, 2.0), DESK_CHANNEL], ids=["partly-covered", "covered"])
    def test_one_determinant_per_covered_point(self, monkeypatch, channel):
        # at a covered point both segment candidates of the oracle clamp to
        # the corner, so its one determinant is the corner's
        dets = []
        best_det_at = rate_distortion._best_det_at

        def counted_best_det_at(*args):
            dets.append(args)
            return best_det_at(*args)

        monkeypatch.setattr(rate_distortion, "_best_det_at", counted_best_det_at)
        report = verify_matching(DESK_SOURCE, channel, 50, 1e-9)
        assert report.passed and report.covered_count > 0
        assert len(dets) == report.covered_count

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

    def test_a_huge_noise_scale_verifies_accurately(self):
        # n1**2 overflowed in the companion floor, whose nan once passed the
        # report; then the squared-range guard refused the problem
        source, n1 = SourceParams(5.53e-16, 0.314945), 4.46e198
        channel = ChannelParams(0.134 * n1, n1, 7.25e3 * n1)
        report = verify_matching(source, channel, 50, 1e-9)
        assert report.passed and report.covered_count == 50
        assert report.max_residual <= 1e-15 * source.sigma2
        for p in report.points:
            alpha = _Curve(source, channel).alpha_for(p.d1)
            x2 = exact_distortions(source, channel, alpha, 1.0 - alpha)[1]
            assert abs(p.d2_achievable - x2) <= 1e-15 * x2

    def test_a_grid_point_at_sigma2_gets_an_accurate_converse(self):
        # at rho = 0 the range end sigma2*(n1 + P)/(n1 + P) can round above
        # sigma2, so the last covered grid point sits at d1 >= sigma2; the
        # root chain divided by sigma2 - d1, and verify was refused there
        source = SourceParams(0.8962530287024857, 0.0)
        channel = ChannelParams(5.021225900416578e-15, 0.6346300968214699, 4.0)
        report = verify_matching(source, channel, 50, 1e-9)
        assert report.passed
        edge = [p for p in report.points if p.covered and p.d1 >= source.sigma2]
        assert edge
        for p in edge:
            TestOneConverseKernel.assert_accurate(
                source, channel, _Curve(source, channel).alpha_for(p.d1), p.d2_converse, p.witness
            )

    def test_a_huge_n2_verifies_accurately(self):
        # (power + n2)**2 overflowed: the achievable d2 was nan at every
        # point and the report passed; then the guard refused the problem
        channel = ChannelParams(1.0, 1.0, 1e160)
        report = verify_matching(DESK_SOURCE, channel, 50, 1e-9)
        assert report.passed and report.covered_count == 50
        for p in report.points:
            alpha = _Curve(DESK_SOURCE, channel).alpha_for(p.d1)
            x2 = exact_distortions(DESK_SOURCE, channel, alpha, 1.0 - alpha)[1]
            assert abs(p.d2_achievable - x2) <= 1e-15 * x2

    def test_a_nan_residual_never_passes(self, monkeypatch):
        def nan_converse(curve, alpha, beta, q, covered=False):
            return math.nan, math.nan, math.nan, math.nan

        monkeypatch.setattr(_Curve, "converse", nan_converse)
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 5, 1e-9)
        assert report.covered_count == 5
        assert not report.passed

    def test_tolerance_is_relative_to_sigma2(self):
        # power-of-two scales of sigma2 scale every residual exactly, so the
        # verdict at a relative tol is the same at every scale
        base = verify_matching(DESK_SOURCE, DESK_CHANNEL, 50, 1e-9).max_residual
        assert base > 0.0
        for k in (-500, -100, 0, 100, 500):
            source = SourceParams(2.0**k, DESK_SOURCE.rho)
            report = verify_matching(source, DESK_CHANNEL, 50, base)
            assert report.max_residual == base * 2.0**k
            assert report.passed
            assert not verify_matching(source, DESK_CHANNEL, 50, 0.5 * base).passed

    def test_zero_tolerance_is_accepted(self):
        report = verify_matching(DESK_SOURCE, DESK_CHANNEL, 5, 0.0)
        assert report.tol == 0.0

    def test_oracle_runs_at_every_covered_point_and_only_there(self):
        mixed = 0
        for source, channel in random_valid_configs(40, seed=1603):
            report = verify_matching(source, channel, 50, 1e-9)
            errors = [p.oracle_error_bits for p in report.points if p.covered]
            assert all((p.oracle_error_bits is None) == (not p.covered) for p in report.points)
            assert all(error <= 1e-4 for error in errors)
            assert report.max_oracle_error_bits == max(errors, default=None)
            mixed += 0 < report.covered_count < 50
        assert mixed > 0

    def test_no_covered_point_reports_no_maxima(self):
        report = verify_matching(SourceParams(1.0, 0.0), DESK_CHANNEL, 50, 1e-9)
        assert report.covered_count == 0 and report.excluded_count == 50
        assert report.max_residual is None and report.max_oracle_error_bits is None
        assert not report.passed  # nothing was matched


def kernel_converse(source, channel, alpha):
    """The row kernel's converse at the curve point alpha, on its own."""
    curve = _Curve(source, channel)
    beta = 1.0 - alpha
    return curve.converse(alpha, beta, curve.forms(alpha, beta)[0])


class TestOneConverseKernel:
    """Every converse of the region path comes from one kernel, at the point's alpha.

    A trace row is the row kernel's ``_Curve.converse`` at the row's alpha, and a verify
    point is ``converse_at`` at its d1 (one alpha solve, then the kernel),
    bit for bit. Values are compared by ``repr``, which round-trips every
    float exactly and tells -0.0 from 0.0. Against 50-digit arithmetic at
    the same alpha, d2_converse and a1 are within 1e-15 relative, and a2,
    a difference, within 1e-15 of its scale (``exact_converse``); the
    root chain missed these bounds by up to 1e-12.
    """

    CONFIGS = random_valid_configs(40, seed=1207)

    @staticmethod
    def assert_accurate(source, channel, alpha, d2_converse, witness):
        _, d2, a1, a2, a2_scale = exact_converse(source, channel, alpha)
        assert abs(d2_converse - d2) <= 1e-15 * d2
        assert abs(witness.a1 - a1) <= 1e-15 * a1
        assert abs(witness.a2 - a2) <= 1e-15 * a2_scale

    def test_trace_rows(self):
        covered = 0
        for source, channel in self.CONFIGS:
            for p in trace_uncoded_boundary(source, channel, 101):
                if p.d2_converse is None:
                    continue
                covered += 1
                assert repr(p[3:6]) == repr(kernel_converse(source, channel, p.alpha)[1:])
                self.assert_accurate(source, channel, p.alpha, p.d2_converse, p.witness)
        assert covered > 2000

    def test_verify_points(self):
        covered = 0
        for source, channel in self.CONFIGS:
            for p in verify_matching(source, channel, 50, 1e-9).points:
                if not p.covered:
                    continue
                covered += 1
                assert repr((p.d2_converse, p.witness)) == repr(converse_at(source, channel, p.d1)[1:])
                alpha = _Curve(source, channel).alpha_for(p.d1)
                self.assert_accurate(source, channel, alpha, p.d2_converse, p.witness)
        assert covered > 900

    def test_verify_oracle_points(self):
        # each point's oracle error is the public oracle at the public
        # companion floor, against receiver 1's capacity, bit for bit
        covered = 0
        for source, channel in self.CONFIGS[:10]:
            capacity = channel_capacity(channel.power, channel.n1)
            for p in verify_matching(source, channel, 50, 1e-9).points:
                if not p.covered:
                    continue
                covered += 1
                rate = r_joint_numeric(source, p.d1, d2_min_at_rx1(source, channel, p.d1))
                assert repr(p.oracle_error_bits) == repr(abs(rate - capacity))
        assert covered > 200


def plain_d1u(source, noise, power, a, b):
    """D1u(noise) at the weights (a, b): the short form, in plain operation order."""
    s2, rho = source.sigma2, source.rho
    q = a * a + 2.0 * a * b * rho + b * b
    return s2 * ((power * b * b * ((1.0 - rho) * (1.0 + rho)) + noise * q) / ((power + noise) * q))


def plain_d2u(source, noise, power, a, b):
    """D2u(noise) at the weights (a, b): the short form, in plain operation order."""
    s2, rho = source.sigma2, source.rho
    q = a * a + 2.0 * a * b * rho + b * b
    return s2 * ((power * a * a * ((1.0 - rho) * (1.0 + rho)) + noise * q) / ((power + noise) * q))


def scale_box_problems(count, seed):
    """Seeded problems with sigma2 in 1e+-100, n1 in 1e+-50, P/n1 in 1e+-6, n2/n1 up to 1e3, rho < 0.999."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        sigma2, rho = 10.0 ** rng.uniform(-100.0, 100.0), rng.uniform(0.0, 0.999)
        n1 = 10.0 ** rng.uniform(-50.0, 50.0)
        power, n2 = n1 * 10.0 ** rng.uniform(-6.0, 6.0), n1 * 10.0 ** rng.uniform(1e-3, 3.0)
        problems.append((SourceParams(sigma2, rho), ChannelParams(power, n1, n2)))
    return problems


class TestFusedRowKernel:
    """The trace and verify rows come from the row kernel, bit for bit the public route.

    Values are compared by ``repr``. The public ``uncoded_distortions`` and
    ``d2_min_at_rx1`` must equal the short forms written out plainly here,
    ``sigma2*((P*w**2*(1 - rho**2) + n*q)/((P + n)*q))``, so a refactor of
    the kernel that moves a bit fails here before it reaches a golden digest.
    """

    PROBLEMS = scale_box_problems(30, seed=2101)

    def test_trace_rows(self):
        for source, channel in self.PROBLEMS:
            p1, n1, n2 = channel.power, channel.n1, channel.n2
            for p in trace_uncoded_boundary(source, channel, 201):
                a, b = p.alpha, 1.0 - p.alpha
                pair = uncoded_distortions(source, channel, UncodedCoeffs(a, b))
                assert repr((p.d1, p.d2_achievable)) == repr((pair.d1, pair.d2))
                assert repr(pair.d1) == repr(plain_d1u(source, n1, p1, a, b))
                assert repr(pair.d2) == repr(plain_d2u(source, n2, p1, a, b))

    def test_verify_points(self):
        covered = 0
        for source, channel in self.PROBLEMS:
            for p in verify_matching(source, channel, 50, 1e-9).points:
                if not p.covered:
                    continue
                covered += 1
                alpha = solve_alpha_for_d1(source, channel, p.d1)
                pair = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha))
                assert repr(p.d2_achievable) == repr(pair.d2)
                floor = plain_d2u(source, channel.n1, channel.power, alpha, 1.0 - alpha)
                assert repr(d2_min_at_rx1(source, channel, p.d1)) == repr(floor)
        assert covered > 300

    def test_a_trace_row_makes_two_kernel_calls(self, monkeypatch):
        calls = {"forms": 0, "converse": 0, "d2_rx1": 0}
        for name in calls:
            original = getattr(_Curve, name)

            def counted(curve, *args, original=original, name=name):
                calls[name] += 1
                return original(curve, *args)

            monkeypatch.setattr(_Curve, name, counted)
        trace_uncoded_boundary(DESK_SOURCE, ChannelParams(3.0, 1.0, 2.0), 101)
        # building the curve takes no forms call, and the check of d1 at
        # alpha = 1 reads the last row: no kernel call outside the rows
        assert calls == {"forms": 101, "converse": 101, "d2_rx1": 0}


def test_result_rows_are_named_tuples():
    # immutable, hashable, keyword-constructed, printed as before; and,
    # as tuples, equal to plain tuples of their fields
    witness = BoundWitness(a1=0.5, a2=0.25)
    assert repr(witness) == "BoundWitness(a1=0.5, a2=0.25)"
    assert witness == (0.5, 0.25) and hash(witness) == hash((0.5, 0.25))
    with pytest.raises(AttributeError):
        witness.a1 = 1.0
    point = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 3)[1]
    assert repr(point) == (
        "BoundaryPoint(alpha=0.5, d1=0.625, d2_achievable=0.75, d2_converse=0.75, "
        "a1_star=0.7999999999999999, a2_star=0.2, optimal_flag=True)"
    )
    # the row is flat: seven fields, the trace CSV's columns, and the witness derived from two of them
    assert point == BoundaryPoint(**point._asdict()) == tuple(point) == (0.5, 0.625, 0.75, 0.75, 0.7999999999999999, 0.2, True)
    assert point.witness == BoundWitness(a1=0.7999999999999999, a2=0.2)
    assert {point: 1}[point] == 1
    match = verify_matching(DESK_SOURCE, DESK_CHANNEL, 1, 1e-9)
    assert match.points[0] == tuple(match.points[0]) and hash(match)
