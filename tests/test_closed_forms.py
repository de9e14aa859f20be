"""Closed forms: corner points, distortion pair, threshold, converse functional."""

import ast
import io
import math
import random
from pathlib import Path

import mpmath
import pytest

from gaussian_bc import (
    BoundUndefinedError,
    BoundWitness,
    ChannelParams,
    DegenerateCoefficientsError,
    DistortionRangeError,
    OutOfRangeError,
    ParameterError,
    SnrThresholdError,
    SourceParams,
    UncodedCoeffs,
    combiner_mse_bound,
    conditional_variance,
    d1_min_at_d2min,
    d2_converse_bound,
    d2_min_at_d1min,
    d2_min_at_rx1,
    d_min,
    is_uncoded_optimal,
    optimal_witness,
    simple_snr_threshold,
    snr_threshold,
    solve_alpha_for_d1,
    uncoded_distortions,
)

from gaussian_bc import cli, closed_forms, rate_distortion, region
from gaussian_bc.rate_distortion import conditional_info_bound
from helpers import (
    DESK_CHANNEL,
    DESK_SOURCE,
    bisect_alpha_for_d1,
    exact_distortions,
    exact_snr_threshold,
    random_valid_configs,
    snr_threshold_budget,
)


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


def d1u_exact(source, channel, alpha):
    """D1u(alpha, 1 - alpha) evaluated in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s2, rho = mpmath.mpf(source.sigma2), mpmath.mpf(source.rho)
        p, n = mpmath.mpf(channel.power), mpmath.mpf(channel.n1)
        a = mpmath.mpf(alpha)
        b = 1 - a
        q = a * a + 2 * a * b * rho + b * b
        num = p * p * b * b * (1 - rho * rho) + p * n * (q + b * b * (1 - rho * rho)) + n * n * q
        return s2 * num / ((p + n) ** 2 * q)


class TestSingleUserFloors:
    def test_desk_values(self):
        assert d_min(DESK_SOURCE, DESK_CHANNEL, 1) == 0.5
        assert d_min(DESK_SOURCE, DESK_CHANNEL, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_vanishing_power_returns_the_prior_variance(self):
        weak = ChannelParams(1e-12, 1.0, 2.0)
        assert d_min(DESK_SOURCE, weak, 1) == pytest.approx(1.0, rel=1e-9)

    def test_bad_receiver_index(self):
        with pytest.raises(OutOfRangeError):
            d_min(DESK_SOURCE, DESK_CHANNEL, 3)


class TestCornerPoints:
    def test_desk_values(self):
        assert d1_min_at_d2min(DESK_SOURCE, DESK_CHANNEL) == 0.875
        assert d2_min_at_d1min(DESK_SOURCE, DESK_CHANNEL) == pytest.approx(11.0 / 12.0, rel=1e-15)

    def test_uncorrelated_source_gains_nothing(self):
        src = SourceParams(1.0, 0.0)
        assert d1_min_at_d2min(src, DESK_CHANNEL) == pytest.approx(1.0, rel=1e-15)
        assert d2_min_at_d1min(src, DESK_CHANNEL) == pytest.approx(1.0, rel=1e-15)

    def test_perfect_correlation_limit(self):
        src = SourceParams(1.0, 1.0 - 1e-9)
        assert d1_min_at_d2min(src, DESK_CHANNEL) == pytest.approx(
            d_min(src, DESK_CHANNEL, 1), rel=1e-6
        )

    def test_corner_identities_match_the_scheme_endpoints(self):
        for source, channel in random_valid_configs(30, seed=101):
            at_alpha1 = uncoded_distortions(source, channel, UncodedCoeffs(1.0, 0.0))
            at_alpha0 = uncoded_distortions(source, channel, UncodedCoeffs(0.0, 1.0))
            assert rel_err(at_alpha1.d1, d_min(source, channel, 1)) <= 1e-12
            assert rel_err(at_alpha1.d2, d2_min_at_d1min(source, channel)) <= 1e-12
            assert rel_err(at_alpha0.d1, d1_min_at_d2min(source, channel)) <= 1e-12
            assert rel_err(at_alpha0.d2, d_min(source, channel, 2)) <= 1e-12


class TestUncodedDistortions:
    def test_desk_midpoint(self):
        pair = uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(0.5, 0.5))
        assert pair.d1 == pytest.approx(0.625, rel=1e-12)
        assert pair.d2 == pytest.approx(0.75, rel=1e-12)

    def test_ratio_invariance_exact_for_power_of_two_scales(self):
        base = uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(0.3, 0.7))
        for c in (0.5, 2.0, 8.0):
            scaled = uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(0.3 * c, 0.7 * c))
            assert scaled == base

    def test_ratio_invariance_within_4_ulp(self):
        for source, channel in random_valid_configs(20, seed=7):
            for alpha, beta in ((0.2, 0.8), (0.9, 0.1), (0.5, 0.5)):
                base = uncoded_distortions(source, channel, UncodedCoeffs(alpha, beta))
                for c in (3.0, 0.7, 10.0):
                    scaled = uncoded_distortions(
                        source, channel, UncodedCoeffs(alpha * c, beta * c)
                    )
                    assert abs(scaled.d1 - base.d1) <= 4 * math.ulp(base.d1)
                    assert abs(scaled.d2 - base.d2) <= 4 * math.ulp(base.d2)

    def test_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(0.0, 0.0))
        with pytest.raises(ParameterError):
            uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(-0.1, 0.5))

    def test_underflowing_weights_are_degenerate(self):
        with pytest.raises(DegenerateCoefficientsError):
            uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(1e-200, 0.0))

    def test_monotone_in_alpha_along_the_sweep(self):
        # d1 strictly decreasing, d2 strictly increasing at 1000 samples
        for source, channel in [(DESK_SOURCE, DESK_CHANNEL)] + random_valid_configs(3, seed=13):
            prev = None
            for k in range(1000):
                alpha = k / 999.0
                pair = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha))
                if prev is not None:
                    assert pair.d1 < prev.d1
                    assert pair.d2 > prev.d2
                prev = pair


    @pytest.mark.parametrize(
        "channel",
        [ChannelParams(1e-200, 1e-200, 2e-200), ChannelParams(1e160, 1.0, 2.0), ChannelParams(1.0, 1.0, 1e300)],
    )
    def test_extreme_channel_scales_are_accurate(self, channel):
        # the forms squared power + noise: at 1e-200 the square underflowed
        # to 0 (ZeroDivisionError), and at power = 1e160 it overflowed (nan)
        source = SourceParams(3.0, 0.5)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            pair = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha))
            x1, x2, _ = exact_distortions(source, channel, alpha, 1.0 - alpha)
            assert abs(pair.d1 - x1) <= 1e-15 * x1
            assert abs(pair.d2 - x2) <= 1e-15 * x2

    @pytest.mark.parametrize(
        "channel",
        [
            ChannelParams(1e-310, 1e-310, 2e-310),
            ChannelParams(1e-315, 1e-310, 2e-310),
            ChannelParams(1e308, 1.0, 1e308),
            ChannelParams(1e308, 1.0, 1.5e308),
        ],
    )
    def test_a_channel_sum_outside_the_normal_range_is_accurate(self, channel):
        # power + n1 below the smallest normal float, or power + n2 past
        # the float range, raised OutOfRangeError naming power, n1 or n2;
        # in the channel's unit both sums are normal floats
        for alpha in (0.0, 0.5, 1.0):
            pair = uncoded_distortions(DESK_SOURCE, channel, UncodedCoeffs(alpha, 1.0 - alpha))
            x1, x2, _ = exact_distortions(DESK_SOURCE, channel, alpha, 1.0 - alpha)
            assert abs(pair.d1 - x1) <= 1e-15 * x1
            assert abs(pair.d2 - x2) <= 1e-15 * x2

    @pytest.mark.parametrize(
        "channel, alpha, beta",
        [
            (ChannelParams(1e300, 1.0, 2.0), 1e10, 1e10),
            (ChannelParams(1e300, 1.0, 2.0), 3e150, 1e140),
            (ChannelParams(1e-300, 1e-300, 2e-300), 1e-150, 3e-151),
            (ChannelParams(1.0, 1.0, 1.7e308), 0.25, 3.0),
        ],
    )
    def test_weights_of_any_scale_are_accurate(self, channel, alpha, beta):
        # the pair depends on the weights only through alpha/beta; at the
        # raw weights P*w*w and (P + n)*q overflowed (nan) or underflowed
        # to 0 (ZeroDivisionError)
        pair = uncoded_distortions(DESK_SOURCE, channel, UncodedCoeffs(alpha, beta))
        x1, x2, _ = exact_distortions(DESK_SOURCE, channel, alpha, beta)
        assert abs(pair.d1 - x1) <= 1e-15 * x1
        assert abs(pair.d2 - x2) <= 1e-15 * x2
        if alpha == beta:
            assert pair == (0.24999999999999997, 0.24999999999999997)


class TestErrorBudget:
    """The distortion forms against 50-digit arithmetic, within 1e-15 relative.

    Seeded wide-scale points: sigma2 in 1e+-100, n1 in 1e+-50, P/n1 in
    1e+-12, n2/n1 up to 1e6, rho uniform or log-close to 1 (up to
    1 - 1e-6), alpha uniform. ``d2_min_at_rx1`` is compared at the alpha
    that ``solve_alpha_for_d1`` returns for its d1, so the budget
    measures the form, not the conditioning of the alpha inverse. The
    expanded forms over ``(P + n)**2`` missed it by up to 2.4e-11 here.
    """

    @staticmethod
    def points(count, seed):
        rng = random.Random(seed)
        for i in range(count):
            sigma2 = 10.0 ** rng.uniform(-100.0, 100.0)
            rho = rng.uniform(0.0, 1.0 - 1e-6) if i % 2 else 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
            n1 = 10.0 ** rng.uniform(-50.0, 50.0)
            power, n2 = n1 * 10.0 ** rng.uniform(-12.0, 12.0), n1 * 10.0 ** rng.uniform(1e-6, 6.0)
            yield SourceParams(sigma2, rho), ChannelParams(power, n1, n2), rng.random()

    def test_forms_and_companion_floor_within_1e_15(self):
        floors = 0
        for source, channel, alpha in self.points(2000, seed=2401):
            pair = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha))
            x1, x2, _ = exact_distortions(source, channel, alpha, 1.0 - alpha)
            assert abs(pair.d1 - x1) <= 1e-15 * x1, (source, channel, alpha)
            assert abs(pair.d2 - x2) <= 1e-15 * x2, (source, channel, alpha)
            try:
                floor = d2_min_at_rx1(source, channel, pair.d1)
            except (DistortionRangeError, SnrThresholdError):
                continue
            a = solve_alpha_for_d1(source, channel, pair.d1)
            x = exact_distortions(source, channel, a, 1.0 - a)[2]
            assert abs(floor - x) <= 1e-15 * x, (source, channel, pair.d1)
            floors += 1
        assert floors > 1000


class TestSnrThreshold:
    def test_floor_touchpoint(self):
        assert snr_threshold(DESK_SOURCE, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_infinite_branch(self):
        assert snr_threshold(DESK_SOURCE, 0.75) == math.inf
        assert snr_threshold(DESK_SOURCE, 0.9) == math.inf

    def test_uncorrelated_reduction(self):
        # with rho = 0 the expression collapses to (sigma2 - d1)/d1
        assert snr_threshold(SourceParams(1.0, 0.0), 0.25) == pytest.approx(3.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            snr_threshold(DESK_SOURCE, 0.0)
        with pytest.raises(OutOfRangeError):
            snr_threshold(DESK_SOURCE, 1.5)

    def test_floor_values(self):
        assert simple_snr_threshold(DESK_SOURCE) == pytest.approx(2.0, rel=1e-12)
        assert simple_snr_threshold(SourceParams(1.0, 0.0)) == 0.0
        assert simple_snr_threshold(SourceParams(1.0, 0.9)) == pytest.approx(18.0, rel=1e-12)

    def test_threshold_dominates_its_floor(self):
        for rho in (0.3, 0.7):
            source = SourceParams(1.0, rho)
            floor = simple_snr_threshold(source)
            cv = 1.0 - rho * rho
            for j in range(200):
                d1 = cv * (j + 1) / 201.0
                assert snr_threshold(source, d1) >= floor - 1e-12

    def test_the_threshold_is_that_of_d1_over_sigma2_at_every_scale(self):
        # d1*(sigma2*(1 - rho**2) - d1) underflowed to 0 at the first: this
        # raised ZeroDivisionError, then an error naming sigma2, and the
        # second overflowed; in the unit of sigma2 both give the desk value
        desk = snr_threshold(DESK_SOURCE, 0.625)
        assert snr_threshold(SourceParams(1e-300, 0.5), 6.25e-301) == pytest.approx(desk, rel=1e-15)
        assert snr_threshold(SourceParams(1e300, 0.5), 6.25e299) == pytest.approx(desk, rel=1e-15)
        high_snr = ChannelParams(3.0, 1.0, 2.0)
        for k in range(-1000, 1001, 7):
            source = SourceParams(2.0**k, 0.5)
            assert snr_threshold(source, 0.625 * 2.0**k) == desk, k
            assert is_uncoded_optimal(source, DESK_CHANNEL, 0.625 * 2.0**k), k
            assert not is_uncoded_optimal(source, high_snr, 0.625 * 2.0**k), k

    def test_an_underflowing_ratio_names_d1(self):
        # d1/sigma2 = 5e-324 halves to 0 in the unit of sigma2
        with pytest.raises(OutOfRangeError, match=r"^d1 too small relative to sigma2 for the SNR threshold, got 5e-324"):
            snr_threshold(DESK_SOURCE, 5e-324)

    def test_is_uncoded_optimal_answers_every_d1_up_to_sigma2(self):
        # the d1 predicate takes no quotient of the threshold, so the least
        # d1, whose threshold denominator underflows, is answered; d1 outside
        # (0, sigma2] is refused
        assert is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, 5e-324)
        assert is_uncoded_optimal(DESK_SOURCE, ChannelParams(1e300, 1.0, 2.0), 5e-324)
        assert is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, 1.0)
        for d1 in (0.0, -0.5, math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(OutOfRangeError, match=r"^d1 must satisfy 0 < d1 <= sigma2"):
                is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, d1)

    def test_the_value_reads_its_terms_from_the_coverage_margin(self, monkeypatch):
        # one copy of the threshold: the numerator is the margin at (power,
        # n1) = (0, 1) and the denominator minus the margin at (1, 0)
        margin, calls = closed_forms._d1_margin, []
        monkeypatch.setattr(closed_forms, "_d1_margin", lambda *args: calls.append(args[2:4]) or margin(*args))
        assert snr_threshold(DESK_SOURCE, 0.5) == 2.0
        assert calls == [(1.0, 0.0), (0.0, 1.0)]

    def test_the_value_and_the_predicate_agree_on_the_small_rho_band(self):
        # where rho is small and d1 near cv, the expanded numerator cancelled:
        # at the first problem the value was 0.0515 against 2.0e-10, so it
        # said covered where is_uncoded_optimal says not. P/n1 is placed
        # outside the value's budget on either side of the exact threshold
        source, d1 = SourceParams(236.85953704493895, 1.0168250703792798e-12), 236.85953704493772
        channel = ChannelParams(1e-3, 1, 2)
        assert is_uncoded_optimal(source, channel, d1) == (channel.power / channel.n1 <= snr_threshold(source, d1))
        rng = random.Random(4101)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for _ in range(1000):
            source = SourceParams(log_uniform(1e-100, 1e100), log_uniform(1e-16, 1e-2))
            cv = conditional_variance(source)
            d1 = cv * (1.0 - log_uniform(1e-13, 0.5))
            exact, budget = exact_snr_threshold(source, d1), snr_threshold_budget(source, d1)
            assert budget < 0.25
            n1 = log_uniform(1e-3, 1e3)
            for side in (-1.0, 1.0):
                channel = ChannelParams(float(exact * (1 + side * 2 * budget)) * n1, n1, 2.0 * n1)
                covered = is_uncoded_optimal(source, channel, d1)
                assert covered == (side < 0), (source, channel, d1)
                assert covered == (channel.power / channel.n1 <= snr_threshold(source, d1)), (source, channel, d1)

    def test_is_uncoded_optimal(self):
        assert is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, 0.625)
        assert is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, 0.8)  # above sigma2*(1-rho^2)
        high_snr = ChannelParams(100.0, 1.0, 2.0)
        assert not is_uncoded_optimal(SourceParams(1.0, 0.1), high_snr, 0.9)


class TestAlphaSolver:
    def test_desk_midpoint(self):
        assert solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.625) == pytest.approx(0.5, abs=1e-9)

    def test_endpoints(self):
        assert solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.5) == 1.0
        assert solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.875) == 0.0

    def test_residual_contract(self):
        for source, channel in random_valid_configs(20, seed=23):
            lo = d_min(source, channel, 1)
            hi = d1_min_at_d2min(source, channel)
            for frac in (0.1, 0.45, 0.9):
                target = lo + (hi - lo) * frac
                alpha = solve_alpha_for_d1(source, channel, target)
                got = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha)).d1
                assert abs(got - target) <= 1e-12 * source.sigma2

    def test_matches_the_bisection_reference(self):
        for source, channel in random_valid_configs(40, seed=29):
            lo = d_min(source, channel, 1)
            hi = d1_min_at_d2min(source, channel)
            for frac in (0.1, 0.45, 0.9):
                target = lo + (hi - lo) * frac
                closed = solve_alpha_for_d1(source, channel, target)
                reference = bisect_alpha_for_d1(source, channel, target)
                assert abs(closed - reference) <= 1e-12
                for alpha in (closed, reference):
                    coeffs = UncodedCoeffs(alpha, 1.0 - alpha)
                    got = uncoded_distortions(source, channel, coeffs).d1
                    assert abs(got - target) <= 1e-12 * source.sigma2

    @pytest.mark.parametrize(
        "channel",
        [
            ChannelParams(1e-200, 1.0, 2.0),  # the range collapses to one float
            ChannelParams(1e200, 1.0, 2.0),  # the distortion forms overflow
            ChannelParams(1.0, 1e-200, 2e-200),  # P/n1 = 1e200 through the noise
        ],
    )
    def test_extreme_snr_meets_the_residual_contract(self, channel):
        for source in (DESK_SOURCE, SourceParams(3.0, 0.9), SourceParams(0.2, 0.0)):
            lo = d_min(source, channel, 1)
            hi = d1_min_at_d2min(source, channel)
            alphas = []
            for frac in (0.1, 0.45, 0.9):
                target = lo + (hi - lo) * frac
                alpha = solve_alpha_for_d1(source, channel, target)
                assert 0.0 <= alpha <= 1.0
                assert abs(d1u_exact(source, channel, alpha) - target) <= 1e-12 * source.sigma2
                alphas.append(alpha)
            assert alphas == sorted(alphas, reverse=True)

    def test_target_rounding_below_the_alpha1_end(self):
        # A range a few ulp wide, where a target one ulp above d_min(1)
        # still rounds to d1/sigma2 <= n1/(power + n1) in the root formula.
        source = SourceParams(0.39755329851374355, 0.4109370659949185)
        channel = ChannelParams(6.033560114354388e-15, 9.343988241364562, 18.687976482729123)
        target = math.nextafter(d_min(source, channel, 1), math.inf)
        assert target < d1_min_at_d2min(source, channel)
        alpha = solve_alpha_for_d1(source, channel, target)
        assert alpha == 1.0
        got = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 0.0)).d1
        assert abs(got - target) <= 1e-12 * source.sigma2

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.4)
        with pytest.raises(OutOfRangeError):
            solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.9)


def builtin_solve_alpha(source, channel, d1_target):
    """``(alpha, branch)``: the alpha inverse as written with builtin max/min, per call, and the branch it took."""
    s2, rho, p, n1 = source.sigma2, source.rho, channel.power, channel.n1
    lo_d = s2 * n1 / (n1 + p)
    hi_d = s2 * (n1 + p * ((1.0 - rho) * (1.0 + rho))) / (n1 + p)
    edge = 1e-12 * s2
    if not (lo_d - edge <= d1_target <= hi_d + edge):
        raise OutOfRangeError(f"d1_target must lie in [{lo_d!r}, {hi_d!r}], got {d1_target!r}")
    target = min(max(d1_target, lo_d), hi_d)
    snap = 4.0 * math.ulp(max(abs(lo_d), abs(hi_d)))
    if hi_d - lo_d > 2.0 * snap:
        if target <= lo_d + snap:
            return 1.0, "snap to alpha = 1"
        if target >= hi_d - snap:
            return 0.0, "snap to alpha = 0"
        branch = "root"
    else:
        if target == lo_d:
            return 1.0, "narrow: alpha = 1"
        if target == hi_d:
            return 0.0, "narrow: alpha = 0"
        branch = "narrow: root"
    w = target / s2 - n1 / (p + n1)
    if not w > 0.0:
        return 1.0, "w <= 0"
    c = (1.0 + rho) * p / (p + n1)
    rad = (1.0 - rho) * w * (c - (1.0 + rho) * w)
    t = w / ((1.0 - rho) * w + math.sqrt(max(rad, 0.0)))
    return min(max(1.0 - t, 0.0), 1.0), branch


class TestAlphaInverseBits:
    """The alpha inverse returns the bits of its builtin max/min form, per branch.

    ``solve_alpha_for_d1`` runs the row kernel's ``_Curve.alpha_for``,
    which hoists every factor that does not depend on d1 into the
    constructor and writes max/min as conditional expressions.
    """

    PROBLEMS = [
        *random_valid_configs(30, seed=2302),
        (SourceParams(1e150, 0.0), ChannelParams(1.0, 1e-3, 2.0)),
        (SourceParams(1e-150, 1.0 - 1e-12), ChannelParams(1e3, 1.0, 2.0)),
        # a range of one float, and one a few ulp wide
        (DESK_SOURCE, ChannelParams(1e-200, 1.0, 2.0)),
        (SourceParams(3.0, 0.3), ChannelParams(1e-16, 1.0, 2.0)),
        # a target an ulp above d_min(1) rounds to w <= 0 here
        (
            SourceParams(0.39755329851374355, 0.4109370659949185),
            ChannelParams(6.033560114354388e-15, 9.343988241364562, 18.687976482729123),
        ),
    ]

    @staticmethod
    def targets(source, channel):
        lo, hi = d_min(source, channel, 1), d1_min_at_d2min(source, channel)
        edge = 1e-12 * source.sigma2
        ends = [lo, hi, lo - edge, hi + edge, lo - 2.0 * edge, hi + 2.0 * edge]
        ends += [end + k * math.ulp(end) for end in (lo, hi) for k in range(-8, 9)]
        return ends + [lo + (hi - lo) * (i + 0.5) / 16 for i in range(16)]

    def test_equal_to_the_builtin_form_on_every_branch(self):
        branches = set()
        for source, channel in self.PROBLEMS:
            for d1 in self.targets(source, channel):
                try:
                    alpha, branch = builtin_solve_alpha(source, channel, d1)
                except OutOfRangeError as exc:
                    with pytest.raises(OutOfRangeError) as info:
                        solve_alpha_for_d1(source, channel, d1)
                    assert str(info.value) == str(exc)
                    branches.add("out of range")
                    continue
                assert repr(solve_alpha_for_d1(source, channel, d1)) == repr(alpha), (source, channel, d1)
                branches.add(branch)
        assert branches == {
            "snap to alpha = 1", "snap to alpha = 0", "root", "w <= 0",
            "narrow: alpha = 1", "narrow: alpha = 0", "narrow: root", "out of range",
        }

    def test_out_of_range_message(self):
        with pytest.raises(OutOfRangeError, match=r"^d1_target must lie in \[0\.5, 0\.875\], got 0\.4$"):
            solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, 0.4)


def narrow_problems(count, seed):
    """Seeded problems whose d1 range is about 1 to 8 ulp wide, alternately at rho = 0 and with 1 - rho in 1e-16..1e-13."""
    rng = random.Random(seed)
    for i in range(count):
        rho = 0.0 if i % 2 == 0 else 1.0 - 10.0 ** rng.uniform(-16.0, -13.0)
        om = (1.0 - rho) * (1.0 + rho)
        n1 = 10.0 ** rng.uniform(-12.0, 12.0)
        # the range is sigma2*P*om/(P + n1) wide
        power = n1 * rng.uniform(0.5, 4.0) * 2.0**-52 / om
        yield SourceParams(10.0 ** rng.uniform(-20.0, 20.0), rho), ChannelParams(power, n1, n1 * 10.0 ** rng.uniform(0.0, 3.0))


class TestAlphaGuardsOnNarrowCurves:
    """The guards of ``_Curve.alpha_for`` past its snaps, each reached inside a d1 range a few ulp wide.

    There the solve's rounding can leave ``w = d1/sigma2 - n1/(P + n1)``
    at 0, the radicand a hair below 0, or the root below alpha = 0.
    """

    @pytest.mark.parametrize(
        "source, channel, d1, alpha",
        [
            pytest.param(
                SourceParams(1.5210769953036328e+21, 0.0),
                ChannelParams(1.754151931891333e-23, 2.7497298290091354e-08, 2.7497433219489974e-08),
                1.521076995303632e+21, 1.0, id="w <= 0",
            ),
            pytest.param(
                SourceParams(2.6571956734824662e+17, 0.0),
                ChannelParams(0.0011521734351932604, 1921794306861.7288, 1921968833057.5642),
                2.6571956734824662e+17, 0.0, id="radicand below 0",
            ),
            pytest.param(
                SourceParams(0.00011203699573262111, 0.9098311663200133),
                ChannelParams(0.00019852841183085624, 300615795430.76434, 300615795430.8215),
                0.00011203699573262107, 0.0, id="root below 0",
            ),
        ],
    )
    def test_each_guard_answers_within_the_contract(self, source, channel, d1, alpha):
        lo, hi = d_min(source, channel, 1), d1_min_at_d2min(source, channel)
        assert lo < d1 < hi and 2.0 * math.ulp(hi) <= hi - lo <= 6.0 * math.ulp(hi)
        got = solve_alpha_for_d1(source, channel, d1)
        assert got == alpha == builtin_solve_alpha(source, channel, d1)[0]
        assert abs(uncoded_distortions(source, channel, UncodedCoeffs(got, 1.0 - got)).d1 - d1) <= 1e-12 * source.sigma2

    def test_every_target_of_a_narrow_range_meets_the_contract(self):
        # seed 66's first nine problems reach all three guards, the
        # radicand's at rho = 0 in the ninth
        for source, channel in narrow_problems(9, seed=66):
            lo, hi = d_min(source, channel, 1), d1_min_at_d2min(source, channel)
            assert hi - lo <= 8.0 * math.ulp(hi)
            d1 = lo
            while d1 <= hi:
                alpha = solve_alpha_for_d1(source, channel, d1)
                assert 0.0 <= alpha <= 1.0, (source, channel, d1)
                got = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha)).d1
                assert abs(got - d1) <= 1e-12 * source.sigma2, (source, channel, d1)
                d1 = math.nextafter(d1, math.inf)


class TestCompanionFloor:
    def test_desk_values(self):
        assert d2_min_at_rx1(DESK_SOURCE, DESK_CHANNEL, 0.625) == pytest.approx(0.625, rel=1e-12)
        # at d1 = d_min(1) the scheme pins alpha = 1 and the floor is the alpha=1 form
        assert d2_min_at_rx1(DESK_SOURCE, DESK_CHANNEL, 0.5) == pytest.approx(0.875, rel=1e-12)

    def test_sandwich(self):
        for source, channel in random_valid_configs(15, seed=31):
            lo = d_min(source, channel, 1)
            hi = d1_min_at_d2min(source, channel)
            for frac in (0.0, 0.3, 0.8):
                d1 = lo + (hi - lo) * frac * 0.999
                if not is_uncoded_optimal(source, channel, d1):
                    continue
                value = d2_min_at_rx1(source, channel, d1)
                assert lo - 1e-12 * source.sigma2 <= value <= source.sigma2

    def test_range_error_is_distinct_from_threshold_error(self):
        with pytest.raises(DistortionRangeError):
            d2_min_at_rx1(DESK_SOURCE, DESK_CHANNEL, 0.875)
        high_snr = ChannelParams(100.0, 1.0, 2.0)
        with pytest.raises(SnrThresholdError):
            d2_min_at_rx1(SourceParams(1.0, 0.1), high_snr, 0.9)


class TestConverseFunctional:
    def test_combiner_bound_hand_values(self):
        eta = combiner_mse_bound(DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.8, 0.2))
        assert eta == pytest.approx(0.6, rel=1e-12)
        assert combiner_mse_bound(DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.0, 0.0)) == 1.0
        # algebraic collapse at (1, 0): the bound equals delta itself
        assert combiner_mse_bound(DESK_SOURCE, DESK_CHANNEL, 0.5, BoundWitness(1.0, 0.0)) == 0.5

    def test_mixed_sign_witness_rejected(self):
        with pytest.raises(ParameterError, match="equal sign"):
            combiner_mse_bound(DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.5, -0.5))

    def test_converse_bound_hand_values(self):
        psi = d2_converse_bound(DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.8, 0.2))
        assert psi == pytest.approx(0.75, rel=1e-12)
        weak = d2_converse_bound(DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.0, 0.0))
        assert weak == pytest.approx(1.75 / 3.0, rel=1e-12)
        assert weak < psi  # the optimal witness strictly improves on the trivial one

    def test_optimal_witness_hand_values(self):
        witness = optimal_witness(DESK_SOURCE, DESK_CHANNEL, 0.625)
        assert witness.a1 == pytest.approx(0.8, rel=1e-9)
        assert witness.a2 == pytest.approx(0.2, rel=1e-9)

    def test_negative_zero_rho_gives_the_witness_of_rho_0(self):
        # d1 = d_min(1) puts alpha at 1, where a2 = A/den took the sign of
        # rho = -0.0; the cache is cleared because it keys -0.0 as 0.0
        closed_forms._rx1_point.cache_clear()
        witness = optimal_witness(SourceParams(1.0, -0.0), DESK_CHANNEL, 0.5)
        assert repr(witness.a2) == "0.0"
        closed_forms._rx1_point.cache_clear()
        assert repr(witness) == repr(optimal_witness(SourceParams(1.0, 0.0), DESK_CHANNEL, 0.5))

    def test_optimal_witness_nonnegative_across_configs(self):
        for source, channel in random_valid_configs(25, seed=41):
            lo = d_min(source, channel, 1)
            hi = d1_min_at_d2min(source, channel)
            for frac in (0.05, 0.5, 0.95):
                d1 = lo + (hi - lo) * frac
                if not is_uncoded_optimal(source, channel, d1):
                    continue
                witness = optimal_witness(source, channel, d1)
                assert witness.a1 >= 0.0
                assert witness.a2 >= 0.0

    def test_matching_identity_light(self):
        # the converse at the optimal witness meets the achievable curve
        lo = d_min(DESK_SOURCE, DESK_CHANNEL, 1)
        hi = d1_min_at_d2min(DESK_SOURCE, DESK_CHANNEL)
        for i in range(10):
            d1 = lo + (hi - lo) * (i + 1) / 11.0
            alpha = solve_alpha_for_d1(DESK_SOURCE, DESK_CHANNEL, d1)
            d2u = uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(alpha, 1 - alpha)).d2
            psi = d2_converse_bound(
                DESK_SOURCE, DESK_CHANNEL, d1, optimal_witness(DESK_SOURCE, DESK_CHANNEL, d1)
            )
            assert abs(d2u - psi) <= 1e-9

    def test_a_large_sigma2_over_small_noise_is_accurate(self):
        # sigma2/(power + n2) overflows: this returned inf, then raised an
        # error naming sigma2; in the unit of sigma2 the per-witness
        # functions answer, within 1e-15 relative of 50-digit arithmetic
        source, channel = SourceParams(1e300, 0.5), ChannelParams(1e-12, 1e-11, 2e-11)
        d1, witness = 9.5e299, BoundWitness(0.5, 0.5)
        alpha = solve_alpha_for_d1(source, channel, d1)
        with mpmath.workdps(50):
            s2, rho, d = mpmath.mpf(1e300), mpmath.mpf(0.5), mpmath.mpf(d1)
            p, n1, n2 = mpmath.mpf(1e-12), mpmath.mpf(1e-11), mpmath.mpf(2e-11)
            a = mpmath.mpf(alpha)
            b = 1 - a
            q = a * a + 2 * a * b * rho + b * b
            root = s2 * p * (a + b * rho) * (a * rho + b) / (q * (p + n1))
            a1 = a2 = mpmath.mpf(0.5)
            eta = s2 - a1 * (s2 - d) * (2 - a1) - a2 * s2 * (2 * rho - a2) + 2 * a1 * a2 * root
            psi = s2 * (n1 * (s2 * (1 - rho * rho) / eta - 1) + n2) / (p + n2)
            x_eta, x_psi = float(eta), float(psi)
        assert abs(combiner_mse_bound(source, channel, d1, witness) - x_eta) <= 1e-15 * x_eta
        assert abs(d2_converse_bound(source, channel, d1, witness) - x_psi) <= 1e-15 * x_psi

    def test_witness_maximality_light(self):
        d1 = 0.6
        best = d2_converse_bound(
            DESK_SOURCE, DESK_CHANNEL, d1, optimal_witness(DESK_SOURCE, DESK_CHANNEL, d1)
        )
        for i in range(21):
            for j in range(21):
                psi = d2_converse_bound(
                    DESK_SOURCE, DESK_CHANNEL, d1, BoundWitness(2.0 * i / 20, 2.0 * j / 20)
                )
                assert best >= psi - 1e-9

    def test_per_witness_bits_are_the_plain_formulas(self):
        # the per-d1 record and the witness kernel keep every bit of the
        # formulas written out plainly here: the root at the alpha of d1,
        # eta, and the converse d2 from sigma2*(1 - rho)*(1 + rho)/eta (the
        # kernel's unit of sigma2 changes no bit at these scales)
        for source, channel in random_valid_configs(20, seed=53):
            s2, rho = source.sigma2, source.rho
            p, n1, n2 = channel.power, channel.n1, channel.n2
            covered = []  # the d1 of covered curve points, from the middle out to the ends
            for alpha in (0.5, 0.1, 0.9, 0.01, 0.99, 0.001, 0.999):
                d1 = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1.0 - alpha)).d1
                try:
                    optimal_witness(source, channel, d1)
                except SnrThresholdError:
                    continue
                covered.append(d1)
            assert len(covered) >= 3
            for d1 in covered[:3]:
                a = solve_alpha_for_d1(source, channel, d1)
                b = 1.0 - a
                q = a * a + 2.0 * a * b * rho + b * b
                root = s2 * (p / (p + n1) * ((a + b * rho) * (a * rho + b) / q))
                for i in range(21):
                    for j in range(21):
                        a1, a2 = 2.0 * i / 20, 2.0 * j / 20
                        eta = s2 - a1 * (s2 - d1) * (2.0 - a1) - a2 * s2 * (2.0 * rho - a2) + 2.0 * a1 * a2 * root
                        psi = s2 * (n1 * (s2 * ((1.0 - rho) * (1.0 + rho)) / eta - 1.0) + n2) / (p + n2)
                        witness = BoundWitness(a1, a2)
                        assert repr(combiner_mse_bound(source, channel, d1, witness)) == repr(eta)
                        assert repr(d2_converse_bound(source, channel, d1, witness)) == repr(psi)

    @pytest.mark.parametrize("func", [combiner_mse_bound, d2_converse_bound])
    @pytest.mark.parametrize(
        "source, channel, d1, witness, error, message",
        [
            (DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(math.nan, 0.5), ParameterError,
             "witness components must be finite"),
            (DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(0.5, -math.inf), ParameterError,
             "witness components must be finite"),
            (DESK_SOURCE, DESK_CHANNEL, 0.625, BoundWitness(-0.5, 0.5), ParameterError,
             "witness components a1, a2 must have equal sign"),
        ],
    )
    def test_per_witness_errors_keep_their_messages(self, func, source, channel, d1, witness, error, message):
        with pytest.raises(error) as info:
            func(source, channel, d1, witness)
        assert str(info.value) == message

    def test_a_nonpositive_combiner_bound_leaves_the_converse_undefined(self):
        # at P/n1 = 1e20 and d1 = d_min(1) = 1e-20, the witness (1, 0) gives
        # eta = sigma2 - (sigma2 - d1), which rounds to 0; off the curve the
        # error stays _psi's own (only the row kernel maps it to power), and
        # the witness sweep catches it by type
        channel = ChannelParams(1e20, 1.0, 2.0)
        d1 = d_min(DESK_SOURCE, channel, 1)
        witness = BoundWitness(1.0, 0.0)
        assert combiner_mse_bound(DESK_SOURCE, channel, d1, witness) == 0.0
        with pytest.raises(BoundUndefinedError) as info:
            d2_converse_bound(DESK_SOURCE, channel, d1, witness)
        assert str(info.value) == "combiner bound is nonpositive; the converse is undefined for this witness"


class TestNoDistortionAtOrBelowZero:
    # at P/n1 = 1e13, d_min(1) = 1e-13 lies inside the 1e-12*sigma2 slack
    # below it, which reached past 0: each per-d1 function answered at d1 = 0
    CHANNEL = ChannelParams(1e13, 1.0, 2.0)

    @pytest.mark.parametrize("d1", [0.0, -0.0, -5e-13])
    @pytest.mark.parametrize("func", [d2_min_at_rx1, region.converse_at, solve_alpha_for_d1, is_uncoded_optimal])
    def test_a_per_d1_function_refuses_it(self, func, d1):
        with pytest.raises(OutOfRangeError, match=r"^d1"):
            func(DESK_SOURCE, self.CHANNEL, d1)

    @pytest.mark.parametrize("d1", [0.0, -0.0, -5e-13])
    def test_the_converse_bound_refuses_it(self, d1):
        with pytest.raises(DistortionRangeError):
            d2_converse_bound(DESK_SOURCE, self.CHANNEL, d1, BoundWitness(1.0, 0.0))

    def test_the_slack_below_the_floor_still_holds(self):
        d1 = d_min(DESK_SOURCE, self.CHANNEL, 1) / 2.0
        assert solve_alpha_for_d1(DESK_SOURCE, self.CHANNEL, d1) == 1.0
        assert d2_min_at_rx1(DESK_SOURCE, self.CHANNEL, d1) > 0.0


def test_floors_corners_and_range_come_from_one_kernel(monkeypatch):
    # each caller takes its value from _Curve.ends at its own noise, so no
    # second copy of a floor or a corner can drift from it
    calls = []
    ends_kernel = closed_forms._Curve.ends

    def recording_ends(curve, noise):
        calls.append(noise)
        return ends_kernel(curve, noise)

    s, c = SourceParams(3.0, 0.9), ChannelParams(2.0, 0.5, 1.5)
    curve = closed_forms._Curve(s, c)
    # the channel enters every kernel in its unit, here 2**-1
    p, n1, n2 = curve.p, curve.n1, curve.n2
    assert (p, n1, n2) == (1.0, 0.25, 0.75)
    lo1, hi1 = curve.ends(n1)
    lo2, hi2 = curve.ends(n2)
    # the units leave every bit of the plain formulas on the raw channel
    om = (1.0 - s.rho) * (1.0 + s.rho)
    assert [lo1, lo2, hi1, hi2] == [s.sigma2 * c.n1 / (c.n1 + c.power), s.sigma2 * c.n2 / (c.n2 + c.power),
                                    s.sigma2 * (c.n1 + c.power * om) / (c.n1 + c.power),
                                    s.sigma2 * (c.n2 + c.power * om) / (c.n2 + c.power)]
    monkeypatch.setattr(closed_forms._Curve, "ends", recording_ends)
    values = [d_min(s, c, 1), d_min(s, c, 2), d1_min_at_d2min(s, c), d2_min_at_d1min(s, c),
              conditional_info_bound(s, c, lo2)]
    assert values == [lo1, lo2, hi1, hi2, 0.0]
    assert [curve.lo_d, curve.hi_d] == [lo1, hi1]
    # every curve built takes its d1 range at n1; receiver 2's floor, its
    # corner and the bound's floor then read n2 from the same kernel
    assert calls == [n1, n1, n2, n1, n1, n2, n1, n2]


def _count_kernel_calls(monkeypatch):
    """Count ``_Curve`` builds and calls of its ``alpha_for``, ``forms`` and ``converse``, from any caller."""
    counts = dict.fromkeys(("_Curve", "alpha_for", "forms", "converse"), 0)
    for name in counts:
        attr = "__init__" if name == "_Curve" else name
        original = getattr(closed_forms._Curve, attr)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(closed_forms._Curve, attr, counted)
    return counts


# the kernel calls of one evaluation of a d1
_ONCE = {"_Curve": 1, "alpha_for": 1, "forms": 1, "converse": 1}
_WITNESS = BoundWitness(0.5, 0.25)
# the five per-d1 functions, each as the repr of its answer at (source, channel, d1)
_PER_D1 = {
    "d2_min_at_rx1": lambda s, c, d1: repr(d2_min_at_rx1(s, c, d1)),
    "optimal_witness": lambda s, c, d1: repr(optimal_witness(s, c, d1)),
    "converse_at": lambda s, c, d1: repr(region.converse_at(s, c, d1)),
    "combiner_mse_bound": lambda s, c, d1: repr(combiner_mse_bound(s, c, d1, _WITNESS)),
    "d2_converse_bound": lambda s, c, d1: repr(d2_converse_bound(s, c, d1, _WITNESS)),
}


def test_a_bound_run_evaluates_its_d1_once(monkeypatch):
    # bound printed d2_min_at_rx1 and converse_at, and each built a second
    # _Curve and evaluated d1 again on top of the per-d1 record: 3/1/3/2
    closed_forms._rx1_point.cache_clear()
    counts = _count_kernel_calls(monkeypatch)
    assert cli.run(["bound", "--d1", "0.7"], out=io.StringIO()) == 0
    assert counts == _ONCE
    closed_forms._rx1_point.cache_clear()


def test_the_per_d1_functions_agree_whichever_fills_the_cache(monkeypatch):
    # each of the five, called first on a cleared cache, makes the one
    # evaluation of d1; every later call of the five reads its record, bit
    # for bit, and builds no _Curve
    s, c = SourceParams(1.0, 0.6), ChannelParams(2.0, 1.0, 3.0)
    for d1 in (0.35, 0.55, 0.75):
        answers = []
        for name, first in _PER_D1.items():
            closed_forms._rx1_point.cache_clear()
            counts = _count_kernel_calls(monkeypatch)
            fill = first(s, c, d1)
            assert counts == _ONCE, name
            for _ in range(2):
                answers.append({other: f(s, c, d1) for other, f in _PER_D1.items()})
            assert answers[-1][name] == fill
            assert counts == _ONCE, name
            monkeypatch.undo()
        assert all(a == answers[0] for a in answers)
    closed_forms._rx1_point.cache_clear()


def test_a_per_d1_record_holds_floats_and_ints_only():
    # the record keeps the answers of the per-d1 functions as plain floats,
    # and no row kernel object, so a full cache stays small
    closed_forms._rx1_point.cache_clear()
    checked = 0
    for source, channel in random_valid_configs(10, seed=3001):
        d1 = uncoded_distortions(source, channel, UncodedCoeffs(0.9, 0.1)).d1
        try:
            record = closed_forms._rx1_point(source, channel, d1)
        except SnrThresholdError:
            continue
        checked += 1
        *head, row = record
        assert len(head) == 7 and len(row) == 5
        assert [type(x) for x in head] == [float, float, float, int, float, float, float]
        # the channel fields are the row kernel's, in the channel's unit
        p, n1, n2, _ = closed_forms._channel_unit(channel)
        assert head[4:] == [n1, n2, p + n2]
        assert all(type(x) is float for x in row)
        eta, psi, witness = region.converse_at(source, channel, d1)
        assert row == (d2_min_at_rx1(source, channel, d1), eta, psi, *witness)
    assert checked >= 5
    closed_forms._rx1_point.cache_clear()


def _is_rho(node):
    return (isinstance(node, ast.Name) and node.id == "rho") or (isinstance(node, ast.Attribute) and node.attr == "rho")


def _is_one_minus_rho_squared(node):
    """``1 - rho*rho`` or ``1 - rho**2``, with rho a name or an attribute."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    if not (isinstance(node.left, ast.Constant) and node.left.value == 1):
        return False
    square = node.right
    return isinstance(square, ast.BinOp) and _is_rho(square.left) and (
        (isinstance(square.op, ast.Mult) and _is_rho(square.right))
        or (isinstance(square.op, ast.Pow) and isinstance(square.right, ast.Constant) and square.right.value == 2)
    )


def _is_gain_distortion(node):
    """``sigma2 - c*c*(...)``: sigma2 (``s2``, ``sigma2`` or ``.sigma2``) less a product holding a square."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    left = node.left
    if not ((isinstance(left, ast.Name) and left.id in {"s2", "sigma2"})
            or (isinstance(left, ast.Attribute) and left.attr == "sigma2")):
        return False
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult) and ast.dump(sub.left) == ast.dump(sub.right)
        for sub in ast.walk(node.right)
    )


def _is_raw_channel_sum(node):
    """A ``+`` with a raw channel field, ``channel.power``, ``channel.n1`` or ``channel.n2``, as an operand."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
        isinstance(side, ast.Attribute) and side.attr in {"power", "n1", "n2"}
        and isinstance(side.value, ast.Name) and side.value.id == "channel"
        for side in (node.left, node.right)
    )


def _named(node, name):
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        or (isinstance(node, ast.Constant) and node.value == name)
    )


def _calls_by_owner(node, owner="<module>"):
    """Every call under node, with the dotted name of the def or class it is written in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls_by_owner(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_owner(child, owner)


# the defs that may call each step of a problem's boundary: building the row
# kernel validates the problem and takes the channel's unit
_BOUNDARY = {
    "validate_problem": {"_Curve.__init__"},
    "_channel_unit": {"_Curve.__init__"},
}

# the defs that may evaluate the converse kernel: the trace once per row,
# and the row kernel itself, whose at_d1 is the one evaluation of a d1 that
# the verifier and the per-d1 record share
_CONVERSE_CALLERS = {"_Curve", "trace_uncoded_boundary"}
# the defs that may solve the alpha of a d1: the row kernel (in at_d1) and
# the public solve
_ALPHA_CALLERS = {"_Curve", "solve_alpha_for_d1"}
# the names of the coverage threshold and its predicates, which the region
# module never evaluates
_THRESHOLD_NAMES = {
    "_product_threshold", "_low_root", "_SKIP_BAND", "_uncovered", "_uncovered_d1",
    "snr_threshold", "_snr_threshold", "simple_snr_threshold", "is_uncoded_optimal",
    "covers", "_d1_margin", "_alpha_margin", "_exact_nonneg",
}


def test_one_copy_of_each_formula():
    # 1 - rho**2 is written as om = (1 - rho)*(1 + rho) everywhere but in
    # the simulate stream's sqrt(1 - rho*rho), a part of its reproducibility
    # contract; the Monte-Carlo module writes no distortion formula of its
    # own: simulate prints closed_forms.uncoded_distortions; a d1 is
    # evaluated once, by _rx1_point, whose record every per-d1 function
    # reads; no module adds a raw channel field: every sum of channel
    # values is taken in the unit of closed_forms._channel_unit; and
    # building _Curve is the one boundary of a problem, so the problem is
    # validated and put in its units nowhere else; and an exact sum is
    # montecarlo._exact_sum, whose fallback is math.fsum, so no binned
    # (bincount) reducer is written beside it; and a d1's alpha is solved
    # and tested in the row kernel alone, whose d1 predicate region reads
    # through at_d1, naming no threshold of its own
    found, stream, callers, boundary = [], [], set(), []
    alpha_callers = set()
    for path in sorted(Path(closed_forms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, call in _calls_by_owner(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name == "bincount":
                found.append(f"{path.stem}:{call.lineno} bincount in {owner}")
            if name in _BOUNDARY:
                if owner in _BOUNDARY[name]:
                    boundary.append((path.stem, owner, name))
                else:
                    found.append(f"{path.stem}:{call.lineno} {name} in {owner}")
        for top in tree.body:
            in_stream = path.stem == "montecarlo" and isinstance(top, ast.FunctionDef) and top.name == "_source_block"
            for node in ast.walk(top):
                where = f"{path.stem}:{getattr(node, 'lineno', '?')}"
                if _is_one_minus_rho_squared(node):
                    (stream if in_stream else found).append(f"{where} 1 - rho**2")
                if _named(node, "analytic_distortions"):
                    found.append(f"{where} analytic_distortions")
                if path.stem == "montecarlo" and _is_gain_distortion(node):
                    found.append(f"{where} sigma2 - c*c*(...)")
                if _is_raw_channel_sum(node):
                    found.append(f"{where} a raw channel sum")
                if _named(node, "_curve_at"):
                    found.append(f"{where} _curve_at")
                if path.stem in {"closed_forms", "region"} and isinstance(node, ast.Attribute) and node.attr == "converse":
                    name = getattr(top, "name", "?")
                    if name in _CONVERSE_CALLERS:
                        callers.add(name)
                    else:
                        found.append(f"{where} .converse in {name}")
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "alpha_for":
                    name = getattr(top, "name", "?")
                    if name in _ALPHA_CALLERS:
                        alpha_callers.add(name)
                    else:
                        found.append(f"{where} .alpha_for in {name}")
                if path.stem == "region" and any(_named(node, name) for name in _THRESHOLD_NAMES):
                    found.append(f"{where} a threshold kernel in region")
    assert len(stream) == 1  # the scan sees the one form it allows
    assert callers == _CONVERSE_CALLERS  # and each caller it allows
    assert alpha_callers == _ALPHA_CALLERS
    assert sorted(boundary) == [  # and the one call site of each boundary step it allows
        ("closed_forms", "_Curve.__init__", "_channel_unit"),
        ("closed_forms", "_Curve.__init__", "validate_problem"),
    ]
    assert found == []


def test_the_per_point_kernels_call_no_builtin_max_or_min():
    # verify and the trace run these at every grid point or row, and a
    # builtin max or min call costs 4-10 conditional expressions there, so
    # each kernel writes them as conditional expressions; _Curve.__init__
    # runs once per problem and may call them
    package = Path(closed_forms.__file__).parent
    defs = {}
    for stem in ("closed_forms", "rate_distortion"):
        tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
        defs.update(
            (f"{stem}.{node.name}", node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
    names = ("rate_distortion._best_det_at", "rate_distortion._r_joint", "closed_forms._psi", "closed_forms._witness_eta")
    kernels = {name: defs[name] for name in names}
    methods = [node for node in defs["closed_forms._Curve"].body if isinstance(node, ast.FunctionDef)]
    kernels.update((f"closed_forms._Curve.{node.name}", node) for node in methods if node.name != "__init__")
    assert len(kernels) > 4  # and _Curve's methods are found
    found = [
        f"{name}:{node.lineno} {node.func.id}"
        for name, kernel in kernels.items()
        for node in ast.walk(kernel)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in {"max", "min"}
    ]
    assert found == []
