"""Closed forms: corner points, distortion pair, threshold, converse functional."""

import math

import mpmath
import pytest

from gaussian_bc import (
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

from helpers import DESK_CHANNEL, DESK_SOURCE, bisect_alpha_for_d1, random_valid_configs


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
