"""Rate-distortion closed forms, the joint-rate oracle, and the converse endpoints."""

import math
import random

import mpmath
import pytest

from gaussian_bc import (
    ChannelParams,
    InfeasibleDistortionError,
    OutOfRangeError,
    SourceParams,
    channel_capacity,
    conditional_info_bound,
    conditional_variance,
    d2_lower_via_rx1,
    d2_min_at_rx1,
    d1_min_at_d2min,
    d_min,
    r_conditional,
    r_joint_numeric,
    r_scalar,
)

from gaussian_bc.rate_distortion import _r_joint
from helpers import DESK_CHANNEL, DESK_SOURCE, random_valid_configs, scan_r_joint


def random_oracle_inputs(count, seed):
    """Seeded (sigma2, rho, delta1, delta2): sigma2 log-uniform, deltas up to 1.2*sigma2."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        sigma2 = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        rho = rng.uniform(0.0, 0.99)
        draws.append((sigma2, rho, sigma2 * rng.uniform(0.01, 1.2), sigma2 * rng.uniform(0.01, 1.2)))
    return draws


def joint_rate_mp(sigma2, rho, delta1, delta2):
    """Closed-form joint R(D1, D2) of a Gaussian pair with equal variances, in 60-digit mpmath.

    Xiao & Luo, "Compression of correlated Gaussian sources under
    individual distortion criteria", Allerton 2005: when one constraint
    leaves the other inactive the rate is that of the tighter component
    alone; otherwise both bind and the error covariance takes the smallest
    off-diagonal that keeps K_S - K_E positive semidefinite.
    """
    with mpmath.workdps(60):
        s2, r = mpmath.mpf(sigma2), mpmath.mpf(rho)
        c1, c2 = min(mpmath.mpf(delta1), s2), min(mpmath.mpf(delta2), s2)
        cv = s2 * (1 - r * r)
        if c2 >= s2 - r * r * (s2 - c1):
            det_e = c1 * cv
        elif c1 >= s2 - r * r * (s2 - c2):
            det_e = c2 * cv
        else:
            gap = max(mpmath.mpf(0), r * s2 - mpmath.sqrt((s2 - c1) * (s2 - c2)))
            det_e = c1 * c2 - gap * gap
        return max(mpmath.mpf(0), mpmath.log(s2 * cv / det_e, 2) / 2)


class TestScalarRates:
    def test_r_scalar(self):
        assert r_scalar(1.0, 0.25) == 1.0
        assert r_scalar(1.0, 1.0) == 0.0
        assert r_scalar(1.0, 2.0) == 0.0  # above-variance distortion is free
        with pytest.raises(OutOfRangeError):
            r_scalar(1.0, 0.0)
        with pytest.raises(OutOfRangeError):
            r_scalar(-1.0, 0.5)

    def test_r_conditional(self):
        assert r_conditional(DESK_SOURCE, 0.75) == 0.0
        assert r_conditional(DESK_SOURCE, 0.375) == 0.5
        # independence: conditioning is free information only when rho > 0
        assert r_conditional(SourceParams(1.0, 0.0), 0.5) == r_scalar(1.0, 0.5)
        with pytest.raises(OutOfRangeError):
            r_conditional(DESK_SOURCE, 0.8)
        with pytest.raises(OutOfRangeError):
            r_conditional(DESK_SOURCE, 0.0)

    def test_channel_capacity(self):
        assert channel_capacity(1.0, 1.0) == 0.5
        assert channel_capacity(3.0, 1.0) == 1.0
        assert channel_capacity(1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)
        assert channel_capacity(1e300, 1.0) == 0.5 * math.log2(1.0 + 1e300)
        with pytest.raises(OutOfRangeError):
            channel_capacity(0.0, 1.0)

    @pytest.mark.parametrize("power, noise", [(1e300, 1e-10), (1.7976931348623157e308, 5e-324)])
    def test_a_capacity_whose_snr_overflows_is_finite(self, power, noise):
        # power/noise overflowed, and the capacity was inf: report printed
        # capacity_rx1=inf at --power 1e300 --n1 1e-10
        with mpmath.workdps(50):
            exact = 0.5 * mpmath.log(1 + mpmath.mpf(power) / mpmath.mpf(noise), 2)
        assert abs(channel_capacity(power, noise) - exact) <= 1e-15 * exact


class TestJointRateOracle:
    def test_desk_spot_value(self):
        assert r_joint_numeric(DESK_SOURCE, 0.625, 0.625) == pytest.approx(0.5, abs=1e-4)

    def test_zero_rate_at_full_distortion(self):
        assert r_joint_numeric(DESK_SOURCE, 1.0, 1.0) == 0.0
        assert r_joint_numeric(DESK_SOURCE, 3.0, 2.0) == 0.0  # clamped above sigma2

    def test_independent_components_decouple(self):
        src = SourceParams(1.0, 0.0)
        expected = r_scalar(1.0, 0.5) + r_scalar(1.0, 0.5)
        assert r_joint_numeric(src, 0.5, 0.5) == pytest.approx(expected, abs=1e-4)

    def test_one_component_released_degenerates_to_scalar(self):
        for delta in (0.3, 0.6):
            assert r_joint_numeric(DESK_SOURCE, delta, 1.0) == pytest.approx(
                r_scalar(1.0, delta), abs=1e-4
            )
            assert r_joint_numeric(DESK_SOURCE, 1.0, delta) == pytest.approx(
                r_scalar(1.0, delta), abs=1e-4
            )

    def test_strong_correlation_interior_optimum(self):
        # loose first constraint: a good second description pins the first
        # component's error well below its cap, so the optimum is interior
        src = SourceParams(1.0, 0.9)
        assert r_joint_numeric(src, 1.0, 0.1) == pytest.approx(r_scalar(1.0, 0.1), abs=1e-4)
        assert r_joint_numeric(src, 0.5, 0.1) == pytest.approx(r_scalar(1.0, 0.1), abs=1e-4)

    def test_monotone_nonincreasing(self):
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        in_d1 = [r_joint_numeric(DESK_SOURCE, d, 0.7) for d in grid]
        in_d2 = [r_joint_numeric(DESK_SOURCE, 0.7, d) for d in grid]
        for seq in (in_d1, in_d2):
            assert all(a >= b - 1e-6 for a, b in zip(seq, seq[1:]))

    def test_consistency_with_capacity_along_the_companion_floor(self):
        cap = channel_capacity(DESK_CHANNEL.power, DESK_CHANNEL.n1)
        lo = d_min(DESK_SOURCE, DESK_CHANNEL, 1)
        hi = d1_min_at_d2min(DESK_SOURCE, DESK_CHANNEL)
        for i in range(5):
            d1 = lo + (hi - lo) * (i + 1) / 6.0
            floor = d2_min_at_rx1(DESK_SOURCE, DESK_CHANNEL, d1)
            assert r_joint_numeric(DESK_SOURCE, d1, floor) == pytest.approx(cap, abs=1e-4)

    def test_exact_maximum_is_no_worse_than_the_search(self):
        # the oracle minimizes the rate, so an exact maximum of det K_E never
        # gives more bits than the scan plus golden-section reference
        for sigma2, rho, d1, d2 in random_oracle_inputs(300, seed=1601):
            exact = r_joint_numeric(SourceParams(sigma2, rho), d1, d2)
            searched = scan_r_joint(sigma2, rho, d1, d2)
            assert exact <= searched + 1e-12
            assert abs(exact - searched) <= 1e-9

    def test_matches_the_closed_form_joint_rate(self):
        for sigma2, rho, d1, d2 in random_oracle_inputs(300, seed=1602):
            truth = joint_rate_mp(sigma2, rho, d1, d2)
            assert abs(r_joint_numeric(SourceParams(sigma2, rho), d1, d2) - truth) <= 1e-13

    def test_the_oracle_is_the_same_at_every_scale(self):
        # at 1e-300 the sigma2-sized products underflowed and it found no
        # feasible error covariance, and at 1e300 s2*s2 overflowed and it
        # returned 0.0; in the unit of sigma2 it keeps every bit at 2**k
        desk = r_joint_numeric(DESK_SOURCE, 0.6, 0.7)
        assert r_joint_numeric(SourceParams(1e-300, 0.5), 6e-301, 7e-301) == pytest.approx(desk, abs=1e-15)
        assert r_joint_numeric(SourceParams(1e300, 0.5), 6e299, 7e299) == pytest.approx(desk, abs=1e-15)
        for sigma2, rho, d1, d2 in random_oracle_inputs(20, seed=2802):
            bits = r_joint_numeric(SourceParams(sigma2, rho), d1, d2)
            for k in range(-1000, 1001, 7):
                scale = 2.0**k
                assert r_joint_numeric(SourceParams(sigma2 * scale, rho), d1 * scale, d2 * scale) == bits, k
        # a distortion far above sigma2 is clamped to it before the unit is taken
        assert r_joint_numeric(SourceParams(1e-300, 0.5), 1e300, 7e-301) == r_joint_numeric(SourceParams(1e-300, 0.5), 1e-300, 7e-301)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            r_joint_numeric(DESK_SOURCE, 0.0, 0.5)
        with pytest.raises(OutOfRangeError):
            r_joint_numeric(DESK_SOURCE, 0.5, -0.1)


def builtin_r_joint(s2, rho, delta1, delta2):
    """The oracle kernel as written with builtin max/min, one call per candidate of each segment."""

    def best_det_at(sigma2, rho_sig, d1, d2):
        lim = math.sqrt(d1 * d2)
        s = math.sqrt(max((sigma2 - d1) * (sigma2 - d2), 0.0))
        lo = max(-lim, rho_sig - s)
        hi = min(lim, rho_sig + s)
        if lo > hi:
            return -math.inf
        e = min(max(0.0, lo), hi)
        return d1 * d2 - e * e

    def best_det_on_edge(sigma2, rho, fixed, free_cap):
        rho_sig = rho * sigma2
        d_star = sigma2 - rho * rho * (sigma2 - fixed)
        return max(
            best_det_at(sigma2, rho_sig, free_cap, fixed),
            best_det_at(sigma2, rho_sig, min(free_cap, d_star), fixed),
        )

    rho_sig = rho * s2
    cap1 = min(delta1, s2)
    cap2 = min(delta2, s2)
    det_ks = s2 * s2 - rho_sig * rho_sig
    best = max(best_det_on_edge(s2, rho, cap1, cap2), best_det_on_edge(s2, rho, cap2, cap1))
    if not (best > 0.0):
        raise OutOfRangeError("no feasible error covariance found")
    return max(0.0, 0.5 * math.log2(det_ks / best))


def outcome(func, *args):
    """``repr`` of func's value, or its error's type and message."""
    try:
        return repr(func(*args))
    except OutOfRangeError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOracleKernelBits:
    """The oracle kernel returns the bits of its builtin max/min form.

    The kernel writes each max/min as a conditional expression and
    evaluates the corner candidate, which both segments share, once;
    compared by ``repr``, which tells -0.0 from 0.0 and shows nan.
    """

    @staticmethod
    def inputs(count, seed):
        rng = random.Random(seed)
        for i in range(count):
            sigma2 = rng.choice([1e-150, 1e150, 10.0 ** rng.uniform(-150.0, 150.0)])
            rho = rng.choice([0.0, 1.0 - 1e-12, rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)])
            # deltas up to 100*sigma2: about a third of them take the cap sigma2
            d1, d2 = (sigma2 * 10.0 ** rng.uniform(-6.0, 2.0) for _ in range(2))
            yield sigma2, rho, d1, d2 if i % 5 else d1

    def test_equal_to_the_builtin_form(self):
        capped = 0
        for args in self.inputs(20000, seed=2301):
            assert outcome(_r_joint, *args) == outcome(builtin_r_joint, *args), args
            capped += max(args[2:]) > args[0]
        assert capped > 5000

    def test_the_infeasible_case_keeps_its_error(self):
        # sigma2-sized products underflow: no error covariance has det > 0
        args = (1e-300, 0.5, 1e-301, 1e-301)
        message = "OutOfRangeError: no feasible error covariance found"
        assert outcome(_r_joint, *args) == outcome(builtin_r_joint, *args) == message


class TestConditionalInfoBound:
    def test_exact_zero_at_the_receiver2_floor(self):
        # exact cancellation, not approximate
        floor = d_min(DESK_SOURCE, DESK_CHANNEL, 2)
        assert conditional_info_bound(DESK_SOURCE, DESK_CHANNEL, floor) == 0.0

    def test_exact_zero_across_random_configs(self):
        for source, channel in random_valid_configs(20, seed=61):
            floor = d_min(source, channel, 2)
            assert conditional_info_bound(source, channel, floor) == 0.0

    def test_full_variance_recovers_capacity(self):
        value = conditional_info_bound(DESK_SOURCE, DESK_CHANNEL, DESK_SOURCE.sigma2)
        assert value == pytest.approx(
            channel_capacity(DESK_CHANNEL.power, DESK_CHANNEL.n1), rel=1e-12
        )

    @pytest.mark.parametrize("channel, delta2", [(DESK_CHANNEL, 0.6), (ChannelParams(1e308, 1.0, 1.7e308), 0.0)])
    def test_below_floor_is_infeasible(self, channel, delta2):
        # at the second, power + n2 overflowed, the floor read 0, and 0.0
        # was returned for a delta2 below the true floor 0.6296...
        with pytest.raises(InfeasibleDistortionError):
            conditional_info_bound(DESK_SOURCE, channel, delta2)

    def test_monotone_increasing(self):
        values = [
            conditional_info_bound(DESK_SOURCE, DESK_CHANNEL, d) for d in (0.7, 0.8, 0.9, 1.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_a_large_sigma2_over_large_noises_answers(self):
        # sigma2*n2 overflowed: the floor was inf, and every delta2 was
        # refused as "below the single-user minimum inf". In the unit of
        # sigma2 the value is that of the mantissa problem.
        source, channel = SourceParams(1e300, 0.5), ChannelParams(1.0, 1e10, 2e10)
        floor = d_min(source, channel, 2)
        assert conditional_info_bound(source, channel, floor) == 0.0
        s2u, e = math.frexp(source.sigma2)
        for delta2 in (1.5 * floor, 2e300, 1e301):
            value = conditional_info_bound(source, channel, delta2)
            assert value > 0.0
            assert value == conditional_info_bound(SourceParams(s2u, 0.5), channel, math.ldexp(delta2, -e))

    @pytest.mark.parametrize(
        "sigma2, channel, delta2",
        [
            (1.0, DESK_CHANNEL, 1e308),
            (1e-300, DESK_CHANNEL, 1e300),
            (1.0, ChannelParams(1.0, 1.5e308, 1.6e308), 3.5),
            (1.0, ChannelParams(1.0, 5e-324, 1.0), 0.9),
            (1.0, ChannelParams(1e308, 1.0, 1.7e308), 0.9),
            (1.0, ChannelParams(1e308, 1e308, 1.7e308), 0.9),
        ],
    )
    def test_an_argument_past_the_float_range_answers(self, sigma2, channel, delta2):
        # (P + n2)*excess/(s2u*n1), or the excess itself, is past the float
        # range in the unit of sigma2 on the way (the first two returned inf
        # for about 500 and 1000 bits); or (P + n2)*excess overflows though
        # the ratio is 2.7, where the + 1 is not below rounding; or s2u*n1
        # rounds to 0 (a bare ZeroDivisionError); or P + n2 itself
        # overflows (the last two returned inf for 511.35 and 0.395 bits):
        # within 1e-15 of 50 digits
        value = conditional_info_bound(SourceParams(sigma2, 0.5), channel, delta2)
        with mpmath.workdps(50):
            s2, d = mpmath.mpf(sigma2), mpmath.mpf(delta2)
            p, n1, n2 = (mpmath.mpf(x) for x in (channel.power, channel.n1, channel.n2))
            exact = 0.5 * mpmath.log((p + n2) * (d - s2 * n2 / (p + n2)) / (s2 * n1) + 1, 2)
        assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("delta2", [math.nan, math.inf, -math.inf])
    def test_a_delta2_that_is_not_a_finite_number_is_refused(self, delta2):
        # a nan passed the floor check (nan < floor is false), and max(0, nan)
        # made the answer 0.0
        with pytest.raises(OutOfRangeError) as info:
            conditional_info_bound(DESK_SOURCE, DESK_CHANNEL, delta2)
        assert str(info.value) == f"delta2 must be a finite number, got {delta2!r}"


class TestReceiver2FloorFromSideInfo:
    @pytest.mark.parametrize("channel", [DESK_CHANNEL, ChannelParams(1e308, 1.0, 1.7e308)])
    def test_exact_floor_at_the_conditional_variance(self, channel):
        # at the second, power + n2 overflowed, and both read 0.0
        cv = conditional_variance(DESK_SOURCE)
        floor = d_min(DESK_SOURCE, channel, 2)
        assert d2_lower_via_rx1(DESK_SOURCE, channel, cv) == floor
        with mpmath.workdps(50):
            exact = mpmath.mpf(channel.n2) / (mpmath.mpf(channel.power) + channel.n2)
        assert abs(floor - exact) <= 1e-15 * exact

    def test_exact_floor_across_random_configs(self):
        for source, channel in random_valid_configs(20, seed=71):
            cv = conditional_variance(source)
            assert d2_lower_via_rx1(source, channel, cv) == d_min(source, channel, 2)

    def test_hand_value(self):
        assert d2_lower_via_rx1(DESK_SOURCE, DESK_CHANNEL, 0.375) == pytest.approx(1.0, rel=1e-12)

    def test_divergence_at_vanishing_side_info_distortion(self):
        assert d2_lower_via_rx1(DESK_SOURCE, DESK_CHANNEL, 1e-12) > 1e9

    def test_a_floor_past_the_float_range_is_an_error(self):
        # this returned inf: the floor is the converse kernel, whose value
        # past the float range is an error
        with pytest.raises(OutOfRangeError) as info:
            d2_lower_via_rx1(DESK_SOURCE, DESK_CHANNEL, 5e-324)
        assert str(info.value) == "combiner bound too small: the converse d2 at eta = 5e-324 is past the float range"

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            d2_lower_via_rx1(DESK_SOURCE, DESK_CHANNEL, 0.8)
        with pytest.raises(OutOfRangeError):
            d2_lower_via_rx1(DESK_SOURCE, DESK_CHANNEL, 0.0)
