"""Monte-Carlo simulator: gains, agreement, determinism, symmetry, statistics."""

import io
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_bc import (
    ChannelParams,
    OutOfRangeError,
    ParameterError,
    SimulationConfig,
    SimulationReport,
    SourceParams,
    UncodedCoeffs,
    mmse_coefficients,
    negate_rho_transform,
    power_check,
    sample_source_pairs,
    simulate,
    uncoded_distortions,
)
from gaussian_bc.cli import run as cli_run
from gaussian_bc import montecarlo
from gaussian_bc.montecarlo import BLOCK_SIZE, _exact_sum, _map_blocks

from helpers import DESK_CHANNEL, DESK_SOURCE, gain_distortions, random_valid_configs

MIDPOINT = UncodedCoeffs(0.5, 0.5)


class TestMmseCoefficients:
    def test_desk_hand_values(self):
        m = mmse_coefficients(DESK_SOURCE, DESK_CHANNEL, MIDPOINT)
        assert m.gamma == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert m.c1 == pytest.approx(math.sqrt(4.0 / 3.0) * 0.375, rel=1e-12)

    def test_the_gains_at_the_top_of_the_float_range(self):
        # power + n2 overflowed, and c2 read 0.0 for 3.2075e-155; in the
        # channel's unit each gain is within 1e-15 of 50 digits
        channel = ChannelParams(1e308, 1.0, 1.7e308)
        m = mmse_coefficients(DESK_SOURCE, channel, MIDPOINT)
        with mpmath.workdps(50):
            p, n1, n2 = (mpmath.mpf(x) for x in channel)
            gamma = mpmath.sqrt(p / mpmath.mpf(0.75))  # q = 0.75 at the midpoint and rho = 0.5
            for gain, noise in ((m.c1, n1), (m.c2, n2)):
                exact = gamma * mpmath.mpf(0.75) / (p + noise)
                assert abs(gain - exact) <= 1e-15 * exact

    def test_the_gains_where_gamma_times_sigma2_is_past_the_float_range(self):
        # gamma*sigma2, about 2.4e308, overflowed, and c1 and c2 read inf;
        # the numerator is now taken in the unit of sigma2, and each gain,
        # about 0.7071, is within 1e-15 of 50 digits
        source, channel = SourceParams(1.7e308, 0.0), ChannelParams(1.7e308, 1.0, 2.0)
        m = mmse_coefficients(source, channel, MIDPOINT)
        with mpmath.workdps(50):
            s2, p, n1, n2 = (mpmath.mpf(x) for x in (source.sigma2, *channel))
            gamma = mpmath.sqrt(p / (s2 * mpmath.mpf(0.5)))  # q = 0.5 at the midpoint and rho = 0
            for gain, noise in ((m.c1, n1), (m.c2, n2)):
                exact = gamma * s2 * mpmath.mpf(0.5) / (p + noise)
                assert abs(gain - exact) <= 1e-15 * exact
        assert m.c1 == pytest.approx(0.7071, rel=1e-4)

    @pytest.mark.parametrize(
        "source, channel, named",
        [
            # c1, about 2.5e315, raised OverflowError in _over
            (SourceParams(1.7e308, 0.5), ChannelParams(5e-324, 5e-324, 1e-323), "power too small relative to sigma2"),
            # gamma, about 6.8e315, raised OverflowError
            (SourceParams(5e-324, 0.5), ChannelParams(1.7e308, 1.0, 2.0), "sigma2 too small relative to power"),
        ],
    )
    def test_a_gain_past_the_float_range_is_refused(self, source, channel, named):
        with pytest.raises(OutOfRangeError, match=f"^{named}"):
            mmse_coefficients(source, channel, MIDPOINT)

    @pytest.mark.parametrize(
        "sigma2, channel",
        [
            (1.0, ChannelParams(1.0, 1.0, 1.7e308)),
            (1.0, ChannelParams(0.5, 1.0, 1.25 * 2.0**1023)),
            (2.0**-1020, ChannelParams(2.0**1023, 1.0, 1.5 * 2.0**1023)),  # power + n2 is past the float range
        ],
    )
    def test_a_subnormal_gain_is_rounded_once(self, sigma2, channel):
        # c2 = gamma*sigma2*(beta + alpha*rho)/(power + n2), one rounding
        # of the exact quotient; the first case read 5.09426708108493e-309
        m = mmse_coefficients(SourceParams(sigma2, 0.5), channel, MIDPOINT)
        num = m.gamma * sigma2 * (0.5 + 0.5 * 0.5)
        want = float(Fraction(num) / (Fraction(channel.power) + Fraction(channel.n2)))
        assert 0.0 < want < sys.float_info.min
        assert m.c2 == want
        if channel.n2 == 1.7e308:
            assert m.c2 == 5.094267081084936e-309

    def test_uncorrelated_single_stream_teaches_receiver2_nothing(self):
        src = SourceParams(1.0, 0.0)
        m = mmse_coefficients(src, DESK_CHANNEL, UncodedCoeffs(1.0, 0.0))
        assert m.c2 == 0.0
        assert gain_distortions(src, DESK_CHANNEL, UncodedCoeffs(1.0, 0.0)).d2 == 1.0

    def test_analytic_route_agrees_with_the_rational_forms(self):
        # two independent algebraic routes to the same distortions
        for source, channel in random_valid_configs(20, seed=83):
            for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
                coeffs = UncodedCoeffs(alpha, 1.0 - alpha)
                via_gains = gain_distortions(source, channel, coeffs)
                via_forms = uncoded_distortions(source, channel, coeffs)
                assert via_gains.d1 == pytest.approx(via_forms.d1, rel=1e-12)
                assert via_gains.d2 == pytest.approx(via_forms.d2, rel=1e-12)


class TestSimulate:
    def test_desk_agreement_at_2e5_samples(self):
        config = SimulationConfig(samples=200_000, seed=20240613, coeffs=MIDPOINT)
        report = simulate(DESK_SOURCE, DESK_CHANNEL, config)
        assert report.empirical_d1 == pytest.approx(0.625, rel=0.02)
        assert report.empirical_d2 == pytest.approx(0.75, rel=0.02)
        assert report.empirical_power == pytest.approx(1.0, rel=0.02)
        assert power_check(report, DESK_CHANNEL, 0.02)

    def test_determinism(self):
        config = SimulationConfig(samples=50_000, seed=11, coeffs=MIDPOINT)
        a = simulate(DESK_SOURCE, DESK_CHANNEL, config)
        b = simulate(DESK_SOURCE, DESK_CHANNEL, config)
        assert a == b
        assert repr(a) == repr(b)
        c = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(50_000, 12, MIDPOINT))
        assert c != a

    def test_single_sample_degenerate_statistics(self):
        report = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(1, 5, MIDPOINT))
        assert report.ci_half_width_d1 == math.inf
        assert report.ci_half_width_d2 == math.inf
        assert report.samples == 1

    def test_half_widths_shrink_like_root_n(self):
        small = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(10_000, 3, MIDPOINT))
        large = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(40_000, 3, MIDPOINT))
        assert large.ci_half_width_d1 < small.ci_half_width_d1 * 0.7
        assert large.ci_half_width_d2 < small.ci_half_width_d2 * 0.7

    def test_sign_flip_is_an_exact_symmetry(self, capsys):
        source, flip = negate_rho_transform(SourceParams(1.0, -0.5))
        assert flip and source == SourceParams(1.0, 0.5)
        argv = ["simulate", "--alpha", "0.5", "--samples", "30000", "--seed", "77"]
        flipped, direct = io.StringIO(), io.StringIO()
        assert cli_run([*argv, "--rho", "-0.5"], out=flipped) == 0
        assert "sign-flipped" in capsys.readouterr().err
        assert cli_run([*argv, "--rho", "0.5"], out=direct) == 0
        assert capsys.readouterr().err == ""
        assert flipped.getvalue().encode() == direct.getvalue().encode()

    def test_invalid_run_parameters(self):
        with pytest.raises(ParameterError):
            simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(0, 1, MIDPOINT))
        with pytest.raises(ParameterError):
            simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(10, -1, MIDPOINT))

    @pytest.mark.parametrize("samples, seed", [(10, 2**64), (10, -1), (10.5, 1), (0, 1)])
    def test_invalid_draw_parameters_raise_parameter_error_on_both_entry_points(self, samples, seed):
        # sample_source_pairs used to accept seed 2**64 and let numpy raise
        # its own ValueError/TypeError for seed -1 and samples 10.5
        with pytest.raises(ParameterError):
            sample_source_pairs(DESK_SOURCE, samples, seed)
        with pytest.raises(ParameterError):
            simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(samples, seed, MIDPOINT))

    def test_block_boundary_is_seam_free(self):
        # totals must not depend on whether n crosses the block size
        just_under = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(65_535, 9, MIDPOINT))
        just_over = simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(65_537, 9, MIDPOINT))
        assert just_under.empirical_d1 == pytest.approx(just_over.empirical_d1, rel=0.05)


    def test_half_widths_are_finite_and_scale_covariant_at_extreme_sigma2(self):
        # fourth powers of the errors overflow at sigma2 = 1e300 and underflow
        # at 1e-300 unless the kernel rescales them
        config = SimulationConfig(samples=5_000, seed=21, coeffs=UncodedCoeffs(0.3, 0.7))
        base = simulate(DESK_SOURCE, DESK_CHANNEL, config)
        fields = ("empirical_d1", "empirical_d2", "ci_half_width_d1", "ci_half_width_d2")
        for sigma2 in (1e300, 1e-300, 2.0**996, 2.0**-996):
            report = simulate(SourceParams(sigma2, DESK_SOURCE.rho), DESK_CHANNEL, config)
            assert report.empirical_power == base.empirical_power
            for field in fields:
                value = getattr(report, field)
                assert math.isfinite(value) and value > 0.0
                assert value / sigma2 == pytest.approx(getattr(base, field), rel=1e-12)
                if math.frexp(sigma2)[0] == 0.5:  # a power of two scales every step exactly
                    assert value == getattr(base, field) * sigma2
        # at channels far from 1, power/(sigma2*q) left the float range, and
        # the run printed inf, nan or 0; scaling sigma2 alone by 4**k scales
        # the distortions and half-widths by exactly 4**k and leaves the power
        for channel in (ChannelParams(1e150, 1e150, 2e150), ChannelParams(1e-150, 1e-150, 2e-150)):
            base = simulate(DESK_SOURCE, channel, config)
            for k in range(-500, 511, 10):
                report = simulate(SourceParams(DESK_SOURCE.sigma2 * 4.0**k, DESK_SOURCE.rho), channel, config)
                assert report.empirical_power == base.empirical_power, k
                for field in fields:
                    assert getattr(report, field) == math.ldexp(getattr(base, field), 2 * k), (k, field)


def fixed_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(montecarlo, "_worker_count", lambda blocks: min(workers, blocks))


class TestBlockPool:
    @pytest.mark.parametrize("gains", [None, (0.3, -0.2)])
    @pytest.mark.parametrize("samples", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 5 * BLOCK_SIZE + 7])
    def test_reports_are_bit_equal_for_any_worker_count(self, monkeypatch, samples, gains):
        config = SimulationConfig(samples, 13, UncodedCoeffs(0.3, 0.7))
        reports = []
        for workers in (1, 2, 3):
            fixed_workers(monkeypatch, workers)
            reports.append(simulate(DESK_SOURCE, DESK_CHANNEL, config, decode_gains=gains))
        assert repr(reports[1]) == repr(reports[0])
        assert repr(reports[2]) == repr(reports[0])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_worker_overflow_reaches_the_caller_after_the_join(self, monkeypatch, workers):
        # tier-1 turns RuntimeWarning into an error, also in a worker thread
        fixed_workers(monkeypatch, workers)
        threads = threading.active_count()
        config = SimulationConfig(4 * BLOCK_SIZE, 1, MIDPOINT)
        with pytest.raises(RuntimeWarning, match="overflow"):
            simulate(DESK_SOURCE, DESK_CHANNEL, config, decode_gains=(1e200, 1e200))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lowest_failed_block_is_the_error_raised(self, monkeypatch, workers):
        fixed_workers(monkeypatch, workers)

        def compute(i):
            if i == 0:  # with two workers, block 3 fails while block 2 waits
                time.sleep(0.05)
            if i in (2, 3):
                raise ValueError(i)
            return i * i

        assert _map_blocks(lambda i: i * i, 9) == [i * i for i in range(9)]
        with pytest.raises(ValueError) as caught:
            _map_blocks(compute, 9)
        assert caught.value.args == (2,)

    def test_a_failure_stops_the_other_workers_above_it(self, monkeypatch):
        fixed_workers(monkeypatch, 2)
        computed = []
        failing = threading.Event()

        def compute(i):
            computed.append(i)
            if i == 0:  # block 0 ends only after block 1 has failed
                assert failing.wait(timeout=10.0)
                time.sleep(0.05)
            if i == 1:
                failing.set()
                raise ValueError(i)
            return i

        with pytest.raises(ValueError):
            _map_blocks(compute, 9)
        assert sorted(computed) == [0, 1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_blocks_are_in_flight(self, monkeypatch, workers):
        fixed_workers(monkeypatch, workers)
        lock = threading.Lock()
        in_flight, peak = [0], [0]

        def compute(i):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.002)
            with lock:
                in_flight[0] -= 1
            return i

        assert _map_blocks(compute, 12) == list(range(12))
        assert peak[0] <= workers

    def test_the_pool_is_small_and_never_larger_than_the_run(self):
        assert montecarlo._worker_count(1) == 1
        assert 1 <= montecarlo._worker_count(10**6) <= 2

    def test_memory_in_flight_does_not_grow_with_samples(self):
        # the two threads' peaks align in most runs but not all, so the
        # small run's peak is the largest of a few
        def traced_peak(blocks):
            config = SimulationConfig(blocks * BLOCK_SIZE, 3, MIDPOINT)
            tracemalloc.start()
            try:
                simulate(DESK_SOURCE, DESK_CHANNEL, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = max(traced_peak(4) for _ in range(5))
        assert traced_peak(40) <= small + 64 * 1024


def exact_sum(values: np.ndarray) -> float:
    """``_exact_sum`` with scratch of its own, filled with nan: the sum writes it before it reads it."""
    return _exact_sum(values, np.full_like(values, math.nan), np.full_like(values, math.nan))


def reference_sum(values: np.ndarray) -> float:
    """math.fsum, or the rounded exact sum where fsum overflows in between."""
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values.tolist()), Fraction(0)))


def assert_reduces_like_the_reference(values: np.ndarray) -> None:
    try:
        want = reference_sum(values)
    except OverflowError:  # the exact sum itself is too large for a float
        with pytest.raises(OverflowError):
            exact_sum(values)
        return
    assert exact_sum(values).hex() == want.hex()  # bit-equal, sign of zero included


def assert_specials_reduce_like_fsum(values: list[float]) -> None:
    array = np.array(values)
    try:
        want = math.fsum(values)
    except ValueError:  # -inf + inf
        with pytest.raises(ValueError):
            exact_sum(array)
        return
    got = exact_sum(array)
    assert got == want or (math.isnan(got) and math.isnan(want))


@st.composite
def log_uniform_blocks(draw) -> np.ndarray:
    """Finite blocks of up to BLOCK_SIZE values, magnitudes log-uniform on [5e-324, 1e300]."""
    size = draw(st.one_of(st.sampled_from([0, 1, BLOCK_SIZE]), st.integers(0, BLOCK_SIZE)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 2**-1074 = 5e-324 and 2**996 ~ 6.7e299; ldexp rounds into the subnormals
    values = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 997, size))
    values *= rng.choice([-1.0, 1.0], size)
    for special in (0.0, -0.0):
        values[rng.random(size) < 0.01] = special
    subnormal = rng.random(size) < 0.01
    values[subnormal] = rng.integers(1, 2**52, subnormal.sum()) * 5e-324
    if draw(st.booleans()):  # near-total cancellation
        half = size // 2
        values[half : 2 * half] = -values[:half]
    return values


class TestExactSum:
    @settings(max_examples=60, deadline=None)
    @given(values=log_uniform_blocks())
    def test_bit_equal_to_fsum_on_log_uniform_blocks(self, values):
        assert_reduces_like_the_reference(values)

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_bit_equal_to_fsum_on_any_finite_floats(self, values):
        # covers +-0.0, subnormals, float max and intermediate overflow of fsum
        assert_reduces_like_the_reference(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize(
        "values",
        [[-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [5e-324, -5e-324], [2.0**-1074] * 3],
    )
    def test_signed_zeros_and_tiny_values(self, values):
        assert_reduces_like_the_reference(np.array(values))

    # the edges of the 16384-value slices that the extraction once took
    @pytest.mark.parametrize("size", [16383, 16384, 16385, 65536])
    def test_bit_equal_to_fsum_across_slice_edges(self, size):
        rng = np.random.default_rng(size)
        values = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1000, size))
        assert exact_sum(values).hex() == math.fsum(values).hex()

    @pytest.mark.parametrize("top", [[], [1.7e308, -1.6e308], [1.5e308, 2.0**1023, -(2.0**1023)]])
    def test_the_whole_exponent_range_in_one_sum(self, top):
        # values at the lowest and the highest exponent bins together
        rng = np.random.default_rng(len(top))
        big = rng.uniform(1.0, 1.79, 500) * 1e308
        tiny = rng.integers(1, 2**52, 500) * 5e-324
        values = np.concatenate([big, -big, tiny, [5e-324] * 7, top])
        rng.shuffle(values)
        assert_reduces_like_the_reference(values)
        assert exact_sum(np.array([5e-324, 1.7e308, -1.7e308])) == 5e-324

    def test_intermediate_overflow_returns_the_exact_sum(self):
        big = np.finfo(np.float64).max
        assert exact_sum(np.array([big, big, -big])) == big
        with pytest.raises(OverflowError):
            exact_sum(np.array([big, big]))
        # math.fsum raises OverflowError on each of these at 1e308 + 1e308
        assert exact_sum(np.array([1e308, 1e308, math.inf])) == math.inf
        assert math.isnan(exact_sum(np.array([1e308, 1e308, math.nan])))
        with pytest.raises(ValueError):
            exact_sum(np.array([1e308, 1e308, -math.inf, math.inf]))

    def test_intermediate_overflow_of_fsum_in_the_fallback(self, fallbacks):
        # the bracket's candidates differ in sign, and math.fsum overflows
        # at big + big, so the fallback sums the block in Fraction
        big = np.finfo(np.float64).max
        assert exact_sum(np.array([big, big, -big, -big, 5e-324])) == 5e-324
        assert fallbacks == [5]

    @pytest.mark.parametrize(
        "values",
        [
            [math.inf],
            [-math.inf, 1.0],
            [math.inf, math.inf, 2.0],
            [math.nan],
            [1.0, math.nan, math.inf],
            [math.inf, -math.inf],
            [math.nan, math.inf, -1e300, -math.inf],
        ],
    )
    def test_inf_and_nan_reduce_like_fsum(self, values):
        assert_specials_reduce_like_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(
        finite=st.lists(st.floats(-1e300, 1e300), max_size=20),
        specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    )
    def test_inf_and_nan_among_finite_values_reduce_like_fsum(self, finite, specials):
        assert_specials_reduce_like_fsum(finite + specials)


@pytest.fixture
def fallbacks(monkeypatch) -> list:
    """The sizes of the arrays ``_exact_sum`` hands to its ``math.fsum`` fallback."""
    calls = []
    fsum = montecarlo._fsum

    def counted(values):
        calls.append(values.size)
        return fsum(values)

    monkeypatch.setattr(montecarlo, "_fsum", counted)
    return calls


def halfway_block() -> np.ndarray:
    """BLOCK_SIZE values whose exact sum lies halfway between two floats."""
    rng = np.random.default_rng(33)
    values = (2**29 + rng.integers(0, 2**29, BLOCK_SIZE)) * 2.0**-30  # multiples of 2**-30 in [0.5, 1)
    values[-1] = 2.0**-38
    exact = sum(map(Fraction, values.tolist()), Fraction(0))
    assert 2**15 <= exact < 2**16  # its ulp is 2**-37, and the last value is half of one
    assert (exact * 2**37).denominator == 2
    return values


class TestCertificate:
    @pytest.mark.parametrize(
        "values, want",
        [([1.0, 2.0**-53], 1.0), ([1.0, 3 * 2.0**-53], 1.0000000000000004), ([2.0**-53, 1.0], 1.0)],
    )
    def test_ties_round_to_even_through_the_fallback(self, fallbacks, values, want):
        assert exact_sum(np.array(values)) == want == math.fsum(values)
        assert fallbacks == [len(values)]

    def test_a_block_on_a_halfway_point_rounds_to_even_through_the_fallback(self, fallbacks):
        # the extraction writes only its scratch, so the fallback sums the block as given
        values = halfway_block()
        given = values.copy()
        assert exact_sum(values).hex() == math.fsum(given).hex()
        assert fallbacks == [BLOCK_SIZE]
        assert np.array_equal(values, given)

    @pytest.mark.parametrize("zeros", [[], [-0.0], [-0.0, 0.0]])
    @pytest.mark.parametrize("size", [1, 7, BLOCK_SIZE // 2])
    def test_pairs_that_cancel_give_the_signed_zero_of_fsum(self, fallbacks, size, zeros):
        rng = np.random.default_rng(size)
        half = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1000, size))
        values = np.concatenate([half, zeros, -half])
        rng.shuffle(values)
        assert exact_sum(values).hex() == math.fsum(values).hex()
        assert fallbacks == [values.size]

    def test_small_negative_values_after_a_cancellation(self):
        # floor(t) would leave the fraction 1 + t of a small negative t,
        # which rounds: that moved 214 of these 300 sums; trunc(t) leaves t
        rng = np.random.default_rng(12)
        for _ in range(300):
            big = rng.uniform(1.0, 2.0, 2)
            small = np.ldexp(-1.0 - rng.integers(1, 2**52, 20) * 2.0**-52, rng.integers(-70, -36, 20))
            values = np.concatenate([big, -big, small])
            rng.shuffle(values)
            assert exact_sum(values).hex() == math.fsum(values).hex()

    def test_squares_are_certified_without_the_fallback(self, fallbacks):
        rng = np.random.default_rng(5)
        for scale in (1e-140, 1.0, 1e150):  # squares from 1e-280 up, inside the scaling window
            values = np.square(rng.standard_normal(BLOCK_SIZE) * scale)
            assert exact_sum(values).hex() == math.fsum(values).hex()
        assert fallbacks == []

    def test_the_fallback_never_runs_in_a_seeded_simulate(self, fallbacks):
        configs = [(DESK_SOURCE, DESK_CHANNEL), *random_valid_configs(2, seed=41)]
        for k, (source, channel) in enumerate(configs):
            simulate(source, channel, SimulationConfig(10**6, 300 + k, UncodedCoeffs(0.3, 0.7)))
        assert fallbacks == []


class TestScratch:
    @pytest.mark.parametrize("gains", [None, (0.3, -0.2)])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_never_share_a_buffer(self, monkeypatch, workers, gains):
        # each worker thread writes its blocks into five buffers of its own
        config = SimulationConfig(7 * BLOCK_SIZE + 11, 23, UncodedCoeffs(0.3, 0.7))
        fixed_workers(monkeypatch, 1)
        want = simulate(DESK_SOURCE, DESK_CHANNEL, config, decode_gains=gains)
        fixed_workers(monkeypatch, workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between numpy passes
        try:
            got = simulate(DESK_SOURCE, DESK_CHANNEL, config, decode_gains=gains)
        finally:
            sys.setswitchinterval(interval)
        assert repr(got) == repr(want)

    def test_a_warm_run_allocates_no_block_sized_array(self, monkeypatch):
        fixed_workers(monkeypatch, 1)
        config = SimulationConfig(4 * BLOCK_SIZE, 8, MIDPOINT)
        simulate(DESK_SOURCE, DESK_CHANNEL, config)  # this thread's block buffers
        tracemalloc.start()
        try:
            simulate(DESK_SOURCE, DESK_CHANNEL, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_SIZE * 8


class TestSampleStatistics:
    def test_sample_covariance_matches_the_source_law(self):
        n = 100_000
        s1, s2 = sample_source_pairs(DESK_SOURCE, n, 42)
        tol = 5.0 / math.sqrt(n)
        assert abs(float(np.mean(s1 * s1)) - 1.0) <= tol
        assert abs(float(np.mean(s2 * s2)) - 1.0) <= tol
        assert abs(float(np.mean(s1 * s2)) - 0.5) <= tol

    def test_innovation_is_uncorrelated_with_the_second_component(self):
        n = 100_000
        s1, s2 = sample_source_pairs(DESK_SOURCE, n, 42)
        w1 = s1 - DESK_SOURCE.rho * s2
        corr = float(np.corrcoef(w1, s2)[0, 1])
        assert abs(corr) <= 5.0 / math.sqrt(n)

    def test_source_pairs_match_the_simulate_stream(self):
        # flipping negates the first stream deterministically
        plain_s1, plain_s2 = sample_source_pairs(DESK_SOURCE, 1000, 4)
        flip_s1, flip_s2 = sample_source_pairs(DESK_SOURCE, 1000, 4, sign_flip=True)
        assert np.array_equal(flip_s1, -plain_s1)
        assert np.array_equal(flip_s2, plain_s2)


class TestOracleAgreement:
    def test_empirical_matches_analytic_within_ci_coverage(self):
        # 95% CIs widened to 4 half-widths: allow at most one miss in 20
        misses = 0
        for k, (source, channel) in enumerate(random_valid_configs(20, seed=91)):
            alpha = (k + 1) / 21.0
            coeffs = UncodedCoeffs(alpha, 1.0 - alpha)
            analytic = gain_distortions(source, channel, coeffs)
            report = simulate(source, channel, SimulationConfig(100_000, 1000 + k, coeffs))
            ok_d1 = abs(report.empirical_d1 - analytic.d1) <= 4 * report.ci_half_width_d1
            ok_d2 = abs(report.empirical_d2 - analytic.d2) <= 4 * report.ci_half_width_d2
            if not (ok_d1 and ok_d2):
                misses += 1
        assert misses <= 1

    def test_mmse_gain_is_a_strict_empirical_minimum(self):
        config = SimulationConfig(samples=1_000_000, seed=7, coeffs=MIDPOINT)
        m = mmse_coefficients(DESK_SOURCE, DESK_CHANNEL, MIDPOINT)
        base = simulate(DESK_SOURCE, DESK_CHANNEL, config)
        for factor in (1.05, 0.95):
            perturbed = simulate(
                DESK_SOURCE,
                DESK_CHANNEL,
                config,
                decode_gains=(m.c1 * factor, m.c2 * factor),
            )
            assert perturbed.empirical_d1 > base.empirical_d1
            assert perturbed.empirical_d2 > base.empirical_d2


class TestPowerCheck:
    def test_tolerances(self):
        report = SimulationReport(0.6, 0.7, 1.5, 0.01, 0.01, 100, 1)
        assert not power_check(report, DESK_CHANNEL, 0.02)
        assert power_check(report, DESK_CHANNEL, math.inf)
        honest = SimulationReport(0.6, 0.7, 1.001, 0.01, 0.01, 100, 1)
        assert power_check(honest, DESK_CHANNEL, 0.02)
