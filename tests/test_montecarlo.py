"""Monte-Carlo simulator: gains, agreement, determinism, symmetry, statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_bc import (
    ParameterError,
    SimulationConfig,
    SimulationReport,
    SourceParams,
    UncodedCoeffs,
    analytic_distortions,
    mmse_coefficients,
    negate_rho_transform,
    power_check,
    sample_source_pairs,
    simulate,
    uncoded_distortions,
)
from gaussian_bc.montecarlo import BLOCK_SIZE, _exact_sum

from helpers import DESK_CHANNEL, DESK_SOURCE, random_valid_configs

MIDPOINT = UncodedCoeffs(0.5, 0.5)


class TestMmseCoefficients:
    def test_desk_hand_values(self):
        m = mmse_coefficients(DESK_SOURCE, DESK_CHANNEL, MIDPOINT)
        assert m.gamma == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert m.c1 == pytest.approx(math.sqrt(4.0 / 3.0) * 0.375, rel=1e-12)

    def test_uncorrelated_single_stream_teaches_receiver2_nothing(self):
        src = SourceParams(1.0, 0.0)
        m = mmse_coefficients(src, DESK_CHANNEL, UncodedCoeffs(1.0, 0.0))
        assert m.c2 == 0.0
        assert analytic_distortions(src, DESK_CHANNEL, UncodedCoeffs(1.0, 0.0)).d2 == 1.0

    def test_analytic_route_agrees_with_the_rational_forms(self):
        # two independent algebraic routes to the same distortions
        for source, channel in random_valid_configs(20, seed=83):
            for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
                coeffs = UncodedCoeffs(alpha, 1.0 - alpha)
                via_gains = analytic_distortions(source, channel, coeffs)
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

    def test_sign_flip_is_an_exact_symmetry(self):
        source, flip = negate_rho_transform(SourceParams(1.0, -0.5))
        assert flip
        config = SimulationConfig(samples=30_000, seed=77, coeffs=MIDPOINT)
        flipped = simulate(source, DESK_CHANNEL, config, sign_flip=True)
        direct = simulate(source, DESK_CHANNEL, config, sign_flip=False)
        assert flipped == direct

    def test_invalid_run_parameters(self):
        with pytest.raises(ParameterError):
            simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(0, 1, MIDPOINT))
        with pytest.raises(ParameterError):
            simulate(DESK_SOURCE, DESK_CHANNEL, SimulationConfig(10, -1, MIDPOINT))

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
            _exact_sum(values)
        return
    assert _exact_sum(values).hex() == want.hex()  # bit-equal, sign of zero included


def assert_specials_reduce_like_fsum(values: list[float]) -> None:
    array = np.array(values)
    try:
        want = math.fsum(values)
    except ValueError:  # -inf + inf
        with pytest.raises(ValueError):
            _exact_sum(array)
        return
    got = _exact_sum(array)
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

    def test_intermediate_overflow_returns_the_exact_sum(self):
        big = np.finfo(np.float64).max
        assert _exact_sum(np.array([big, big, -big])) == big
        with pytest.raises(OverflowError):
            _exact_sum(np.array([big, big]))

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
            analytic = analytic_distortions(source, channel, coeffs)
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
