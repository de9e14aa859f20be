"""End-to-end acceptance checks, one test per advertised guarantee.

Each test exercises its guarantee at the stated tolerance and prints a
single pass line (visible with ``pytest -s`` or on failure). The whole
module runs in well under a minute on commodity hardware.
"""

import io

import pytest

from gaussian_bc import (
    BoundWitness,
    SimulationConfig,
    SourceParams,
    UncodedCoeffs,
    channel_capacity,
    conditional_info_bound,
    conditional_variance,
    d1_min_at_d2min,
    d2_converse_bound,
    d2_lower_via_rx1,
    d2_min_at_rx1,
    d_min,
    negate_rho_transform,
    optimal_witness,
    r_joint_numeric,
    scale_variance_transform,
    simulate,
    snr_threshold,
    solve_alpha_for_d1,
    uncoded_distortions,
)
from gaussian_bc.cli import run as cli_run

from helpers import DESK_CHANNEL, DESK_SOURCE, random_valid_configs

DESK = (DESK_SOURCE, DESK_CHANNEL)


def matched_grid(source, channel, count):
    lo = d_min(source, channel, 1)
    hi = d1_min_at_d2min(source, channel)
    return [lo + (hi - lo) * (i + 1) / (count + 1) for i in range(count)]


def test_criterion_1_corner_point_identities():
    """Sending one component alone hits the region corners, rel err <= 1e-12."""
    for source, channel in random_valid_configs(100, seed=2024):
        s2, rho = source.sigma2, source.rho
        p, n1, n2 = channel.power, channel.n1, channel.n2
        first_only = uncoded_distortions(source, channel, UncodedCoeffs(1.0, 0.0))
        second_only = uncoded_distortions(source, channel, UncodedCoeffs(0.0, 1.0))
        # independent inline evaluation of the corner formulas
        assert first_only.d1 == pytest.approx(s2 * n1 / (n1 + p), rel=1e-12)
        assert first_only.d2 == pytest.approx(
            s2 * (n2 + p * (1 - rho * rho)) / (n2 + p), rel=1e-12
        )
        assert second_only.d1 == pytest.approx(
            s2 * (n1 + p * (1 - rho * rho)) / (n1 + p), rel=1e-12
        )
        assert second_only.d2 == pytest.approx(s2 * n2 / (n2 + p), rel=1e-12)
    print("PASS criterion 1: corner-point identities on 100 random configs (rel <= 1e-12)")


def test_criterion_2_threshold_identity_and_floor():
    """Threshold equals 2*rho/(1-rho) at d1 = sigma2*(1-rho) and never dips below it."""
    for rho10 in range(1, 10):
        rho = rho10 / 10.0
        source = SourceParams(1.0, rho)
        floor = 2.0 * rho / (1.0 - rho)
        at_touch = snr_threshold(source, 1.0 - rho)
        assert abs(at_touch - floor) / floor <= 1e-12
        cv = conditional_variance(source)
        for j in range(200):
            d1 = cv * (j + 1) / 201.0
            assert snr_threshold(source, d1) >= floor - 1e-12
    print("PASS criterion 2: threshold identity and floor for rho in {0.1..0.9}")


def test_criterion_3_boundary_match_below_threshold():
    """Achievability equals the converse on a 50-point grid, |residual| <= 1e-9."""
    source, channel = DESK
    worst = 0.0
    for d1 in matched_grid(source, channel, 50):
        alpha = solve_alpha_for_d1(source, channel, d1)
        d2_ach = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1 - alpha)).d2
        witness = optimal_witness(source, channel, d1)
        assert witness.a1 >= 0.0 and witness.a2 >= 0.0
        d2_conv = d2_converse_bound(source, channel, d1, witness)
        worst = max(worst, abs(d2_ach - d2_conv))
    assert worst <= 1e-9
    # hand-evaluated spot value: both sides equal 0.75 at d1 = 0.625
    alpha = solve_alpha_for_d1(source, channel, 0.625)
    spot_ach = uncoded_distortions(source, channel, UncodedCoeffs(alpha, 1 - alpha)).d2
    spot_conv = d2_converse_bound(source, channel, 0.625, optimal_witness(source, channel, 0.625))
    assert spot_ach == pytest.approx(0.75, abs=1e-9)
    assert spot_conv == pytest.approx(0.75, abs=1e-9)
    print(f"PASS criterion 3: boundary match on 50-point grid (max residual {worst:.3g} <= 1e-9)")


def test_criterion_4_witness_maximality():
    """The closed-form witness maximizes the converse over a 101x101 grid."""
    source, channel = DESK
    for d1 in matched_grid(source, channel, 5):
        best = d2_converse_bound(source, channel, d1, optimal_witness(source, channel, d1))
        for i in range(101):
            for j in range(101):
                witness = BoundWitness(2.0 * i / 100.0, 2.0 * j / 100.0)
                assert best >= d2_converse_bound(source, channel, d1, witness) - 1e-9
    print("PASS criterion 4: witness maximality over 101x101 grids at 5 d1 values")


def test_criterion_5_joint_rate_oracle_consistency():
    """Joint rate at (d1, companion floor) equals the receiver-1 capacity, 1e-4 bits."""
    source, channel = DESK
    capacity = channel_capacity(channel.power, channel.n1)
    worst = 0.0
    for d1 in matched_grid(source, channel, 50):
        floor = d2_min_at_rx1(source, channel, d1)
        worst = max(worst, abs(r_joint_numeric(source, d1, floor) - capacity))
    assert worst <= 1e-4
    assert r_joint_numeric(source, 0.625, 0.625) == pytest.approx(0.5, abs=1e-4)
    print(f"PASS criterion 5: joint-rate oracle consistency (max err {worst:.3g} <= 1e-4 bits)")


def test_criterion_6_monte_carlo_agreement_and_determinism():
    """2e5-sample run within 2% of the closed forms; equal seeds, identical reports."""
    source, channel = DESK
    config = SimulationConfig(samples=200_000, seed=20240613, coeffs=UncodedCoeffs(0.5, 0.5))
    report = simulate(source, channel, config)
    assert report.empirical_d1 == pytest.approx(0.625, rel=0.02)
    assert report.empirical_d2 == pytest.approx(0.75, rel=0.02)
    assert report.empirical_power == pytest.approx(channel.power, rel=0.02)
    rerun = simulate(source, channel, config)
    assert rerun == report and repr(rerun) == repr(report)
    print("PASS criterion 6: Monte-Carlo within 2% of closed forms; byte-identical reruns")


def test_criterion_7_exact_converse_endpoints():
    """Information bound is exactly 0 at the receiver-2 floor; side-info floor is exact."""
    for source, channel in [DESK] + random_valid_configs(10, seed=5):
        assert conditional_info_bound(source, channel, d_min(source, channel, 2)) == 0.0
        cv = conditional_variance(source)
        assert d2_lower_via_rx1(source, channel, cv) == d_min(source, channel, 2)
    print("PASS criterion 7: exact endpoint identities of the two converse bounds")


def test_criterion_8_symmetry_transforms():
    """Negative-rho runs reproduce positive-rho ones; variance scaling is exact."""
    source, sign_flip = negate_rho_transform(SourceParams(1.0, -0.5))
    assert sign_flip and source == SourceParams(1.0, 0.5)
    argv = ["simulate", "--alpha", "0.5", "--samples", "50000", "--seed", "314"]
    flipped, direct = io.StringIO(), io.StringIO()
    assert cli_run([*argv, "--rho", "-0.5"], out=flipped) == 0
    assert cli_run([*argv, "--rho", "0.5"], out=direct) == 0
    assert flipped.getvalue().encode() == direct.getvalue().encode()

    pair = uncoded_distortions(DESK_SOURCE, DESK_CHANNEL, UncodedCoeffs(0.5, 0.5))
    scaled = scale_variance_transform(pair.d1, pair.d2, 1.0, 1.0, 4.0, 9.0)
    assert scaled == (4.0 * pair.d1, 9.0 * pair.d2, 4.0, 9.0)
    print("PASS criterion 8: sign-flip symmetry exact; variance scaling exact")


def test_criterion_9_cli_verify_is_live():
    """verify exits 0 on the default config and 1 under a corrupted tolerance."""
    assert cli_run(["verify", "--grid", "50", "--tol", "1e-9"], out=io.StringIO()) == 0
    assert cli_run(["verify", "--grid", "50", "--tol", "1e-18"], out=io.StringIO()) == 1
    print("PASS criterion 9: CLI verify exit codes 0 (honest) and 1 (corrupted tolerance)")
