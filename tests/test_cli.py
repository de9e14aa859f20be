"""CLI surface: subcommands, CSV contract, exit codes, flag-named errors."""

import ast
import csv
import inspect
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import gaussian_bc
from gaussian_bc import cli, closed_forms
from gaussian_bc import (
    BoundaryPoint,
    BoundWitness,
    ChannelParams,
    SourceParams,
    channel_capacity,
    conditional_info_bound,
    converse_at,
    d1_min_at_d2min,
    d2_lower_via_rx1,
    d2_min_at_rx1,
    d_min,
    negate_rho_transform,
    solve_alpha_for_d1,
    trace_uncoded_boundary,
)
from gaussian_bc.cli import run

import test_region_digests
from helpers import DESK_CHANNEL, DESK_SOURCE, exact_converse, exact_distortions, random_valid_configs

CSV_HEADER = "alpha,d1,d2_uncoded,d2_converse,a1_star,a2_star,optimal_flag"


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


VERIFY_KEYS = [
    "matched_points",
    "excluded_points",
    "max_residual",
    "matching",
    "oracle_points",
    "oracle_max_error_bits",
    "oracle_consistent",
    "verify",
]
# a benchmark-stream problem (region_verify, seed 1213, op 3790) whose
# negative rho repr is in exponent notation; its grid has no covered point
STREAM_PROBLEM = [
    "--sigma2", "0.13077485699396615",
    "--power", "0.013852555900819163",
    "--n1", "0.04143990870574366",
    "--n2", "0.13515236209401832",
]


def assert_accurate_distortions(csv_text, channel, source=DESK_SOURCE):
    """Each trace row's d1 and d2_uncoded within 1e-15 relative of 50-digit arithmetic."""
    for row in list(csv.reader(io.StringIO(csv_text)))[1:]:
        alpha = float(row[0])
        x1, x2, _ = exact_distortions(source, channel, alpha, 1.0 - alpha)
        assert abs(float(row[1]) - x1) <= 1e-15 * x1
        assert abs(float(row[2]) - x2) <= 1e-15 * x2


def parse_kv(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestReport:
    def test_default_config(self):
        code, text = run_cli(["report"])
        assert code == 0
        assert "D1_min=0.5" in text
        assert "D2_star_at_D1_min=0.916667" in text
        assert "uncoded_optimal_everywhere=true" in text

    @pytest.mark.parametrize(
        "flags, floors",
        [
            (["--sigma2", "1e-100", "--power", "1e-250", "--n1", "1e-250", "--n2", "2e-250"],
             ["5e-101", "6.66667e-101", "8.75e-101", "9.16667e-101"]),
            (["--sigma2", "1e150", "--n1", "1e200", "--n2", "2e200"], ["1e+150"] * 4),
        ],
    )
    def test_floors_are_taken_in_the_unit_of_sigma2(self, flags, floors):
        # sigma2*n underflowed to 0 in the first (D1_min=0, D2_min=0 and
        # D1_star_at_D2_min=0 while trace printed 5e-101 at alpha = 1),
        # and overflowed in the second
        code, text = run_cli(["report", *flags])
        assert code == 0
        pairs = parse_kv(text)
        assert [pairs[key] for key in _FLOOR_KEYS] == floors

    def test_floors_and_corners_at_the_top_of_the_float_range(self):
        # power + n overflowed: this printed D1_min=0, D2_min=0,
        # D1_star_at_D2_min=0 and D2_star_at_D1_min=nan, and exited 0
        source, channel = DESK_SOURCE, ChannelParams(1e308, 1e308, 1.7e308)
        values = [d_min(source, channel, 1), d_min(source, channel, 2),
                  d1_min_at_d2min(source, channel), closed_forms.d2_min_at_d1min(source, channel)]
        with mpmath.workdps(50):
            p, n1, n2 = (mpmath.mpf(x) for x in channel)
            om = 1 - mpmath.mpf(0.5) ** 2
            exact = [n1 / (p + n1), n2 / (p + n2), (n1 + p * om) / (p + n1), (n2 + p * om) / (p + n2)]
        for value, x in zip(values, exact):
            assert abs(value - x) <= 1e-15 * x
        code, text = run_cli(["report", "--power", "1e308", "--n1", "1e308", "--n2", "1.7e308"])
        assert code == 0
        assert [parse_kv(text)[key] for key in _FLOOR_KEYS] == [f"{float(x):.6g}" for x in exact]

    def test_a_capacity_past_the_float_range_is_finite(self):
        # power/n1 overflowed, and this printed capacity_rx1=inf
        assert parse_kv(run_cli(["report", "--power", "1e300", "--n1", "1e-10"])[1])["capacity_rx1"] == "514.899"

    @pytest.mark.parametrize("argv, snr", [
        (["--power", "1e300", "--n1", "1e-10"], "1e+310"),  # power/n1 overflowed: snr_rx1=inf
        (["--power", "1e-300", "--n1", "1e20", "--n2", "1e21"], "1e-320"),  # subnormal: 9.99989e-321
    ])
    def test_an_snr_outside_the_normal_range_prints_its_exact_quotient(self, argv, snr):
        assert parse_kv(run_cli(["report", *argv])[1])["snr_rx1"] == snr

    @pytest.mark.parametrize("snr", [1e-12, 1e-15, 1e-17])
    def test_a_small_snr_keeps_the_digits_of_its_capacity(self, snr):
        # log2(1 + snr) lost them: 8.00857e-16 for 7.21348e-16 at 1e-15, 0 at 1e-17
        with mpmath.workdps(50):
            exact = mpmath.log(1 + mpmath.mpf(snr), 2) / 2
            assert abs(channel_capacity(snr, 1.0) - exact) <= 1e-15 * exact
        text = run_cli(["report", "--power", repr(snr)])[1]
        assert parse_kv(text)["capacity_rx1"] == f"{float(exact):.6g}"

    def test_explicit_flags_match_default(self):
        _, default_text = run_cli(["report"])
        _, explicit_text = run_cli(
            ["report", "--sigma2", "1", "--rho", "0.5", "--power", "1", "--n1", "1", "--n2", "2"]
        )
        assert explicit_text == default_text

    def test_optimal_everywhere_flips_at_high_snr(self):
        code, text = run_cli(["report", "--power", "10"])
        assert code == 0
        assert "uncoded_optimal_everywhere=false" in text


class TestTrace:
    def test_two_point_corners(self):
        code, text = run_cli(["trace", "--points", "2"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        rows = list(csv.reader(lines[1:]))
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(0.875, rel=1e-12)
        assert float(rows[0][2]) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(0.5, rel=1e-12)
        assert float(rows[1][2]) == pytest.approx(11.0 / 12.0, rel=1e-12)
        # the alpha=0 corner has no converse: empty fields, flag still true
        assert rows[0][3] == "" and rows[0][4] == "" and rows[0][5] == ""
        assert rows[0][6] == "true" and rows[1][6] == "true"

    def test_floats_round_trip_exactly(self):
        code, text = run_cli(["trace", "--points", "7"])
        assert code == 0
        rows = list(csv.reader(text.strip().split("\n")[1:]))
        points = trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 7)
        for row, point in zip(rows, points):
            assert float(row[0]) == point.alpha
            assert float(row[1]) == point.d1
            assert float(row[2]) == point.d2_achievable
            if point.d2_converse is None:
                assert row[3] == ""
            else:
                assert float(row[3]) == point.d2_converse
                assert float(row[4]) == point.witness.a1
                assert float(row[5]) == point.witness.a2

    def test_a_boundary_point_is_its_csv_row(self):
        # the record's fields are the trace columns in order, and each cell
        # of the CLI's CSV prints its field: 17 digits, or empty for an
        # absent converse value, including the covered alpha = 0 row
        columns = CSV_HEADER.split(",")
        assert list(zip(columns, BoundaryPoint._fields, strict=True)) == [
            ("alpha", "alpha"),
            ("d1", "d1"),
            ("d2_uncoded", "d2_achievable"),
            ("d2_converse", "d2_converse"),
            ("a1_star", "a1_star"),
            ("a2_star", "a2_star"),
            ("optimal_flag", "optimal_flag"),
        ]
        configs = random_valid_configs(40, seed=2609) + [(SourceParams(1.5, -0.6), ChannelParams(6.0, 1.0, 2.5))]
        kinds = set()
        for source, channel in configs:
            flags = [f"--{name}={value!r}" for name, value in zip(("sigma2", "rho"), source)]
            flags += [f"--{name}={value!r}" for name, value in zip(("power", "n1", "n2"), channel)]
            code, text = run_cli(["trace", "--points", "101", *flags])
            assert code == 0
            lines = text.split("\n")
            assert lines[0] == CSV_HEADER and lines[-1] == ""
            points = trace_uncoded_boundary(negate_rho_transform(source)[0], channel, 101)
            assert points[0].alpha == 0.0 and points[0].optimal_flag and points[0].d2_converse is None
            for line, point in zip(lines[1:-1], points, strict=True):
                cells = line.split(",")
                assert len(cells) == len(columns)
                for cell, value in zip(cells[:6], point[:6]):
                    assert cell == ("" if value is None else format(value, ".17g"))
                absent = point.d2_converse is None
                assert [cell == "" for cell in cells[3:6]] == [absent] * 3
                assert cells[6] == ("true" if point.optimal_flag else "false")
                if absent:
                    assert point.a1_star is None and point.a2_star is None and point.witness is None
                else:
                    assert point.witness == BoundWitness(point.a1_star, point.a2_star)
                kinds.add((absent, point.optimal_flag))
        # rows with a converse, the alpha = 0 rows and uncovered rows all occur
        assert kinds == {(False, True), (True, True), (True, False)}

    def test_output_file(self, tmp_path):
        path = tmp_path / "boundary.csv"
        code, text = run_cli(["trace", "--points", "3", "--output", str(path)])
        assert code == 0
        assert text == ""
        content = path.read_text(encoding="utf-8")
        assert content.startswith(CSV_HEADER + "\n")
        assert len(content.strip().split("\n")) == 4

    def test_single_point_is_an_argument_error(self):
        code, _ = run_cli(["trace", "--points", "1"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--power", "--n2"])
    def test_a_large_scale_traces_accurate_distortions(self, flag):
        # (power + n2)**2 overflowed in the forms, and trace exited 2 naming the flag
        code, text = run_cli(["trace", "--points", "11", flag, "1e200"])
        assert code == 0
        assert_accurate_distortions(text, ChannelParams(**{"power": 1.0, "n1": 1.0, "n2": 2.0, flag[2:]: 1e200}))

    def test_underflowing_d1_floor_names_sigma2(self, capsys):
        # d1 at alpha = 1, sigma2*n1/(n1 + power) = 1e-350, is 0 in floats;
        # the SNR threshold at that row named --d1, which trace does not have
        code, text = run_cli(["trace", "--sigma2", "1e-150", "--power", "1", "--n1", "1e-200", "--n2", "2e-200"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: --sigma2 too small: d1 at alpha = 1")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--sigma2", "1e10", "--power", "1e100", "--n1", "1e-224", "--n2", "2e-224"], "--power"),
        ],
    )
    def test_unrepresentable_trace_names_its_flag(self, flags, named, capsys):
        # the converse undefined at a P/n1 past the float range used to
        # name no flag
        code, text = run_cli(["trace", *flags])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} too large")
        assert "--d1" not in err

    @pytest.mark.parametrize(
        "flags, channel",
        [
            (["--power", "1e10"], ChannelParams(1e10, 1.0, 2.0)),
            (["--n2", "1e5"], ChannelParams(1.0, 1.0, 1e5)),
        ],
    )
    def test_a_large_sigma2_traces_accurately(self, flags, channel):
        # at --sigma2 1e300 these named --d1, printed d2_uncoded = inf, and
        # then exited 2 naming --sigma2; the converse runs in the unit of
        # sigma2, so the rows are those of sigma2 = 1, accurate at 1e300
        source = SourceParams(1e300, 0.5)
        code, text = run_cli(["trace", "--sigma2", "1e300", *flags])
        assert code == 0
        assert_accurate_distortions(text, channel, source)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        unit = [line.split(",") for line in run_cli(["trace", *flags])[1].splitlines()[1:]]
        assert [(row[0], row[3] == "", row[6]) for row in rows] == [(row[0], row[3] == "", row[6]) for row in unit]
        for row in rows:
            if row[3]:
                d2 = exact_converse(source, channel, float(row[0]))[1]
                assert abs(float(row[3]) - d2) <= 1e-15 * d2


    @pytest.mark.parametrize(
        "flags, channel",
        [
            (["--power", "1e20"], ChannelParams(1e20, 1.0, 2.0)),
            (["--power", "1e100"], ChannelParams(1e100, 1.0, 2.0)),
            (["--n1", "1e-300", "--n2", "2e-300"], ChannelParams(1.0, 1e-300, 2e-300)),
        ],
    )
    def test_high_snr_traces_an_accurate_converse(self, flags, channel):
        # the root chain's combiner bound rounded to <= 0 here, and trace
        # exited 2 naming --power
        code, text = run_cli(["trace", *flags])
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        covered = [row for row in rows if row[3]]
        assert covered
        for row in covered:
            d2 = exact_converse(DESK_SOURCE, channel, float(row[0]))[1]
            assert abs(float(row[3]) - d2) <= 1e-15 * d2


class TestBound:
    def test_desk_hand_point(self):
        code, text = run_cli(["bound", "--d1", "0.625"])
        assert code == 0
        pairs = parse_kv(text)
        assert float(pairs["d2_converse"]) == pytest.approx(0.75, rel=1e-9)
        assert float(pairs["a1_star"]) == pytest.approx(0.8, rel=1e-9)
        assert float(pairs["a2_star"]) == pytest.approx(0.2, rel=1e-9)
        assert float(pairs["combiner_mse_bound"]) == pytest.approx(0.6, rel=1e-9)
        assert float(pairs["d2_min_rx1"]) == pytest.approx(0.625, rel=1e-9)

    def test_out_of_range_names_the_flag(self, capsys):
        code, _ = run_cli(["bound", "--d1", "0.9"])
        assert code == 2
        assert "--d1" in capsys.readouterr().err

    def test_d1_below_the_receiver1_floor_names_d1(self, capsys):
        # the alpha solve used to reject it, naming --d1-target, which bound lacks
        code, text = run_cli(["bound", "--d1", "0.1"])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --d1 must be >= 0.5")
        assert "--d1-target" not in err

    def test_d1_within_the_solver_slack_of_the_floor_still_bounds(self):
        assert run_cli(["bound", "--d1", "0.4999999999999"])[0] == 0

    @pytest.mark.parametrize("flags", [["--power", "3"], ["--rho", "-1e-05"]])
    def test_d1_beyond_the_snr_threshold_names_d1(self, flags, capsys):
        code, text = run_cli(["bound", "--d1", "0.6", *flags])
        assert code == 2
        assert text == ""
        # the last stderr line: a negative rho prints its note first
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: --d1 lies where power/n1 exceeds the SNR threshold")

    @pytest.mark.parametrize("argv", [argv for argv in test_region_digests.runs() if argv[0] == "bound"])
    def test_digest_problems_print_the_converse_kernel(self, argv):
        # bound prints d2_min_at_rx1 and converse_at's (eta, psi, witness)
        # bit for bit; against 50-digit arithmetic at the solved alpha each
        # is within 1e-15 relative, a2 of its scale
        values = {flag: float(value) for flag, value in zip(argv[1::2], argv[2::2])}
        source, _ = negate_rho_transform(SourceParams(values["--sigma2"], values["--rho"]))
        channel = ChannelParams(values["--power"], values["--n1"], values["--n2"])
        d1 = values["--d1"]
        eta, psi, witness = converse_at(source, channel, d1)
        code, text = run_cli(argv)
        assert code == 0
        assert parse_kv(text) == {
            key: f"{value:.17g}"
            for key, value in [
                ("d1", d1),
                ("d2_min_rx1", d2_min_at_rx1(source, channel, d1)),
                ("combiner_mse_bound", eta),
                ("a1_star", witness.a1),
                ("a2_star", witness.a2),
                ("d2_converse", psi),
            ]
        }
        x_eta, x_psi, x_a1, x_a2, a2_scale = exact_converse(source, channel, solve_alpha_for_d1(source, channel, d1))
        assert abs(eta - x_eta) <= 1e-15 * x_eta
        assert abs(psi - x_psi) <= 1e-15 * x_psi
        assert abs(witness.a1 - x_a1) <= 1e-15 * x_a1
        assert abs(witness.a2 - x_a2) <= 1e-15 * a2_scale

    @pytest.mark.parametrize("sigma2, d1", [("1e-300", "6.25e-301"), ("1e300", "6.25e299")])
    def test_sigma2_outside_the_trace_range_answers_accurately(self, sigma2, d1):
        # coverage is the sign of a margin free of sigma2, so bound needs no
        # SNR threshold: at 1e-300 it underflowed, and at 1e300 it was nan,
        # which refused a covered d1 naming --d1
        source, channel = SourceParams(float(sigma2), 0.5), DESK_CHANNEL
        code, text = run_cli(["bound", "--sigma2", sigma2, "--d1", d1])
        assert code == 0
        values = {key: float(value) for key, value in parse_kv(text).items()}
        x_eta, x_psi, x_a1, x_a2, a2_scale = exact_converse(source, channel, solve_alpha_for_d1(source, channel, float(d1)))
        assert abs(values["combiner_mse_bound"] - x_eta) <= 1e-15 * x_eta
        assert abs(values["d2_converse"] - x_psi) <= 1e-15 * x_psi
        assert abs(values["a1_star"] - x_a1) <= 1e-15 * x_a1
        assert abs(values["a2_star"] - x_a2) <= 1e-15 * a2_scale
        assert values["d2_min_rx1"] == pytest.approx(0.625 * float(sigma2), rel=1e-15)

    def test_a_large_sigma2_over_small_noise_bounds_accurately(self):
        # sigma2/(power + n2) overflows: this printed d2_converse=inf, and
        # then exited 2 naming --sigma2; in the unit of sigma2 it answers
        source, channel = SourceParams(1e300, 0.5), ChannelParams(1e-12, 1e-11, 2e-11)
        argv = ["bound", "--sigma2", "1e300", "--power", "1e-12", "--n1", "1e-11", "--n2", "2e-11"]
        code, text = run_cli([*argv, "--d1", "9.5e299"])
        assert code == 0
        values = {key: float(value) for key, value in parse_kv(text).items()}
        x_eta, x_psi, x_a1, x_a2, a2_scale = exact_converse(source, channel, solve_alpha_for_d1(source, channel, 9.5e299))
        assert abs(values["combiner_mse_bound"] - x_eta) <= 1e-15 * x_eta
        assert abs(values["d2_converse"] - x_psi) <= 1e-15 * x_psi
        assert abs(values["a1_star"] - x_a1) <= 1e-15 * x_a1
        assert abs(values["a2_star"] - x_a2) <= 1e-15 * a2_scale

    def test_simulate_keeps_naming_its_own_target_flag(self, capsys):
        code, _ = run_cli(["simulate", "--d1-target", "0.1", "--samples", "10"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --d1-target must lie in [0.5, 0.875]")


class TestSimulate:
    def test_key_value_output_and_determinism(self):
        argv = ["simulate", "--alpha", "0.5", "--samples", "20000", "--seed", "3"]
        code_a, text_a = run_cli(argv)
        code_b, text_b = run_cli(argv)
        assert code_a == code_b == 0
        assert text_a == text_b
        pairs = parse_kv(text_a)
        assert float(pairs["empirical_d1"]) == pytest.approx(0.625, rel=0.1)
        assert float(pairs["empirical_d2"]) == pytest.approx(0.75, rel=0.1)
        assert float(pairs["empirical_power"]) == pytest.approx(1.0, rel=0.1)
        assert pairs["samples"] == "20000" and pairs["seed"] == "3"

    def test_d1_target_solves_alpha(self):
        code, text = run_cli(
            ["simulate", "--d1-target", "0.625", "--samples", "1000", "--seed", "1"]
        )
        assert code == 0
        assert float(parse_kv(text)["alpha"]) == pytest.approx(0.5, abs=1e-9)

    def test_negative_rho_reproduces_the_positive_run(self, capsys):
        argv = ["simulate", "--alpha", "0.4", "--samples", "5000", "--seed", "9"]
        code_pos, text_pos = run_cli(argv + ["--rho", "0.5"])
        code_neg, text_neg = run_cli(argv + ["--rho", "-0.5"])
        assert code_pos == code_neg == 0
        assert text_pos == text_neg
        assert "rho" in capsys.readouterr().err  # informational notice

    def test_csv_row_output(self, tmp_path):
        path = tmp_path / "run.csv"
        code, text = run_cli(
            ["simulate", "--alpha", "0.5", "--samples", "1000", "--seed", "2", "--output", str(path)]
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        values = next(csv.reader([lines[1]]))
        row = dict(zip(header, values))
        assert row["empirical_d1"] == parse_kv(text)["empirical_d1"]

    def test_alpha_out_of_range(self, capsys):
        code, _ = run_cli(["simulate", "--alpha", "1.5", "--samples", "10"])
        assert code == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "channel, alpha",
        [
            (ChannelParams(1e-310, 1e-310, 2e-310), 1.0),
            (ChannelParams(1e308, 1.0, 1.7e308), 0.5),
            (ChannelParams(1e305, 1e305, 2e305), 0.5),
        ],
    )
    def test_a_channel_at_the_ends_of_the_float_range_simulates(self, channel, alpha):
        # simulate printed analytic_d1=-inf for the first, and analytic_d2=nan
        # after an overflow warning for the second; then the first two were
        # refused with the trace's channel-scale error, and the third, whose
        # power sums overflow, printed a traceback and exited 1. The MMSE
        # gains and the analytic pair now take the channel in its unit, and
        # the power sums are taken in a power-of-two unit of P
        flags = ["--power", repr(channel.power), "--n1", repr(channel.n1), "--n2", repr(channel.n2)]
        code, text = run_cli(["simulate", "--samples", "2000", "--alpha", repr(alpha), *flags])
        assert code == 0
        pairs = {key: float(value) for key, value in parse_kv(text).items()}
        x1, x2, _ = exact_distortions(DESK_SOURCE, channel, alpha, 1.0 - alpha)
        assert abs(pairs["analytic_d1"] - x1) <= 1e-15 * x1
        assert abs(pairs["analytic_d2"] - x2) <= 1e-15 * x2
        for i in (1, 2):
            empirical, analytic = pairs[f"empirical_d{i}"], pairs[f"analytic_d{i}"]
            assert abs(empirical - analytic) <= 4.0 * pairs[f"ci_half_width_d{i}"]
        assert pairs["empirical_power"] == pytest.approx(channel.power, rel=0.1)

    def test_sigma2_and_power_at_the_top_of_the_float_range_simulate(self):
        # gamma*sigma2 overflowed in the decode gains, and the run printed
        # empirical_d1=inf and ci_half_width_d1=nan, then exited 0
        flags = ["--sigma2", "1.7e308", "--power", "1.7e308", "--rho", "0", "--alpha", "0.5", "--samples", "100"]
        code, text = run_cli(["simulate", *flags])
        assert code == 0
        values = {key: float(value) for key, value in parse_kv(text).items()}
        assert len(values) == 11 and all(math.isfinite(value) for value in values.values())

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--sigma2", "1.7e308", "--power", "5e-324", "--n1", "5e-324", "--n2", "1e-323"], "--power"),
            (["--sigma2", "5e-324", "--power", "1.7e308", "--n1", "1", "--n2", "2"], "--sigma2"),
        ],
    )
    def test_a_gain_past_the_float_range_names_its_flag(self, flags, named, capsys):
        # a decode gain (the first) or the encoder gain (the second) past
        # the float range printed an OverflowError traceback and exited 1
        code, text = run_cli(["simulate", "--samples", "100", *flags])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} too small relative to ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigma2", [1.0, 1e300])
    def test_the_analytic_pair_is_accurate_at_high_snr(self, sigma2):
        # sigma2 - c1**2*(P + n1) cancelled: at sigma2 = 1 it printed
        # analytic_d1=0 where empirical_d1 is 9.5e-18, and at 1e300 a
        # negative analytic_d1=-1.487e+284
        flags = ["--sigma2", repr(sigma2), "--power", "1e17", "--alpha", "1", "--samples", "1000"]
        code, text = run_cli(["simulate", *flags])
        assert code == 0
        values = parse_kv(text)
        x1, x2, _ = exact_distortions(SourceParams(sigma2, 0.5), ChannelParams(1e17, 1.0, 2.0), 1.0, 0.0)
        assert abs(float(values["analytic_d1"]) - x1) <= 1e-15 * x1
        assert abs(float(values["analytic_d2"]) - x2) <= 1e-15 * x2
        assert float(values["empirical_d1"]) == pytest.approx(x1, rel=0.1)


class TestVerify:
    def test_default_config_passes(self):
        code, text = run_cli(["verify", "--grid", "25", "--tol", "1e-9"])
        assert code == 0
        assert "verify=PASS" in text

    def test_default_run_checks_the_oracle_on_the_whole_grid(self):
        code, text = run_cli(["verify"])
        pairs = parse_kv(text)
        assert code == 0
        assert (pairs["oracle_points"], pairs["verify"]) == ("50", "PASS")
        assert float(pairs["oracle_max_error_bits"]) <= 1e-12

    def test_oracle_points_are_the_matched_points(self):
        for source, channel in random_valid_configs(10, seed=1604):
            flags = [
                "--sigma2", repr(source.sigma2), "--rho", repr(source.rho),
                "--power", repr(channel.power), "--n1", repr(channel.n1), "--n2", repr(channel.n2),
            ]
            code, text = run_cli(["verify", *flags])
            pairs = parse_kv(text)
            assert pairs["oracle_points"] == pairs["matched_points"]
            assert float(pairs["oracle_max_error_bits"]) <= 1e-4
            assert code == (0 if pairs["verify"] == "PASS" else 1)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rho", "0"],
            ["--power", "1e10"],
            ["--rho", "0.05", "--power", "10"],
            ["--power", "1e160"],
            [*STREAM_PROBLEM, "--rho", "-4.206804610475956e-05"],
            [*STREAM_PROBLEM, "--rho", "4.206804610475956e-05"],
        ],
    )
    def test_a_grid_without_covered_points_fails(self, flags):
        # this printed matching=true and verify=PASS; a grid with no covered
        # point matches nothing, so it fails, with exit 1, not 2: the problem is valid
        code, text = run_cli(["verify", *flags])
        pairs = parse_kv(text)
        assert list(pairs) == VERIFY_KEYS
        assert pairs["matched_points"] == pairs["oracle_points"] == "0"
        assert int(pairs["excluded_points"]) == 50
        assert (pairs["matching"], pairs["verify"]) == ("false", "FAIL")
        assert code == 1

    def test_corrupted_tolerance_fails(self):
        code, text = run_cli(["verify", "--grid", "25", "--tol", "1e-18"])
        assert code == 1
        assert "verify=FAIL" in text

    @pytest.mark.parametrize("flags", [["--n2", "1e160"], ["--power", "1e-170", "--n1", "1e-170", "--n2", "2e-170"]])
    def test_an_extreme_channel_scale_verifies(self, flags):
        # (power + n2)**2 overflowed, or (power + n1)**2 underflowed, in
        # the forms, and verify exited 2 naming --n2 or --power
        code, text = run_cli(["verify", *flags])
        assert code == 0
        pairs = parse_kv(text)
        assert pairs["matched_points"] == "50"
        assert float(pairs["max_residual"]) <= 1e-15
        assert float(pairs["oracle_max_error_bits"]) <= 1e-12
        assert pairs["verify"] == "PASS"

    def test_tolerance_is_relative_to_sigma2(self):
        # a relative residual of 3.7e-16 at sigma2 = 1e7 failed the absolute
        # --tol 1e-9; the printed residual stays absolute. It was
        # 1.862645149230957e-09 before the converse took the unit of sigma2:
        # there the converse d2 was 2.2e-16 relative off 50-digit mpmath and
        # the achievable d2 exact; at the worst point now, the converse is
        # 1.2e-16 below and the achievable 2.4e-16 above (the largest
        # converse error over the grid is 2.75e-16 both times)
        code, text = run_cli(["verify", "--sigma2", "1e7"])
        assert code == 0
        pairs = parse_kv(text)
        assert pairs["max_residual"] == "2.7939677238464355e-09"
        assert (pairs["matching"], pairs["verify"]) == ("true", "PASS")
        assert run_cli(["verify", "--sigma2", "1e7", "--tol", "1e-17"])[0] == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_vacuous_tolerance_is_an_argument_error(self, tol, capsys):
        code, text = run_cli(["verify", "--grid", "5", "--tol", tol])
        assert code == 2
        assert text == ""
        assert "--tol" in capsys.readouterr().err


    @pytest.mark.parametrize("rho", ["0.999999999999", "0.99999999"])
    def test_rho_near_1_passes(self, rho):
        # the root chain cancelled here: max_residual was 1.85e-5 at 1 - 1e-12
        code, text = run_cli(["verify", "--rho", rho])
        assert code == 0
        assert parse_kv(text)["verify"] == "PASS"

    @pytest.mark.parametrize("flags", [["--power", "1e-200"], ["--rho", "0.9999999999999999"]])
    def test_collapsed_d1_range_names_power(self, flags, capsys):
        # verify has no --d1 flag, so the error must not name one
        code, text = run_cli(["verify", *flags])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --power ")
        assert "--d1" not in err


class TestNegativeValuesInExponentNotation:
    # argparse takes "-1e-05" for an option unless it is joined to its flag
    FLAGS = ["--power", "1e-05"]  # P/n1 below the simple threshold at rho = 1e-05
    SOURCE, CHANNEL = SourceParams(1.0, 1e-05), ChannelParams(1e-05, 1.0, 2.0)
    BOUND_D1 = 0.5 * (d_min(SOURCE, CHANNEL, 1) + d1_min_at_d2min(SOURCE, CHANNEL))

    @pytest.mark.parametrize(
        "argv",
        [
            ["report"],
            ["trace", "--points", "5"],
            ["bound", "--d1", repr(BOUND_D1)],
            ["simulate", "--samples", "1000", "--seed", "2"],
            ["verify", "--grid", "10"],
        ],
    )
    def test_equals_the_positive_run(self, argv):
        negative = run_cli([*argv, *self.FLAGS, "--rho", "-1e-05"])
        assert negative == run_cli([*argv, *self.FLAGS, "--rho", "1e-05"])
        assert negative[0] == 0

    def test_the_stream_problem_gives_the_verdict_of_its_positive_rho(self):
        # its grid has no covered point, so the verdict is FAIL (exit 1), not an argument error
        negative = run_cli(["verify", *STREAM_PROBLEM, "--rho", "-4.206804610475956e-05"])
        assert negative == run_cli(["verify", *STREAM_PROBLEM, "--rho", "4.206804610475956e-05"])
        assert negative[0] == 1
        assert "verify=FAIL" in negative[1]

    @pytest.mark.parametrize("command", [["report"], ["verify"], ["bound", "--d1", "0.6"]])
    def test_negative_infinity_is_still_rejected_by_name(self, command, capsys):
        code, text = run_cli([*command, "--rho", "-inf"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: --rho ")


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["trace", "--points", "5"],
        ["bound", "--d1", "0.5"],
        ["simulate", "--samples", "1000", "--seed", "2"],
        ["verify", "--grid", "10"],
    ],
)
def test_negative_zero_rho_prints_the_bytes_of_rho_0(argv, capsys):
    # the sign of -0.0 used to reach a2_star (printed as -0) and report's rho
    negative = run_cli([*argv, "--rho", "-0.0"])
    assert capsys.readouterr().err == ""
    assert negative == run_cli([*argv, "--rho", "0"])
    assert "-0," not in negative[1] and "=-0\n" not in negative[1]


class TestTinyNoises:
    @pytest.mark.parametrize("scale", ["1e-190", "1e-160"])
    @pytest.mark.parametrize("command", [["trace"], ["verify"], ["bound", "--d1", "0.625"]])
    def test_a_tiny_scale_answers_accurately(self, command, scale):
        # (power + n1)**2 underflowed: the forms divided by zero at 1e-190,
        # printed d1 = 0.62516469038208167 for 0.625 at 1e-160, and then
        # the command exited 2 naming --power
        code, text = run_cli([*command, "--n1", scale, "--n2", f"2{scale[1:]}", "--power", scale])
        assert code == 0
        if command == ["trace"]:
            assert float(text.splitlines()[51].split(",")[1]) == pytest.approx(0.625, rel=1e-15)
        elif command == ["verify"]:
            assert parse_kv(text)["verify"] == "PASS"
        else:
            assert float(parse_kv(text)["d2_min_rx1"]) == pytest.approx(0.625, rel=1e-15)

    def test_a_smaller_power_than_n1_traces_accurately(self):
        # (power + n1)**2 underflowed, and trace exited 2 naming --n1
        code, text = run_cli(["trace", "--points", "11", "--n1", "1e-160", "--n2", "2e-160", "--power", "1e-170"])
        assert code == 0
        assert_accurate_distortions(text, ChannelParams(1e-170, 1e-160, 2e-160))

    @pytest.mark.parametrize(
        "channel, covered",
        [
            (ChannelParams(1e-310, 1e-310, 2e-310), True),
            (ChannelParams(1e-315, 1e-310, 2e-310), True),
            (ChannelParams(1e308, 1.0, 1e308), False),
            (ChannelParams(1e308, 1.0, 1.5e308), False),
        ],
    )
    @pytest.mark.parametrize("command", [["trace"], ["verify"], ["bound", "--d1", "0.625"]])
    def test_a_channel_sum_outside_the_normal_range_answers(self, command, channel, covered, capsys):
        # power + n1 below the smallest normal float, or power + n2 past
        # the float range, exited 2 naming --power, --n1 or --n2. In the
        # channel's unit the trace is accurate, verify gives its verdict
        # (a FAIL where P/n1 = 1e308 leaves no grid point covered), and
        # bound answers or refuses by its own --d1
        flags = ["--power", repr(channel.power), "--n1", repr(channel.n1), "--n2", repr(channel.n2)]
        code, text = run_cli([*command, *flags])
        err = capsys.readouterr().err
        if command == ["trace"]:
            assert code == 0
            assert_accurate_distortions(text, channel)
        elif command == ["verify"]:
            pairs = parse_kv(text)
            assert list(pairs) == VERIFY_KEYS
            assert (code, pairs["verify"]) == ((0, "PASS") if covered else (1, "FAIL"))
        elif code == 0:  # P/n1 = 1: d1 = 0.625 is alpha = 1/2, where D2u(n1) is 0.625 too
            assert channel.power == channel.n1
            assert parse_kv(text)["d2_min_rx1"] == "0.625"
        else:
            assert (code, text) == (2, "")
            assert err.startswith("error: --d1 ")

    @pytest.mark.parametrize("command", [["trace"], ["verify"], ["bound", "--d1", "0.625"]])
    def test_normal_scale_still_runs(self, command):
        code, text = run_cli([*command, "--n1", "1e-150", "--n2", "2e-150", "--power", "1e-150"])
        assert code == 0
        if command == ["trace"]:
            assert float(text.splitlines()[51].split(",")[1]) == pytest.approx(0.625, rel=1e-15)


@pytest.mark.parametrize(
    "problem",
    [
        (1.0, 0.5, 1.0, 1.0, 2.0),
        (1.0, 0.1, 100.0, 1.0, 2.0),
        (1.0, 0.5, 3.0, 1.0, 2.0),
        (2.0, 0.3, 1.5, 0.5, 1.0),
        (0.5, 0.95, 4.0, 0.2, 3.0),
        (1e-3, 0.999, 1e3, 0.5, 20.0),
    ],
)
def test_every_output_is_free_of_the_channel_scale(problem):
    # a power-of-two scale of (power, n1, n2) leaves every ratio the
    # outputs depend on as it is. The squared-range guards refused 72 of
    # these trace and verify runs, and bound's bytes moved from k = 600
    # up; then the sums power + n refused the top and bottom scales, and
    # subnormal products moved trace bytes at the least k. The kernels
    # take the channel in one power-of-two unit, so every k from the
    # least that keeps the scaled inputs normal floats to the greatest
    # that keeps them finite gives the bytes of k = 0
    sigma2, rho, power, n1, n2 = problem
    d1 = test_region_digests._covered_d1(problem)
    base = _channel_free_outputs(problem, d1, 0)
    assert [code for code, _ in base[:5]][::2] == [0, 0, 0]  # trace, bound at a covered d1, and simulate
    k_lo = -1021 - math.frexp(min(power, n1))[1]
    k_hi = 1024 - math.frexp(max(power, n2))[1]
    for k in sorted({*range(k_lo, k_hi, 50), k_lo, k_hi}):
        assert _channel_free_outputs(problem, d1, k) == base, k


def _channel_free_outputs(problem, d1, k):
    """trace, verify, bound, report (less its echo of the channel), simulate's analytic pair, and
    conditional_info_bound and d2_lower_via_rx1 at three arguments each, at the channel times 2**k."""
    sigma2, rho, power, n1, n2 = problem
    channel = ChannelParams(*(math.ldexp(x, k) for x in (power, n1, n2)))
    flags = test_region_digests._flags((sigma2, rho, *channel))
    outputs = [run_cli([*command, *flags]) for command in (["trace"], ["verify"], ["bound", "--d1", repr(d1)])]
    code, text = run_cli(["report", *flags])
    outputs.append((code, [line for line in text.splitlines() if line.split("=")[0] not in {"power", "n1", "n2"}]))
    code, text = run_cli(["simulate", "--samples", "1", *flags])
    outputs.append((code, [line for line in text.splitlines() if line.startswith("analytic_")]))
    source = SourceParams(sigma2, rho)
    cv = sigma2 * (1.0 - rho) * (1.0 + rho)
    floor = d_min(source, channel, 2)
    outputs += [conditional_info_bound(source, channel, d2) for d2 in (floor, 0.5 * (floor + sigma2), 3.0 * sigma2)]
    return outputs + [d2_lower_via_rx1(source, channel, x * cv) for x in (1.0, 0.5, 1e-3)]


_UNITLESS_KEYS = {"a1_star", "a2_star", "matched_points", "excluded_points", "matching", "oracle_points",
                  "oracle_max_error_bits", "oracle_consistent", "verify"}
_FLOOR_KEYS = ("D1_min", "D2_min", "D1_star_at_D2_min", "D2_star_at_D1_min")
_CAP_D2 = (0.7, 0.85, 1.0)  # receiver-2 distortions, in units of sigma2, above each problem's d_min(2)


def _fields(problem, d1, scale):
    """Each output field of trace, verify, bound and the report floors at sigma2*scale, as (value, is_a_distortion)."""
    sigma2, rho, power, n1, n2 = problem
    flags = test_region_digests._flags((sigma2 * scale, rho, power, n1, n2))
    code, text = run_cli(["trace", *flags])
    fields = [(code, False)]
    for line in text.splitlines()[1:]:
        fields += [(cell, 1 <= i <= 3 and cell != "") for i, cell in enumerate(line.split(","))]
    for argv in (["verify", *flags], ["bound", "--d1", repr(d1 * scale), *flags]):
        code, text = run_cli(argv)
        fields += [(code, False)] + [(value, key not in _UNITLESS_KEYS) for key, value in parse_kv(text).items()]
    code, text = run_cli(["simulate", "--samples", "1", *flags])
    simulated = parse_kv(text)
    fields += [(code, False)] + [(simulated[key], True) for key in ("analytic_d1", "analytic_d2")]
    source, channel = SourceParams(sigma2 * scale, rho), ChannelParams(power, n1, n2)
    floors = [d_min(source, channel, 1), d_min(source, channel, 2),
              d1_min_at_d2min(source, channel), closed_forms.d2_min_at_d1min(source, channel)]
    report = parse_kv(run_cli(["report", *flags])[1])
    assert [report[key] for key in _FLOOR_KEYS] == [f"{value:.6g}" for value in floors]
    # the information cap is in bits: the same at every scale, and 0 at d_min(2)
    bits = [conditional_info_bound(source, channel, d2) for d2 in (floors[1], *(x * sigma2 * scale for x in _CAP_D2))]
    assert bits[0] == 0.0
    return fields + [(value, True) for value in floors] + [(value, False) for value in bits]


@pytest.mark.parametrize(
    "problem",
    [
        (1.0, 0.5, 1.0, 1.0, 2.0),
        (1.0, 0.5, 3.0, 1.0, 2.0),
        (1.0, 0.1, 100.0, 1.0, 2.0),
        (1.0, 1.0 - 1e-9, 1.0, 1.0, 2.0),
    ],
)
def test_every_output_scales_exactly_with_sigma2(problem):
    # a power-of-two sigma2 scales every distortion exactly, simulate's
    # analytic pair included, and leaves alpha, the witness, the counts,
    # the verdicts, the oracle bits and conditional_info_bound as they
    # are. trace and verify refused 1120 of 2288 such runs over four
    # problems, and 2 fields of the accepted ones did not scale exactly;
    # this held for bound alone, at the desk problem
    d1 = test_region_digests._covered_d1(problem)
    base = _fields(problem, d1, 1.0)
    assert (2, False) not in base and len(base) > 101 * 7  # no run refused; 101 trace rows
    for k in range(-1000, 1001, 7):
        scale = 2.0**k
        expected = [float(value) * scale if sized else value for value, sized in base]
        assert [float(value) if sized else value for value, sized in _fields(problem, d1, scale)] == expected, k


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["report", "--rho", "1.0"], "--rho"),
            (["report", "--rho", "-1.0"], "--rho"),
            (["report", "--n1", "2", "--n2", "2"], "--n1"),
            (["report", "--sigma2", "0"], "--sigma2"),
            (["report", "--power", "-1"], "--power"),
        ],
    )
    def test_parameter_errors_name_the_flag(self, argv, flag, capsys):
        code, _ = run_cli(argv)
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        code, _ = run_cli(["bogus"])
        assert code == 2


@pytest.mark.parametrize("command", [["trace", "--points", "3"], ["simulate", "--samples", "10"]])
@pytest.mark.parametrize("target", ["a directory", "a missing parent", "an empty path"])
def test_an_unwritable_output_names_the_flag(command, target, tmp_path, capsys):
    # an OSError on --output was a traceback and exit 1, the verification-failure
    # code, and an empty path was read as no --output
    path = {"a directory": tmp_path, "a missing parent": tmp_path / "missing" / "x.csv", "an empty path": ""}[target]
    code, text = run_cli([*command, "--output", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --output ") and err.count("\n") == 1
    assert text == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--sigma2", "1e-300"],
        ["verify", "--sigma2", "1e-300"],
        ["trace", "--sigma2", "1e200"],
        ["trace", "--sigma2", "1e300"],
        ["verify", "--sigma2", "1e200"],
        ["verify", "--sigma2", "1e300"],
        ["trace", "--sigma2", "1e200", "--power", "1e-20"],
        ["trace", "--sigma2", "1e288", "--power", "1e10"],
    ],
)
def test_sigma2_beyond_the_old_converse_range_answers(argv):
    # the first two raised ZeroDivisionError, the next five exited naming
    # no flag, and the last printed one covered row where sigma2 = 1 gives
    # two; then all exited 2 naming --sigma2. The converse and the oracle
    # run in the unit of sigma2, so each prints what sigma2 = 1 prints,
    # the distortions and the converse within 1e-15 relative of 50-digit mpmath
    sigma2 = float(argv[2])
    values = {flag: float(value) for flag, value in zip(argv[1::2], argv[2::2])}
    source = SourceParams(sigma2, 0.5)
    channel = ChannelParams(values.get("--power", 1.0), 1.0, 2.0)
    code, text = run_cli(argv)
    unit_code, unit_text = run_cli([argv[0], *argv[3:]])
    assert code == unit_code == 0
    if argv[0] == "trace":
        assert_accurate_distortions(text, channel, source)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        unit = [line.split(",") for line in unit_text.splitlines()[1:]]
        assert [(row[0], row[3] == "", row[6]) for row in rows] == [(row[0], row[3] == "", row[6]) for row in unit]
        for row in rows:
            if row[3]:
                d2 = exact_converse(source, channel, float(row[0]))[1]
                assert abs(float(row[3]) - d2) <= 1e-15 * d2
    else:
        pairs, unit = parse_kv(text), parse_kv(unit_text)
        assert float(pairs.pop("max_residual")) <= 1e-15 * sigma2
        assert float(pairs.pop("oracle_max_error_bits")) <= 1e-15
        del unit["max_residual"], unit["oracle_max_error_bits"]
        assert pairs == unit


def test_sigma2_at_the_ends_of_the_float_range(capsys):
    # near the top, (hi - lo)*(i + 1) of the d1 grid overflowed; taken in
    # the unit of hi the grid is that of sigma2 = 1, scaled. At the bottom a
    # subnormal d1 range holds no grid, and sigma2 is the flag to name
    code, text = run_cli(["verify", "--sigma2", "1.7976931348623157e308"])
    pairs = parse_kv(text)
    assert code == 0
    assert (pairs["matched_points"], pairs["verify"]) == ("50", "PASS")
    assert run_cli(["verify", "--sigma2", "1e-322"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: --sigma2 too small: the d1 range")


@pytest.mark.parametrize("command", [["trace"], ["verify"], ["bound", "--d1", "6.25e-101"]])
def test_an_underflowing_converse_factor_answers_accurately(command):
    # sigma2*(1 - rho**2)*n1 underflows to 0 here: the converse d2 would
    # read 3.3e-101 for 7.5e-101, and these exited 2 naming --sigma2; in
    # the unit of sigma2 no factor of the converse underflows
    flags = ["--sigma2", "1e-100", "--power", "1e-250", "--n1", "1e-250", "--n2", "2e-250"]
    source, channel = SourceParams(1e-100, 0.5), ChannelParams(1e-250, 1e-250, 2e-250)
    code, text = run_cli([*command, *flags])
    assert code == 0
    if command == ["trace"]:
        assert_accurate_distortions(text, channel, source)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert sum(bool(row[3]) for row in rows) == 100
        for row in rows:
            if row[3]:
                d2 = exact_converse(source, channel, float(row[0]))[1]
                assert abs(float(row[3]) - d2) <= 1e-15 * d2
    elif command == ["verify"]:
        pairs = parse_kv(text)
        assert (pairs["matched_points"], pairs["verify"]) == ("50", "PASS")
        assert float(pairs["max_residual"]) <= 1e-15 * 1e-100
    else:
        assert float(parse_kv(text)["d2_converse"]) == pytest.approx(7.5e-101, rel=1e-15)


def test_a_subnormal_converse_scale_traces_and_refuses_by_its_own_flags(capsys):
    # sigma2/(power + n2) is subnormal here, and all three commands exited 2
    # naming --sigma2. At P/n1 = 1e-210 the curve is one float wide: the
    # trace answers (every d1 and d2 is sigma2), verify finds no grid and
    # names --power, and a d1 below d_min(1) names --d1
    flags = ["--sigma2", "1e-100", "--n1", "1e210", "--n2", "2e210"]
    code, text = run_cli(["trace", "--points", "3", *flags])
    assert code == 0
    assert [row.split(",")[1:4] for row in text.splitlines()[2:]] == [["1e-100", "1e-100", "1.0000000000000001e-100"]] * 2
    assert run_cli(["verify", *flags]) == (2, "")
    assert capsys.readouterr().err.startswith("error: --power too small")
    assert run_cli(["bound", "--d1", "6.25e-101", *flags]) == (2, "")
    assert capsys.readouterr().err.startswith("error: --d1 must be >= ")


@pytest.mark.parametrize("sigma2", ["1e150", "1e-150"])
def test_sigma2_inside_the_converse_range_still_runs(sigma2):
    assert run_cli(["trace", "--sigma2", sigma2])[0] == 0
    # --tol is relative to sigma2, so its default holds at every scale
    assert run_cli(["verify", "--sigma2", sigma2])[0] == 0


def test_trace_verify_and_bound_evaluate_no_snr_threshold(monkeypatch):
    # on the region path coverage is the sign of the converse kernel's
    # margin; the d1-coordinate threshold serves the public functions only
    calls = []
    original = closed_forms._snr_threshold

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(closed_forms, "_snr_threshold", counted)
    for argv in (["trace", "--power", "3"], ["verify", "--power", "3"], ["bound", "--power", "3", "--d1", "0.78"]):
        assert run_cli(argv)[0] == 0
    assert calls == []
    assert closed_forms.is_uncoded_optimal(DESK_SOURCE, DESK_CHANNEL, 0.625)
    assert len(calls) == 1


def test_cli_reads_no_private_name_of_another_module():
    # verify and every other command print from public results only
    tree = ast.parse(Path(gaussian_bc.cli.__file__).read_text(encoding="utf-8"))
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("gaussian_bc")):
            if node.module is None or node.module == "gaussian_bc":
                modules.update(alias.asname or alias.name for alias in node.names)
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert modules >= {"closed_forms", "region"}
    assert private == []


SRC = str(Path(gaussian_bc.__file__).resolve().parents[1])


def _fresh_python(code):
    """Run code in a new interpreter that imports the package from this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + code, SRC],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def test_importing_the_cli_loads_no_executor_or_logging():
    # concurrent.futures pulls in logging, which adds ~5 ms to every start-up,
    # numpy ~150 ms, which only simulate needs, and dataclasses ~8-10 ms
    # (through inspect and ast); no command loads csv
    heavy = (
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'numpy', 'dataclasses', 'inspect', 'csv')"
        " if m in sys.modules))\n"
    )
    assert _fresh_python("import gaussian_bc.cli\n" + heavy) == "[]"
    # the package serves its Monte-Carlo names on first access, which loads
    # numpy (and numpy loads inspect), but its records need no dataclasses
    code = (
        "import gaussian_bc\n" + heavy
        + "from gaussian_bc import SimulationConfig\n"
        "from gaussian_bc.montecarlo import simulate\n"
        "print(gaussian_bc.simulate is simulate, SimulationConfig.__module__, 'numpy' in sys.modules)\n"
        "print('dataclasses' in sys.modules)\n"
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    # fractions, which loads decimal, is imported on the reducer's rare path only
    assert _fresh_python(code).splitlines() == ["[]", "True gaussian_bc.montecarlo True", "False", "[]"]
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        gaussian_bc.not_a_name


def test_the_cached_parser_gives_every_call_a_fresh_process_result(tmp_path, capsys):
    # one parser serves every run in a process; each call must print what
    # the same argv prints as the first call of a new interpreter
    assert not inspect.signature(cli._build_parser).parameters
    assert cli._build_parser() is cli._build_parser()
    sequence = [
        ["report"],
        ["trace", "--points", "5", "--rho", "-1e-05"],
        ["trace", "--points"],
        ["bound", "--d1", "0.6"],
        ["simulate", "--samples", "1000", "--seed", "3", "--output", "{out}"],
        ["verify", "--grid", "5", "--power", "3"],
        ["bound", "--d1", "5"],
        ["frobnicate"],
        ["trace", "--points", "4", "--output", "{out}"],
        ["verify"],
        ["simulate", "--alpha", "0.25", "--d1-target", "0.6"],
        ["report", "--rho", "-1e-05", "--power", "2"],
        ["report"],
    ]
    for index, argv in enumerate(sequence):
        fresh_out, reused_out = tmp_path / f"fresh-{index}.csv", tmp_path / f"reused-{index}.csv"
        fresh = subprocess.run(
            [sys.executable, "-m", "gaussian_bc.cli", *(a.format(out=fresh_out) for a in argv)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        )
        code = run([a.format(out=reused_out) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if "{out}" in argv:
            assert reused_out.read_text(encoding="utf-8") == fresh_out.read_text(encoding="utf-8")


# rho = 0 and P/n1 = 1e-600, which underflows to 0 in every unit: the row
# kernel's uncovered interval, built with every curve, is empty there
# rather than 0/0, and each command prints what it printed when only
# verify built that interval
ZERO_SNR = ["--rho", "0", "--power", "1e-300", "--n1", "1e300", "--n2", "2e300"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (["report"], "sigma2=1\nrho=0\npower=1e-300\nn1=1e+300\nn2=2e+300\nD1_min=1\nD2_min=1\n"
         "D1_star_at_D2_min=1\nD2_star_at_D1_min=1\nsimple_threshold=0\nsnr_rx1=1e-600\ncapacity_rx1=0\n"
         "capacity_rx2=0\nuncoded_optimal_everywhere=true\n"),
        (["trace", "--points", "5"], f"{CSV_HEADER}\n0,1,1,,,,true\n0.25,1,1,,,,false\n0.5,1,1,,,,false\n"
         "0.75,1,1,,,,false\n1,1,1,1,1,0,true\n"),
        (["bound", "--d1", "0.9999999999999999"], "d1=0.99999999999999989\nd2_min_rx1=1\ncombiner_mse_bound=1\n"
         "a1_star=1\na2_star=0\nd2_converse=1\n"),
    ],
)
def test_the_commands_answer_where_the_snr_underflows_to_zero(argv, want):
    closed_forms._rx1_point.cache_clear()
    assert run_cli([*argv, *ZERO_SNR]) == (0, want)
