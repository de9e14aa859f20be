"""CLI surface: subcommands, CSV contract, exit codes, flag-named errors."""

import csv
import io

import pytest

from gaussian_bc import trace_uncoded_boundary
from gaussian_bc.cli import run

from helpers import DESK_CHANNEL, DESK_SOURCE

CSV_HEADER = "alpha,d1,d2_uncoded,d2_converse,a1_star,a2_star,optimal_flag"


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


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


class TestVerify:
    def test_default_config_passes(self):
        code, text = run_cli(["verify", "--grid", "25", "--tol", "1e-9"])
        assert code == 0
        assert "verify=PASS" in text

    def test_corrupted_tolerance_fails(self):
        code, text = run_cli(["verify", "--grid", "25", "--tol", "1e-18"])
        assert code == 1
        assert "verify=FAIL" in text

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_vacuous_tolerance_is_an_argument_error(self, tol, capsys):
        code, text = run_cli(["verify", "--grid", "5", "--tol", tol])
        assert code == 2
        assert text == ""
        assert "--tol" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [["--power", "1e-200"], ["--rho", "0.9999999999999999"]])
    def test_collapsed_d1_range_names_power(self, flags, capsys):
        # verify has no --d1 flag, so the error must not name one
        code, text = run_cli(["verify", *flags])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --power ")
        assert "--d1" not in err


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
