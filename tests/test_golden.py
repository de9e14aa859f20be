"""Recomputed outputs against the recorded ``golden.json`` (see ``golden.py``).

The joint-rate oracle, ``report``, ``simulate --alpha``, the source draws
and the trace columns alpha, d1, d2_uncoded and optimal_flag must match
byte for byte. Outputs that depend on the alpha solve (the converse
columns of ``trace``, ``bound``, two ``verify`` fields and the alpha that
``simulate --d1-target`` picks) were recorded with a bisection solver and
are now computed from its closed-form root; they may differ in trailing
digits, within the bounds below (each the largest change measured when
the solver changed, rounded up to one significant digit, and all far
inside the 1e-9 * sigma2 default tolerance of ``verify``). Bounds are
absolute, in units of sigma2 for distortions and in the field's own
units otherwise.
"""

import csv
import json

import pytest

import golden

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))

TRACE_EXACT = (0, 1, 2, 6)  # alpha, d1, d2_uncoded, optimal_flag
TRACE_BOUNDS = {3: 4e-15, 4: 3e-15, 5: 4e-15}  # d2_converse, a1_star, a2_star
BOUND_BOUNDS = {
    "d1": 0.0,
    "d2_min_rx1": 6e-16,
    "combiner_mse_bound": 3e-16,
    "a1_star": 2e-15,
    "a2_star": 2e-15,
    "d2_converse": 3e-16,
}
VERIFY_BOUNDS = {"max_residual": 2e-16, "oracle_max_error_bits": 3e-16}
D1_TARGET_BOUNDS = {"alpha": 5e-16, "beta": 5e-16}
D1_TARGET_OTHER_BOUND = 3e-16  # every other float field of those runs (all at sigma2 = 1)
SIGMA2_UNITS = {"d2_min_rx1", "combiner_mse_bound", "d2_converse", "max_residual"}


def sigma2_of(argv):
    return float(argv[argv.index("--sigma2") + 1]) if "--sigma2" in argv else 1.0


def key_values(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def rerun(entry):
    fresh = golden.run_cli(entry["argv"])
    assert fresh["code"] == entry["code"]
    return fresh["stdout"]


def test_joint_rate_oracle_is_bit_identical():
    inputs = golden.oracle_inputs()
    recorded = GOLDEN["r_joint_numeric"]
    assert [row[:4] for row in recorded] == [list(point) for point in inputs]
    fresh = golden.collect_oracle()
    mismatched = [(rec, new) for rec, new in zip(recorded, fresh) if rec != new]
    assert not mismatched


@pytest.mark.parametrize("section", ["report", "simulate_alpha"])
def test_cli_output_is_bit_identical(section):
    for entry in GOLDEN[section]:
        assert rerun(entry) == entry["stdout"], entry["argv"]


def test_source_draws_are_bit_identical():
    for samples, seed, sign_flip, digest in GOLDEN["source_pairs"]:
        assert golden.source_pairs_digest(samples, seed, sign_flip) == digest


def test_trace_columns():
    for entry in GOLDEN["trace"]:
        s2 = sigma2_of(entry["argv"])
        old_lines = entry["stdout"].splitlines()
        new_lines = rerun(entry).splitlines()
        assert new_lines[0] == old_lines[0]
        assert len(new_lines) == len(old_lines)
        for old, new in zip(csv.reader(old_lines[1:]), csv.reader(new_lines[1:])):
            assert [new[i] for i in TRACE_EXACT] == [old[i] for i in TRACE_EXACT]
            for i, bound in TRACE_BOUNDS.items():
                assert (new[i] == "") == (old[i] == "")
                if old[i]:
                    scale = s2 if i == 3 else 1.0
                    assert abs(float(new[i]) - float(old[i])) <= bound * scale, (entry["argv"], old)


def test_bound_output():
    assert GOLDEN["bound"]
    for entry in GOLDEN["bound"]:
        s2 = sigma2_of(entry["argv"])
        old, new = key_values(entry["stdout"]), key_values(rerun(entry))
        assert list(new) == list(old)
        for key, bound in BOUND_BOUNDS.items():
            scale = s2 if key in SIGMA2_UNITS else 1.0
            assert abs(float(new[key]) - float(old[key])) <= bound * scale, (entry["argv"], key)


def test_verify_output():
    for entry in GOLDEN["verify"]:
        s2 = sigma2_of(entry["argv"])
        old, new = key_values(entry["stdout"]), key_values(rerun(entry))
        assert list(new) == list(old)
        for key in old:
            if key in VERIFY_BOUNDS:
                scale = s2 if key in SIGMA2_UNITS else 1.0
                assert abs(float(new[key]) - float(old[key])) <= VERIFY_BOUNDS[key] * scale
            else:
                assert new[key] == old[key], (entry["argv"], key)


def test_simulate_d1_target_output():
    for entry in GOLDEN["simulate_d1_target"]:
        assert sigma2_of(entry["argv"]) == 1.0
        old, new = key_values(entry["stdout"]), key_values(rerun(entry))
        assert list(new) == list(old)
        assert (new["samples"], new["seed"]) == (old["samples"], old["seed"])
        for key in old.keys() - {"samples", "seed"}:
            bound = D1_TARGET_BOUNDS.get(key, D1_TARGET_OTHER_BOUND)
            assert abs(float(new[key]) - float(old[key])) <= bound, (entry["argv"], key)
