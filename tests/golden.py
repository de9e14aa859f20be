"""Golden outputs: what the checked-in ``golden.json`` records, and how.

Each entry pairs an input with the output the package gave for it when
the file was recorded. ``test_golden.py`` recomputes every entry and
compares: outputs that must not move are compared byte for byte, the
rest within the bounds stated there.

Rewrite the file from the current code (only when an output is meant to
change, and say by how much) with

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from gaussian_bc import (
    ChannelParams,
    SourceParams,
    d1_min_at_d2min,
    d_min,
    is_uncoded_optimal,
    r_joint_numeric,
    sample_source_pairs,
)
from gaussian_bc.cli import run as cli_run

from helpers import DESK_CHANNEL, DESK_SOURCE, random_valid_configs

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# (sigma2, rho, power, n1, n2): the desk problem, a high-SNR problem with
# uncovered mid-range points, one between the threshold floor and its
# ends, the rho = 0 and rho near 1 edges, and seeded moderate draws.
CONFIGS = [
    (DESK_SOURCE.sigma2, DESK_SOURCE.rho, DESK_CHANNEL.power, DESK_CHANNEL.n1, DESK_CHANNEL.n2),
    (1.0, 0.1, 100.0, 1.0, 2.0),
    (1.0, 0.5, 3.0, 1.0, 2.0),
    (2.0, 0.0, 1.5, 0.5, 1.0),
    (0.5, 0.95, 4.0, 0.2, 3.0),
] + [
    (s.sigma2, s.rho, c.power, c.n1, c.n2) for s, c in random_valid_configs(5, seed=577)
]

ORACLE_SOURCES = [(1.0, 0.5), (2.5, 0.8), (0.3, 0.0)]
ORACLE_STEPS = 10
TRACE_POINTS = 101
BOUND_FRACTIONS = (0.0, 0.05, 0.5, 0.95)

# Monte-Carlo runs: one block, several blocks, and the sign flip.
SIMULATE_ALPHA = [
    ["--alpha", "0.5", "--samples", "20000", "--seed", "3"],
    ["--alpha", "0.3", "--samples", "150000", "--seed", "7", "--power", "2.5", "--n2", "4"],
    ["--alpha", "0.7", "--samples", "70000", "--seed", "11", "--rho", "-0.6", "--sigma2", "3"],
    ["--alpha", "1", "--samples", "1", "--seed", "0"],
]
SIMULATE_D1_TARGET = [
    ["--d1-target", "0.625", "--samples", "20000", "--seed", "3"],
    ["--d1-target", "0.55", "--samples", "70000", "--seed", "5", "--rho", "-0.5"],
    ["--d1-target", "0.8", "--samples", "5000", "--seed", "8", "--power", "0.5"],
]
SOURCE_PAIRS = [(150_000, 4, False), (150_000, 4, True)]


def problem_flags(config) -> list[str]:
    names = ("--sigma2", "--rho", "--power", "--n1", "--n2")
    return [item for name, value in zip(names, config) for item in (name, repr(value))]


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    code = cli_run(argv, out=out)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def oracle_inputs() -> list[tuple[float, float, float, float]]:
    """(sigma2, rho, delta1, delta2) on a 10x10 grid per source, up to sigma2."""
    return [
        (sigma2, rho, sigma2 * (i + 1) / ORACLE_STEPS, sigma2 * (j + 1) / ORACLE_STEPS)
        for sigma2, rho in ORACLE_SOURCES
        for i in range(ORACLE_STEPS)
        for j in range(ORACLE_STEPS)
    ]


def collect_oracle() -> list[list[float]]:
    """``[sigma2, rho, delta1, delta2, bits]`` rows of the oracle grid."""
    return [
        [sigma2, rho, d1, d2, r_joint_numeric(SourceParams(sigma2, rho), d1, d2)]
        for sigma2, rho, d1, d2 in oracle_inputs()
    ]


def bound_inputs() -> list[list[str]]:
    """``bound`` argv at covered d1 values spread over each config's range."""
    runs = []
    for config in CONFIGS:
        sigma2, rho, power, n1, n2 = config
        source, channel = SourceParams(sigma2, rho), ChannelParams(power, n1, n2)
        lo, hi = d_min(source, channel, 1), d1_min_at_d2min(source, channel)
        for frac in BOUND_FRACTIONS:
            d1 = lo + (hi - lo) * frac
            if is_uncoded_optimal(source, channel, d1):
                runs.append(["bound", *problem_flags(config), "--d1", repr(d1)])
    return runs


def source_pairs_digest(samples: int, seed: int, sign_flip: bool) -> str:
    s1, s2 = sample_source_pairs(DESK_SOURCE, samples, seed, sign_flip=sign_flip)
    return hashlib.sha256(s1.tobytes() + s2.tobytes()).hexdigest()


def collect() -> dict:
    """Every golden section, computed from the current code."""
    return {
        "r_joint_numeric": collect_oracle(),
        "report": [run_cli(["report", *problem_flags(c)]) for c in CONFIGS],
        "simulate_alpha": [run_cli(["simulate", *argv]) for argv in SIMULATE_ALPHA],
        "simulate_d1_target": [run_cli(["simulate", *argv]) for argv in SIMULATE_D1_TARGET],
        "trace": [
            run_cli(["trace", "--points", str(TRACE_POINTS), *problem_flags(c)]) for c in CONFIGS
        ],
        "bound": [run_cli(argv) for argv in bound_inputs()],
        "verify": [run_cli(["verify", *problem_flags(c)]) for c in CONFIGS],
        "source_pairs": [[*key, source_pairs_digest(*key)] for key in SOURCE_PAIRS],
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
