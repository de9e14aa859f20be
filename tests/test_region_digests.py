"""Exact byte guard of the region path over wide-scale problems.

``golden.json`` pins the converse columns of ``trace``, ``bound`` and
``verify`` only within bounds. This guard pins them exactly: for each of
``PROBLEMS`` seeded problems it records the sha256 of the exit code plus
stdout of ``trace --points 101``, default ``verify``, and ``bound`` at a
covered d1, in ``region_digests.json``. A change to the region path must
leave every digest as it is, or name each moved byte and re-record.

Rewrite the file from the current code with

    PYTHONPATH=src python tests/test_region_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

from gaussian_bc.cli import run as cli_run

DIGESTS_PATH = Path(__file__).with_name("region_digests.json")
PROBLEMS = 40
SEED = 1201


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def problems() -> list[tuple[float, float, float, float, float]]:
    """``(sigma2, rho, power, n1, n2)`` draws, log-uniform in each scale."""
    rng = random.Random(SEED)
    draws = []
    for _ in range(PROBLEMS):
        sigma2 = _log_uniform(rng, 1e-150, 1e150)
        rho = rng.uniform(-0.999, 0.999)
        n1 = _log_uniform(rng, 1e-3, 1e3)
        power = n1 * _log_uniform(rng, 1e-6, 1e6)
        n2 = n1 * _log_uniform(rng, 1.01, 1e3)
        draws.append((sigma2, rho, power, n1, n2))
    return draws


def _flags(problem) -> list[str]:
    names = ("--sigma2", "--rho", "--power", "--n1", "--n2")
    return [item for name, value in zip(names, problem) for item in (name, repr(value))]


def _covered_d1(problem) -> float:
    """A d1 inside the valid range where the SNR threshold holds, below cv if it can be.

    Below the conditional variance cv the threshold is at least
    t = P/n1 exactly where (1+t)*d**2 - (2+t)*cv*d + sigma2*cv >= 0, that
    is at or above the larger root of that quadratic; the d1 returned is
    the middle of the covered stretch between that root and cv.
    """
    sigma2, rho, power, n1, _ = problem
    rho = abs(rho)
    lo = n1 / (n1 + power)  # in units of sigma2, so that no square overflows
    hi = (n1 + power * (1.0 - rho * rho)) / (n1 + power)
    cv = 1.0 - rho * rho
    t = power / n1
    a, b, c = 1.0 + t, -(2.0 + t) * cv, cv
    disc = b * b - 4.0 * a * c
    start = lo if disc <= 0.0 else max((-b + math.sqrt(disc)) / (2.0 * a), lo)
    end = min(cv, hi)
    return sigma2 * (start + 0.5 * (end - start) if start < end else lo + 0.5 * (hi - lo))


def runs() -> list[list[str]]:
    """Every argv the guard records, three per problem."""
    argvs = []
    for problem in problems():
        flags = _flags(problem)
        argvs.append(["trace", "--points", "101", *flags])
        argvs.append(["verify", *flags])
        argvs.append(["bound", *flags, "--d1", repr(_covered_d1(problem))])
    return argvs


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli_run(argv, out=out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def collect() -> list[list]:
    return [[argv, digest(argv)] for argv in runs()]


def test_region_outputs_are_byte_identical():
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert [argv for argv, _ in recorded] == runs()
    moved = [argv for argv, sha in recorded if digest(argv) != sha]
    assert not moved


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in collect())
    DIGESTS_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}", file=sys.stderr)
