"""Smoke test for the benchmark harness: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

Each workload runs once untraced and once traced with ``--smoke`` (one
op per phase, reduced op size). The test asserts that the JSON result
carries every metric listed in BENCHMARK.json, each with its unit, that
``fail_frac`` is printed with a unit and is 0, and that no op failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> str:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_a_unit(workload: str, trace: int) -> None:
    stdout = _run(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert isinstance(printed["value"], (int, float))
        assert printed["unit"] == metric["unit"]
        assert re.search(rf"^{re.escape(metric['name'])}=\S+ {re.escape(metric['unit'])}( \(|$)", stdout, re.M)

    fail_frac = re.search(r"^fail_frac=(\S+) frac ", stdout, re.M)
    assert fail_frac is not None and float(fail_frac.group(1)) == 0.0

