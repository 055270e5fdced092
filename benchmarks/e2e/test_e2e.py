"""Smoke test of the end-to-end benchmark: about 2 s per phase.

Not part of the tier-1 suite; run it explicitly::

    pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct covers the bitwise replay and the counter reconciliation
    # (and, traced, non-negative self times and parts summing to the
    # client latency).
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        parts = sum(v for name, v in metrics.items()
                    if name.endswith(".latency_share"))
        parts += metrics["trace.wire_share"] + metrics["trace.unattributed_share"]
        assert parts == pytest.approx(1.0, abs=0.01)


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "localize-light", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("base, head, expected", [
    ([10, 10.2, 9.9, 10.1], [10.1, 9.95, 10.05, 10.0], "unchanged"),
    ([10, 10.2, 9.9, 10.1], [12, 12.1, 11.9, 12.2], "worse"),
    ([10, 10.2, 9.9, 10.1], [9.5, 9.6, 9.4, 9.55], "unchanged"),
    ([10, 10.2, 9.9, 10.1], [8.5, 8.6, 8.4, 8.55], "better"),
    ([10, 14, 7, 12], [10, 13, 8, 11], "unresolved"),
    ([10, 14, 12, 13], [6, 7, 5, 6.5], "better"),
])
def test_compare_verdicts(base, head, expected):
    assert compare.verdict(base, head, bound=0.1, better="lower") == expected
