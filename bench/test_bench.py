"""Self-test of the benchmark at tiny replicate counts (``run.py --quick``).

Checks that traced and untraced runs give the same estimate digest, that
the seed changes the Monte Carlo digests, that every metric declared in
BENCHMARK.json is emitted, and that the pinned oracle values still match
the DP oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ACCEPTANCE_SEED = 20260809
OTHER_SEED = 7


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith(f"digest {workload} "))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def results():
    return {}


def cached(results, workload, seed, trace):
    key = (workload, seed, trace)
    if key not in results:
        results[key] = run(workload, seed, trace)
    return results[key]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_and_untraced_runs_agree(results, workload):
    plain, plain_digest = cached(results, workload, ACCEPTANCE_SEED, 0)
    traced, traced_digest = cached(results, workload, ACCEPTANCE_SEED, 1)
    assert plain_digest == traced_digest
    for res in (plain, traced):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        res = plain if spec in SPEC["end_to_end"] else traced
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("workload", ["chain-mc", "limit-mc"])
def test_seed_changes_monte_carlo_digest(results, workload):
    _, digest = cached(results, workload, ACCEPTANCE_SEED, 0)
    other, other_digest = cached(results, workload, OTHER_SEED, 0)
    assert other["correct"]
    assert other_digest != digest


def test_pinned_oracle_values_match_dp():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, workloads; print(json.dumps(workloads.oracle_values()))"],
        cwd=BENCH, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    live = json.loads(proc.stdout)
    pinned = json.loads((BENCH / "pinned.json").read_text())["values"]
    assert live.keys() == pinned.keys()
    for key, value in pinned.items():
        assert live[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
