"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_selftest.py

Runs every workload at a tiny size, with and without tracing, and checks
that every metric BENCHMARK.json names is reported.  Then it plants a wrong
certificate and checks that the correctness gate counts it and that the
command exits nonzero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_foursq()

import tracing  # noqa: E402
from foursq import solver, verifier  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = 0.2


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_names_and_units_match_benchmark_json():
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}
    assert run.END_TO_END_UNITS == _units("end_to_end")
    assert tracing.PER_LAYER_UNITS == _units("per_layer")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.run_workload(workload, seed=7, seconds=TINY, trace=trace,
                              setup_runs=1)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert result["report"]["fail_ratio"] == 0
    assert result["machine"]["src_lines"] > 0


def _wrong_certificate(m, quad, target_set, natural=False, n=None):
    return solver.RestrictedSolution(m, 0, 0, 0, 1)


@pytest.mark.parametrize("workload", ["small-m", "crosscheck"])
def test_gate_counts_a_wrong_certificate(workload, monkeypatch):
    monkeypatch.setattr(solver, "solve_restricted", _wrong_certificate)
    monkeypatch.setattr(verifier, "solve_restricted", _wrong_certificate)
    result = run.run_workload(workload, seed=7, seconds=TINY, trace=False,
                              setup_runs=1)
    assert result["report"]["fail_ratio"] > 0
    assert not result["correct"]
    assert run.main(["--workload", workload, "--seconds", str(TINY)]) == 1


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck",
         "--seed", "3", "--seconds", str(TINY), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = _last_line(proc.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
