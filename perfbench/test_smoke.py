"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload at a small size (hat at N=10, 5 lifetime runs, 2
certify cases) through ``run.main`` and checks the printed result against
BENCHMARK.json, then checks that the correctness gate trips when a
reference value is perturbed.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {w.name: w for w in (
    workloads.HatBlowup(n=10),
    workloads.LifetimeBatch(runs=5),
    workloads.CertifyDominate(cases=2),
)}


def invoke(capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], workload_table=SMALL)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_printed_with_its_unit(capsys, name, trace):
    detail, result = invoke(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert "missing" not in detail["coverage"].values()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name, path", [
    ("hat_blowup", ("hat_blowup", "10", "t_threshold_1e6")),
    ("lifetime_batch", ("lifetime_batch", "final_sup", 2)),
])
def test_perturbed_reference_trips_the_gate(capsys, monkeypatch, name, path):
    reference = copy.deepcopy(workloads.REFERENCE)
    node = reference
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.0 + 1e-9
    monkeypatch.setattr(workloads, "REFERENCE", reference)
    _, result = invoke(capsys, name, 0)
    assert not result["correct"] and result["failed"] >= 1


def test_certify_gate_trips(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "PHI_TOL", float("inf"))
    _, result = invoke(capsys, "certify_dominate", 0)
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "hat_blowup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
