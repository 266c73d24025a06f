"""The benchmark's own tests, on the seconds-long smoke size.

Run from the repository root (not collected by the package's test suite):

    python -m pytest -q bench/smoke_check.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Gate  # noqa: E402

WORKLOADS = sorted(workloads.SETUP)


def bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["fail_ratio"] == 0.0
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "threads",
            "git_commit", "source_sha256"} <= set(report["machine"])


def perturb(workload: str, ref: dict) -> None:
    """Change one integer of the reference that the gate must match exactly."""
    if workload == "brownian-gauss":
        ref["counts"][0] += 1
    elif workload == "file-cli":
        ref["words"][0] += 1
    else:
        # Move one block from the lowest occupied block sum to the next one.
        hists = ref["hists"] if workload == "fig1-digit" else ref["runs"][0]["hists"]
        hist = next(iter(hists.values()))
        i = next(j for j, v in enumerate(hist) if v)
        hist[i] -= 1
        hist[i + 1] += 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_gate(workload, tmp_path):
    p = workloads.PARAMS[workload]["smoke"]
    seed = 3
    inputs = workloads.prepare(workload, p, seed, str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()

    class Args:
        size = "smoke"

    Args.workload, Args.seed = workload, seed
    env = dict(os.environ, **{v: "1" for v in run.THREAD_VARS})
    env.pop("BLOCKLDP_OUT", None)
    res, err = run.spawn(Args, os.path.join(ROOT, "src"), str(out), inputs, False, env)
    assert res is not None, err
    ref = workloads.REFERENCE[workload](p, seed, inputs)

    gate = Gate()
    workloads.CHECK[workload](p, str(out), ref, gate)
    assert gate.failures == []

    bad = copy.deepcopy(ref)
    perturb(workload, bad)
    gate = Gate()
    workloads.CHECK[workload](p, str(out), bad, gate)
    assert gate.failures


def test_float_tolerance_catches_a_wrong_value():
    gate = Gate()
    gate.floats("ok", [1.0 + 4.4e-16, float("inf")], [1.0, float("inf")])
    assert gate.failures == []
    gate.floats("bad", [1.0 + 1e-6], [1.0])
    gate.floats("inf", [1.0], [float("inf")])
    assert len(gate.failures) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("fig1-digit", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
