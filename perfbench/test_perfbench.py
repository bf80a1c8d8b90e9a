"""Smoke tests for the benchmark: every workload at its smoke size, the
result line format, repeatable traced counts, and the refusal to run
without the package sources.

    python3 -m pytest -q perfbench
"""

import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
# every workload run.py offers, qft-fuzz included
from workloads import WORKLOADS  # noqa: E402
# counts a later change may rest a claim on; times are left out
COUNT_UNITS = {"count", "B"}
COUNT_SUFFIXES = (".reflexive_frac", ".runs_per_sigma")


def _run(workload, trace, cwd=ROOT, seed=3, hash_seed="0"):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--size", "smoke"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, env=env)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # different hash seeds, so that no count rests on set iteration order
    first = _result(_run(workload, 1, hash_seed="1"))
    second = _result(_run(workload, 1, hash_seed="2"))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    assert first["correct"] and second["correct"]
    counts = [k for k, unit in spec.items()
              if unit in COUNT_UNITS or k.endswith(COUNT_SUFFIXES)]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("workload", ["qft-check", "qft-fuzz"])
def test_full_size_builds_the_large_qft_operations(workload, tmp_path):
    # the full size takes minutes to run, so only its set-up is exercised
    sys.path.insert(0, str(ROOT / "src"))
    import run
    cq = run._import_package()
    w = WORKLOADS[workload](cq, "full", 3, tmp_path)
    assert any(op.key.startswith(("check n=6 ", "fuzz n=6 ")) for op in w.ops)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".work-*"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
