"""Smoke test of the benchmark itself: each workload at one or two operations.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
OUT.mkdir(exist_ok=True)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from backci.detection import kld_threshold  # noqa: E402
from checker import from_record, problems  # noqa: E402
from workloads import PAPER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--ops", "1" if trace else "2")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())


def test_checker_rejects_corrupted_record():
    wl = WORKLOADS["sweep-sca"]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        records = wl.run(next(wl.inputs(3)), tmp)
    feasible = [from_record(r) for r in records if r.feasible]
    assert feasible
    for r in feasible:
        assert problems(r, PAPER.xi_max, PAPER.zeta_max) == []
    e_min = kld_threshold(PAPER.zeta_max)
    for bad in (replace(feasible[0], kld_without=0.5 * e_min),
                replace(feasible[0], dep_bound_with=0.99),
                replace(feasible[0], snr_db=float("nan"))):
        assert problems(bad, PAPER.xi_max, PAPER.zeta_max)


def test_refuses_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "solve", "--seed", "1", "--seconds", "1",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
