"""What a backci run loads, and what src/ may import.

The runtime dependencies are those of ``[project] dependencies`` in
pyproject.toml.  A fresh interpreter that imports the package and its CLI,
runs both designs' tag selection and a serial sweep must not have loaded
scipy (only the tests use it) or concurrent.futures (only a pooled sweep
imports it, and it pulls in logging).
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_PROBE = """
import json, sys
import backci, backci.cli
from backci.channel import SystemParams, gen_channel_set
from backci.harness import SweepConfig, run_sweep
from backci.selection import greedy_select

params = SystemParams()
chans = gen_channel_set(params, 1)
for mode in ("consensual", "evolved"):
    greedy_select(chans, params, mode)
run_sweep(SweepConfig(sweep_var="sigma_s2", values=[0.3, 0.6], trials=2,
                      base=SystemParams(K=2),
                      algorithms=["consensual", "canceled_dli"]))
print(json.dumps(sorted(sys.modules)))
"""


def test_run_loads_neither_scipy_nor_the_process_pool():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "backci.harness" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m.split(".")[0] == "concurrent"] == []


def _third_party_imports() -> set:
    names = set()
    for path in sorted((SRC / "backci").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"backci"}


def test_src_imports_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower()
                .replace("-", "_") for d in deps}
    assert _third_party_imports() == declared
