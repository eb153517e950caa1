"""The names the benchmark reaches in the library resolve, and its warm-up
solve ends optimal.

bench/tracer.py patches each (module, attribute) of WRAP_POINTS through a
plain getattr, and bench/workloads.tiny_solve builds a convex.SdpProblem
and solves it with convex.solve_small_sdp.  A change that removes one of
those names fails here, naming it, in about a second, rather than in the
traced runs of bench/test_smoke.py.  bench/ is only imported.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from backci import convex

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/tracer.py and bench/workloads.py, imported from bench/."""
    sys.path.insert(0, str(BENCH))
    try:
        yield (importlib.import_module("tracer"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(BENCH))


def test_every_wrap_point_resolves(bench):
    tracer, _workloads = bench
    missing = [f"{module}.{attr}" for module, attr, _span in tracer.WRAP_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, "WRAP_POINTS names that no longer resolve: " + (
        ", ".join(missing))


def test_tiny_solve_resolves_and_ends_optimal(bench, monkeypatch):
    _tracer, workloads = bench
    missing = [name for name in ("SdpProblem", "solve_small_sdp", "OPTIMAL")
               if not hasattr(workloads.convex, name)]
    assert not missing, "tiny_solve's names that no longer resolve: " + (
        ", ".join(missing))
    solve, statuses = convex.solve_small_sdp, []

    def recorded(p):
        res = solve(p)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(convex, "solve_small_sdp", recorded)
    workloads.tiny_solve()
    assert statuses == [convex.OPTIMAL]
