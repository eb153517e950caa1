"""tools/work.py: its counters agree with what the kernels return, and it
leaves the library as it found it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from backci import beamforming, convex, qcqp

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "work.py"


def _work():
    spec = importlib.util.spec_from_file_location("work", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return (convex._Oracle.derivs, convex._Oracle.evaluate,
            convex._Oracle.take, convex._PhaseOne.take,
            qcqp.solve_ball_qcqps, convex.solve_sdp_batch,
            beamforming.solve_ball_qcqps, beamforming.solve_sdp_batch)


def test_counts_two_solves_and_restores_the_library():
    before = _wrapped()
    counts = _work().run("solve", 1, 2)
    assert all(a is b for a, b in zip(before, _wrapped()))
    for kernel in ("qcqp", "sdp"):
        statuses = sum(v for name, v in counts.items()
                       if name.startswith(f"status/{kernel}/"))
        assert counts[f"entries/{kernel}"] == statuses > 0
    # every round steps one entry or more
    assert 0 < counts["rounds/qcqp"] <= counts["newton/qcqp"]
    # the QCQPs run no barrier, and every relaxation is solved exactly,
    # with no barrier round either
    assert not any(len(name.split("/")) == 3 for name in counts
                   if name.split("/")[0] in ("rounds", "entry-rounds",
                                             "value", "take"))


def test_fallback_counts_the_penalty_sdps_and_restores_purify(capsys):
    purify = beamforming._purify
    assert _work().main(["--workload", "solve", "--seed", "1", "--ops", "2",
                         "--fallback"]) == 0
    assert beamforming._purify is purify
    counts = dict(line.split() for line in
                  capsys.readouterr().out.splitlines())
    counts = {name: float(v) for name, v in counts.items()}
    statuses = sum(v for name, v in counts.items()
                   if name.startswith("status/sdp/"))
    assert counts["entries/sdp"] == statuses > 0
    for phase in ("main", "phase-one"):
        where = f"sdp/{phase}"
        assert 0 < counts[f"rounds/{where}"] <= counts[
            f"entry-rounds/{where}"]


def test_warm_entries_are_counted_on_the_sweep():
    # every SCA step after an init's first arrives with the previous
    # step's dual as its start
    counts = _work().run("sweep-sca", 1, 2)
    assert 0 < counts["warm/qcqp"] <= counts["entries/qcqp"]
