"""tools/work.py: its counters agree with what the kernels return, and it
leaves the library as it found it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from backci import beamforming, channel, convex, harness, qcqp

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "work.py"


def _work():
    spec = importlib.util.spec_from_file_location("work", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return (qcqp.solve_ball_qcqps, convex.solve_sdp_batch,
            beamforming.solve_ball_qcqps, beamforming.solve_sdp_batch,
            harness.gen_channel_set, channel.gen_channel_set,
            harness.run_benchmark, harness.write_csv)


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
    # the SDP kernel has no rounds to count
    assert not any(name.endswith("/sdp") for name in counts
                   if name.split("/")[0] in ("rounds", "newton"))


def test_fallback_counts_the_penalty_sdps_and_restores_the_rank_tolerance(
        capsys, monkeypatch):
    # Every penalty subproblem is one exact entry of its own call, on top
    # of the relaxation entries the run without the fallback solves.
    rank_tol = beamforming._RANK_TOL
    plain = _work().run("solve", 1, 2)
    single = beamforming.solve_small_sdp
    penalty = []

    def counted(p):
        res = single(p)
        penalty.append(res.newton_steps)
        return res

    monkeypatch.setattr(beamforming, "solve_small_sdp", counted)
    assert _work().main(["--workload", "solve", "--seed", "1", "--ops", "2",
                         "--fallback"]) == 0
    assert beamforming._RANK_TOL == rank_tol > 0
    counts = dict(line.split() for line in
                  capsys.readouterr().out.splitlines())
    counts = {name: float(v) for name, v in counts.items()}
    statuses = sum(v for name, v in counts.items()
                   if name.startswith("status/sdp/"))
    assert counts["entries/sdp"] == statuses > 0
    assert penalty and not any(penalty)
    assert counts["entries/sdp"] == plain["entries/sdp"] + len(penalty)
    assert counts["calls/sdp"] == plain["calls/sdp"] + len(penalty)


def test_warm_entries_are_counted_on_the_sweep():
    # every SCA step after an init's first arrives with the previous
    # step's dual as its start
    counts = _work().run("sweep-sca", 1, 2)
    assert 0 < counts["warm/qcqp"] <= counts["entries/qcqp"]


def test_sweep_counts_the_consensual_lifts():
    # each consensual solve the screens pass sends its lift, one SDP entry
    counts = _work().run("sweep-sca", 1, 2)
    statuses = sum(v for name, v in counts.items()
                   if name.startswith("status/sdp/"))
    assert counts["calls/sdp"] > 0
    assert counts["entries/sdp"] == statuses


def test_sweep_times_the_layers_outside_the_kernels():
    # every wrapper is undone, and s/outside is what the kernels leave of
    # s/total (each printed to 3 decimals)
    before = _wrapped()
    counts = _work().run("sweep-sca", 1, 2)
    assert all(a is b for a, b in zip(before, _wrapped()))
    layers = [counts[f"s/{layer}"] for layer in ("channels", "benchmark",
                                                  "csv")]
    assert min(layers) >= 0 and counts["s/channels"] > 0
    assert sum(layers) <= counts["s/outside"] + 2e-3
    assert counts["s/outside"] == pytest.approx(
        counts["s/total"] - counts["s/qcqp"] - counts["s/sdp"], abs=2e-3)
