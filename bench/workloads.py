"""The benchmark's two workloads, each driven through backci's public API.

An operation is one ``run_sweep`` call (a batch of cells) on the sweep
workloads and one ``backci solve`` realization on ``solve``.  Library
functions are looked up on their modules at call time, so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from backci import channel, convex, harness, selection
from backci.beamforming import divergence_floors
from backci.channel import SystemParams
# Bound once, so drawing inputs for the solve workload's strata never shows
# up in a trace.
from backci.channel import gen_channel_set as _draw_unrecorded

from checker import from_record, from_solution

# Seeds of consecutive operations within one benchmark seed.
_SEED_STRIDE = 100_000


@dataclass
class Outcome:
    """What one operation produced, read after its timed region."""

    units: int            # cells of a sweep batch, live tags of a solve
    results: list         # checker.Result per row or per-tag solution
    converged: bool
    digest: str           # sha256 of the CSV bytes or of the solutions


@dataclass
class SweepWorkload:
    name: str
    sweep_var: str
    values: list
    trials: int
    algorithms: list
    base: SystemParams
    traced_ops: int       # fixed operation count of a traced run
    quality_ops: int      # operations the quality metrics are taken over

    def inputs(self, seed):
        """Base parameters of each batch; batch b uses its own seed tree."""
        for b in itertools.count():
            yield replace(self.base, seed=seed * _SEED_STRIDE + b)

    def run(self, base, tmpdir):
        cfg = harness.SweepConfig(
            sweep_var=self.sweep_var, values=list(self.values),
            trials=self.trials, algorithms=list(self.algorithms), base=base,
            out_path=os.path.join(tmpdir, f"{self.name}.csv"))
        return harness.run_sweep(cfg, workers=1)

    def outcome(self, base, records, tmpdir):
        with open(os.path.join(tmpdir, f"{self.name}.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return Outcome(
            units=len(self.values) * self.trials,
            results=[from_record(r, self._snr_bound_db(base, r))
                     for r in records],
            converged=all(r.converged for r in records if r.feasible),
            digest=digest)

    def _snr_bound_db(self, base, r):
        """Matched-filter bound of a feasible beamformer row.

        Redraws the cell's channels from the (seed, value index, trial) key
        that run_sweep documents.
        """
        if not r.feasible or r.algorithm not in BEAMFORMERS:
            return math.nan
        vi = self.values.index(r.value)
        params = replace(base, **{self.sweep_var: r.value})
        chans = _draw_unrecorded(
            params, np.random.SeedSequence((base.seed, vi, r.trial)))
        return snr_bound_db(params, chans, r.selected_tag - 1)


# Live-tag counts (tags passing the closed-form no-DL screen, 3 standing
# for three or more) at the paper settings, measured over realizations
# 0-99: 20% none, 36% one, 30% two, 14% more.  A solve costs about one
# second per live tag, so the median of an unstratified run of ~25 solves
# moved by ~20% from seed to seed.  Every run follows a 50-solve cycle with
# exactly these shares (10/18/15/7), each count placed where it is furthest
# behind its share, so every prefix of the cycle is close to the mix too.
# The seed still picks each realization.
LIVE_SHARES = {0: 10, 1: 18, 2: 15, 3: 7}


def _spread_cycle(counts: dict) -> tuple:
    total = sum(counts.values())
    placed = dict.fromkeys(counts, 0)
    cycle = []
    for i in range(1, total + 1):
        k = max(counts, key=lambda k: (counts[k] * i / total - placed[k], -k))
        placed[k] += 1
        cycle.append(k)
    return tuple(cycle)


LIVE_CYCLE = _spread_cycle(LIVE_SHARES)


def live_tags(params, chans) -> int:
    """Tags whose backscatter channel clears the no-DL floor at all."""
    f_without = divergence_floors(params)[3]
    return sum(
        params.gamma * float(np.vdot(hs, hs).real) >= f_without - 1.0 - 1e-12
        for hs in (chans.tag_channels(k)[2] for k in range(params.K)))


SOLVE_MODES = ("consensual", "evolved")
BEAMFORMERS = ("consensual", "evolved", "random_sel")


def snr_bound_db(params, chans, k) -> float:
    """SNR of the unconstrained matched filter on tag k, in dB."""
    h1 = chans.tag_channels(k)[1]
    return 10.0 * math.log10(params.gamma * np.linalg.norm(h1) ** 2)


@dataclass
class SolveWorkload:
    name: str
    base: SystemParams
    traced_ops: int
    quality_ops: int

    def inputs(self, seed):
        """(realization seed, live tags), drawn in order and stratified."""
        top = max(LIVE_CYCLE)
        strata = {k: deque() for k in range(top + 1)}
        candidates = itertools.count(seed * _SEED_STRIDE)
        for want in itertools.cycle(LIVE_CYCLE):
            while not strata[want]:
                rs = next(candidates)
                params = replace(self.base, seed=rs)
                n = live_tags(params, _draw_unrecorded(params, rs))
                strata[min(n, top)].append((rs, n))
            yield strata[want].popleft()

    def run(self, inp, _tmpdir):
        """The calls ``backci solve --seed <realization seed>`` makes."""
        params = replace(self.base, seed=inp[0])
        chans = channel.gen_channel_set(params, params.seed)
        return chans, [selection.greedy_select(chans, params, mode)
                       for mode in SOLVE_MODES]

    def outcome(self, inp, raw, _tmpdir):
        rseed, live = inp
        chans, selections = raw
        params = replace(self.base, seed=rseed)
        results = [from_solution(mode, sol, snr_bound_db(params, chans, k))
                   for mode, res in zip(SOLVE_MODES, selections)
                   for k, sol in enumerate(res.per_tag)]
        digest = hashlib.sha256(repr(
            [(r.feasible, r.snr_db, r.kld_with, r.kld_without)
             for r in results]).encode()).hexdigest()
        return Outcome(
            units=live, results=results,
            converged=all(res.best.converged for res in selections
                          if res.best is not None),
            digest=digest)


def tiny_solve():
    """A first small SDP: fills the kernel's per-size caches."""
    eye = np.eye(PAPER.M, dtype=complex)
    res = convex.solve_small_sdp(convex.SdpProblem(
        C=np.diag(np.arange(1.0, PAPER.M + 1)).astype(complex), dim=PAPER.M,
        eq_constraints=[(eye, 1.0)]))
    if res.status != convex.OPTIMAL:
        raise RuntimeError(f"warm-up solve ended {res.status}")


PAPER = SystemParams()     # K=5, M=4, N=10, T=100, J=100

WORKLOADS = {
    "sweep-sca": SweepWorkload(
        name="sweep-sca", sweep_var="sigma_s2", values=[0.2, 0.4, 0.6, 0.8],
        trials=2, algorithms=["consensual", "canceled_dli", "harmful_dli",
                              "random_sel"],
        base=PAPER, traced_ops=40, quality_ops=100),
    "solve": SolveWorkload(name="solve", base=PAPER, traced_ops=10,
                           quality_ops=25),
}
