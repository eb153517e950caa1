"""Tests for the four beamformer solvers.

References: a phase-reduced dense grid over the complex unit sphere (M = 2),
the scalar feasibility interval from the SISO analysis (M = 1), closed-form
collapses when the direct link or the detection floors drop out, and the
defining stationarity/optimality conditions of the MMSE filter.  None of
those share code with the solvers.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from backci import beamforming, convex, qcqp
from backci.beamforming import (
    alternating_mimo,
    alternating_steps,
    consensual_sca,
    consensual_steps,
    divergence_floors,
    evolved_sdp,
    evolved_steps,
    lockstep,
    mmse_beamformer,
    recover_rank_one,
)
from backci.channel import SystemParams, gen_channel_set
from backci.convex import (
    INFEASIBLE,
    MAX_ITER,
    NO_INTERIOR,
    OPTIMAL,
    SdpResult,
    solve_sdp_batch,
    solve_small_sdp,
)
from backci.detection import detection_stats, kld_threshold
from backci.qcqp import QcqpResult, solve_ball_qcqp
from backci.siso import snr_interval
from oracles import (
    ci_inequality_margin,
    collinear_x_range,
    constrained_snr_oracle,
    slsqp_sphere_oracle,
)

# Channel-realization seeds whose first tag gives a feasible instance at the
# given antenna count (checked against the infeasibility certificates; most
# desk-scale draws put gamma_hi below the operating SNR).
FEASIBLE_M2 = (1, 9, 27, 48)
FEASIBLE_M4 = (1, 5, 9, 10, 17)


def tag0(params, seed):
    return gen_channel_set(params, seed).tag_channels(0)


def _block3(Ws, w_out):
    """diag(Ws, w_out), 3 x 3."""
    W = np.zeros((3, 3), dtype=complex)
    W[:2, :2], W[2, 2] = Ws, w_out
    return W


def trivial_params(**kw):
    """Floors at zero: both DEP tolerances maximal, so only the norm binds."""
    return SystemParams(K=1, xi_max=1.0, zeta_max=1.0, **kw)


_NO_LIFT = SdpResult(W=None, status=NO_INTERIOR)


def no_interior_lifts(mp):
    """Patch every SDP beamforming solves to end NO_INTERIOR, with no
    point: a consensual lift that certifies nothing, so the SCA runs from
    its matched-filter and MMSE starts."""
    mp.setattr(beamforming, "solve_sdp_batch",
               lambda C, row_sets: [_NO_LIFT] * len(row_sets))


class TestConsensualSca:
    def test_no_direct_link_reduces_to_matched_filter(self):
        rng = np.random.default_rng(3)
        params = trivial_params(M=3)
        h1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        h0 = np.zeros(3, dtype=complex)
        sol = consensual_sca((h0, h1, h1), params)
        assert sol.feasible
        u = h1 / np.linalg.norm(h1)
        assert abs(np.vdot(sol.v, u)) == pytest.approx(1.0, abs=1e-8)
        assert sol.snr == pytest.approx(
            params.gamma * np.vdot(h1, h1).real, rel=1e-8)

    def test_infeasible_when_backscatter_too_weak(self):
        # gamma ||hs||^2 < F(E_min/N + 1) - 1 caps the without-DL ratio
        params = SystemParams(M=2, K=1, zeta_max=0.01)
        _d, _e, _fw, fo = divergence_floors(params)
        hs = np.array([1e-3, 1e-3 * 1j])
        assert params.gamma * np.vdot(hs, hs).real < fo - 1.0
        h0 = np.array([1.0 + 0j, 0.5])
        sol = consensual_sca((h0, h0 + hs, hs), params)
        assert not sol.feasible
        assert sol.v is None and sol.snr == 0.0

    def test_first_solve_iteration_cap_reported(self, monkeypatch):
        # Every QCQP ends max_iter, which certifies no infeasibility.  The
        # matched filter of this tag breaks a row, so no start is optimal
        # before its first Newton step.  With no lift point to fall back
        # on (test_capped_first_step_keeps_the_lift_point), the solve
        # holds no incumbent.
        params = SystemParams(M=4, K=1)
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 1)
        no_interior_lifts(monkeypatch)
        sol = consensual_sca(tag0(params, 1), params)
        assert not sol.feasible and not sol.converged

    @pytest.mark.parametrize("seed", FEASIBLE_M2)
    def test_matches_grid_oracle_m2(self, seed):
        params = SystemParams(M=2, K=1)
        d_min, e_min, _fw, _fo = divergence_floors(params)
        h0, h1, hs = tag0(params, seed)
        sol = consensual_sca((h0, h1, hs), params)
        assert sol.feasible
        snr_ref, _v = constrained_snr_oracle(
            h0, h1, hs, params.sigma_s2, params.sigma_w2, params.N,
            d_min, e_min, "consensual")
        assert snr_ref is not None
        assert sol.snr == pytest.approx(snr_ref, rel=1e-3)

    @pytest.mark.parametrize("seed", FEASIBLE_M4)
    def test_trace_monotone_and_floors_met(self, seed):
        params = SystemParams(M=4, K=1)
        d_min, e_min, f_with, f_without = divergence_floors(params)
        sol = consensual_sca(tag0(params, seed), params)
        assert sol.feasible
        tr = sol.objective_trace
        assert all(b >= a - 1e-9 * max(1.0, abs(b))
                   for a, b in zip(tr, tr[1:]))
        # the linearized objective underestimates the true SNR
        assert sol.snr >= tr[-1] - 1e-6 * max(1.0, abs(tr[-1]))
        st = sol.stats
        assert st.kld_with >= d_min - 1e-6
        assert st.kld_without >= e_min - 1e-6
        # equivalent variance-ratio forms of the same floors
        assert st.delta1 / st.delta0 >= f_with * (1.0 - 1e-6)
        assert st.delta1_bar / st.delta0_bar >= f_without * (1.0 - 1e-6)

    def test_stats_invariant_to_global_phase(self):
        params = SystemParams(M=4, K=1)
        h0, h1, hs = tag0(params, 1)
        sol = consensual_sca((h0, h1, hs), params)
        rot = sol.v * np.exp(1j * 0.73)
        a = sol.stats
        b = detection_stats(rot, h0, h1, hs, params.sigma_s2,
                            params.sigma_w2, params.N)
        assert b.kld_with == pytest.approx(a.kld_with, rel=1e-12)
        assert b.kld_without == pytest.approx(a.kld_without, rel=1e-12)

    def test_each_step_starts_from_the_last_steps_dual(self, monkeypatch):
        # At seed 1, M = 4, tag 3's matched filter start is infeasible, so
        # its MMSE retry runs: the only init of the draw that needs the
        # MMSE direction, which is built for it alone.  Each tag's first
        # request is its lift, answered here with no point, so that the
        # SCA runs from those starts.
        built = []
        mmse = beamforming.mmse_beamformer

        def counted(*args):
            built.append(args)
            return mmse(*args)

        monkeypatch.setattr(beamforming, "mmse_beamformer", counted)
        params = SystemParams(M=4)
        chans = gen_channel_set(params, 1)
        retries = warm = 0
        for k in range(params.K):
            gen = consensual_steps(chans.tag_channels(k), params)
            last = None
            try:
                _C, row_sets = next(gen)    # the lift: one 3-row entry
                assert len(row_sets) == 1 and len(row_sets[0]) == 3
                ask = gen.send([_NO_LIFT])
                while True:
                    if last is None or last.status != OPTIMAL:
                        assert ask.start is None    # an init's first solve
                        retries += last is not None
                    else:
                        assert ask.start is last.dual
                        warm += 1
                    last = solve_ball_qcqp(ask)
                    ask = gen.send(last)
            except StopIteration:
                pass
        assert retries == len(built) == 1 and warm >= 5


def _run_alone(chan, params):
    """consensual_steps driven by hand, one kernel call per yield: its
    lift's SdpResult (None if it sends none), the statuses of its QCQP
    subproblems and its solution."""
    gen = consensual_steps(chan, params)
    lift, statuses = None, []
    try:
        ask = next(gen)
        while True:
            if isinstance(ask, tuple):      # the lift
                res = beamforming.solve_sdp_batch(*ask)
                (lift,) = res
            else:
                res = solve_ball_qcqp(ask)
                statuses.append(res.status)
            ask = gen.send(res)
    except StopIteration as stop:
        return lift, statuses, stop.value


def _same_solution(a, b):
    assert (a.v is None) == (b.v is None)
    if a.v is not None:
        assert a.v.tobytes() == b.v.tobytes()
    assert repr((a.snr, a.feasible, a.iterations, a.converged,
                 [float(t) for t in a.objective_trace], a.stats)) == \
        repr((b.snr, b.feasible, b.iterations, b.converged,
              [float(t) for t in b.objective_trace], b.stats))


class TestLockstep:
    """lockstep solves many SCA runs in shared batches, and each ends as it
    would alone."""

    def screened_tags(self):
        """(no-DL screened, with-DL eigenvalue screened) at M = 1 and 8."""
        params = SystemParams()
        _d, _e, f_with, f_without = divergence_floors(params)
        rng = np.random.default_rng(4)
        tags = []
        for m in (1, 8):
            h0 = rng.normal(size=m) + 1j * rng.normal(size=m)
            h0 *= np.sqrt(12.0) / np.linalg.norm(h0)
            weak = 1e-3 * h0 / np.linalg.norm(h0)
            assert params.gamma * np.vdot(weak, weak).real < f_without - 1.0
            # hs = 0.05 h0: (1.05)^2 < F_with, so gamma (H1 - F_with H0)
            # has no eigenvalue above 0, while the no-DL floor is
            # reachable.
            hs = 0.05 * h0
            assert 1.05 ** 2 < f_with
            assert params.gamma * np.vdot(hs, hs).real >= f_without - 1.0
            tags += [(h0, h0 + weak, weak), (h0, h0 + hs, hs)]
        return tags

    def test_every_field_matches_the_single_tag_run(self, monkeypatch):
        # A budget of 9 Newton steps a QCQP ends a few subproblems
        # max_iter and leaves most optimal.  The cases run twice: with
        # their exact lifts, and with every lift answered with no point,
        # which runs the SCA from its matched-filter and MMSE starts.
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 9)
        cases = [(chan, SystemParams()) for chan in self.screened_tags()]
        for m in (1, 2, 4, 8):
            params = SystemParams(M=m)
            for seed in (0, 1, 10):
                ch = gen_channel_set(params, seed)
                cases += [(ch.tag_channels(k), params)
                          for k in range(params.K)]
        batch = beamforming.solve_ball_qcqps

        def spied(problems):
            sizes.append(len(problems))
            return batch(problems)

        statuses = []
        for no_interior in (False, True):
            sizes = []
            with monkeypatch.context() as mp:
                if no_interior:
                    no_interior_lifts(mp)
                with monkeypatch.context() as spy:
                    spy.setattr(beamforming, "solve_ball_qcqps", spied)
                    together = lockstep([consensual_steps(chan, params)
                                         for chan, params in cases])
                alone = [_run_alone(chan, params) for chan, params in cases]
                for (chan, params), sol, (_lift, _st, by_hand) in zip(
                        cases, together, alone):
                    _same_solution(sol, consensual_sca(chan, params))
                    _same_solution(sol, by_hand)
            run = [st for _lift, st, _sol in alone]
            # each subproblem solved once, most of them in shared batches
            assert sum(sizes) == sum(map(len, run))
            assert len(sizes) < sum(sizes) / 2
            statuses += run
        assert not any(statuses[:4])    # the screens solve nothing
        assert any(st[0] == INFEASIBLE and st[1] == OPTIMAL
                   for st in statuses if len(st) > 1)   # MMSE retry
        assert any(MAX_ITER in st for st in statuses)
        assert any(st and MAX_ITER not in st for st in statuses)

    def test_evolved_relaxations_share_stacked_calls(self, monkeypatch):
        # Every tag of two realizations at M = 2 (a 2 x 2 lift) and at
        # M = 4 (3 x 3), with the consensual runs of the same tags mixed
        # in.  The relaxations go to solve_sdp_batch in calls of at most
        # _SDP_STACK entries per lift size, cut only between tags, and
        # every solution is field for field the one its tag gets alone:
        # from evolved_sdp, and from the generator driven by hand with one
        # call on its own objective.  The consensual lifts, one entry each,
        # come after every relaxation of their size in the same round.
        monkeypatch.setattr(beamforming, "_SDP_STACK", 150)
        cases = []
        for m in (2, 4):
            params = SystemParams(M=m, T=60)
            for seed in (0, 1):
                ch = gen_channel_set(params, seed)
                cases += [(ch.tag_channels(k), params)
                          for k in range(params.K)]
        calls = []
        batch = beamforming.solve_sdp_batch

        def spied(C, row_sets):
            # each tag has its own objective, so they count the tags
            calls.append((len(C[0]), len(row_sets),
                          len({c.tobytes() for c in C})))
            return batch(C, row_sets)

        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "solve_sdp_batch", spied)
            together = lockstep([evolved_steps(chan, params)
                                 for chan, params in cases]
                                + [consensual_steps(chan, params)
                                   for chan, params in cases])
        grids = {2: [], 3: []}      # each tag's grid size, per lift size
        objectives = {2: [], 3: []}     # and its objective's bytes
        for (chan, params), sol in zip(cases, together):
            by_hand = evolved_steps(chan, params)
            try:
                C, row_sets = next(by_hand)
                grids[len(C)].append(len(row_sets))
                objectives[len(C)].append(C.tobytes())
                by_hand.send(solve_sdp_batch(C, row_sets))
            except StopIteration as stop:
                by_hand = stop.value
            for alone in (evolved_sdp(chan, params), by_hand):
                _same_solution(sol, alone)
                assert sol.rank_residual == alone.rank_residual
        lifts = {2: [], 3: []}      # each lift's objective, per lift size
        for (chan, params), sol in zip(cases, together[len(cases):]):
            _same_solution(sol, consensual_sca(chan, params))
            try:
                C, _row_sets = next(consensual_steps(chan, params))
                lifts[len(C)].append(C.tobytes())
            except StopIteration:
                pass        # screened: no lift
        assert sum(grids[2]) > 150 and sum(grids[3]) > 150
        assert lifts[2] and lifts[3]
        want = []
        for m, sizes in grids.items():
            per_call = 150 // sizes[0]      # whole grids, all of one size
            assert set(sizes) == {sizes[0]} and per_call >= 2
            for s in range(0, len(sizes), per_call):
                tags = set(objectives[m][s:s + per_call])
                want.append((m, len(tags) * sizes[0], len(tags)))
            # The lifts fill the last call of their size.  A tag's lift
            # has its relaxations' objective, gamma' G1 on the same span
            # lift, so it counts as a new tag only if they are elsewhere.
            _m, n, _t = want[-1]
            assert n + len(lifts[m]) <= 150
            want[-1] = (m, n + len(lifts[m]), len(tags | set(lifts[m])))
        assert calls == want

    def test_mixed_designs_match_their_runs_alone(self, monkeypatch):
        # Consensual and evolved tags at M in {1, 2, 4} and the alternation
        # in both modes at Q = 2, all in one call: QCQPs of dimensions 1,
        # 2 and 4 and SDPs of lift sizes 1, 2 and 3 share its rounds.  Each
        # solution is field for field, v and x bytes included, what its
        # generator gives run alone.
        cases = []
        for m in (1, 2, 4):
            params = SystemParams(M=m, K=2, T=30)
            ch = gen_channel_set(params, 1)
            cases += [(design, (ch.tag_channels(k), params))
                      for k in range(params.K)
                      for design in (consensual_steps, evolved_steps)]
        for mode in ("consensual", "evolved"):
            params = SystemParams(M=4, Q=2, K=2, T=30)
            ch = gen_channel_set(params, 0)
            cases += [(alternating_steps, (ch.tag_channels(k), params, mode))
                      for k in range(params.K)]
        calls = []
        qcqps = beamforming.solve_ball_qcqps

        def spied(problems):
            calls.append(len(problems))
            return qcqps(problems)

        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "solve_ball_qcqps", spied)
            together = lockstep([design(*args) for design, args in cases])
            n_together = len(calls)
            alone = [lockstep([design(*args)])[0] for design, args in cases]
        assert n_together < len(calls) - n_together
        for sol, one in zip(together, alone):
            _same_solution(sol, one)
            assert (sol.x is None) == (one.x is None)
            if sol.x is not None:
                assert sol.x.tobytes() == one.x.tobytes()
            assert sol.rank_residual == one.rank_residual
        mimo = together[-4:]
        assert any(s.feasible for s in mimo[:2])
        assert any(s.feasible for s in mimo[2:])
        assert all(s.x is not None for s in mimo if s.feasible)

    def test_exception_ends_the_run(self):
        params = SystemParams()
        good = tag0(params, 1)
        bad = [h.copy() for h in good]
        bad[2][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            lockstep([consensual_steps(good, params),
                      consensual_steps(bad, params)])


def _consensual_lift(chan, params):
    """The lift consensual_steps sends first for chan, as (C, row_sets),
    rebuilt here from the span basis, with the round-off outside the
    channels' span set to 0, and checked to be the bytes the design sends.
    None when the screens end the solve before it."""
    try:
        C, row_sets = next(consensual_steps(chan, params))
    except StopIteration:
        return None
    h0, h1, hs = chan
    U = beamforming._span_basis(h0, hs)
    s = np.linalg.norm(h1)
    gamma = params.gamma * (s * s)
    _d, _e, f_with, f_without = divergence_floors(params)
    G0, G1, Gs = (np.outer(g, g.conj()) for g in (
        np.where(np.arange(len(U.T)) < 2, U.conj().T @ (h / s), 0.0)
        for h in (h0, h1, hs)))
    lift = gamma * G1, [[(-gamma * (G1 - f_with * G0), -(f_with - 1.0)),
                         (-gamma * Gs, -(f_without - 1.0)),
                         (np.zeros_like(G1), 1.0)]]
    assert _lift_bytes(*lift) == _lift_bytes(C, row_sets)
    return lift



class TestConsensualLift:
    """consensual_steps first solves its exact lift: trace plus the two
    floors' rows, which has a rank-one optimum, so its objective is the
    problem's optimum and its certificate proves infeasibility."""

    # draws with a tag whose lift is infeasible though the closed-form
    # screens pass it: (M, sigma_s2, seed)
    INFEASIBLE_DRAWS = [(2, 0.8, 15), (4, 0.2, 19), (4, 0.4, 15),
                        (8, 0.4, 17)]

    def test_infeasible_lift_certificate_is_a_floor(self):
        # The certificate is a floor under every W's largest normalized
        # violation, so under that of v v^H for every unit v of the lift,
        # sampled densely; such a tag ends infeasible with no QCQP.
        rng = np.random.default_rng(71)
        checked = 0
        for m, sigma_s2, seed in self.INFEASIBLE_DRAWS:
            params = SystemParams(M=m, sigma_s2=sigma_s2)
            ch = gen_channel_set(params, seed)
            for k in range(params.K):
                lift, qcqps, sol = _run_alone(ch.tag_channels(k), params)
                if lift is None or lift.status != INFEASIBLE:
                    continue
                assert not sol.feasible and sol.converged and not qcqps
                C, (rows,) = _consensual_lift(ch.tag_channels(k), params)
                n = len(C)
                V = rng.normal(size=(20000, n)) + 1j * rng.normal(
                    size=(20000, n))
                V /= np.linalg.norm(V, axis=1)[:, None]
                viol = np.max([(np.vecdot(V, V @ A.T).real - b)
                               / max(abs(b), np.linalg.norm(A))
                               for A, b in rows], axis=0)
                assert 0.0 < lift.certificate <= viol.min()
                checked += 1
        assert checked >= len(self.INFEASIBLE_DRAWS)

    def test_probe_tag_is_feasible(self, monkeypatch):
        # The matched-filter and MMSE starts' first inner approximations
        # are empty on this tag, so those starts alone end infeasible; the
        # lift's point meets both floors.
        params = SystemParams(M=4)
        chan = gen_channel_set(params, 25).tag_channels(1)
        sol = consensual_sca(chan, params)
        assert sol.feasible and sol.converged
        assert sol.snr == pytest.approx(4.04516239996760, rel=1e-6)
        assert round(sol.snr, 5) == 4.04516
        no_interior_lifts(monkeypatch)
        assert not consensual_sca(chan, params).feasible

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_snr_reaches_the_lift_optimum(self, m):
        # The lift's objective + gap bounds every unit v's SNR, and the
        # SCA from the lift's point ends within 1e-6 of it (up to 1e-12
        # of round-off above it).
        params = SystemParams(M=m)
        feasible = 0
        for seed in range(20):
            ch = gen_channel_set(params, seed)
            for k in range(params.K):
                lift, _st, sol = _run_alone(ch.tag_channels(k), params)
                if not sol.feasible:
                    continue
                feasible += 1
                assert lift.status == OPTIMAL and lift.gap >= 0.0
                bound = lift.objective + lift.gap
                assert sol.snr <= bound * (1.0 + 1e-12)
                assert sol.snr == pytest.approx(lift.objective, rel=1e-6)
        assert feasible >= 5

    def test_capped_first_step_keeps_the_lift_point(self, monkeypatch):
        # Every QCQP ends max_iter, so no SCA step is taken: the lift's
        # rank-one point is the incumbent, verified, and the solve goes
        # back unconverged, not infeasible.
        params = SystemParams(M=4, K=1)
        chan = tag0(params, 1)
        lift, _st, _sol = _run_alone(chan, params)
        assert lift.status == OPTIMAL
        monkeypatch.setattr(beamforming, "solve_ball_qcqps", lambda ps: [
            QcqpResult(v=None, status=MAX_ITER) for _p in ps])
        sol = consensual_sca(chan, params)
        assert sol.feasible and not sol.converged
        assert sol.iterations == 0 and sol.objective_trace == []
        v = beamforming._span_basis(chan[0], chan[2]) @ \
            beamforming._block_rank_one(lift.W)[0]
        assert sol.v.tobytes() == (v / np.linalg.norm(v)).tobytes()
        assert sol.snr == pytest.approx(lift.objective, rel=1e-6)

    def test_no_interior_lift_runs_the_matched_filter_and_mmse_starts(
            self, monkeypatch):
        # Tag 3 of seed 1 at M = 4: its matched-filter start's first
        # subproblem is infeasible, so the MMSE start follows.  With its
        # exact lift, the one start is the lift's point.
        params = SystemParams(M=4)
        h0, h1, hs = chan = gen_channel_set(params, 1).tag_channels(3)
        starts = []
        batch = beamforming.solve_ball_qcqps

        def spied(problems):
            starts.extend(p.c for p in problems if p.start is None)
            return batch(problems)

        def c_at(v):    # the objective of the subproblem at the start v
            v = v / np.linalg.norm(v)
            return 2.0 * params.gamma * (np.outer(h1, h1.conj()) @ v)

        lift, _st, _sol = _run_alone(chan, params)
        monkeypatch.setattr(beamforming, "solve_ball_qcqps", spied)
        exact = consensual_sca(chan, params)
        no_interior_lifts(monkeypatch)
        today = consensual_sca(chan, params)
        assert exact.feasible and today.feasible
        v_lift = beamforming._span_basis(h0, hs) @ \
            beamforming._block_rank_one(lift.W)[0]
        mmse = mmse_beamformer(h0, hs, params.sigma_s2, params.sigma_w2)
        assert len(starts) == 3
        for c, v in zip(starts, (v_lift, h1, mmse)):
            assert np.linalg.norm(c - c_at(v)) <= 1e-12 * np.linalg.norm(c)

    def test_stacked_with_relaxations_is_bit_identical(self, monkeypatch):
        # Consensual lifts and evolved relaxations of one lift size share
        # solve_sdp_batch calls; every generator receives the results,
        # and ends at the solution, it gets run alone.
        cases = []
        for m in (2, 4, 8):
            params = SystemParams(M=m, T=30)
            ch = gen_channel_set(params, 1)
            cases += [(design, ch.tag_channels(k), params)
                      for k in range(params.K)
                      for design in (consensual_steps, evolved_steps)]
        mixed = []
        batch = beamforming.solve_sdp_batch

        def spied(C, row_sets):
            # a lift's objective is one entry's; a relaxation grid's is
            # shared by its entries
            uses = Counter(map(id, C)).values()
            mixed.append(1 in uses and max(uses) > 1)
            return batch(C, row_sets)

        def run(gens):
            got = [[] for _g in gens]
            sols = lockstep([_recorded(g, r) for g, r in zip(gens, got)])
            return got, sols

        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "solve_sdp_batch", spied)
            got, together = run([d(c, p) for d, c, p in cases])
        assert any(mixed)
        for (design, chan, params), res, sol in zip(cases, got, together):
            (res_alone,), (alone,) = run([design(chan, params)])
            assert list(map(_fields, res)) == list(map(_fields, res_alone))
            _same_solution(sol, alone)
            assert sol.rank_residual == alone.rank_residual


def _recorded(gen, got):
    """gen, with every result sent to it appended to got."""
    res = None
    try:
        while True:
            res = yield gen.send(res)
            got.append(res)
    except StopIteration as stop:
        return stop.value


def _fields(results):
    """Every field of each kernel result of a list (an SDP request's) or
    of one QcqpResult: arrays as bytes, floats in their exact repr."""
    if not isinstance(results, list):
        results = [results]
    return [tuple(x.tobytes() if isinstance(x, np.ndarray) else repr(x)
                  for x in vars(r).values()) for r in results]


class TestEvolvedSdp:
    def test_no_direct_link_reduces_to_matched_filter(self):
        rng = np.random.default_rng(3)
        params = trivial_params(M=3)
        h1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        h0 = np.zeros(3, dtype=complex)
        sol = evolved_sdp((h0, h1, h1), params)
        assert sol.feasible
        u = h1 / np.linalg.norm(h1)
        assert abs(np.vdot(sol.v, u)) == pytest.approx(1.0, abs=1e-6)
        assert sol.snr == pytest.approx(
            params.gamma * np.vdot(h1, h1).real, rel=1e-6)

    @pytest.mark.parametrize("seed", FEASIBLE_M2)
    def test_matches_grid_oracle_m2(self, seed):
        params = SystemParams(M=2, K=1)
        d_min, e_min, _fw, _fo = divergence_floors(params)
        h0, h1, hs = tag0(params, seed)
        sol = evolved_sdp((h0, h1, hs), params)
        assert sol.feasible
        snr_ref, _v = constrained_snr_oracle(
            h0, h1, hs, params.sigma_s2, params.sigma_w2, params.N,
            d_min, e_min, "evolved")
        assert snr_ref is not None
        # grid quantization of the auxiliary variable dominates the error
        assert sol.snr == pytest.approx(snr_ref, rel=1e-2)

    @pytest.mark.parametrize("seed", FEASIBLE_M4)
    def test_constraints_and_rank_at_solution(self, seed):
        params = SystemParams(M=4, K=1, T=20)
        _d, e_min, _fw, _fo = divergence_floors(params)
        h0, h1, hs = tag0(params, seed)
        sol = evolved_sdp((h0, h1, hs), params)
        assert sol.feasible
        assert sol.rank_residual <= 1e-3
        st = sol.stats
        assert st.delta_kld >= -1e-6
        assert st.kld_without >= e_min - 1e-6
        scale = float(np.vdot(h1, h1).real)
        assert ci_inequality_margin(sol.v, h0, hs, params.gamma) \
            >= -1e-6 * scale

    # SNR of evolved_sdp on tag 0 of these M = 4, T = 100 realizations,
    # frozen from the version that recovers v by purifying the relaxation
    # optimum, so each value is its best grid point's relaxation bound.
    # Seed 1 has a degenerate relaxation optimum (equal objectives on a face
    # of optimal W); purification reaches the bound from any point of that
    # face, while the penalty stage, seeded from whichever W the kernel
    # returns, ended up to 4.2e-5 lower.
    FROZEN_M4_T100 = {1: (18.31032868466921, 1e-4),
                      5: (1.1840014480028425, 1e-6),
                      9: (10.701021114906977, 1e-6),
                      10: (18.299377196793053, 1e-6),
                      17: (8.749842901184765, 1e-6)}

    @pytest.mark.parametrize("seed", sorted(FROZEN_M4_T100))
    def test_snr_matches_frozen(self, seed):
        params = SystemParams(M=4, K=1)
        snr, rel = self.FROZEN_M4_T100[seed]
        sol = evolved_sdp(tag0(params, seed), params)
        assert sol.feasible and sol.converged
        assert sol.snr == pytest.approx(snr, rel=rel)

    def test_relaxation_pass_is_one_batched_call(self, monkeypatch):
        params = SystemParams(M=4, K=1)
        calls = {"batch": 0, "entries": 0, "single": 0}

        def batch(C, row_sets):
            calls["batch"] += 1
            calls["entries"] += len(row_sets)
            return solve_sdp_batch(C, row_sets)

        def single(*args, **kwargs):
            calls["single"] += 1
            return solve_small_sdp(*args, **kwargs)

        monkeypatch.setattr(beamforming, "solve_sdp_batch", batch)
        monkeypatch.setattr(beamforming, "solve_small_sdp", single)
        sol = evolved_sdp(tag0(params, 9), params)
        assert sol.feasible
        # t = 0 is solved in closed form, the other T - 1 points by the kernel
        assert calls["batch"] == 1 and calls["entries"] == params.T - 1
        # iterations: the T grid points plus the penalty solves
        assert sol.iterations == params.T + calls["single"]

    def test_relaxation_without_optimum_drops_its_point(self, monkeypatch):
        # The relaxations are solved exactly, so the kernel's results are
        # patched: one grid point ending with no optimum (no_interior)
        # drops that point alone, and the rest of the grid still answers.
        params = SystemParams(M=4, K=1, T=20)
        chan = tag0(params, 9)
        plain = evolved_sdp(chan, params)

        def dropped(C, row_sets):
            results = solve_sdp_batch(C, row_sets)
            results[3] = convex.SdpResult(W=None, status=convex.NO_INTERIOR)
            return results

        monkeypatch.setattr(beamforming, "solve_sdp_batch", dropped)
        sol = evolved_sdp(chan, params)
        assert plain.converged and sol.converged
        assert sol.feasible and sol.snr <= plain.snr

    def test_capped_first_penalty_solve_keeps_the_incumbent(self, monkeypatch):
        # Every penalty subproblem has the relaxation's rows, so a capped
        # first solve leaves the relaxation's point as the incumbent: the
        # grid point stays, and the result says it did not converge.
        # Seed 9's relaxation points are rank one, so the rank test is
        # switched off here to run the penalty fallback.
        monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        params = SystemParams(M=4, K=1)
        chan = tag0(params, 9)
        uncapped = evolved_sdp(chan, params)
        calls = []

        def capped_first(prob):
            calls.append(1)
            if len(calls) == 1:
                return convex.SdpResult(W=None, status=convex.MAX_ITER)
            return solve_small_sdp(prob)

        monkeypatch.setattr(beamforming, "solve_small_sdp", capped_first)
        sol = evolved_sdp(chan, params)
        assert sol.feasible and not sol.converged
        assert sol.snr >= (1.0 - 1e-6) * uncapped.snr

    def test_one_penalty_run_per_grid_point(self, monkeypatch):
        # Blurring the penalty stage's W_s toward Tr(W_s) I/2 keeps its
        # dominant eigenvector, its trace and w_out, but leaves it far from
        # rank one.  That v is still verified and kept, and no grid point
        # is rerun at a larger weight.  The rank test is switched off so
        # that the penalty fallback runs.
        monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        params = SystemParams(M=4, K=1)
        chan = tag0(params, 9)
        plain = evolved_sdp(chan, params)
        h1 = chan[1]
        chi = params.chi * params.gamma * float(
            np.linalg.eigvalsh(np.outer(h1, h1.conj()))[-1])
        penalized_sca = beamforming._penalized_sca
        calls = []

        def blurred(*args):
            calls.append(args)
            W, *rest = penalized_sca(*args)
            W = W.copy()
            Ws = W[:2, :2]
            W[:2, :2] = 0.9 * Ws + 0.05 * np.trace(Ws) * np.eye(2)
            return (W, *rest)

        monkeypatch.setattr(beamforming, "_penalized_sca", blurred)
        sol = evolved_sdp(chan, params)
        assert calls
        for args in calls:
            assert args[3] == pytest.approx(chi, rel=1e-12)
        assert len({id(args[0]) for args in calls}) == len(calls)
        assert sol.feasible
        assert sol.snr == pytest.approx(plain.snr, rel=1e-9)
        assert sol.rank_residual > 1e-3

    @pytest.mark.parametrize("seed", sorted(FROZEN_M4_T100))
    def test_snr_reaches_relaxation_bound(self, seed, monkeypatch):
        # The recovered v is certified: its SNR is the largest relaxation
        # objective over the grid, which bounds every rank-one point.
        params = SystemParams(M=4, K=1)
        bounds = []

        def batch(C, row_sets):
            results = solve_sdp_batch(C, row_sets)
            bounds.extend(r.objective for r in results
                          if r.status == convex.OPTIMAL)
            return results

        monkeypatch.setattr(beamforming, "solve_sdp_batch", batch)
        sol = evolved_sdp(tag0(params, seed), params)
        assert sol.feasible
        assert sol.snr >= (1.0 - 1e-7) * max(bounds)

    def test_degenerate_optimum_needs_no_penalty_solve(self, monkeypatch):
        # Tag 1 of realization 100018 (K = 5, M = 4) has a degenerate
        # relaxation optimum.  From it the penalty stage took between 8 and
        # 83 SDP solves, as kernel round-off moved, and reached 18.084826.
        params = SystemParams(seed=100018)
        chan = gen_channel_set(params, params.seed).tag_channels(1)
        calls = []

        def single(*args, **kwargs):
            calls.append(1)
            return solve_small_sdp(*args, **kwargs)

        monkeypatch.setattr(beamforming, "solve_small_sdp", single)
        sol = evolved_sdp(chan, params)
        assert sol.feasible and sol.converged
        assert not calls
        assert sol.snr >= 18.084826

    @pytest.mark.parametrize("seed", sorted(FROZEN_M4_T100))
    def test_penalty_fallback_keeps_quality(self, seed, monkeypatch):
        # With no relaxation point accepted as rank one, every examined
        # grid point runs the penalty SCA, which must reach the rank-one
        # point's SNR to its tolerance.
        params = SystemParams(M=4, K=1)
        chan = tag0(params, seed)
        plain = evolved_sdp(chan, params)
        monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        sol = evolved_sdp(chan, params)
        assert sol.feasible and sol.converged
        assert sol.iterations > params.T
        assert sol.snr == pytest.approx(plain.snr, rel=1e-5)

    def test_penalty_subproblems_are_block_diagonal(self, monkeypatch):
        # With no relaxation point accepted as rank one, at M = 4, every
        # penalty subproblem is diag(W_s, w_out) in objective and rows, so
        # the kernel solves it exactly, with no Newton step.
        monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        single = beamforming.solve_small_sdp
        calls = []

        def recorded(p):
            res = single(p)
            calls.append((p.C.copy(), [A for A, _b in p.ineq_constraints],
                          res))
            return res

        monkeypatch.setattr(beamforming, "solve_small_sdp", recorded)
        params = SystemParams(M=4, K=1)
        for seed in (1, 5):
            assert evolved_sdp(tag0(params, seed), params).feasible
        assert len(calls) > 10
        for C, mats, res in calls:
            assert C.shape == (3, 3)
            for X in [C] + mats:
                assert not X[:2, 2].any() and not X[2, :2].any()
            assert res.status == OPTIMAL and res.newton_steps == 0

    def test_rank_two_point_recovers_a_point_that_meets_the_rows(self):
        # A relaxation point whose W_s is rank two: the penalty SCA from it
        # ends with W_s rank one, and the v recovered from W_s's top
        # eigenpair and w_out has a lift that meets the rows.  The rows
        # are W_00 <= 0.6 and W_11 >= 0.1, with 0 <= 1 as the third.
        E0, E1 = (_block3(np.diag(d), 0.0) for d in ([1.0, 0.0],
                                                     [0.0, 1.0]))
        rows = [(E0, 0.6), (-E1, -0.1), (np.zeros((3, 3)), 1.0)]
        H1 = _block3(np.array([[1.0, 0.2], [0.2, 0.5]]), 0.0)
        W = _block3(np.diag([0.5, 0.3]), 0.2)
        assert np.linalg.eigvalsh(W[:2, :2])[0] > 0.1
        W_end, trace, converged, _n = beamforming._penalized_sca(
            rows, H1, 1.0, 1.0, W, 100, 1e-9)
        v, residual = beamforming._block_rank_one(W_end)
        assert converged and trace and residual < 1e-9
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        for A, b in rows:
            assert np.vdot(v, A @ v).real <= b + 1e-9
        assert np.vdot(v, H1 @ v).real == pytest.approx(
            np.trace(H1 @ W_end).real, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
    @pytest.mark.parametrize("seed", [1, 9, 10])
    def test_invariant_to_joint_channel_and_noise_scale(self, seed, scale):
        # Scaling every channel by s and the noise power by s^2 leaves each
        # divergence and the SNR of every v unchanged, so the design too.
        params = SystemParams(M=4, K=1)
        chan = tag0(params, seed)
        plain = evolved_sdp(chan, params)
        scaled = evolved_sdp(tuple(scale * h for h in chan),
                             replace(params, sigma_w2=params.sigma_w2
                                     * scale * scale))
        assert plain.feasible and scaled.feasible
        assert scaled.snr == pytest.approx(plain.snr, rel=1e-7)

    def test_scalar_feasibility_matches_interval(self):
        # M = 1 leaves no beamforming freedom: feasible exactly when the
        # operating SNR falls in the closed-form scalar interval.
        params = SystemParams(M=1, K=1)
        g_min = kld_threshold(params.zeta_max) / params.N + 1.0
        rng = np.random.default_rng(7)
        n_feas = 0
        for _ in range(200):
            h_sr = complex(*rng.normal(scale=0.12, size=2))
            h_str = complex(*rng.normal(scale=0.6, size=2))
            h0 = np.array([h_sr])
            hs = np.array([h_str])
            sol = evolved_sdp((h0, h0 + hs, hs), params)
            region = snr_interval(h_sr, h_str, g_min)
            inside = region.gamma_lo <= params.gamma <= region.gamma_hi
            assert sol.feasible == inside
            n_feas += sol.feasible
        assert n_feas >= 20   # the draw scales must keep both sides covered


def _zero_forcing(h0, hs):
    """P hs, P the projector off h0."""
    return hs - h0 * (np.vdot(h0, hs) / np.vdot(h0, h0))


def _unpruned(chan, params):
    """evolved_steps driven by hand, its whole grid solved in one
    solve_sdp_batch call."""
    gen = evolved_steps(chan, params)
    try:
        C, row_sets = next(gen)
        gen.send(solve_sdp_batch(C, row_sets))
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a second request")


class TestPrunedGrid:
    """evolved_steps prunes its grid by bound: it examines the points by
    falling relaxation bound, and drops the rest once none of them can
    beat the best SNR found.  When the top candidates fail verification,
    the points below them are examined in turn, at the kernel's rank-one
    point or by the penalty SCA, and the solution is the one the whole
    grid gives, from one kernel call of every point but t = 0."""

    CASES = pytest.mark.parametrize("seed, k", [(0, 1), (1, 0), (2, 4)])

    @staticmethod
    def _run(monkeypatch, chan, params):
        """evolved_sdp's solution, and the entries of its kernel calls."""
        calls = []
        batch = beamforming.solve_sdp_batch

        def spied(C, row_sets):
            calls.append(len(row_sets))
            return batch(C, row_sets)

        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "solve_sdp_batch", spied)
            sol = evolved_sdp(chan, params)
        return sol, calls

    @staticmethod
    def _reject_above(monkeypatch, cut):
        """_finalize, rejecting every point whose SNR reaches cut; the SNRs
        of the points it is asked to verify."""
        finalize = beamforming._finalize
        seen = []

        def picky(v, *args):
            v, stats, ok, snr = finalize(v, *args)
            seen.append(snr)
            return v, stats, ok and snr < cut, snr

        monkeypatch.setattr(beamforming, "_finalize", picky)
        return seen

    @CASES
    @pytest.mark.parametrize("rank_one", [True, False])
    def test_rejected_top_candidates_solve_the_dropped_points(
            self, monkeypatch, seed, k, rank_one):
        # Every point within 3% of the solution's SNR is rejected, so the
        # points whose bounds fall below the plain run's SNR, which that
        # run dropped, are examined; with no point accepted as rank one,
        # through the penalty fallback.
        params = SystemParams(M=4, T=20, J=10)
        chan = gen_channel_set(params, seed).tag_channels(k)
        if not rank_one:
            monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        best = evolved_sdp(chan, params).snr
        seen = self._reject_above(monkeypatch, 0.97 * best)
        sol, calls = self._run(monkeypatch, chan, params)
        # the top candidates were verified and rejected, and the solution
        # is a point the plain run dropped, its bound below that run's SNR
        assert max(seen) >= 0.97 * best
        assert sol.feasible and sol.snr < 0.97 * best
        unpruned = _unpruned(chan, params)
        _same_solution(sol, unpruned)
        assert sol.rank_residual == unpruned.rank_residual
        assert calls == [params.T - 1]

    @CASES
    def test_penalty_fallback_matches_the_unpruned_grid(self, monkeypatch,
                                                        seed, k):
        monkeypatch.setattr(beamforming, "_RANK_TOL", -1.0)
        params = SystemParams(M=4, T=20, J=10)
        chan = gen_channel_set(params, seed).tag_channels(k)
        sol, calls = self._run(monkeypatch, chan, params)
        unpruned = _unpruned(chan, params)
        assert sol.feasible and sol.iterations > params.T
        _same_solution(sol, unpruned)
        assert sol.rank_residual == unpruned.rank_residual
        assert calls == [params.T - 1]


class TestZeroForcing:
    """At the grid point t = 0 the relaxation's only face is W h0 = 0, on
    which the optimum is the zero-forcing receiver v = P hs / ||P hs||: the
    design takes it in closed form and sends only t > 0 to the kernel."""

    def test_zero_forcing_point_wins_realization_300003(self):
        # Tag 3 of realization 300003 (the solve workload's fourth input of
        # benchmark seed 3) reached 19.5603 while t = 0 went to the kernel,
        # which found no interior there; zero forcing beats every t > 0.
        params = SystemParams(seed=300003)
        h0, h1, hs = gen_channel_set(params, params.seed).tag_channels(3)
        sol = evolved_sdp((h0, h1, hs), params)
        assert sol.feasible and sol.converged
        assert sol.snr == pytest.approx(23.8248, abs=1e-4)
        assert abs(np.vdot(sol.v, h0)) / np.linalg.norm(h0) < 1e-12
        assert sol.iterations == params.T
        assert sol.rank_residual == 0.0 and sol.objective_trace == []

    # sigma_s2 = 5 makes about a third of the draws feasible, against a
    # tenth at the default.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 4]), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.6, 5.0]))
    def test_snr_at_least_a_verified_zero_forcing_point(self, m, seed,
                                                        sigma_s2):
        params = SystemParams(M=m, K=1, sigma_s2=sigma_s2)
        h0, h1, hs = chan = tag0(params, seed)
        _d, e_min, _fw, _fwo = divergence_floors(params)
        pgs = _zero_forcing(h0, hs)
        stats = detection_stats(pgs / np.linalg.norm(pgs), h0, h1, hs,
                                params.sigma_s2, params.sigma_w2, params.N)
        tol = beamforming._FEAS_TOL
        assume(stats.delta_kld >= -tol and stats.kld_without >= e_min - tol)
        sol = evolved_sdp(chan, params)
        assert sol.feasible
        assert sol.snr >= (params.gamma * np.vdot(pgs, pgs).real
                           * (1.0 - 1e-12))

    def test_backscatter_along_the_direct_link(self):
        # hs = 2 h0 exactly makes P hs exactly 0, and floors at zero do not
        # screen it out: there is no zero-forcing receiver to normalize.
        params = trivial_params(M=4)
        h0 = tag0(params, 9)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = evolved_sdp((h0, 3.0 * h0, 2.0 * h0), params)
        assert sol.feasible and sol.iterations == params.T

    @pytest.mark.parametrize("m, r", [(1, 1.0), (4, 1e-8)],
                             ids=["single-antenna", "weak-direct-link"])
    def test_one_point_grid_is_one_kernel_entry(self, m, r, monkeypatch):
        # With no room for a face (M = 1) or a direct link too weak for the
        # grid (r = 1e-8), the grid is one point, and the kernel solves it.
        params = SystemParams(M=m, K=1)
        h0, _h1, hs = tag0(params, 9)
        entries = []

        def batch(C, row_sets):
            entries.append(len(row_sets))
            return solve_sdp_batch(C, row_sets)

        monkeypatch.setattr(beamforming, "solve_sdp_batch", batch)
        sol = evolved_sdp((r * h0, r * h0 + hs, hs), params)
        assert entries == [1]
        assert sol.iterations == 1


def _unitary(m, seed):
    """A random m x m unitary: the Q factor of a complex Gaussian draw."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


class TestSpanReduction:
    """evolved_sdp solves its lift on the channels' span plus one direction.

    The design depends on v only through v^H h0, v^H hs and ||v||, so a
    unitary rotation of the channels, or zero padding to more antennas,
    leaves the SNR and the verdict unchanged.  v itself is not compared: a
    degenerate optimum need not have a unique v.  Tag 0 of seed 0 is
    infeasible in every case below; the others are feasible.
    """

    @pytest.mark.parametrize("m, seed", [(4, 0), (4, 1), (4, 5), (4, 10),
                                         (8, 0), (8, 1), (8, 9), (8, 18)])
    def test_invariant_to_unitary_rotation(self, m, seed):
        params = SystemParams(M=m, K=1)
        chan = tag0(params, seed)
        plain = evolved_sdp(chan, params)
        Q = _unitary(m, seed)
        rotated = evolved_sdp(tuple(Q @ h for h in chan), params)
        assert rotated.feasible == plain.feasible == (seed != 0)
        assert rotated.snr == pytest.approx(plain.snr, rel=1e-9)

    # (sigma_s2, seed, tag): M = 3 draws, the last five with an optimum
    # that puts part of v's norm outside the channels' span.  Restricted
    # to the span, those read 12.87, 8.05, infeasible, 10.85 and 13.25,
    # against about 18 in C^3.
    PADDED = [(0.5, 0, 0), (0.5, 1, 0), (0.5, 9, 0),
              (0.2, 0, 1), (0.8, 0, 1), (0.8, 1, 0), (0.5, 1, 3)]
    # Their SNRs with the lift on the whole of C^3 (no basis), its 3 x 3
    # relaxations solved to a gap of 1e-12 by the log-barrier SDP method
    # the package had before its exact kernel, which shares no code with it.
    FULL_C3 = {(0.5, 1, 0): 18.3139289922896, (0.5, 9, 0): 7.91365860602065,
               (0.2, 0, 1): 18.3501911139328, (0.8, 0, 1): 18.0440806000990,
               (0.8, 1, 0): 17.8667729667978, (0.5, 1, 3): 18.3139289922864}

    @pytest.mark.parametrize("sigma_s2, seed, k", PADDED)
    def test_zero_padded_m3_matches_m3(self, sigma_s2, seed, k):
        # Zero padding to M = 8, behind a random unitary, leaves the answer
        # at M = 3, and both are the answer on the whole of C^3 (FULL_C3).
        # At the first grid point t where the design's v meets the rows,
        # SLSQP over every unit v of C^3, from spread starts, finds none
        # better, so neither the span basis nor its outside direction
        # loses anything there.
        params = SystemParams(M=3, sigma_s2=sigma_s2)
        chan = gen_channel_set(params, seed).tag_channels(k)
        plain = evolved_sdp(chan, params)
        Q = _unitary(8, seed)
        padded = evolved_sdp(tuple(Q @ np.concatenate([h, np.zeros(5)])
                                   for h in chan), replace(params, M=8))
        assert padded.feasible == plain.feasible == ((seed, k) != (0, 0))
        assert padded.snr == pytest.approx(plain.snr, rel=1e-9)
        if not padded.feasible:
            return
        assert np.linalg.norm(padded.v) == pytest.approx(1.0, abs=1e-12)
        assert plain.snr == pytest.approx(self.FULL_C3[sigma_s2, seed, k],
                                          rel=1e-9)
        C, rows = _first_grid_point(plain.v, chan, params)
        rng = np.random.default_rng(seed)
        starts = [plain.v, chan[1]] + [rng.normal(size=3)
                                       + 1j * rng.normal(size=3)
                                       for _ in range(10)]
        ref, _v = slsqp_sphere_oracle(C, rows, starts)
        assert ref == pytest.approx(plain.snr, rel=1e-8)


def _first_grid_point(v, chan, params):
    """The first of evolved_sdp's grid relaxations whose rows v meets, to
    1e-7 of each row's scale, lifted in the whole of C^M with no basis, as
    (C, rows): the channels divided by ||h1||, gamma times ||h1||^2, and
    the grid of T points over [0, ||h0||^2 / ||h1||^2]."""
    h0, h1, hs = chan
    s = np.linalg.norm(h1)
    g0, g1, gs = (h / s for h in chan)
    gamma = params.gamma * s * s
    floor = divergence_floors(params)[3] - 1.0
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    for t in np.linspace(0.0, np.vdot(g0, g0).real, params.T):
        rows = [(-H1 + (1.0 + gamma * t) * Hs, -t), (-gamma * Hs, -floor),
                (H0, t)]
        if all(np.vdot(v, A @ v).real - b
               <= 1e-7 * max(abs(b), np.linalg.norm(A)) for A, b in rows):
            return gamma * H1, rows
    raise AssertionError("v meets no grid point's rows")


def _relaxations(chan, params):
    """The grid relaxations evolved_steps sends to the kernel for chan, as
    (C, row_sets), rebuilt here from the span basis with the round-off in
    the component outside the channels' span set to 0, and checked to be
    the bytes the design sends.  None when it sends none."""
    try:
        C, row_sets = next(evolved_steps(chan, params))
    except StopIteration:
        return None
    h0, h1, hs = chan
    U = beamforming._span_basis(h0, hs)
    s = np.linalg.norm(h1)
    gamma = params.gamma * (s * s)
    floor = divergence_floors(params)[3] - 1.0
    ts = [rows[2][1] for rows in row_sets]      # each entry's (H0, t)
    g0, g1, gs = (U.conj().T @ (h / s) for h in (h0, h1, hs))
    for g in (g0, g1, gs):
        g[2:] = 0.0
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    block = gamma * H1, [[(-H1 + (1.0 + gamma * t) * Hs, -t),
                          (-gamma * Hs, -floor), (H0, t)] for t in ts]
    assert _lift_bytes(*block) == _lift_bytes(C, row_sets)
    return block


def _lift_bytes(C, row_sets):
    return [C.tobytes()] + [A.tobytes() + repr(b).encode()
                            for rows in row_sets for A, b in rows]


class TestBlockRelaxation:
    """At M >= 3 the evolved relaxations are block diagonal, diag(W_s,
    w_out), and the kernel solves them on that block."""

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_lift_leaves_the_outside_direction_empty(self, m):
        params = SystemParams(M=m)
        for seed in range(3):
            ch = gen_channel_set(params, seed)
            for k in range(params.K):
                req = _relaxations(ch.tag_channels(k), params)
                if req is None:
                    continue
                C, row_sets = req
                mats = [C] + [A for rows in row_sets for A, _b in rows]
                last = [np.concatenate([X[-1], X[:, -1]]) for X in mats]
                if m == 2:
                    assert all(v.any() for v in last[:2])
                else:
                    assert not np.any(last)


class TestRankOneRecovery:
    """evolved_steps keeps the kernel's rank-one point of a relaxation, and
    sends any other optimum to the penalty SCA."""

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_optimal_lifts_are_rank_one(self, monkeypatch, m):
        # Every OPTIMAL evolved relaxation and consensual lift of seeds
        # 0-19 is the kernel's rank-one point: on the cone's surface, or at
        # its apex.
        batch = beamforming.solve_sdp_batch
        got = {"consensual": [], "evolved": []}

        params = SystemParams(M=m)
        for seed in range(20):
            ch = gen_channel_set(params, seed)
            for mode, steps in (("consensual", consensual_steps),
                                ("evolved", evolved_steps)):
                def recorded(C, row_sets, into=got[mode]):
                    results = batch(C, row_sets)
                    into.extend(r.W for r in results
                                if r.status == OPTIMAL)
                    return results

                monkeypatch.setattr(beamforming, "solve_sdp_batch", recorded)
                lockstep([steps(ch.tag_channels(k), params)
                          for k in range(params.K)])
        for mode, Ws in got.items():
            assert Ws, mode
            worst = max(beamforming._block_rank_one(W)[1] for W in Ws)
            assert worst <= 1e-12, mode

    @staticmethod
    def _vertex_relaxation():
        """An M = 2 relaxation whose optimum is the vertex of its three
        rows and the trace, inside the cone: W_s = [[1 + p_1, p_2 + i p_3],
        [p_2 - i p_3, 1 - p_1]] / 2 at |p| = 0.3, rank two.  In z = (1, x)
        each row is n_i . x <= n_i . p, and the objective is the normals'
        sum, so p is the one maximizer.  (The evolved design's own rows
        never give such an optimum: it needs the objective's x-part in the
        span of the rows', which makes their normals coplanar.)"""
        rng = np.random.default_rng(7)
        p = rng.normal(size=3)
        p *= 0.3 / np.linalg.norm(p)
        n = rng.normal(size=(3, 3))

        def mat(x):     # Tr(mat(x) W) = x . x_W at tau = 1
            return np.array([[x[0], x[1] + 1j * x[2]],
                             [x[1] - 1j * x[2], -x[0]]])

        rows = [(mat(ni), float(ni @ p)) for ni in n]
        Ws = 0.5 * (np.eye(2) + mat(p))
        return mat(n.sum(axis=0)), rows, Ws

    def test_interior_vertex_runs_the_penalty(self, monkeypatch):
        C, rows, Ws = self._vertex_relaxation()
        (res,) = solve_sdp_batch(C, [rows])
        assert res.status == OPTIMAL
        assert np.abs(res.W - Ws).max() <= 1e-12
        assert beamforming._block_rank_one(res.W)[1] > 0.5
        # Every evolved relaxation answered with that optimum: the
        # relaxation's point is not rank one, so each examined grid point
        # runs the penalty SCA from it, and the v of W_s's top eigenpair
        # is never verified.
        monkeypatch.setattr(beamforming, "solve_sdp_batch",
                            lambda C, row_sets: [res] * len(row_sets))
        penalized_sca = beamforming._penalized_sca
        finalize = beamforming._finalize
        starts, verified = [], []

        def spied(rows, H1, gamma, chi, W, *args):
            starts.append(W)
            return penalized_sca(rows, H1, gamma, chi, W, *args)

        def seen(v, *args):
            verified.append(v)
            return finalize(v, *args)

        monkeypatch.setattr(beamforming, "_penalized_sca", spied)
        monkeypatch.setattr(beamforming, "_finalize", seen)
        params = SystemParams(M=2, K=1, T=3, J=20)
        chan = tag0(params, 1)
        sol = evolved_sdp(chan, params)
        assert starts and all(W is res.W for W in starts)
        assert sol.iterations > params.T
        top = beamforming._span_basis(chan[0], chan[2]) @ (
            beamforming._block_rank_one(res.W)[0])
        assert verified and not any(np.array_equal(v, top)
                                    for v in verified)


# h0 = c hs: a unit direction of C^M, the squared norm of hs, and c.
collinear_draws = st.tuples(
    st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.floats(-2.5, 0.5),
    st.floats(-1.5, 1.5), st.floats(-np.pi, np.pi))


def collinear_case(draw, mode):
    """Channels h0 = c hs, params, and the oracle's range of |v^H hs|^2."""
    m, seed, log_norm2, log_mag, phase = draw
    rng = np.random.default_rng(seed)
    g = rng.normal(size=m) + 1j * rng.normal(size=m)
    norm2 = 10.0 ** log_norm2
    hs = g * np.sqrt(norm2) / np.linalg.norm(g)
    c = 10.0 ** log_mag * np.exp(1j * phase)
    params = SystemParams(K=1, M=m)
    d_min, e_min, _fw, _fwo = divergence_floors(params)
    lo, hi = collinear_x_range(c, norm2, params.sigma_s2, params.sigma_w2,
                               params.N, d_min, e_min, mode)
    return (c * hs, (1.0 + c) * hs, hs), params, c, norm2, lo, hi


class TestCollinearChannels:
    """h0 parallel to hs: both designs against the closed form in x.

    Draws within 1e-4 relative of a feasibility boundary are skipped: there
    the verdict turns on the solvers' stated feasibility tolerance.  So are
    evolved draws whose feasible range is narrower than one grid step.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(collinear_draws)
    def test_consensual_matches_closed_form(self, draw):
        chan, params, c, norm2, lo, hi = collinear_case(draw, "consensual")
        assume(abs(hi - lo) > 1e-4 * max(hi, lo))
        sol = consensual_sca(chan, params)
        assert sol.feasible == (lo <= hi)
        if sol.feasible:
            assert sol.snr == pytest.approx(
                params.gamma * abs(1.0 + c) ** 2 * hi, rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(collinear_draws)
    def test_evolved_within_one_grid_step(self, draw):
        # The grid over t = |v^H h0|^2 = |c|^2 x steps by ||h0||^2 / (T - 1)
        # up to ||h0||^2, so one grid point lies within ||hs||^2 / (T - 1)
        # below x* = hi in x.
        chan, params, c, norm2, lo, hi = collinear_case(draw, "evolved")
        x_grid = hi - norm2 / (params.T - 1)
        assume(abs(hi - lo) > 1e-4 * max(hi, lo))
        assume(lo > hi or x_grid > lo * (1.0 + 1e-4))
        sol = evolved_sdp(chan, params)
        assert sol.feasible == (lo <= hi)
        if sol.feasible:
            gain = params.gamma * abs(1.0 + c) ** 2
            assert sol.snr <= gain * hi * (1.0 + 1e-12)
            assert sol.snr >= gain * x_grid * (1.0 - 1e-9)


# h0 = 0: M, the channel seed, sigma_s2 and both DEP tolerances.
no_dl_draws = st.tuples(
    st.sampled_from([1, 2, 4, 8]), st.integers(0, 2 ** 32 - 1),
    st.floats(0.05, 3.0), st.sampled_from([0.3, 0.5, 0.7]),
    st.sampled_from([0.3, 0.5, 0.7]))


def no_dl_case(draw):
    """Channels with h0 = 0 (so h1 = hs), params and x = gamma ||hs||^2."""
    m, seed, sigma_s2, xi_max, zeta_max = draw
    params = SystemParams(K=1, M=m, sigma_s2=sigma_s2, xi_max=xi_max,
                          zeta_max=zeta_max)
    hs = gen_channel_set(params, seed).h_str[0]
    x = params.gamma * float(np.vdot(hs, hs).real)
    return (np.zeros_like(hs), hs, hs), params, x


class TestNoDirectLink:
    """h0 = 0: both divergences are the no-DL one, and the matched filter
    hs / ||hs|| reaches every floor that any v can.

    So snr = gamma ||hs||^2 wherever a design is feasible, and it is
    feasible iff gamma ||hs||^2 clears F - 1: F = max(F_with, F_without)
    for consensual_sca, F_without for evolved_sdp.  Draws within 1e-6 of
    a threshold are skipped, where the verdict turns on the tolerance.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(no_dl_draws)
    def test_consensual(self, draw):
        chan, params, x = no_dl_case(draw)
        _d, _e, f_with, f_without = divergence_floors(params)
        assume(abs(x - (f_with - 1.0)) > 1e-6
               and abs(x - (f_without - 1.0)) > 1e-6)
        sol = consensual_sca(chan, params)
        assert sol.feasible == (x >= max(f_with, f_without) - 1.0)
        if sol.feasible:
            assert sol.snr == pytest.approx(x, rel=1e-9)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(no_dl_draws)
    def test_evolved(self, draw):
        chan, params, x = no_dl_case(draw)
        _d, _e, _fw, f_without = divergence_floors(params)
        assume(abs(x - (f_without - 1.0)) > 1e-6)
        sol = evolved_sdp(chan, params)
        assert sol.feasible == (x >= f_without - 1.0)
        if sol.feasible:
            assert sol.snr == pytest.approx(x, rel=1e-9)


scalar_draws = st.tuples(
    st.floats(1e-2, 1.0),                    # |h_sr|
    st.floats(0.0, 2.0 * np.pi),             # arg h_sr
    st.floats(3e-2, 2.0),                    # |h_str|
    st.floats(0.0, 2.0 * np.pi),             # arg h_str
    st.floats(0.05, 0.8),                    # zeta_max
    st.floats(1e-2, 10.0),                   # sigma_s2
)


class TestScalarInterval:
    """At M = 1 the evolved design is feasible exactly when gamma lies in
    siso.snr_interval's [gamma_lo, gamma_hi].

    The design verifies its divergences only to _FEAS_TOL, so its verdict
    may differ from the closed form within a thin band around either end.
    For zeta_max <= 0.8 that band is under 1e-4 of gamma, and draws that
    close to an end are skipped.  gamma_lo runs through big_f, so this
    exercises W0 away from the paper defaults.
    """

    @staticmethod
    def _check(draw, scale):
        """The draw, with h_sr scaled by scale, against the closed form."""
        m_sr, a_sr, m_str, a_str, zeta_max, sigma_s2 = draw
        h_sr = scale * m_sr * np.exp(1j * a_sr)
        h_str = m_str * np.exp(1j * a_str)
        params = SystemParams(K=1, M=1, zeta_max=zeta_max, sigma_s2=sigma_s2)
        g_min = kld_threshold(zeta_max) / params.N + 1.0
        region = snr_interval(h_sr, h_str, g_min)
        gamma = params.gamma
        for end in (region.gamma_lo, region.gamma_hi):
            assume(abs(gamma - end) > 1e-4 * abs(end))
        h0, hs = np.array([h_sr]), np.array([h_str])
        sol = evolved_sdp((h0, h0 + hs, hs), params)
        assert sol.feasible == (region.gamma_lo <= gamma <= region.gamma_hi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scalar_draws)
    def test_evolved_matches_closed_form(self, draw):
        self._check(draw, 1.0)

    # Dynamic range: h_sr against h_str by up to 1e+-8 more.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scalar_draws, st.floats(-8.0, 8.0))
    def test_evolved_matches_closed_form_over_dynamic_range(self, draw, e):
        self._check(draw, 10.0 ** e)


class TestDynamicRange:
    """h0 scaled by r against hs, r from 1e-8 to 1e8, h1 = r h0 + hs."""

    @staticmethod
    def _scaled(params, seed, r):
        h0, _h1, hs = tag0(params, seed)
        return r * h0, r * h0 + hs, hs

    @pytest.mark.parametrize("m, seed", [(2, 9), (2, 27), (4, 5), (4, 9),
                                         (4, 18), (4, 19), (4, 27), (4, 29)])
    def test_weak_direct_link_stays_feasible(self, m, seed):
        # At r = 1e-8, ||g0||^2 in units of ||h1|| is below the grid's
        # 1e-15, so the grid is the single point t = 0, whose row
        # Tr(H0 W) <= 0 only the cone's boundary meets.  Its coefficients
        # are below 1e-14, so the kernel settles it as holding; a rule that
        # normalized the row before testing it would keep it, and lose
        # these feasible tags.
        params = SystemParams(M=m, K=1)
        sol = evolved_sdp(self._scaled(params, seed, 1e-8), params)
        assert sol.feasible and sol.iterations == 1

    # sigma_s2 = 5 makes about a third of the draws feasible, against a
    # tenth at the default.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 4]), st.integers(0, 2 ** 32 - 1),
           st.floats(-8.0, 8.0), st.sampled_from([0.6, 5.0]))
    def test_designs_return_verified_results(self, m, seed, e, sigma_s2):
        params = SystemParams(M=m, K=1, sigma_s2=sigma_s2)
        h0, h1, hs = chan = self._scaled(params, seed, 10.0 ** e)
        d_min, e_min, _fw, _fwo = divergence_floors(params)
        tol = beamforming._FEAS_TOL
        for sol, mode in ((consensual_sca(chan, params), "consensual"),
                          (evolved_sdp(chan, params), "evolved")):
            if not sol.feasible:
                continue
            assert np.linalg.norm(sol.v) == pytest.approx(1.0, abs=1e-12)
            stats = detection_stats(sol.v, h0, h1, hs, params.sigma_s2,
                                    params.sigma_w2, params.N)
            assert stats.kld_without >= e_min - tol
            if mode == "consensual":
                assert stats.kld_with >= d_min - tol
            else:
                assert stats.delta_kld >= -tol
            assert sol.snr == pytest.approx(
                params.gamma * abs(np.vdot(sol.v, h1)) ** 2, rel=1e-9)


class TestChannelScale:
    """Every channel scaled by s and sigma_s2 by 1 / s^2: each divergence
    and the SNR of every v depend on the channels only through sigma_s2
    |v^H h|^2, so neither design may change its answer."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_designs_invariant(self, m):
        params = SystemParams(M=m, K=1)
        feasible = 0
        for seed in range(12):
            chan = tag0(params, seed)
            for design in (consensual_sca, evolved_sdp):
                plain = design(chan, params)
                feasible += plain.feasible
                for s in (1e-4, 1e-2, 1e2, 1e4):
                    sol = design(tuple(s * h for h in chan),
                                 replace(params,
                                         sigma_s2=params.sigma_s2 / (s * s)))
                    assert sol.feasible == plain.feasible
                    assert sol.snr == pytest.approx(plain.snr, rel=1e-12)
        assert feasible >= 4     # seeds 1 and 9, both designs


class TestRecoverRankOne:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        u /= np.linalg.norm(u)
        v, residual = recover_rank_one(np.outer(u, u.conj()))
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert abs(np.vdot(v, u)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        _v, residual = recover_rank_one(np.eye(3) / 3.0)
        assert residual == pytest.approx(1.0, rel=1e-12)

    def test_scalar_matrix(self):
        v, residual = recover_rank_one(np.array([[2.0 + 0j]]))
        assert residual == 0.0
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)


class TestMmseBeamformer:
    def test_no_interference_is_matched_filter(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = mmse_beamformer(np.zeros(4), h, 0.6, 0.03)
        assert abs(np.vdot(v, h / np.linalg.norm(h))) == pytest.approx(
            1.0, abs=1e-10)

    def test_large_noise_limit_is_matched_filter(self):
        rng = np.random.default_rng(6)
        h_sr = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_str = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = mmse_beamformer(h_sr, h_str, 0.6, 1e9)
        assert abs(np.vdot(v, h_str / np.linalg.norm(h_str))) \
            == pytest.approx(1.0, abs=1e-6)

    def test_direction_solves_normal_equations(self):
        rng = np.random.default_rng(8)
        h_sr = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_str = rng.normal(size=3) + 1j * rng.normal(size=3)
        s2, w2 = 0.6, 0.03
        v = mmse_beamformer(h_sr, h_str, s2, w2)
        A = (np.outer(h_sr, h_sr.conj()) + np.outer(h_str, h_str.conj())
             + (w2 / s2) * np.eye(3))
        r = A @ v
        # A v must be parallel to h_str
        cross = r - h_str * (np.vdot(h_str, r) / np.vdot(h_str, h_str))
        assert np.linalg.norm(cross) <= 1e-10 * np.linalg.norm(r)

    def test_maximizes_sinr_over_random_directions(self):
        rng = np.random.default_rng(9)
        h_sr = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_str = rng.normal(size=3) + 1j * rng.normal(size=3)
        s2, w2 = 0.6, 0.03

        def sinr(u):
            sig = s2 * abs(np.vdot(u, h_str)) ** 2
            intf = s2 * abs(np.vdot(u, h_sr)) ** 2
            return sig / (intf + w2 * np.vdot(u, u).real)

        best = sinr(mmse_beamformer(h_sr, h_str, s2, w2))
        draws = rng.normal(size=(10000, 3)) + 1j * rng.normal(
            size=(10000, 3))
        for u in draws:
            assert sinr(u) <= best * (1.0 + 1e-9)

    def test_zero_backscatter_rejected(self):
        with pytest.raises(ValueError):
            mmse_beamformer(np.ones(2), np.zeros(2), 0.6, 0.03)


class TestAlternatingMimo:
    def test_single_source_antenna_matches_simo(self):
        params = SystemParams(M=3, K=1)
        for seed in range(8):
            h0, h1, hs = tag0(params, seed)
            simo = consensual_sca((h0, h1, hs), params)
            mimo = alternating_mimo(
                (h0[:, None], h1[:, None], hs[:, None]), params,
                "consensual")
            assert mimo.feasible == simo.feasible
            if simo.feasible:
                assert mimo.snr == pytest.approx(simo.snr, rel=1e-6)
                assert np.vdot(mimo.x, mimo.x).real == pytest.approx(
                    params.sigma_s2, rel=1e-9)

    def test_separable_channel_splits_into_matched_filters(self):
        # G1 = Gs = alpha * h_tr h_st^H with no direct link: the transmit
        # side must align with h_st, the receive side with h_tr.
        rng = np.random.default_rng(13)
        params = trivial_params(M=3, Q=2)
        h_tr = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_st = rng.normal(size=2) + 1j * rng.normal(size=2)
        G = params.alpha * np.outer(h_tr, h_st.conj())
        sol = alternating_mimo((np.zeros_like(G), G, G), params,
                               "consensual")
        assert sol.feasible
        expect = (params.gamma * params.alpha ** 2
                  * np.vdot(h_st, h_st).real * np.vdot(h_tr, h_tr).real)
        assert sol.snr == pytest.approx(expect, rel=1e-6)
        xt = sol.x / np.linalg.norm(sol.x)
        assert abs(np.vdot(xt, h_st / np.linalg.norm(h_st))) \
            == pytest.approx(1.0, abs=1e-6)
        assert abs(np.vdot(sol.v, h_tr / np.linalg.norm(h_tr))) \
            == pytest.approx(1.0, abs=1e-6)

    def test_inner_iteration_cap_reported(self, monkeypatch):
        # The first receive step's QCQPs all need more than one Newton
        # step on this tag, so every one ends max_iter.
        # The lifts are answered with no point, so that no lift point
        # stands in as the incumbent (test_capped_first_step_keeps_the_
        # lift_point).
        params = SystemParams(M=2, Q=2, K=1)
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 1)
        no_interior_lifts(monkeypatch)
        sol = alternating_mimo(tag0(params, 29), params, "consensual")
        assert not sol.feasible and not sol.converged

    def test_failed_first_transmit_step_keeps_the_receive_step(
            self, monkeypatch):
        # The first receive step verified (v, initial xt) as feasible, so a
        # failed transmit step ends the alternation at that pair.
        params = SystemParams(M=2, Q=2, K=1)
        G0, G1, Gs = tag0(params, 9)
        sols = []
        steps = beamforming.consensual_steps

        def second_fails(chan, params, v_init=None):
            if len(sols) == 1:
                sols.append(None)
                return beamforming._infeasible()
            sols.append((yield from steps(chan, params, v_init)))
            return sols[-1]

        monkeypatch.setattr(beamforming, "consensual_steps", second_fails)
        sol = alternating_mimo((G0, G1, Gs), params, "consensual")
        assert len(sols) == 2 and sols[0].feasible
        assert sol.feasible and not sol.converged
        assert sol.v.tobytes() == sols[0].v.tobytes()
        _u, _s, vh = np.linalg.svd(G1)
        assert np.array_equal(sol.x, np.sqrt(params.sigma_s2) * vh[0].conj())

    def test_trade_round_passes_the_block_stall(self):
        # On this tag exact block optima stall at SNR 1.74604293: the
        # receive and transmit steps price the without-DL floor at 0.19
        # and 0.0018.  Slack moved to the receive step gets past both the
        # stall and the 1.74604323 that a barrier's interior slack reached.
        params = replace(SystemParams(K=3, Q=2, M=4), seed=1)
        chans = gen_channel_set(params, np.random.SeedSequence((1, 0, 2)))
        sol = alternating_mimo(chans.tag_channels(0), params, "consensual")
        d_min, e_min, _fw, _fo = divergence_floors(params)
        assert sol.feasible and sol.converged
        assert sol.snr > 1.746087
        assert sol.stats.kld_with >= d_min - 1e-6
        assert sol.stats.kld_without >= e_min - 1e-6
        tr = sol.objective_trace
        assert all(b >= a for a, b in zip(tr, tr[1:]))

    @pytest.mark.parametrize("seed", (9, 17))
    def test_improves_on_initial_transmit_direction(self, seed):
        params = SystemParams(M=2, Q=2, K=1)
        G0, G1, Gs = tag0(params, seed)
        sol = alternating_mimo((G0, G1, Gs), params, "consensual")
        assert sol.feasible
        tr = sol.objective_trace
        assert all(b >= a - 1e-9 * max(1.0, abs(b))
                   for a, b in zip(tr, tr[1:]))
        _u, _s, vh = np.linalg.svd(G1)
        xt = vh[0].conj()
        base = consensual_sca((G0 @ xt, G1 @ xt, Gs @ xt), params)
        assert base.feasible
        assert sol.snr >= base.snr - 1e-9 * max(1.0, base.snr)


def _solve(solver, chan, params):
    """The consensual, evolved or (consensual) MIMO design on chan."""
    if solver == "consensual":
        return consensual_sca(chan, params)
    if solver == "evolved":
        return evolved_sdp(chan, params)
    return alternating_mimo(chan, params, "consensual")


SOLVERS = ["consensual", "evolved", "mimo"]


class TestNonFiniteChannels:
    """A nan or inf in any link is refused before anything is solved."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("link", [0, 1, 2], ids=["h0", "h1", "hs"])
    def test_refused(self, solver, bad, link):
        params = SystemParams(M=4, Q=2 if solver == "mimo" else 1)
        chan = [h.copy() for h in tag0(params, 1)]
        chan[link].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _solve(solver, chan, params)


class TestInconsistentChannels:
    """A triple whose h1 is not h0 + hs is refused; round-off is not."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_refused(self, solver):
        params = SystemParams(M=4, Q=2 if solver == "mimo" else 1)
        h0, h1, hs = tag0(params, 1)
        with pytest.raises(ValueError, match="h1 is not h0 \\+ h_str"):
            _solve(solver, (h0, h1 + 1e-6 * np.abs(h1).max(), hs), params)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_round_off_accepted(self, solver):
        params = SystemParams(M=4, Q=2 if solver == "mimo" else 1)
        h0, h1, hs = tag0(params, 1)
        nudged = h1 * (1.0 + 1e-13)
        assert np.linalg.norm(nudged - h0 - hs) > 0.0
        sol = _solve(solver, (h0, nudged, hs), params)
        assert sol.snr == pytest.approx(
            _solve(solver, (h0, h1, hs), params).snr, rel=1e-9)
