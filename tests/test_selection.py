"""Tests for greedy and random tag selection.

Greedy over singletons IS exhaustive search, so its result is checked
bitwise against direct per-tag solves; the random baseline is checked for
draw uniformity and for never beating greedy on the same realization.
"""

from __future__ import annotations

import numpy as np
import pytest

from backci import beamforming, selection
from backci.beamforming import alternating_mimo, consensual_sca, evolved_sdp
from backci.channel import ChannelRealization, SystemParams, gen_channel_set
from backci.selection import greedy_select, random_select


def handmade(h_tr_scales, params, h_sr=None):
    """SIMO realization with unit forward links and scaled backward links."""
    K, M = len(h_tr_scales), params.M
    h_sr = np.zeros(M, dtype=complex) if h_sr is None else h_sr
    h_st = np.ones(K, dtype=complex)
    base = np.exp(1j * np.linspace(0.0, 1.2, M))
    h_tr = np.stack([s * base for s in h_tr_scales])
    h_str = params.alpha * h_st[:, None] * h_tr
    return ChannelRealization(h_sr=h_sr, h_st=h_st, h_tr=h_tr, h_str=h_str,
                              h0=h_sr, h1=h_sr + h_str, alpha=params.alpha)


class TestGreedySelect:
    def test_single_feasible_tag(self):
        params = SystemParams(K=1, M=2, xi_max=1.0, zeta_max=1.0)
        ch = handmade([1.0], params)
        res = greedy_select(ch, params, "consensual")
        assert res.selected_tag == 1
        assert res.best is res.per_tag[0]
        assert res.best.feasible

    def test_dominant_backscatter_wins(self):
        params = SystemParams(K=3, M=2, xi_max=1.0, zeta_max=1.0)
        ch = handmade([1.0, 10.0, 1.0], params)
        res = greedy_select(ch, params, "consensual")
        assert res.selected_tag == 2
        assert res.best.snr == max(s.snr for s in res.per_tag)

    def test_equals_exhaustive_per_tag_solves(self):
        params = SystemParams(K=4, M=2)
        ch = gen_channel_set(params, 1)
        res = greedy_select(ch, params, "consensual")
        for k in range(params.K):
            direct = consensual_sca(ch.tag_channels(k), params)
            assert res.per_tag[k].feasible == direct.feasible
            assert res.per_tag[k].snr == direct.snr

    def test_tie_breaks_to_smallest_index(self):
        params = SystemParams(K=3, M=2, xi_max=1.0, zeta_max=1.0)
        ch = handmade([2.0, 2.0, 2.0], params)
        res = greedy_select(ch, params, "consensual")
        assert res.selected_tag == 1

    def test_all_infeasible_returns_marker(self):
        params = SystemParams(K=3, M=2, zeta_max=0.01)
        ch = handmade([1e-4, 1e-4, 1e-4], params)
        res = greedy_select(ch, params, "consensual")
        assert res.selected_tag == 0
        assert res.best is None
        assert len(res.per_tag) == 3
        assert all(not s.feasible for s in res.per_tag)

    def test_evolved_selection_stacks_every_live_tag(self, monkeypatch):
        # Realization 2 has three live tags.  Their relaxation grids, but
        # for t = 0, which is solved in closed form, go to the SDP kernel as
        # one stacked call (3 (T - 1) entries fit in beamforming._SDP_STACK),
        # and each tag's solution is bit for bit its own evolved_sdp run.
        params = SystemParams(T=40)
        ch = gen_channel_set(params, 2)
        sizes = []
        batch = beamforming.solve_sdp_batch

        def spied(C, row_sets):
            sizes.append(len(row_sets))
            return batch(C, row_sets)

        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "solve_sdp_batch", spied)
            res = greedy_select(ch, params, "evolved")
        assert sizes == [3 * (params.T - 1)]
        for k, sol in enumerate(res.per_tag):
            alone = evolved_sdp(ch.tag_channels(k), params)
            assert (sol.v is None) == (alone.v is None)
            if sol.v is not None:
                assert sol.v.tobytes() == alone.v.tobytes()
            assert repr((sol.snr, sol.feasible, sol.iterations)) == repr(
                (alone.snr, alone.feasible, alone.iterations))

    def test_permutation_changes_only_tie_breaking(self):
        params = SystemParams(K=4, M=2)
        ch = gen_channel_set(params, 1)
        res = greedy_select(ch, params, "consensual")
        perm = [2, 0, 3, 1]
        ch_p = ChannelRealization(
            h_sr=ch.h_sr, h_st=ch.h_st[perm], h_tr=ch.h_tr[perm],
            h_str=ch.h_str[perm], h0=ch.h0, h1=ch.h1[perm], alpha=ch.alpha)
        res_p = greedy_select(ch_p, params, "consensual")
        assert (res.best is None) == (res_p.best is None)
        if res.best is not None:
            assert res_p.best.snr == pytest.approx(res.best.snr, rel=1e-12)


class TestUnknownMode:
    @pytest.mark.parametrize("Q", (1, 2))
    def test_refused_before_any_solve(self, monkeypatch, Q):
        params = SystemParams(K=3, M=2, Q=Q)
        ch = gen_channel_set(params, 0)

        def no_solve(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(beamforming, "solve_ball_qcqps", no_solve)
        monkeypatch.setattr(beamforming, "solve_sdp_batch", no_solve)
        for select in (greedy_select,
                       lambda *a: random_select(*a,
                                                np.random.default_rng(0))):
            with pytest.raises(ValueError, match="unknown mode 'sca'"):
                select(ch, params, "sca")


class TestRandomSelect:
    def test_single_tag_matches_greedy(self):
        params = SystemParams(K=1, M=2, xi_max=1.0, zeta_max=1.0)
        ch = handmade([1.0], params)
        g = greedy_select(ch, params, "consensual")
        r = random_select(ch, params, "consensual",
                          np.random.default_rng(0))
        assert r.selected_tag == g.selected_tag == 1
        assert r.best.snr == g.best.snr

    @pytest.mark.parametrize("mode", ("consensual", "evolved"))
    def test_mimo_solves_only_the_drawn_tag(self, monkeypatch, mode):
        # On a Q = 2 link the drawn tag runs the alternation alone: its
        # solution is bit for bit alternating_mimo's, and no other tag's
        # generator starts.
        params = SystemParams(K=3, M=2, Q=2, T=30)
        ch = gen_channel_set(params, 0)
        k = int(np.random.default_rng(7).integers(params.K))
        started = []
        steps = beamforming.alternating_steps

        def spied(chan, params, mode):
            started.append(chan)
            return (yield from steps(chan, params, mode))

        with monkeypatch.context() as mp:
            mp.setattr(selection, "alternating_steps", spied)
            res = random_select(ch, params, mode, np.random.default_rng(7))
        assert [s is None for s in res.per_tag] == [
            j != k for j in range(params.K)]
        assert len(started) == 1
        assert started[0][1].tobytes() == ch.h1[k].tobytes()
        alone = alternating_mimo(ch.tag_channels(k), params, mode)
        sol = res.per_tag[k]
        assert repr((sol.snr, sol.feasible, sol.iterations, sol.converged,
                     sol.stats)) == repr((alone.snr, alone.feasible,
                                          alone.iterations, alone.converged,
                                          alone.stats))
        for a, b in ((sol.v, alone.v), (sol.x, alone.x)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()

    def test_draw_is_uniform(self):
        # Tiny backscatter links make every solve hit the cheap
        # infeasibility bail, so 10^4 draws stay fast; the drawn tag is
        # the unique per_tag entry that was actually solved.
        params = SystemParams(K=5, M=2, zeta_max=0.01)
        ch = handmade([1e-4] * 5, params)
        rng = np.random.default_rng(101)
        counts = np.zeros(params.K, dtype=int)
        for _ in range(10000):
            res = random_select(ch, params, "consensual", rng)
            assert res.selected_tag == 0 and res.best is None
            solved = [k for k, s in enumerate(res.per_tag) if s is not None]
            assert len(solved) == 1
            counts[solved[0]] += 1
        freqs = counts / 10000.0
        assert np.all(np.abs(freqs - 0.2) <= 0.02)

    def test_never_beats_greedy(self):
        params = SystemParams(K=5, M=1)
        rng = np.random.default_rng(42)
        mean_g = mean_r = 0.0
        n_random_feasible = 0
        for trial in range(200):
            ch = gen_channel_set(params, trial)
            g = greedy_select(ch, params, "consensual")
            r = random_select(ch, params, "consensual", rng)
            mean_g += g.best.snr if g.best else 0.0
            mean_r += r.best.snr if r.best else 0.0
            if r.best is not None:
                n_random_feasible += 1
                assert g.best is not None
                assert g.best.snr >= r.best.snr - 1e-9
        assert n_random_feasible >= 5
        assert mean_g >= mean_r
