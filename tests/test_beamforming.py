"""Tests for the four beamformer solvers.

References: a phase-reduced dense grid over the complex unit sphere (M = 2),
the scalar feasibility interval from the SISO analysis (M = 1), closed-form
collapses when the direct link or the detection floors drop out, and the
defining stationarity/optimality conditions of the MMSE filter.  None of
those share code with the solvers.
"""

from __future__ import annotations

import numpy as np
import pytest

from backci import beamforming, convex
from backci.beamforming import (
    alternating_mimo,
    consensual_sca,
    divergence_floors,
    evolved_sdp,
    mmse_beamformer,
    recover_rank_one,
)
from backci.channel import SystemParams, gen_channel_set
from backci.convex import solve_sdp_batch, solve_small_sdp
from backci.detection import detection_stats, kld_threshold
from backci.siso import snr_interval
from oracles import ci_inequality_margin, constrained_snr_oracle

# Channel-realization seeds whose first tag gives a feasible instance at the
# given antenna count (checked against the infeasibility certificates; most
# desk-scale draws put gamma_hi below the operating SNR).
FEASIBLE_M2 = (1, 9, 27, 48)
FEASIBLE_M4 = (1, 5, 9, 10, 17)


def tag0(params, seed):
    return gen_channel_set(params, seed).tag_channels(0)


def trivial_params(**kw):
    """Floors at zero: both DEP tolerances maximal, so only the norm binds."""
    return SystemParams(K=1, xi_max=1.0, zeta_max=1.0, **kw)


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
        # Every QCQP ends max_iter, which certifies no infeasibility.
        params = SystemParams(M=4, K=1)
        monkeypatch.setattr(convex, "_MAX_STEPS", 1)
        sol = consensual_sca(tag0(params, 9), params)
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
    # frozen from the version that solved the relaxation pass point by
    # point, warm-starting each point from the previous one.  Seed 1 has a
    # degenerate relaxation optimum (equal objectives on a face of optimal
    # W): which W the kernel returns there depends on where it starts, and
    # the rank-one penalty stage seeded from it ends 3.9e-5 lower.
    FROZEN_M4_T100 = {1: (18.310265193489087, 1e-4),
                      5: (1.1840014336674283, 1e-6),
                      9: (10.701020875120339, 1e-6),
                      10: (18.299232377800717, 1e-6),
                      17: (8.749842807622748, 1e-6)}

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
        assert calls["batch"] == 1 and calls["entries"] == params.T
        # iterations: the T relaxation solves plus the penalty solves
        assert sol.iterations == params.T + calls["single"]

    def test_relaxation_iteration_cap_reported(self, monkeypatch):
        params = SystemParams(M=4, K=1, T=20)
        monkeypatch.setattr(convex, "_MAX_STEPS", 1)
        sol = evolved_sdp(tag0(params, 9), params)
        assert not sol.converged

    def test_capped_first_penalty_solve_keeps_the_incumbent(self, monkeypatch):
        # Every penalty subproblem has the relaxation's rows, so a capped
        # first solve leaves the relaxation's point as the incumbent: the
        # grid point stays, and the result says it did not converge.
        params = SystemParams(M=4, K=1)
        chan = tag0(params, 9)
        uncapped = evolved_sdp(chan, params)
        calls = []

        def capped_first(prob, W0=None):
            calls.append(1)
            if len(calls) == 1:
                return convex.SdpResult(W=None, status=convex.MAX_ITER)
            return solve_small_sdp(prob, W0=W0)

        monkeypatch.setattr(beamforming, "solve_small_sdp", capped_first)
        sol = evolved_sdp(chan, params)
        assert sol.feasible and not sol.converged
        assert sol.snr >= (1.0 - 1e-6) * uncapped.snr

    def test_one_penalty_run_per_grid_point(self, monkeypatch):
        # Blurring the penalty stage's W toward I/m keeps its dominant
        # eigenvector but leaves it far from rank one.  That v is still
        # verified and kept, and no grid point is rerun at a larger weight.
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
            m = W.shape[0]
            return (0.9 * W + 0.1 * np.eye(m) / m, *rest)

        monkeypatch.setattr(beamforming, "_penalized_sca", blurred)
        sol = evolved_sdp(chan, params)
        assert calls
        for args in calls:
            assert args[3] == pytest.approx(chi, rel=1e-12)
        assert len({id(args[0]) for args in calls}) == len(calls)
        assert sol.feasible
        assert sol.snr == pytest.approx(plain.snr, rel=1e-9)
        assert sol.rank_residual > 1e-3

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
        params = SystemParams(M=2, Q=2, K=1)
        monkeypatch.setattr(convex, "_MAX_STEPS", 1)
        sol = alternating_mimo(tag0(params, 9), params, "consensual")
        assert not sol.feasible and not sol.converged

    def test_failed_first_transmit_step_keeps_the_receive_step(
            self, monkeypatch):
        # The first receive step verified (v, initial xt) as feasible, so a
        # failed transmit step ends the alternation at that pair.
        params = SystemParams(M=2, Q=2, K=1)
        G0, G1, Gs = tag0(params, 9)
        sols = []

        def second_fails(chan, params, v_init=None):
            if len(sols) == 1:
                sols.append(None)
                return beamforming._infeasible()
            sols.append(consensual_sca(chan, params, v_init=v_init))
            return sols[-1]

        monkeypatch.setattr(beamforming, "consensual_sca", second_fails)
        sol = alternating_mimo((G0, G1, Gs), params, "consensual")
        assert len(sols) == 2 and sols[0].feasible
        assert sol.feasible and not sol.converged
        assert sol.v.tobytes() == sols[0].v.tobytes()
        _u, _s, vh = np.linalg.svd(G1)
        assert np.array_equal(sol.x, np.sqrt(params.sigma_s2) * vh[0].conj())

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


class TestNonFiniteChannels:
    """A nan or inf in any link is refused before anything is solved."""

    @pytest.mark.parametrize("solver", ["consensual", "evolved", "mimo"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("link", [0, 1, 2], ids=["h0", "h1", "hs"])
    def test_refused(self, solver, bad, link):
        params = SystemParams(M=4, Q=2 if solver == "mimo" else 1)
        chan = [h.copy() for h in tag0(params, 1)]
        chan[link].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            if solver == "consensual":
                consensual_sca(chan, params)
            elif solver == "evolved":
                evolved_sdp(chan, params)
            else:
                alternating_mimo(chan, params, "consensual")
