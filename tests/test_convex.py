"""Tests for the interior-point QCQP and SDP kernels.

Reference solutions come from closed forms (ball-constrained linear
objective, spectral optimum), scipy's SLSQP run from multiple starts, a
dense parameterized grid for 2x2 density matrices, and cvxpy when it is
importable.  None of those share code with the solvers under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from backci.beamforming import divergence_floors
from backci.channel import SystemParams, gen_channel_set
from backci.convex import (
    INFEASIBLE,
    OPTIMAL,
    QcqpProblem,
    SdpProblem,
    _BallQcqp,
    _PhaseOne,
    _Sdp,
    _sdp_affine,
    embed_hermitian,
    embed_vector,
    qcqp_max_violation,
    sdp_max_violation,
    smat,
    solve_ball_qcqp,
    solve_small_sdp,
    svec,
    unembed_vector,
)
from oracles import brute_sdp_2x2, slsqp_qcqp_oracle


def rand_herm_psd(rng, m, scale=1.0):
    X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * (X.conj().T @ X) / m


def rand_vec(rng, m, scale=1.0):
    return scale * (rng.normal(size=m) + 1j * rng.normal(size=m))


class TestEmbedding:
    def test_vector_inner_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rand_vec(rng, 4)
            v = rand_vec(rng, 4)
            assert embed_vector(c) @ embed_vector(v) == pytest.approx(
                np.vdot(c, v).real, abs=1e-12)

    def test_quadratic_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rand_herm_psd(rng, 3)
            v = rand_vec(rng, 3)
            z = embed_vector(v)
            assert z @ embed_hermitian(A) @ z == pytest.approx(
                np.vdot(v, A @ v).real, rel=1e-12)

    def test_unembed_roundtrip(self):
        rng = np.random.default_rng(5)
        v = rand_vec(rng, 5)
        assert np.allclose(unembed_vector(embed_vector(v)), v)


class TestQcqpClosedForms:
    def test_ball_only_matched_direction(self):
        # max Re(c^H v), ||v||^2 <= r has optimum sqrt(r) c / ||c||.
        rng = np.random.default_rng(11)
        for r in (1.0, 0.3):
            c = rand_vec(rng, 4)
            res = solve_ball_qcqp(QcqpProblem(c=c, quad_constraints=[],
                                              ball_radius=r))
            assert res.status == OPTIMAL
            expect = math.sqrt(r) * np.linalg.norm(c)
            assert res.objective == pytest.approx(expect, rel=1e-6)
            assert np.allclose(res.v, math.sqrt(r) * c / np.linalg.norm(c),
                               atol=1e-5)

    def test_inactive_quadratic_constraint(self):
        rng = np.random.default_rng(12)
        c = rand_vec(rng, 3)
        A = rand_herm_psd(rng, 3)
        lam_max = np.linalg.eigvalsh(A)[-1]
        res = solve_ball_qcqp(QcqpProblem(
            c=c, quad_constraints=[(A, None, 10.0 * lam_max)]))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(np.linalg.norm(c), rel=1e-6)

    def test_scalar_quadratic_cap(self):
        # Single complex variable, |v|^2 <= 0.25 tighter than the unit ball.
        res = solve_ball_qcqp(QcqpProblem(
            c=np.array([1.0 + 0j]),
            quad_constraints=[(np.array([[1.0 + 0j]]), None, 0.25)]))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.5, rel=1e-6)
        assert res.v[0] == pytest.approx(0.5 + 0j, abs=1e-5)

    def test_linear_halfspace_active(self):
        # max Re(v1) with Re(v1) <= 0.3 via the linear term.
        q = np.array([0.5 + 0j, 0.0])
        res = solve_ball_qcqp(QcqpProblem(
            c=np.array([1.0 + 0j, 0.0]),
            quad_constraints=[(None, q, 0.3)]))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.3, rel=1e-6)

    def test_objective_scale_invariance(self):
        rng = np.random.default_rng(13)
        c = rand_vec(rng, 3)
        A = rand_herm_psd(rng, 3)
        q = rand_vec(rng, 3, 0.3)
        vt = rand_vec(rng, 3, 0.4)
        b = float(np.vdot(vt, A @ vt).real + 2 * np.vdot(q, vt).real + 0.5)
        base = solve_ball_qcqp(QcqpProblem(c=c, quad_constraints=[(A, q, b)]))
        big = solve_ball_qcqp(QcqpProblem(c=1e3 * c,
                                          quad_constraints=[(A, q, b)]))
        assert base.status == OPTIMAL and big.status == OPTIMAL
        assert np.allclose(base.v, big.v, atol=1e-5)


class TestQcqpAgainstSlsqp:
    def test_random_feasible_batch(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(30):
            m = int(rng.integers(1, 5))
            c = rand_vec(rng, m)
            cons = []
            vt = rand_vec(rng, m, 0.3)     # kept feasible by construction
            for _ in range(int(rng.integers(1, 4))):
                A = rand_herm_psd(rng, m) if rng.random() < 0.7 else None
                q = rand_vec(rng, m, 0.5) if rng.random() < 0.7 else None
                val = 0.0
                if A is not None:
                    val += np.vdot(vt, A @ vt).real
                if q is not None:
                    val += 2.0 * np.vdot(q, vt).real
                if A is None and q is None:
                    A = rand_herm_psd(rng, m)
                    val = np.vdot(vt, A @ vt).real
                cons.append((A, q, float(val + rng.uniform(0.05, 1.0))))
            p = QcqpProblem(c=c, quad_constraints=cons)
            res = solve_ball_qcqp(p)
            assert res.status == OPTIMAL
            assert qcqp_max_violation(p, res.v) <= 1e-7
            starts = [vt, np.zeros(m), 0.5 * c / max(1e-9, np.linalg.norm(c))]
            starts += [rand_vec(rng, m, 0.3) for _ in range(3)]
            ref_obj, _ = slsqp_qcqp_oracle(c, cons, 1.0, starts)
            if ref_obj == -np.inf:
                continue
            scale = max(1.0, abs(ref_obj))
            assert res.objective >= ref_obj - 1e-5 * scale
            assert abs(res.objective - ref_obj) <= 1e-4 * scale
            checked += 1
        assert checked >= 25

    def test_warm_start_keeps_answer(self):
        rng = np.random.default_rng(22)
        c = rand_vec(rng, 4)
        A = rand_herm_psd(rng, 4)
        vt = rand_vec(rng, 4, 0.3)
        b = float(np.vdot(vt, A @ vt).real + 0.4)
        p = QcqpProblem(c=c, quad_constraints=[(A, None, b)])
        cold = solve_ball_qcqp(p)
        warm = solve_ball_qcqp(p, v0=cold.v)
        assert warm.status == OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7)


class TestQcqpWarmStartInfeasible:
    def test_v0_breaking_a_tightened_row(self):
        # v0 is the optimum of the same problem with a looser row, so it
        # violates the row here and phase one has to pull it back inside.
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(10):
            m = int(rng.integers(1, 5))
            c = rand_vec(rng, m)
            A = rand_herm_psd(rng, m)
            q = rand_vec(rng, m, 0.3)
            vt = rand_vec(rng, m, 0.3)
            b = float(np.vdot(vt, A @ vt).real + 2 * np.vdot(q, vt).real)
            loose = solve_ball_qcqp(QcqpProblem(
                c=c, quad_constraints=[(A, q, b + 0.5)]))
            assert loose.status == OPTIMAL
            p = QcqpProblem(c=c, quad_constraints=[(A, q, b + 0.05)])
            if qcqp_max_violation(p, loose.v) <= 0.0:
                continue
            cold = solve_ball_qcqp(p)
            warm = solve_ball_qcqp(p, v0=loose.v)
            assert cold.status == OPTIMAL and warm.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-7)
            checked += 1
        assert checked >= 5


class TestQcqpInfeasible:
    def test_halfspace_outside_ball(self):
        # Re(v1) <= -1.5 cannot hold inside the unit ball.
        p = QcqpProblem(
            c=np.array([1.0 + 0j]),
            quad_constraints=[(None, np.array([1.0 + 0j]), -3.0)])
        res = solve_ball_qcqp(p)
        assert res.status == INFEASIBLE
        assert res.v is None
        # Min possible violation is 1.0 at v1 = -1, normalized by the
        # constraint scale max(|b|, 2||q||) = 3; the reported value can sit
        # above that lower bound but must stay comfortably positive.
        assert 1.0 / 3.0 - 1e-6 <= res.certificate <= 0.7

    def test_conflicting_halfspaces(self):
        q = np.array([1.0 + 0j, 0.0])
        p = QcqpProblem(
            c=np.array([0.0 + 0j, 1.0]),
            quad_constraints=[(None, q, -0.5), (None, -q, -0.5)])
        res = solve_ball_qcqp(p)
        assert res.status == INFEASIBLE

    def test_quadratic_floor_unreachable(self):
        # v^H I v + 2 Re(q^H v) <= b with b below the ball minimum.
        q = np.array([2.0 + 0j])
        p = QcqpProblem(
            c=np.array([1.0 + 0j]),
            quad_constraints=[(np.eye(1, dtype=complex), q, -3.5)])
        res = solve_ball_qcqp(p)
        assert res.status == INFEASIBLE


class TestSvecBasis:
    def test_roundtrip_and_isometry(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3, 4):
            A = rand_herm_psd(rng, m) - 0.3 * np.eye(m)
            w = svec(A)
            assert w.shape == (m * m,)
            assert np.allclose(smat(w, m), A, atol=1e-12)
            B = rand_herm_psd(rng, m)
            assert svec(A) @ svec(B) == pytest.approx(
                np.trace(A @ B).real, rel=1e-10)


class TestSdpSpectral:
    def test_lambda_max_no_inequalities(self):
        # max Tr(C W), Tr W = 1, W PSD has value lambda_max(C).
        rng = np.random.default_rng(41)
        for m in (2, 3, 4):
            C = rand_herm_psd(rng, m) - 0.5 * np.eye(m)
            vals, vecs = np.linalg.eigh(C)
            p = SdpProblem(C=C, dim=m,
                           eq_constraints=[(np.eye(m, dtype=complex), 1.0)])
            res = solve_small_sdp(p)
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(
                vals[-1], abs=1e-6 * max(1.0, abs(vals[-1])))
            u = vecs[:, -1]
            assert np.linalg.norm(res.W - np.outer(u, u.conj())) < 1e-3

    def test_gap_bound_holds(self):
        rng = np.random.default_rng(42)
        C = rand_herm_psd(rng, 3)
        p = SdpProblem(C=C, dim=3,
                       eq_constraints=[(np.eye(3, dtype=complex), 1.0)])
        res = solve_small_sdp(p, tol=1e-8)
        assert res.gap <= 1e-8 * max(1.0, abs(res.objective)) + 1e-15
        lam_max = np.linalg.eigvalsh(C)[-1]
        assert lam_max - res.objective <= res.gap + 1e-12


class TestSdpBruteForce:
    def test_2x2_with_inequality(self):
        rng = np.random.default_rng(51)
        for k in range(6):
            C = rand_herm_psd(rng, 2) - 0.4 * np.eye(2)
            A1 = rand_herm_psd(rng, 2)
            b1 = float(np.trace(A1).real / 2.0 + rng.uniform(-0.05, 0.3))
            p = SdpProblem(
                C=C, dim=2,
                eq_constraints=[(np.eye(2, dtype=complex), 1.0)],
                ineq_constraints=[(A1, b1)])
            res = solve_small_sdp(p)
            ref_obj, _ = brute_sdp_2x2(C, [(A1, b1)])
            if res.status == INFEASIBLE:
                assert ref_obj is None or ref_obj == -np.inf
                continue
            assert ref_obj is not None
            assert res.objective == pytest.approx(ref_obj, abs=2e-3)
            assert sdp_max_violation(p, res.W) <= 1e-7

    def test_2x2_inequality_forces_mixture(self):
        # Cap the top-eigenvector weight so the optimum is not rank one.
        C = np.diag([1.0, 0.0]).astype(complex)
        A1 = np.diag([1.0, 0.0]).astype(complex)
        p = SdpProblem(
            C=C, dim=2,
            eq_constraints=[(np.eye(2, dtype=complex), 1.0)],
            ineq_constraints=[(A1, 0.6)])
        res = solve_small_sdp(p)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.6, abs=1e-6)
        assert res.W[0, 0].real == pytest.approx(0.6, abs=1e-5)


class TestSdpDegenerate:
    def test_dim_one_feasible(self):
        # Tr W = 1 pins W = [[1]]; the inequality just gets checked.
        p = SdpProblem(
            C=np.array([[2.0 + 0j]]), dim=1,
            eq_constraints=[(np.eye(1, dtype=complex), 1.0)],
            ineq_constraints=[(np.eye(1, dtype=complex), 1.5)])
        res = solve_small_sdp(p)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert res.W[0, 0] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_dim_one_infeasible(self):
        p = SdpProblem(
            C=np.array([[1.0 + 0j]]), dim=1,
            eq_constraints=[(np.eye(1, dtype=complex), 1.0)],
            ineq_constraints=[(np.eye(1, dtype=complex), 0.5)])
        res = solve_small_sdp(p)
        assert res.status == INFEASIBLE
        assert res.certificate == pytest.approx(0.5, abs=1e-6)

    def test_trace_inequality_infeasible(self):
        p = SdpProblem(
            C=np.eye(2, dtype=complex), dim=2,
            eq_constraints=[(np.eye(2, dtype=complex), 1.0)],
            ineq_constraints=[(np.eye(2, dtype=complex), 0.5)])
        res = solve_small_sdp(p)
        assert res.status == INFEASIBLE
        # Violation 0.5 normalized by ||svec(I)|| = sqrt(2).
        assert res.certificate == pytest.approx(0.5 / math.sqrt(2.0),
                                                abs=0.05)

    def test_inconsistent_equalities(self):
        p = SdpProblem(
            C=np.eye(2, dtype=complex), dim=2,
            eq_constraints=[(np.eye(2, dtype=complex), 1.0),
                            (np.eye(2, dtype=complex), 2.0)])
        res = solve_small_sdp(p)
        assert res.status == INFEASIBLE

    def test_warm_start_keeps_answer(self):
        rng = np.random.default_rng(52)
        C = rand_herm_psd(rng, 3)
        p = SdpProblem(C=C, dim=3,
                       eq_constraints=[(np.eye(3, dtype=complex), 1.0)])
        cold = solve_small_sdp(p)
        warm = solve_small_sdp(p, W0=cold.W)
        assert warm.status == OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7)


class TestSdpWarmStartInfeasible:
    def test_relaxation_rows_at_smaller_t(self):
        # The evolved relaxation rows at two values of t.  The optimum at the
        # larger t breaks the row Tr(H0 W) <= t of the smaller one, so the
        # warm start has to go through phase one.
        params = SystemParams(K=1, M=4)
        gamma = params.gamma
        f_without = divergence_floors(params)[3]
        eye = np.eye(params.M, dtype=complex)
        checked = 0
        for seed in range(40):
            h0, h1, hs = gen_channel_set(params, seed).tag_channels(0)
            H0, H1, Hs = (np.outer(h, h.conj()) for h in (h0, h1, hs))

            def relaxation(t):
                return SdpProblem(
                    C=gamma * H1, dim=params.M, eq_constraints=[(eye, 1.0)],
                    ineq_constraints=[
                        (-H1 + (1.0 + gamma * t) * Hs, -t),
                        (-gamma * Hs, -(f_without - 1.0)),
                        (H0, t)])

            t_hi = float(np.linalg.eigvalsh(H0)[-1])
            big = solve_small_sdp(relaxation(0.6 * t_hi))
            if big.status != OPTIMAL:
                continue
            t = 0.5 * t_hi
            if np.trace(H0 @ big.W).real <= t:
                continue
            cold = solve_small_sdp(relaxation(t))
            warm = solve_small_sdp(relaxation(t), W0=big.W)
            assert cold.status == OPTIMAL and warm.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-7)
            checked += 1
        assert checked >= 1


def _random_qcqp_oracle(rng, m):
    """A QCQP oracle and a point strictly inside its domain."""
    c = rand_vec(rng, m)
    vt = rand_vec(rng, m, 0.3)
    cons = []
    for with_a in (True, False, True):
        A = rand_herm_psd(rng, m) if with_a else None
        q = rand_vec(rng, m, 0.5)
        val = 2.0 * np.vdot(q, vt).real
        if A is not None:
            val += np.vdot(vt, A @ vt).real
        cons.append((A, q, float(val + 0.3)))
    f = _BallQcqp(QcqpProblem(c=c, quad_constraints=cons))
    return f, embed_vector(vt)


def _random_sdp_oracle(rng, m):
    """An SDP oracle and a point inside its domain.

    A trace-one equality leaves no free coordinate at m = 1, so it is
    imposed only for m > 1.
    """
    eye = np.eye(m, dtype=complex)
    ineqs = [(rand_herm_psd(rng, m), 0.0) for _ in range(2)]
    ineqs = [(A, float(np.trace(A).real / m + 0.2)) for A, _ in ineqs]
    p = SdpProblem(C=rand_herm_psd(rng, m), dim=m,
                   eq_constraints=[(eye, 1.0)] if m > 1 else [],
                   ineq_constraints=ineqs)
    wp, Z = _sdp_affine(p)
    f = _Sdp(p, wp, Z, [(svec(A), b) for A, b in ineqs])
    return f, f.y_eye + 0.02 * rng.normal(size=Z.shape[1])


class TestOracleDerivatives:
    """Oracle gradients and Hessians against central differences of value."""

    @staticmethod
    def _check(f, x, mu):
        val, grad, H = f.derivs(x, mu)
        assert np.isfinite(val)
        assert val == pytest.approx(f.value(x, mu), rel=1e-12, abs=1e-12)
        n = x.size
        h = 1e-5
        E = np.eye(n) * h
        fd_grad = np.array([(f.value(x + E[i], mu) - f.value(x - E[i], mu))
                            / (2 * h) for i in range(n)])
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        h = 1e-4
        E = np.eye(n) * h
        fd_hess = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                fd_hess[i, j] = (f.value(x + E[i] + E[j], mu)
                                 - f.value(x + E[i] - E[j], mu)
                                 - f.value(x - E[i] + E[j], mu)
                                 + f.value(x - E[i] - E[j], mu)) / (4 * h * h)
        scale = max(1.0, float(np.max(np.abs(H))))
        assert np.allclose(H, fd_hess, rtol=1e-4, atol=1e-4 * scale)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_qcqp_oracle(self, m):
        rng = np.random.default_rng(70 + m)
        for _ in range(3):
            f, z = _random_qcqp_oracle(rng, m)
            assert np.all(f.rows(z)[0] < 0) and f.ball(z) < 0
            self._check(f, z, 0.3)
            self._check(_PhaseOne(f), np.append(z, 0.1), 0.3)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_sdp_oracle(self, m):
        rng = np.random.default_rng(80 + m)
        for _ in range(3):
            f, y = _random_sdp_oracle(rng, m)
            assert np.all(f.rows(y)[0] < 0) and np.isfinite(f.cone(y))
            self._check(f, y, 0.3)
            self._check(_PhaseOne(f), np.append(y, 0.1), 0.3)


class TestSdpAgainstCvxpy:
    def test_random_batch(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(6):
            m = int(rng.integers(2, 4))
            C = rand_herm_psd(rng, m) - 0.4 * np.eye(m)
            ineqs = []
            for _ in range(int(rng.integers(1, 3))):
                A = rand_herm_psd(rng, m)
                b = float(np.trace(A).real / m + rng.uniform(0.0, 0.3))
                ineqs.append((A, b))
            p = SdpProblem(C=C, dim=m,
                           eq_constraints=[(np.eye(m, dtype=complex), 1.0)],
                           ineq_constraints=ineqs)
            res = solve_small_sdp(p)

            W = cp.Variable((m, m), hermitian=True)
            cons = [W >> 0, cp.real(cp.trace(W)) == 1.0]
            for A, b in ineqs:
                cons.append(cp.real(cp.trace(A @ W)) <= b)
            prob = cp.Problem(cp.Maximize(cp.real(cp.trace(C @ W))), cons)
            try:
                prob.solve()
            except cp.error.SolverError:
                continue
            if prob.status not in ("optimal", "optimal_inaccurate"):
                assert res.status == INFEASIBLE
                continue
            assert res.status == OPTIMAL
            scale = max(1.0, abs(prob.value))
            assert abs(res.objective - prob.value) <= 1e-4 * scale
            checked += 1
        assert checked >= 4
