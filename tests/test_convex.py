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

from backci import convex
from backci.beamforming import _span_basis, divergence_floors
from backci.channel import SystemParams, gen_channel_set
from backci.convex import (
    INFEASIBLE,
    MAX_ITER,
    NO_INTERIOR,
    OPTIMAL,
    QcqpProblem,
    SdpProblem,
    _BallQcqp,
    _PhaseOne,
    _Sdp,
    embed_hermitian,
    embed_vector,
    solve_ball_qcqp,
    solve_sdp_batch,
    solve_small_sdp,
    svec,
    unembed_vector,
)
from oracles import (
    brute_sdp_2x2,
    qcqp_max_violation,
    sdp_max_violation,
    slsqp_qcqp_oracle,
    smat,
)


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
        # max Re(c^H v), ||v||^2 <= 1 has optimum c / ||c||.
        rng = np.random.default_rng(11)
        c = rand_vec(rng, 4)
        res = solve_ball_qcqp(QcqpProblem(c=c, quad_constraints=[]))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(np.linalg.norm(c), rel=1e-6)
        assert np.allclose(res.v, c / np.linalg.norm(c), atol=1e-5)

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


class TestQcqpConstantRows:
    """A row with no v-dependence reads 0 <= b and is settled before any
    Newton step: dropped when b >= 0, INFEASIBLE when b < 0."""

    P = QcqpProblem(c=np.array([1.0 + 0j, 0.5j]), quad_constraints=[
        (np.eye(2, dtype=complex), np.array([0.2 + 0j, 0.0]), 0.5)])

    def with_row(self, row):
        return QcqpProblem(c=self.P.c,
                           quad_constraints=self.P.quad_constraints + [row])

    @pytest.mark.parametrize("row", [
        (None, None, 1.0), (np.zeros((2, 2)), np.zeros(2), 0.0)])
    def test_vacuous_row_changes_nothing(self, row):
        base = solve_ball_qcqp(self.P)
        res = solve_ball_qcqp(self.with_row(row))
        assert res.status == base.status == OPTIMAL
        assert res.v.tobytes() == base.v.tobytes()
        assert res.objective == base.objective
        assert res.newton_steps == base.newton_steps

    def test_impossible_row_is_infeasible_at_once(self):
        res = solve_ball_qcqp(self.with_row((None, None, -1.0)))
        assert res.status == INFEASIBLE and res.v is None
        assert res.certificate == 1.0
        assert res.newton_steps == 0


class TestQcqpBatch:
    """solve_ball_qcqps gives every entry what it gets solved alone."""

    def test_mixed_batch_equals_single_solves(self):
        rng = np.random.default_rng(31)
        m = 3
        cases = []
        for start in ("none", "inside", "edge", "outside_row"):
            c = rand_vec(rng, m)
            A = rand_herm_psd(rng, m)
            q = rand_vec(rng, m, 0.3)
            vt = rand_vec(rng, m, 0.3)
            b = float(np.vdot(vt, A @ vt).real + 2 * np.vdot(q, vt).real)
            rows = [(A, q, b + 0.05)]
            if start == "none":
                v0 = None
            elif start == "edge":
                v0 = rand_vec(rng, m)
                v0 /= np.linalg.norm(v0)     # pulled in before phase one
            elif start == "inside":
                v0 = 0.2 * vt
            else:
                v0 = solve_ball_qcqp(QcqpProblem(
                    c=c, quad_constraints=[(A, q, b + 0.5)])).v
            cases.append((QcqpProblem(c=c, quad_constraints=rows), v0))
        # an infeasible entry and one settled before any Newton step
        cases.append((QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, np.array([1.0, 0.0, 0.0], dtype=complex), -3.0)]), None))
        cases.append((QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, None, -1.0)]), rand_vec(rng, m, 0.1)))
        batch = convex.solve_ball_qcqps([p for p, _v0 in cases],
                                        [v0 for _p, v0 in cases])
        statuses = set()
        for (p, v0), res in zip(cases, batch):
            alone = solve_ball_qcqp(p, v0=v0)
            assert res.status == alone.status
            statuses.add(res.status)
            assert (res.v is None) == (alone.v is None)
            if res.v is not None:
                assert res.v.tobytes() == alone.v.tobytes()
            assert repr((res.objective, res.certificate, res.newton_steps)) \
                == repr((alone.objective, alone.certificate,
                         alone.newton_steps))
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_constraint_counts_must_agree(self):
        c = np.array([1.0, 1j])
        one = QcqpProblem(c=c, quad_constraints=[(None, c, 2.0)])
        two = QcqpProblem(c=c, quad_constraints=[(None, c, 2.0)] * 2)
        with pytest.raises(ValueError, match="not 1 and 2"):
            convex.solve_ball_qcqps([two, one, two], [None] * 3)

    def test_edge_start_is_pulled_in(self, monkeypatch):
        # A start on the unit sphere is scaled to half the squared radius
        # before phase one; one inside the ball is kept as it is.
        starts = []

        def spied(f, z):
            starts.append(z.copy())
            return solve(f, z)

        solve = convex._solve
        monkeypatch.setattr(convex, "_solve", spied)
        c = np.array([1.0, 1j])
        edge, inside = np.array([0.6, 0.8j]), np.array([0.3, 0.1])
        convex.solve_ball_qcqps([QcqpProblem(c=c, quad_constraints=[])] * 3,
                                [edge, inside, None])
        (z,) = starts
        assert np.vdot(z[0], z[0]) == pytest.approx(0.5, rel=1e-12)
        assert np.array_equal(z[1], embed_vector(inside))
        assert not z[2].any()


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
        res = solve_small_sdp(p)
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
                                                abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2], ids=["dim-one", "trace-dim-two"])
    def test_settled_before_any_newton_step(self, m):
        # Tr(I W) <= 0.5 is constant on the plane Tr W = 1, which at m = 1
        # is the single point W = [[1]]: the row fails by 0.5 before any
        # Newton step, normalized by its scale ||svec(I)|| = sqrt(m).
        res = solve_small_sdp(_problem(np.eye(m, dtype=complex),
                                       [(np.eye(m), 0.5)]))
        assert res.status == INFEASIBLE and res.W is None
        assert res.newton_steps == 0
        assert res.certificate == 0.5 / math.sqrt(m)

    def test_inconsistent_equalities(self):
        with pytest.raises(ValueError):
            solve_small_sdp(SdpProblem(
                C=np.eye(2, dtype=complex), dim=2,
                eq_constraints=[(np.eye(2, dtype=complex), 1.0),
                                (np.eye(2, dtype=complex), 2.0)]))

    @pytest.mark.parametrize("dim, eqs", [
        (2, []),                                        # no Tr W = 1
        (2, [(np.eye(2), 2.0)]),                        # Tr W = 2
        (2, [(np.diag([1.0, 0.0]), 1.0)]),              # W_00 = 1
        (2, [(np.eye(2), 1.0), (np.eye(2), 1.0)]),      # twice
        (3, [(np.eye(3), 1.0)]),                        # dim is not C's
    ], ids=["none", "trace-two", "not-identity", "twice", "dim"])
    def test_refuses_non_trace_one(self, dim, eqs):
        with pytest.raises(ValueError):
            solve_small_sdp(SdpProblem(C=np.eye(2, dtype=complex), dim=dim,
                                       eq_constraints=eqs))


class TestNewtonStepCount:
    """newton_steps counts the Newton steps tried, accepted or not, in phase
    one as in the main stage: one line search each, for a batch of one."""

    # Each problem breaks a row at the cold start, so phase one has to run.
    # Re(v1) >= 0.5, then also Re(v1) <= -1.5 (beyond the unit ball).
    HALF = (None, np.array([-0.5 + 0j, 0.0]), -0.5)
    QCQPS = [
        (QcqpProblem(c=np.array([1.0 + 0j, 1.0]), quad_constraints=[HALF]),
         OPTIMAL),
        (QcqpProblem(c=np.array([1.0 + 0j, 1.0]), quad_constraints=[
            HALF, (None, np.array([1.0 + 0j, 0.0]), -3.0)]), INFEASIBLE),
    ]
    # Tr W = 1 with W_00 >= 0.8, then also W_11 >= 0.8.
    E0, E1 = (np.diag(d).astype(complex) for d in ([1.0, 0.0], [0.0, 1.0]))
    SDPS = [
        (SdpProblem(C=E1, dim=2, eq_constraints=[(np.eye(2), 1.0)],
                    ineq_constraints=[(-E0, -0.8)]), OPTIMAL),
        (SdpProblem(C=E1, dim=2, eq_constraints=[(np.eye(2), 1.0)],
                    ineq_constraints=[(-E0, -0.8), (-E1, -0.8)]),
         INFEASIBLE),
    ]

    CASES = pytest.mark.parametrize(
        "solve, problem, status",
        [(solve_ball_qcqp, p, st) for p, st in QCQPS]
        + [(solve_small_sdp, p, st) for p, st in SDPS],
        ids=["qcqp-feasible", "qcqp-infeasible", "sdp-feasible",
             "sdp-infeasible"])

    @staticmethod
    def _check(monkeypatch, solve, problem, status):
        searches = []
        line_search = convex._line_search

        def counted(f, *args):
            searches.append(isinstance(f, _PhaseOne))
            return line_search(f, *args)

        monkeypatch.setattr(convex, "_line_search", counted)
        res = solve(problem)
        assert res.status == status
        assert any(searches)        # phase one took steps
        assert res.newton_steps == len(searches)

    @CASES
    def test_equals_line_searches(self, monkeypatch, solve, problem, status):
        self._check(monkeypatch, solve, problem, status)

    # A budget of one Newton step a stage leaves phase one's first stage
    # still centring, which ends it max_iter there, whatever the status
    # a centre would have given.
    @CASES
    def test_equals_line_searches_one_step_stages(self, monkeypatch, solve,
                                                  problem, status):
        monkeypatch.setattr(convex, "_MAX_NEWTON", 1)
        self._check(monkeypatch, solve, problem, MAX_ITER)


class TestStageBudget:
    """An entry still centring when its stage's _MAX_NEWTON Newton steps
    run out ends max_iter at that stage, in phase one and in the main
    stage of both kernels: optimal and infeasible come only from a
    centre."""

    # Each breaks a row at the cold start (phase one), or meets every row
    # strictly there (main stage only); see TestNewtonStepCount.
    PHASE_ONE = [p for p, _st in TestNewtonStepCount.QCQPS
                 + TestNewtonStepCount.SDPS]
    MAIN = [
        QcqpProblem(c=np.array([1.0 + 0j, 1.0]), quad_constraints=[
            (None, np.array([-0.5 + 0j, 0.0]), 0.5)]),
        SdpProblem(C=TestNewtonStepCount.E1, dim=2,
                   eq_constraints=[(np.eye(2), 1.0)],
                   ineq_constraints=[(-TestNewtonStepCount.E0, -0.2)]),
    ]

    CASES = pytest.mark.parametrize(
        "phase_one, problem",
        [(True, p) for p in PHASE_ONE] + [(False, p) for p in MAIN],
        ids=["p1-qcqp-feasible", "p1-qcqp-infeasible", "p1-sdp-feasible",
             "p1-sdp-infeasible", "main-qcqp", "main-sdp"])

    @staticmethod
    def _run(monkeypatch, problem, budget):
        """The result, and (phase one?, still centring?) of each stage."""
        solve = (solve_ball_qcqp if isinstance(problem, QcqpProblem)
                 else solve_small_sdp)
        assert solve(problem).status != MAX_ITER
        stages, centre = [], convex._centre

        def spied(f, x, mu, tol):
            x, steps, capped = centre(f, x, mu, tol)
            stages.append((isinstance(f, _PhaseOne), bool(capped[0])))
            return x, steps, capped

        monkeypatch.setattr(convex, "_MAX_NEWTON", budget)
        monkeypatch.setattr(convex, "_centre", spied)
        return solve(problem), stages

    @CASES
    def test_still_centring_ends_max_iter(self, monkeypatch, phase_one,
                                          problem):
        # One step leaves the first stage, of the phase the problem starts
        # in, still centring: the run ends there.
        res, stages = self._run(monkeypatch, problem, 1)
        assert res.status == MAX_ITER and res.newton_steps == 1
        assert stages == [(phase_one, True)]

    @CASES
    @pytest.mark.parametrize("budget", [2, 3, 5])
    def test_max_iter_only_at_a_capped_stage(self, monkeypatch, phase_one,
                                             problem, budget):
        res, stages = self._run(monkeypatch, problem, budget)
        assert not any(capped for _p1, capped in stages[:-1])
        assert (res.status == MAX_ITER) == stages[-1][1]


def _problem(C, rows):
    """The trace-one SdpProblem of objective C and rows."""
    m = len(C)
    return SdpProblem(C=C, dim=m, eq_constraints=[(np.eye(m), 1.0)],
                      ineq_constraints=rows)


def _family_rows(params, seed, B):
    """The evolved relaxation SDPs of tag 0 of realization seed at B values
    of t in [0, 1.5 lambda_max(H0)] (0.8 lambda_max(H0) when B = 1), as
    (C, row_sets): their shared objective and their rows."""
    gamma = params.gamma
    f_without = divergence_floors(params)[3]
    h0, h1, hs = gen_channel_set(params, seed).tag_channels(0)
    H0, H1, Hs = (np.outer(h, h.conj()) for h in (h0, h1, hs))
    t_hi = float(np.linalg.eigvalsh(H0)[-1])
    ts = (np.linspace(0.0, 1.5 * t_hi, B) if B > 1
          else np.array([0.8 * t_hi]))
    return gamma * H1, [[(-H1 + (1.0 + gamma * t) * Hs, -t),
                         (-gamma * Hs, -(f_without - 1.0)),
                         (H0, t)] for t in ts]


def _relaxation_family(M, B):
    """The evolved relaxation SDPs of one tag at B values of t, as
    (C, row_sets, singles): their shared objective, their rows, and their
    solve_small_sdp results.

    Small t, where Tr(H0 W) <= t cannot hold, gives infeasible entries.
    The tag is the first whose family mixes feasible and infeasible
    entries (for B > 1).
    """
    params = SystemParams(K=1, M=M)
    for seed in range(100):
        C, row_sets = _family_rows(params, seed, B)
        singles = [solve_small_sdp(_problem(C, rows)) for rows in row_sets]
        statuses = {r.status for r in singles}
        if B == 1 or {OPTIMAL, INFEASIBLE} <= statuses:
            return C, row_sets, singles
    raise AssertionError("no mixed relaxation family")


def _result_bytes(r):
    """What an SdpResult says, as exact bytes."""
    return (r.status, r.newton_steps,
            None if r.W is None else r.W.tobytes())


def _result_repr(r):
    """Every field of an SdpResult, floats in their exact repr."""
    return _result_bytes(r) + (repr((r.objective, r.gap, r.certificate)),)


class TestSdpBatch:
    """solve_sdp_batch against solve_small_sdp, entry by entry."""

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("B", [1, 7, 100])
    def test_matches_single_solves(self, M, B):
        C, row_sets, singles = _relaxation_family(M, B)
        batch = solve_sdp_batch(C, row_sets)
        assert len(batch) == B
        for one, res in zip(singles, batch):
            assert res.status == one.status
            if M <= 4:      # bit for bit; M = 8 to the tolerance below
                assert _result_bytes(res) == _result_bytes(one)
            if res.status == OPTIMAL:
                assert res.objective == pytest.approx(one.objective,
                                                      rel=1e-7, abs=1e-12)
            else:
                assert res.W is None
                assert res.certificate > 0.0

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_mixed_objectives_match_per_tag_calls(self, M):
        # Four tags' relaxation families, each with its own objective, in
        # one stacked call, with the objectives as a list and as one
        # array: every entry is bit for bit what its tag's own call gives.
        params = SystemParams(K=1, M=M)
        families = [_family_rows(params, seed, 25) for seed in range(4)]
        per_tag = [_result_repr(r) for C, rows in families
                   for r in solve_sdp_batch(C, rows)]
        Cs = [C for C, rows in families for _rows in rows]
        rows = [r for _C, rs in families for r in rs]
        for objectives in (Cs, np.array(Cs)):
            assert [_result_repr(r) for r in
                    solve_sdp_batch(objectives, rows)] == per_tag
        assert len({c.tobytes() for c in Cs}) == len(families)
        assert {OPTIMAL, INFEASIBLE} <= {r[0] for r in per_tag}

    def test_order_follows_input(self):
        C, row_sets, _singles = _relaxation_family(4, 7)
        fwd = solve_sdp_batch(C, row_sets)
        rev = solve_sdp_batch(C, row_sets[::-1])[::-1]
        assert [r.status for r in fwd] == [r.status for r in rev]
        for a, b in zip(fwd, rev):
            if a.status == OPTIMAL:
                assert b.objective == pytest.approx(a.objective, rel=1e-7)

    def test_constant_rows(self):
        # A vacuous row (A = 0, b >= 0) is dropped, and an impossible one
        # (A = 0, b < 0) settles entry 4 before the barrier; every entry
        # still matches its single solve.
        C, row_sets, _singles = _relaxation_family(2, 7)
        zero = np.zeros((2, 2), dtype=complex)
        row_sets = [rows + [(zero, -1.0 if j == 4 else 1.0)]
                    for j, rows in enumerate(row_sets)]
        batch = solve_sdp_batch(C, row_sets)
        for rows, res in zip(row_sets, batch):
            one = solve_small_sdp(_problem(C, rows))
            assert res.status == one.status
            if res.status == OPTIMAL:
                assert res.objective == pytest.approx(one.objective,
                                                      rel=1e-7)
        assert batch[4].status == INFEASIBLE
        assert batch[4].certificate == pytest.approx(1.0)

    def test_rows_of_different_counts(self):
        # One call takes one row count; a ragged stack is refused.
        C, row_sets, _singles = _relaxation_family(2, 7)
        row_sets[5] = row_sets[5][:2]
        with pytest.raises(ValueError, match="not 2 and 3"):
            solve_sdp_batch(C, row_sets)

    def test_row_constant_only_on_the_plane_is_settled(self):
        # Tr(2 I W) <= 3 is not small, but on the plane Tr W = 1 it reads
        # 2 <= 3: it is settled as a vacuous row is, and Tr(I W) <= 0.5
        # makes its entry infeasible before any Newton step.
        C, row_sets, _singles = _relaxation_family(2, 7)
        eye = np.eye(2, dtype=complex)

        def with_row(row):
            rows = [r + [row if j == 1 else (np.zeros((2, 2)), 1.0)]
                    for j, r in enumerate(row_sets)]
            return [_result_repr(r) for r in solve_sdp_batch(C, rows)]

        vacuous = with_row((np.zeros((2, 2)), 1.0))
        assert vacuous[1][0] == OPTIMAL
        assert with_row((2.0 * eye, 3.0)) == vacuous
        failed = with_row((eye, 0.5))
        assert failed[1] == (INFEASIBLE, 0, None,
                             repr((np.nan, np.nan, 0.5 / math.sqrt(2.0))))
        assert failed[:1] + failed[2:] == vacuous[:1] + vacuous[2:]

    def test_objective_count_must_be_one_or_one_per_row_set(self):
        C, row_sets, _singles = _relaxation_family(2, 7)
        shared = [_result_repr(r) for r in solve_sdp_batch(C, row_sets)]
        assert [_result_repr(r)
                for r in solve_sdp_batch([C], row_sets)] == shared
        with pytest.raises(ValueError, match="2 objectives for 7 row sets"):
            solve_sdp_batch([C, C], row_sets)

    def test_objective_size_must_be_the_rows(self):
        _C, row_sets, _singles = _relaxation_family(2, 7)
        with pytest.raises(ValueError,
                           match="objective is 3 x 3, the rows are 2 x 2"):
            solve_sdp_batch(np.eye(3, dtype=complex), row_sets)

    def test_line_search_failure_ends_only_its_entry(self, monkeypatch):
        # One entry's last line search, in its last stage, is made to fail
        # in a call that steps other entries too.  That ends the target's
        # stage alone: every other entry must end as in the run without the
        # failure.
        C, row_sets, _singles = _relaxation_family(4, 7)
        keys = _Sdp(C, row_sets).b   # the barrier's rows of each entry
        line_search = convex._line_search
        calls, fail = [], {}

        def spied(f, x, d, val, dec, mu):
            who = [int(np.flatnonzero((keys == row).all(axis=1))[0])
                   for row in f.b]
            xn, failed = line_search(f, x, d, val, dec, mu)
            if len(calls) == fail.get("call"):
                hit = np.equal(who, fail["entry"])
                xn[hit] = x[hit]
                failed = failed | hit
            calls.append(who)
            return xn, failed

        monkeypatch.setattr(convex, "_line_search", spied)
        clean = solve_sdp_batch(C, row_sets)
        last = {j: i for i, who in enumerate(calls) for j in who}
        target = max(last, key=lambda j: len(calls[last[j]]))
        assert len(calls[last[target]]) > 1
        fail.update(call=last[target], entry=target)
        calls.clear()
        batch = solve_sdp_batch(C, row_sets)
        assert target in calls[fail["call"]]
        for j, (a, b) in enumerate(zip(clean, batch)):
            if j != target:
                assert _result_bytes(b) == _result_bytes(a)
                assert repr((b.objective, b.certificate)) == repr(
                    (a.objective, a.certificate))

    def test_iteration_cap_reported(self, monkeypatch):
        C, row_sets, _singles = _relaxation_family(4, 7)
        monkeypatch.setattr(convex, "_MAX_NEWTON", 1)
        batch = solve_sdp_batch(C, row_sets)
        assert MAX_ITER in {r.status for r in batch}
        assert OPTIMAL not in {r.status for r in batch}

    def test_empty_batch(self):
        assert solve_sdp_batch(np.eye(2, dtype=complex), []) == []


def _face_rows(params, seed):
    """The evolved relaxation of tag 0 of realization seed at t = 0, in the
    design's units (its span basis, channels divided by ||h1||), as
    (C, rows, zf): with zf whether the zero-forcing receiver, the optimum
    on the face W g0 = 0 that Tr(H0 W) <= 0 leaves, meets the without-DL
    floor."""
    h0, h1, hs = gen_channel_set(params, seed).tag_channels(0)
    U = _span_basis(h0, hs)
    s = np.linalg.norm(h1)
    g0, g1, gs = (U.conj().T @ (h / s) for h in (h0, h1, hs))
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    gamma = params.gamma * s * s
    floor = divergence_floors(params)[3] - 1.0
    pgs = gs - g0 * (np.vdot(g0, gs) / np.vdot(g0, g0))
    return (gamma * H1, [(-H1 + Hs, 0.0), (-gamma * Hs, -floor), (H0, 0.0)],
            gamma * np.vdot(pgs, pgs).real >= floor)


class TestNoInterior:
    """Rows that only a face of the cone meets have no strictly feasible
    point, so phase one cannot end OPTIMAL; nor may it say INFEASIBLE
    without a certificate."""

    def test_face_of_the_t0_relaxation(self):
        # The tags whose backscatter link alone reaches the without-DL
        # floor; the design screens out the others before any SDP.
        params = SystemParams(K=1, M=4)
        floor = divergence_floors(params)[3] - 1.0
        C, row_sets, zf = [], [], []
        for seed in range(30):
            hs = gen_channel_set(params, seed).tag_channels(0)[2]
            if params.gamma * np.vdot(hs, hs).real < floor:
                continue
            c, rows, ok = _face_rows(params, seed)
            C.append(c)
            row_sets.append(rows)
            zf.append(ok)
        assert 0 < sum(zf) < len(zf)
        for res, ok in zip(solve_sdp_batch(C, row_sets), zf):
            assert res.W is None and res.newton_steps > 0
            if ok:      # the face is met: no interior, no certificate
                assert res.status == NO_INTERIOR
                assert 0.0 < res.certificate < 1e-10
            else:       # not even the face is: a real certificate
                assert res.status == INFEASIBLE
                assert res.certificate > 1e-4


class TestLogdet:
    def test_refused_matrix_leaves_the_others_alone(self, monkeypatch):
        # Two matrices that are not positive definite in a stack of six
        # make the stacked Cholesky refuse.  They read nan, every other
        # value is its matrix's own, bit for bit, and the positive
        # definite ones are picked by their leading minors, with no
        # eigenvalue pass.
        rng = np.random.default_rng(12)
        W = np.array([rand_herm_psd(rng, 3) + 0.1 * np.eye(3)
                      for _ in range(6)])
        W[2] = np.diag([1.0, -1e-3, 2.0])
        W[4][0, 0] = -W[4][0, 0]

        def no_eigvalsh(*args):
            raise AssertionError("eigenvalue pass")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        got = convex._logdet(W)
        assert np.isnan(got[[2, 4]]).all()
        for i in (0, 1, 3, 5):
            assert got[i].tobytes() == convex._logdet(W[i:i + 1])[0].tobytes()
            assert got[i] == pytest.approx(np.linalg.slogdet(W[i])[1],
                                           rel=1e-12)


class TestSolveNewton:
    def test_singular_entry_leaves_the_others_alone(self):
        # One zero Hessian in a stack of three: it alone gets the ridge,
        # and the other two steps are their own solves, bit for bit.
        rng = np.random.default_rng(90)
        X = rng.normal(size=(3, 5, 5))
        H = X @ X.swapaxes(1, 2) + np.eye(5)
        H[1] = 0.0
        g = rng.normal(size=(3, 5))
        d = convex._solve_newton(H, g)
        for i in range(3):
            solo = convex._solve_newton(H[i:i + 1], g[i:i + 1])
            assert d[i].tobytes() == solo[0].tobytes()
        assert np.all(np.isfinite(d[1]))


def _random_qcqp_oracle(rng, m):
    """A batch of three QCQP oracles and a point strictly inside each.

    Each entry has two quadratic rows and one linear row.
    """
    problems, points = [], []
    for _ in range(3):
        c = rand_vec(rng, m)
        vt = rand_vec(rng, m, 0.3)
        vt *= min(1.0, 0.7 / np.linalg.norm(vt))   # strictly inside the ball
        cons = []
        for with_a in (True, False, True):
            A = rand_herm_psd(rng, m) if with_a else None
            q = rand_vec(rng, m, 0.5)
            val = 2.0 * np.vdot(q, vt).real
            if A is not None:
                val += np.vdot(vt, A @ vt).real
            cons.append((A, q, float(val + 0.3)))
        problems.append(QcqpProblem(c=c, quad_constraints=cons))
        points.append(embed_vector(vt))
    return _BallQcqp(problems), np.array(points)


def _random_sdp_oracle(rng, m):
    """A batch of three SDP oracles and a point inside each one's domain.

    The entries share C and have two rows each.
    """
    C = rand_herm_psd(rng, m)
    rows = []
    for _ in range(3):
        mats = [rand_herm_psd(rng, m) for _ in range(2)]
        rows.append([(A, float(np.trace(A).real / m + 0.2)) for A in mats])
    f = _Sdp(C, rows)
    return f, 0.02 * rng.normal(size=(3, f.Z.shape[1]))


class TestOracleDerivatives:
    """Oracle gradients and Hessians against central differences of value.

    Each oracle holds a batch of three entries, each with its own rows.
    """

    @staticmethod
    def _check(f, x, mu):
        val, grad, H = f.derivs(x, mu)
        assert np.all(np.isfinite(val))
        assert val == pytest.approx(f.value(x, mu), rel=1e-12, abs=1e-12)
        n = x.shape[1]
        h = 1e-5
        E = np.eye(n) * h
        fd_grad = np.stack([(f.value(x + E[i], mu) - f.value(x - E[i], mu))
                            / (2 * h) for i in range(n)], axis=1)
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        h = 1e-4
        E = np.eye(n) * h
        fd_hess = np.empty(H.shape)
        for i in range(n):
            for j in range(n):
                fd_hess[:, i, j] = (f.value(x + E[i] + E[j], mu)
                                    - f.value(x + E[i] - E[j], mu)
                                    - f.value(x - E[i] + E[j], mu)
                                    + f.value(x - E[i] - E[j], mu)
                                    ) / (4 * h * h)
        for Hb, fd in zip(H, fd_hess):
            scale = max(1.0, float(np.max(np.abs(Hb))))
            assert np.allclose(Hb, fd, rtol=1e-4, atol=1e-4 * scale)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_qcqp_oracle(self, m):
        rng = np.random.default_rng(70 + m)
        for _ in range(3):
            f, z = _random_qcqp_oracle(rng, m)
            assert np.all(f.rows(z)[0] < 0)   # row 0 is the ball
            self._check(f, z, 0.3)
            self._check(_PhaseOne(f), np.column_stack([z, np.full(3, 0.1)]),
                        0.3)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sdp_oracle(self, m):
        rng = np.random.default_rng(80 + m)
        for _ in range(3):
            f, y = _random_sdp_oracle(rng, m)
            assert np.all(f.rows(y)[0] < 0) and np.all(np.isfinite(f.cone(y)))
            self._check(f, y, 0.3)
            self._check(_PhaseOne(f), np.column_stack([y, np.full(3, 0.1)]),
                        0.3)


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
