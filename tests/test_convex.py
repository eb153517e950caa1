"""Tests for the dual QCQP kernel and the SDP kernels.

Reference solutions come from closed forms (ball-constrained linear
objective, spectral optimum), scipy's SLSQP run from multiple starts, a
dense parameterized grid for 2x2 density matrices, dense samples of the
unit ball, and cvxpy when it is importable.  None of those share code with
the solvers under test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from backci import beamforming, convex, qcqp
from backci.beamforming import _span_basis, divergence_floors, evolved_steps
from backci.channel import SystemParams, gen_channel_set
from backci.convex import (
    INFEASIBLE,
    MAX_ITER,
    NO_INTERIOR,
    OPTIMAL,
    SdpProblem,
    _PhaseOne,
    _Sdp,
    _trace_one,
    embed_hermitian,
    embed_vector,
    solve_sdp_batch,
    solve_small_sdp,
    svec,
    unembed_vector,
)
from backci.qcqp import QcqpProblem, solve_ball_qcqp
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


class TestSettleRule:
    """A row is settled only when its coefficients are negligible against
    its own entry's rows, so a problem whose rows all scale by k keeps its
    answer at any k."""

    @pytest.mark.parametrize("k", [1.0, 1e-13, 1e-14, 1e-20])
    def test_small_rows_of_one_scale_are_kept(self, k):
        # max W_00 s.t. k W_00 <= 0.25 k, and max Re v_0 s.t. k |v_0|^2 <=
        # 0.25 k: 0.25 and 0.5 at every k.
        E = np.diag([1.0, 0.0]).astype(complex)
        sdp = solve_small_sdp(_problem(E, [(k * E, 0.25 * k)]))
        qcqp = solve_ball_qcqp(QcqpProblem(
            c=np.array([1.0 + 0j, 0j]), quad_constraints=[(k * E, None,
                                                           0.25 * k)]))
        assert sdp.objective == pytest.approx(0.25, abs=1e-8)
        assert qcqp.objective == pytest.approx(0.5, abs=1e-8)


class TestQcqpBatch:
    """solve_ball_qcqps gives every entry what it gets solved alone."""

    def test_mixed_batch_equals_single_solves(self):
        rng = np.random.default_rng(31)
        m = 3
        cases = []
        for slack in (0.05, 0.5, 0.01, 0.2):
            c = rand_vec(rng, m)
            A = rand_herm_psd(rng, m)
            q = rand_vec(rng, m, 0.3)
            vt = rand_vec(rng, m, 0.3)
            b = float(np.vdot(vt, A @ vt).real + 2 * np.vdot(q, vt).real)
            cases.append(QcqpProblem(c=c, quad_constraints=[(A, q,
                                                             b + slack)]))
        # an infeasible entry and one settled before any Newton step
        cases.append(QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, np.array([1.0, 0.0, 0.0], dtype=complex), -3.0)]))
        cases.append(QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, None, -1.0)]))
        batch = qcqp.solve_ball_qcqps(cases)
        statuses = set()
        for p, res in zip(cases, batch):
            alone = solve_ball_qcqp(p)
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
            qcqp.solve_ball_qcqps([two, one, two])



def _qcqp_scales(p):
    """Each constraint's scale, as the kernel divides it: max(|b|, Tr A,
    2 ||q||)."""
    return np.array([max(abs(b), 0.0 if A is None else np.trace(A).real,
                         0.0 if q is None else 2.0 * np.linalg.norm(q))
                     for A, q, b in p.quad_constraints])


def _row_values(p, V):
    """v^H A v + 2 Re(q^H v) - b of each constraint at each row of V."""
    out = []
    for A, q, b in p.quad_constraints:
        val = np.full(len(V), -float(b))
        if A is not None:
            val += np.vecdot(V, V @ np.asarray(A).T).real
        if q is not None:
            val += 2.0 * (V @ np.conj(q)).real
        out.append(val)
    return np.array(out).T


def _consensual_subproblems(ms, seeds):
    """Every QCQP the consensual SCA solves on every tag of the draws
    gen_channel_set(SystemParams(M=m), seed), with its result."""
    out = []
    solve = beamforming.solve_ball_qcqps

    def spied(problems):
        results = solve(problems)
        out.extend(zip(problems, results))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "solve_ball_qcqps", spied)
        for m in ms:
            params = SystemParams(M=m)
            for seed in seeds:
                ch = gen_channel_set(params, seed)
                beamforming.lockstep([
                    beamforming.consensual_steps(ch.tag_channels(k), params)
                    for k in range(params.K)])
    return out


def _random_qcqps(rng, count, slack=(0.05, 1.0)):
    """Random QCQPs of dimension 1 to 4 with one to three rows, each met
    with the given slack at a point inside the ball, or missed by it when
    the slack is negative."""
    problems = []
    for _ in range(count):
        m = int(rng.integers(1, 5))
        vt = rand_vec(rng, m, 0.3)
        cons = []
        for _ in range(int(rng.integers(1, 4))):
            A = rand_herm_psd(rng, m) if rng.random() < 0.7 else None
            q = rand_vec(rng, m, 0.5)
            val = 2.0 * np.vdot(q, vt).real
            if A is not None:
                val += np.vdot(vt, A @ vt).real
            cons.append((A, q, float(val + rng.uniform(*slack))))
        problems.append(QcqpProblem(c=rand_vec(rng, m),
                                    quad_constraints=cons))
    return problems


class TestQcqpKkt:
    """An optimal QCQP result is a KKT point of its normalized problem, with
    its dual as the multipliers: the multipliers are >= 0, v meets every
    row and complements them within 1e-8, and the Lagrangian is stationary
    at v to 1e-10 of ||c||."""

    @staticmethod
    def _check(p, res):
        assert res.status == OPTIMAL
        y, v = res.dual, res.v
        c_norm = np.linalg.norm(p.c)
        s = _qcqp_scales(p)
        slack = -_row_values(p, v[None])[0] / s
        slack = np.concatenate([[1.0 - np.vdot(v, v).real], slack])
        lam = y * np.concatenate([[1.0], s]) / c_norm
        assert np.all(y >= 0.0)
        assert slack.min() >= -1e-8
        assert np.abs(lam * slack).max() <= 1e-8
        grad = 2.0 * y[0] * v
        for yi, (A, q, _b) in zip(y[1:], p.quad_constraints):
            if A is not None:
                grad = grad + 2.0 * yi * (A @ v)
            if q is not None:
                grad = grad + 2.0 * yi * q
        assert np.linalg.norm(p.c - grad) <= 1e-10 * c_norm

    def test_random_problems(self):
        rng = np.random.default_rng(41)
        for p in _random_qcqps(rng, 40):
            self._check(p, solve_ball_qcqp(p))

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_consensual_subproblems(self, m):
        solved = [(p, r) for p, r in _consensual_subproblems([m], range(8))
                  if r.status == OPTIMAL]
        assert len(solved) >= 5
        for p, res in solved:
            self._check(p, res)


class TestQcqpInfeasibleFloor:
    """An infeasible result's certificate is a floor under every point's
    largest normalized violation: positive, and at most the least largest
    violation of dense samples of the unit ball."""

    @staticmethod
    def _sampled_min_violation(p, rng):
        m = p.dim()
        V = rng.normal(size=(20000, m)) + 1j * rng.normal(size=(20000, m))
        V /= np.linalg.norm(V, axis=1)[:, None]
        V[10000:] *= rng.random(10000)[:, None] ** (1.0 / (2 * m))
        return (_row_values(p, V) / _qcqp_scales(p)).max(axis=1).min()

    def test_random_and_consensual_problems(self):
        rng = np.random.default_rng(43)
        problems = _random_qcqps(rng, 40, slack=(-1.5, 0.1)) + [
            p for p, r in _consensual_subproblems([1, 2, 4], [0, 1, 2])
            if r.status == INFEASIBLE]
        checked = 0
        for p in problems:
            res = solve_ball_qcqp(p)
            if res.status != INFEASIBLE:
                continue
            assert res.v is None and res.newton_steps > 0
            assert 0.0 < res.certificate <= self._sampled_min_violation(p,
                                                                        rng)
            checked += 1
        assert checked >= 15


def _result_fields(r):
    """Every field of a QcqpResult, floats in their exact repr and arrays
    as bytes."""
    return (r.status, r.newton_steps,
            None if r.v is None else r.v.tobytes(),
            None if r.dual is None else r.dual.tobytes(),
            repr((r.objective, r.certificate)))


class TestQcqpBatchInvariance:
    """A stack mixing optimal, infeasible, settled and capped entries gives
    every entry, byte for byte, what it gets alone, in either order."""

    def test_both_orders_equal_single_solves(self, monkeypatch):
        monkeypatch.setattr(convex, "_MAX_NEWTON", 4)
        rng = np.random.default_rng(47)
        m = 3
        problems = []
        for slack in (0.3, 0.05, -0.2, -1.0, 0.5, 0.01, -0.05, 0.2):
            A = rand_herm_psd(rng, m)
            q = rand_vec(rng, m, 0.5)
            vt = rand_vec(rng, m, 0.3)
            b = float(np.vdot(vt, A @ vt).real + 2 * np.vdot(q, vt).real)
            problems.append(QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
                (A, q, b + slack), (None, rand_vec(rng, m), 2.0)]))
        problems.append(QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, None, -1.0), (None, rand_vec(rng, m), 1.0)]))
        problems.append(QcqpProblem(c=rand_vec(rng, m), quad_constraints=[
            (None, np.array([1.0, 0.0, 0.0], dtype=complex), -3.0),
            (None, rand_vec(rng, m), 2.0)]))
        alone = [_result_fields(solve_ball_qcqp(p)) for p in problems]
        assert {a[0] for a in alone} == {OPTIMAL, INFEASIBLE, MAX_ITER}
        assert any(a[0] == INFEASIBLE and a[1] == 0 for a in alone)
        assert any(a[0] == INFEASIBLE and a[1] > 0 for a in alone)
        forward = qcqp.solve_ball_qcqps(problems)
        backward = qcqp.solve_ball_qcqps(problems[::-1])[::-1]
        for a, f, b in zip(alone, forward, backward):
            assert _result_fields(f) == a == _result_fields(b)


class TestQcqpIterationCap:
    """A budget of one Newton step ends every entry that needs more
    max_iter, with no point and no certificate, never infeasible; one that
    needs no more ends as it does with the full budget."""

    def test_one_step(self, monkeypatch):
        rng = np.random.default_rng(53)
        problems = (_random_qcqps(rng, 20) + _random_qcqps(rng, 20, slack=(
            -1.5, -0.5)))
        full = [solve_ball_qcqp(p) for p in problems]
        monkeypatch.setattr(convex, "_MAX_NEWTON", 1)
        kinds = set()
        for p, res in zip(problems, full):
            capped = solve_ball_qcqp(p)
            if res.newton_steps <= 1:
                assert _result_fields(capped) == _result_fields(res)
                continue
            kinds.add(res.status)
            assert capped.status == MAX_ITER and capped.newton_steps == 1
            assert capped.v is None and np.isnan(capped.certificate)
        assert kinds == {OPTIMAL, INFEASIBLE}


class TestQcqpWarmStart:
    """A start (an earlier solve's dual) moves where the dual Newton begins,
    not where it ends: the statuses and objectives are the cold solve's,
    a start that is not a valid dual point gives the cold solve's bytes,
    and mixed stacks stay batch-invariant."""

    @staticmethod
    def _cold(p):
        return solve_ball_qcqp(replace(p, start=None))

    def test_own_dual_ends_at_once(self):
        rng = np.random.default_rng(59)
        problems = _random_qcqps(rng, 20) + [
            p for p, _r in _consensual_subproblems([2, 4], range(3))]
        for p in problems:
            cold = self._cold(p)
            if cold.status != OPTIMAL:
                continue
            warm = solve_ball_qcqp(replace(p, start=cold.dual))
            assert warm.status == OPTIMAL and warm.newton_steps <= 1
            assert warm.objective == pytest.approx(cold.objective, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_consensual_steps_match_cold(self, m):
        # the consensual SCA hands every step but an init's first the
        # previous step's dual, so these problems carry their starts
        warm = [(p, r) for p, r in _consensual_subproblems([m], range(8))
                if p.start is not None]
        assert len(warm) >= 4
        for p, res in warm:
            cold = self._cold(p)
            assert res.status == cold.status
            if res.status == OPTIMAL:
                assert res.objective == pytest.approx(cold.objective,
                                                      rel=1e-9)
                TestQcqpKkt._check(p, res)

    @staticmethod
    def _bad_starts(p, dual):
        """Starts that are no dual point: a NaN, a negative row multiplier,
        a zero ball multiplier, and rows so dear against the ball that H is
        not positive definite beyond round-off."""
        nan, neg, zero = dual.copy(), dual.copy(), dual.copy()
        nan[1] = np.nan
        neg[-1] = -1e-3
        zero[0] = 0.0
        dear = 1e10 * np.linalg.norm(p.c) / np.concatenate(
            [[1.0], _qcqp_scales(p)])
        dear[0] = 1e-12
        return [nan, neg, zero, dear]

    def test_bad_starts_give_the_cold_bytes(self):
        rng = np.random.default_rng(61)
        problems = _random_qcqps(rng, 10) + [
            p for p, _r in _consensual_subproblems([4], range(2))]
        for p in problems:
            cold = self._cold(p)
            starts = self._bad_starts(
                p, np.full(len(p.quad_constraints) + 1, 0.5))
            for start in starts:
                got = solve_ball_qcqp(replace(p, start=start))
                assert _result_fields(got) == _result_fields(cold)
            # the dear start passes the value checks and fails on phi
            f = qcqp._BallDual([p])
            lam = starts[-1] * f.s / f.c_norm[:, None]
            lam[:, 0] = qcqp._BALL_MIN
            assert np.isinf(f.point(lam)[0])
        # H indefinite outright: a row of negative curvature, which the
        # cold start's H = I / 2 outweighs and a start of 1 does not
        p = QcqpProblem(c=np.array([1.0, 1j]), quad_constraints=[
            (-np.eye(2), None, 1.0)], start=np.array([0.5, 1.0]))
        assert _result_fields(solve_ball_qcqp(p)) == _result_fields(
            self._cold(p))

    def test_start_of_another_length_is_refused(self):
        c = np.array([1.0, 1j])
        p = QcqpProblem(c=c, quad_constraints=[(None, c, 2.0)],
                        start=np.array([0.5]))
        with pytest.raises(ValueError, match="reshape"):
            solve_ball_qcqp(p)

    def test_mixed_batches_are_invariant(self):
        subs = _consensual_subproblems([4], range(3))
        problems = []
        for i, (p, _r) in enumerate(subs[:12]):
            cold = self._cold(p)
            if i % 3 == 1:
                p = replace(p, start=None)
            elif i % 3 == 2 and cold.dual is not None:
                p = replace(p, start=self._bad_starts(p, cold.dual)[i % 4])
            problems.append(p)
        assert {p.start is None for p in problems} == {True, False}
        alone = [_result_fields(solve_ball_qcqp(p)) for p in problems]
        forward = qcqp.solve_ball_qcqps(problems)
        backward = qcqp.solve_ball_qcqps(problems[::-1])[::-1]
        for a, f, b in zip(alone, forward, backward):
            assert _result_fields(f) == a == _result_fields(b)

    def test_warm_infeasible_certificate_is_a_floor(self):
        # each optimal step's dual starts the same rows with their
        # constants lowered, as when the floors rise between steps
        rng = np.random.default_rng(67)
        checked = 0
        for p, res in _consensual_subproblems([2, 4], range(3)):
            if res.status != OPTIMAL:
                continue
            for shift in (0.5, 2.0):
                tight = replace(p, start=res.dual, quad_constraints=[
                    (A, q, b - shift * abs(b))
                    for A, q, b in p.quad_constraints])
                got = solve_ball_qcqp(tight)
                if got.status != INFEASIBLE:
                    continue
                assert got.v is None
                assert 0.0 < got.certificate <= (
                    TestQcqpInfeasibleFloor._sampled_min_violation(tight,
                                                                   rng))
                checked += 1
        assert checked >= 15


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
    """newton_steps counts the Newton steps tried, accepted or not, for a
    batch of one: one line search each, in the barrier SDP's phase one as
    in its main stage, and one Newton system (with its line search) each
    in the dual QCQP kernel."""

    # Each problem breaks a row at the cold start, so the QCQP's dual has
    # to step and the SDP's phase one has to run.
    # Re(v1) >= 0.5, then also Re(v1) <= 0.
    HALF = (None, np.array([-0.5 + 0j, 0.0]), -0.5)
    QCQPS = [
        (QcqpProblem(c=np.array([-1.0 + 0j, 1.0]), quad_constraints=[HALF]),
         OPTIMAL),
        (QcqpProblem(c=np.array([-1.0 + 0j, 1.0]), quad_constraints=[
            HALF, (None, np.array([1.0 + 0j, 0.0]), 0.0)]), INFEASIBLE),
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
        if solve is solve_ball_qcqp:
            module, name = qcqp, "_solve_newton"
        else:
            module, name = convex, "_line_search"
        searches, inner = [], getattr(module, name)

        def counted(f, *args):
            searches.append(module is qcqp or isinstance(f, _PhaseOne))
            return inner(f, *args)

        monkeypatch.setattr(module, name, counted)
        res = solve(problem)
        assert res.status == status
        assert any(searches)        # the dual, or phase one, took steps
        assert res.newton_steps == len(searches)

    @CASES
    def test_equals_line_searches(self, monkeypatch, solve, problem, status):
        self._check(monkeypatch, solve, problem, status)

    # A budget of one Newton step a stage leaves phase one's first stage
    # still centring, which ends it max_iter there, whatever the status
    # a centre would have given; the QCQP's dual, which needs more than one
    # step on either problem, ends max_iter after its one step.
    @CASES
    def test_equals_line_searches_one_step_stages(self, monkeypatch, solve,
                                                  problem, status):
        monkeypatch.setattr(convex, "_MAX_NEWTON", 1)
        self._check(monkeypatch, solve, problem, MAX_ITER)


class TestStageBudget:
    """An entry still centring when its stage's _MAX_NEWTON Newton steps
    run out ends max_iter at that stage, in phase one and in the main
    stage of the barrier SDP: optimal and infeasible come only from a
    centre."""

    # Each breaks a row at the cold start (phase one), or meets every row
    # strictly there (main stage only); see TestNewtonStepCount.
    PHASE_ONE = [p for p, _st in TestNewtonStepCount.SDPS]
    MAIN = [
        SdpProblem(C=TestNewtonStepCount.E1, dim=2,
                   eq_constraints=[(np.eye(2), 1.0)],
                   ineq_constraints=[(-TestNewtonStepCount.E0, -0.2)]),
    ]

    CASES = pytest.mark.parametrize(
        "phase_one, problem",
        [(True, p) for p in PHASE_ONE] + [(False, p) for p in MAIN],
        ids=["p1-sdp-feasible", "p1-sdp-infeasible", "main-sdp"])

    @staticmethod
    def _run(monkeypatch, problem, budget):
        """The result, and (phase one?, still centring?) of each stage."""
        solve = solve_small_sdp
        assert solve(problem).status != MAX_ITER
        stages, centre = [], convex._centre

        def spied(f, x, mu, tol):
            x, steps, capped, centred = centre(f, x, mu, tol)
            stages.append((isinstance(f, _PhaseOne), bool(capped[0])))
            return x, steps, capped, centred

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


class TestPhaseOneStop:
    """Phase one says infeasible only with a bound that holds at its point:
    a centred one, whose gap is at most _KAPPA n_par mu, with the slack s
    above that bound by 1e-9."""

    MU, TOL = 1e-2, convex._PHASE_ONE_TOL

    @staticmethod
    def _oracle():
        # W_00 >= 1.5 misses the plane Tr W = 1 of PSD W: at W = I / 2
        # the row is broken, so phase one has not found a feasible point
        # there.
        f = _PhaseOne(_sdp(np.eye(2), [[(-np.diag([1.0, 0.0]), -1.5)]]))
        assert not f.found(np.zeros((1, 4)))[0]
        return f

    def _status(self, s, centred):
        f = self._oracle()
        xs = np.zeros((1, 4))
        xs[0, -1] = s
        return f.stop(xs, self.MU, self.TOL, np.array([centred]))[0]

    def test_centred_within_the_kappa_bound_goes_on(self):
        gap = self._oracle().n_par[0] * self.MU
        s = 1.5 * gap + 1e-9        # n_par mu < s - 1e-9 < _KAPPA n_par mu
        assert gap < s - 1e-9 < convex._KAPPA * gap
        assert self._status(s, True) is None

    def test_uncentred_is_never_infeasible(self):
        assert self._status(10.0, False) is None

    def test_centred_above_the_kappa_bound_is_infeasible(self):
        assert self._status(10.0, True) == INFEASIBLE


class TestEvaluatedOnce:
    """A Newton step reuses what the line search evaluated at the point it
    accepted, and the stage predictor starts each later stage's first line
    search at t = _MU_FACTOR."""

    @staticmethod
    def _oracles():
        rng = np.random.default_rng(90)
        g, y = _random_sdp_oracle(rng, 2)
        h = _block_oracle(rng, 3)
        y3 = 0.02 * rng.normal(size=(3, 8))
        s = np.full((3, 1), 0.1)
        return [(g, y), (h, y3), (_PhaseOne(g), np.hstack([y, s])),
                (_PhaseOne(h), np.hstack([y3, s]))]

    def test_derivs_from_evaluate_equal_fresh_derivs(self):
        for f, x in self._oracles():
            _val, at = f.evaluate(x, 0.3)
            for a, b in zip(f.derivs(x, 0.3, at), f.derivs(x, 0.3)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("full", [True, False], ids=["fast", "masked"])
    def test_line_search_hands_over_its_evaluations(self, full):
        # A hundredth of each Newton step, which every entry accepts at
        # t = 1 (fast), or with one entry's step stretched far out of the
        # domain, so that it backtracks alone (masked).
        for f, x in self._oracles():
            mu = 0.3
            val, grad, H = f.derivs(x, mu)
            d = 0.01 * convex._solve_newton(H, grad)
            dec = np.vecdot(grad, d)
            if not full:
                d[0] *= 1e4
            with np.errstate(invalid="ignore", divide="ignore"):
                xn, failed = convex._line_search(f, x, d, val, dec, mu)
            at = f.accepted
            assert not failed.any()
            want = f.evaluate(xn, mu)[1]
            assert len(at) == len(want)
            for a, b in zip(at, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes()

    def test_later_stages_start_at_the_tangent(self, monkeypatch):
        C, row_sets, _singles = _relaxation_family(4, 7)
        line_search, centre = convex._line_search, convex._centre
        firsts = []

        def spied_centre(f, x, mu, tol):
            firsts.append(None)
            return centre(f, x, mu, tol)

        def spied(f, x, d, val, dec, mu):
            if firsts[-1] is None:      # the stage's first line search
                _v, grad, H = f.derivs(x, mu)
                d_newton = convex._solve_newton(H, grad)
                firsts[-1] = (mu, np.allclose(d, d_newton),
                              np.allclose(d, convex._MU_FACTOR * d_newton))
            return line_search(f, x, d, val, dec, mu)

        monkeypatch.setattr(convex, "_centre", spied_centre)
        monkeypatch.setattr(convex, "_line_search", spied)
        solve_sdp_batch(C, row_sets)
        stages = [s for s in firsts if s is not None]
        assert any(mu == 1.0 for mu, _n, _t in stages)
        assert any(mu < 1.0 for mu, _n, _t in stages)
        for mu, newton, tangent in stages:
            assert (newton, tangent) == ((True, False) if mu == 1.0
                                         else (False, True))


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


def _sdp(C, row_sets):
    """The barrier's SDP oracle for objective C and row_sets."""
    C = convex._objectives(C, len(row_sets))
    return _Sdp(svec(C), *convex._stack_rows(row_sets, C.shape[-1]))


def _result_bytes(r):
    """What an SdpResult says, as exact bytes."""
    return (r.status, r.newton_steps,
            None if r.W is None else r.W.tobytes())


def _result_repr(r):
    """Every field of an SdpResult, floats in their exact repr, and the
    dual's bytes where it has one."""
    return (_result_bytes(r) + (repr((r.objective, r.gap, r.certificate)),)
            + (() if r.dual is None else (r.dual.tobytes(),)))


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
        keys = _sdp(C, row_sets).b   # the barrier's rows of each entry
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


def _block(Ws, w_out):
    """diag(Ws, w_out), 3 x 3."""
    W = np.zeros((3, 3), dtype=complex)
    W[:2, :2], W[2, 2] = Ws, w_out
    return W


def _block_oracle(rng, B):
    """The barrier's SDP oracle for B entries with a random block-diagonal
    objective and two block-diagonal rows each, each row held with margin
    0.5 at W = I / 3."""
    C = _block(rand_herm_psd(rng, 2), rng.normal())
    rows = []
    for _ in range(B):
        mats = [_block(rand_herm_psd(rng, 2), rng.uniform(0.0, 1.0))
                for _ in range(2)]
        rows.append([(A, float(np.trace(A).real / 3 + 0.5)) for A in mats])
    return _sdp(C, rows)


def _cone(f, y):
    """The oracle's cone barrier at y, nan outside the cone."""
    return f.cone_value(f.cone_parts(y))


def _plane_point(W):
    """y of the 3 x 3 unit-trace plane at W."""
    wp, Z, _UZ, _Wp = _trace_one(3)
    return Z.T @ (svec(W) - wp)


class TestBlockCone:
    """The barrier's cone, -log det W, at W = diag(W_s, w_out) of trace one,
    where it is -log det W_s - log w_out."""

    @staticmethod
    def _points(rng, n):
        for _ in range(n):
            X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            W = _block(X @ X.conj().T + 0.05 * np.eye(2),
                       rng.uniform(0.05, 2.0))
            yield W / np.trace(W).real

    def test_value_and_gradient(self):
        # Against slogdet of each block and the inverse: the gradient of
        # -log det W in the plane is -Z^T svec(W^-1).
        rng = np.random.default_rng(31)
        f = _block_oracle(rng, 1)
        for W in self._points(rng, 20):
            y = _plane_point(W)[None]
            assert f.matrix(y)[0] == pytest.approx(W, abs=1e-15)
            value, grad, H = f.cone_derivs(y)
            logdet = np.linalg.slogdet(W[:2, :2])[1] + math.log(W[2, 2].real)
            assert value[0] == pytest.approx(-logdet, rel=1e-12)
            assert _cone(f, y)[0] == value[0]
            assert grad[0] == pytest.approx(
                -f.Z.T @ svec(np.linalg.inv(W)), rel=1e-10, abs=1e-12)
            assert np.linalg.eigvalsh(H[0])[0] > 0.0

    def test_hessian_against_finite_differences(self):
        rng = np.random.default_rng(32)
        f = _block_oracle(rng, 1)
        h = 1e-4
        E = np.eye(8) * h
        for W in self._points(rng, 5):
            y = _plane_point(W)
            H = f.cone_derivs(y[None])[2][0]
            fd = np.array([[(_cone(f, (y + E[i] + E[j])[None])
                             - _cone(f, (y + E[i] - E[j])[None])
                             - _cone(f, (y - E[i] + E[j])[None])
                             + _cone(f, (y - E[i] - E[j])[None]))[0]
                            / (4 * h * h) for j in range(8)]
                           for i in range(8)])
            assert H == pytest.approx(fd, rel=1e-5,
                                      abs=1e-5 * np.abs(H).max())

    @pytest.mark.parametrize("Ws, w_out", [
        (-np.eye(2), 3.0),                  # det W_s > 0, not definite
        (np.diag([0.5, 0.0]), 0.5),         # W_s singular
        (0.6 * np.eye(2), -0.2),            # w_out < 0
        (0.5 * np.eye(2), 0.0)])            # w_out = 0
    def test_nan_outside_the_cone(self, Ws, w_out):
        f = _block_oracle(np.random.default_rng(33), 1)
        W = _block(Ws, w_out)
        assert np.trace(W).real == pytest.approx(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_cone(f, _plane_point(W)[None]))[0]


class TestBlockSdp:
    """solve_sdp_batch solves block-diagonal 3 x 3 entries of three rows
    exactly (_block_sdps) and every other entry by the barrier, each kind
    as its own stack."""

    def test_mixed_call_matches_solo_calls(self):
        # Evolved relaxations at M = 4 (block diagonal) and relaxations in
        # the full C^3 (not), interleaved in one call: every entry is bit
        # for bit its own call's.
        params = SystemParams(K=1, M=4)
        block, full = [], []
        for seed in (1, 5):
            chan = gen_channel_set(params, seed).tag_channels(0)
            C, row_sets = next(evolved_steps(chan, params))
            block += [(C, rows) for rows in row_sets[6::12]]
            C, row_sets = _family_rows(replace(params, M=3), seed, 8)
            full += [(C, rows) for rows in row_sets]
        entries = [e for pair in zip(block, full) for e in pair]
        kinds = convex._block_diagonal(
            svec(convex._objectives([C for C, _rows in entries],
                                    len(entries))),
            convex._stack_rows([rows for _C, rows in entries], 3)[0])
        assert list(kinds) == [True, False] * len(block)
        batch = solve_sdp_batch([C for C, _rows in entries],
                                [rows for _C, rows in entries])
        solo = [solve_small_sdp(_problem(C, rows)) for C, rows in entries]
        assert [_result_repr(r) for r in batch] == [
            _result_repr(r) for r in solo]
        assert {OPTIMAL, INFEASIBLE} <= {r.status for r in batch[::2]}
        for r in batch[::2]:
            assert r.newton_steps == 0
            if r.W is not None:     # exact, and rank one: the cone binds
                assert np.linalg.eigvalsh(r.W)[-2] <= 1e-15
        assert all(r.newton_steps > 0 for r in batch[1::2])


def _grid_requests(ms, seeds):
    """The grid relaxations evolved_steps sends to the kernel, one
    (C, row_sets) per tag it does not screen out, over the realizations
    seeds at each M in ms (K = 5, T = 100)."""
    reqs = []
    for m in ms:
        params = SystemParams(M=m)
        for seed in seeds:
            ch = gen_channel_set(params, seed)
            for k in range(params.K):
                try:
                    reqs.append(next(evolved_steps(ch.tag_channels(k),
                                                   params)))
                except StopIteration:
                    pass
    return reqs


def _stacked(reqs):
    """The requests as one call's (C, row_sets)."""
    return ([C for C, rows in reqs for _r in rows],
            [r for _C, rows in reqs for r in rows])


def _scales(rows):
    """Each row's scale, max(|b|, ||svec(A)||, 1e-12), as the kernels
    normalize it."""
    return np.array([max(abs(b), np.linalg.norm(svec(A)), 1e-12)
                     for A, b in rows])


def _dual_bound(C, rows, y):
    """sum_i y_i b_i + lambda_max(C - sum_i y_i A_i): for y >= 0, a bound on
    Tr(C W) over every trace-one W that meets the rows (Lagrange)."""
    D = C - sum(yi * A for yi, (A, _b) in zip(y, rows))
    return (sum(yi * b for yi, (_A, b) in zip(y, rows))
            + float(np.linalg.eigvalsh(D)[-1]))


def _check_exact(C, rows, res, ref=None):
    """An exact result against its certificates and, when given, the
    barrier's result ref of the same entry."""
    C = np.asarray(C)
    scale = max(1.0, abs(res.objective)) if res.status == OPTIMAL else 1.0
    if ref is not None:
        assert res.status == ref.status
    if res.status == OPTIMAL:
        W = res.W
        assert np.trace(W).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(W)[0] >= -1e-12
        assert np.trace(C @ W).real == pytest.approx(res.objective,
                                                     abs=1e-12 * scale)
        for (A, b), s in zip(rows, _scales(rows)):
            assert np.trace(A @ W).real - b <= 1e-9 * s
        y = res.dual
        assert y.shape == (len(rows),) and (y >= 0.0).all()
        bound = _dual_bound(C, rows, y)
        assert bound >= res.objective - 1e-12 * scale
        assert bound == pytest.approx(res.objective + res.gap,
                                      abs=1e-12 * scale)
        assert res.gap <= 1e-9 * scale
        if ref is not None:
            assert res.objective >= ref.objective - 1e-12 * scale
            assert res.objective <= ref.objective + ref.gap + 1e-12 * scale
    elif res.status == INFEASIBLE:
        y = res.dual
        assert res.W is None and (y >= 0.0).all()
        assert y @ _scales(rows) == pytest.approx(1.0, abs=1e-12)
        assert res.certificate > 1e-9
        assert -_dual_bound(np.zeros_like(C), rows, y) == pytest.approx(
            res.certificate, rel=1e-9, abs=1e-15)
        if ref is not None:
            assert res.certificate <= ref.certificate + 1e-12


def _random_blocks(rng, m, B):
    """B random entries of three rows: a shared objective and row sets,
    2 x 2 (m = 2) or block diagonal 3 x 3 (m = 3).  Each row's bound is
    its value at a random trace-one W plus a random margin, so that some
    entries are feasible and some are not."""
    def herm():
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = X + X.conj().T
        return A if m == 2 else _block(A, rng.normal())

    C = herm()
    row_sets = []
    for _ in range(B):
        X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        W0 = X @ X.conj().T
        if m == 3:
            W0[:2, 2] = W0[2, :2] = 0.0
        W0 /= np.trace(W0).real
        row_sets.append([(A, float(np.trace(A @ W0).real
                                   + rng.normal(scale=0.5)))
                         for A in (herm() for _ in range(3))])
    return C, row_sets


class TestBlockExact:
    """_block_sdps, the exact solver of the block relaxations, against the
    barrier, its own certificates and the degenerate inputs: a singular
    row Gram matrix, an objective flat on a face, ties, tau = 1 at m = 2,
    and m = 1."""

    def test_within_the_barrier_gap_on_the_evolved_grids(self):
        # Every grid relaxation of the tags of seeds 0-11 at M in {2, 3,
        # 4, 8}: the barrier's status, an objective no lower than the
        # barrier's and no higher than the barrier's bound, and
        # certificates that hold.
        reqs = _grid_requests((2, 3, 4, 8), range(12))
        n = 0
        for m in (2, 3):
            C, rows = _stacked([r for r in reqs if len(r[0]) == m])
            exact = solve_sdp_batch(C, rows)
            for c, r, res, ref in zip(C, rows, exact,
                                      convex._sdp_results(_sdp(C, rows))):
                _check_exact(c, r, res, ref)
            n += len(exact)
            assert {OPTIMAL, INFEASIBLE} == {r.status for r in exact}
        assert n > 4000

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_entries_match_the_barrier(self, m):
        C, rows = _random_blocks(np.random.default_rng(40 + m), m, 300)
        exact = solve_sdp_batch(C, rows)
        for r, res, ref in zip(rows, exact,
                               convex._sdp_results(_sdp(C, rows))):
            _check_exact(C, r, res, ref)
        statuses = [r.status for r in exact]
        assert statuses.count(OPTIMAL) > 20 and statuses.count(INFEASIBLE) > 20

    def test_entries_ignore_their_call_mates(self):
        # Tags' grids at M = 2 and M = 4 (block diagonal) and a family of
        # full 3 x 3 relaxations: alone, and in one call with the others
        # in both orders, every entry is bit for bit the same.
        reqs = _grid_requests((4,), (1, 2))[:4]
        C3, rows3, _singles = _relaxation_family(3, 7)
        reqs.append((C3, rows3))
        alone = [[_result_repr(r) for r in solve_sdp_batch(C, rows)]
                 for C, rows in reqs]
        assert alone[0] == [_result_repr(solve_small_sdp(_problem(C, r)))
                            for C, r in zip(*_stacked(reqs[:1]))]
        for order in (reqs, reqs[::-1]):
            together = [_result_repr(r)
                        for r in solve_sdp_batch(*_stacked(order))]
            ends = np.cumsum([len(rs) for _C, rs in order])
            got = [together[e - len(rs):e]
                   for (_C, rs), e in zip(order, ends)]
            assert got == (alone if order is reqs else alone[::-1])
        reqs2 = _grid_requests((2,), (1,))[:3]
        alone2 = [[_result_repr(r) for r in solve_sdp_batch(C, rows)]
                  for C, rows in reqs2]
        assert [_result_repr(r) for r in solve_sdp_batch(
            *_stacked(reqs2))] == [r for a in alone2 for r in a]

    @pytest.mark.parametrize("m", [2, 3])
    def test_parallel_rows_of_one_rank_one_matrix(self, m):
        # Objective and rows all multiples of h h^H, as collinear channels
        # make them: every row normal is on the cone's boundary and they
        # are parallel, so each active set's Gram matrix A J A^T is
        # singular.  In y = Tr(h h^H W), in [0, |h|^2], the entry is
        # max y s.t. k_i y <= b_i.
        rng = np.random.default_rng(7)
        h = rng.normal(size=2) + 1j * rng.normal(size=2)
        H = np.outer(h, h.conj())
        H = H if m == 2 else _block(H, 0.0)
        top = np.vdot(h, h).real
        cases = [((1.0, 0.4 * top), (-1.0, -0.1 * top), (2.0, 2.0 * top)),
                 ((1.0, 2.0 * top), (-1.0, -0.3 * top), (0.5, 0.2 * top)),
                 ((1.0, 0.2 * top), (-1.0, -0.3 * top), (1.0, top))]
        rows = [[(k * H, b) for k, b in case] for case in cases]
        got = solve_sdp_batch(H, rows)
        for r, res in zip(rows, got):
            _check_exact(H, r, res)
        assert got[0].objective == pytest.approx(0.4 * top, rel=1e-12)
        assert got[1].objective == pytest.approx(0.4 * top, rel=1e-12)
        assert got[2].status == INFEASIBLE
        # normalized by |h|^2, the rows read y <= 0.2 and y >= 0.3: the
        # least largest violation is 0.05, at y = 0.25
        assert got[2].certificate == pytest.approx(0.05, rel=1e-9)

    def test_collinear_channels_at_m2(self):
        # h0 = hs at M = 2, as TestCollinearChannels' draw (2, 1, 0, 0, 0)
        # makes them: the evolved grid's relaxations.
        params = SystemParams(M=2, K=1)
        g = np.random.default_rng(1)
        hs = g.normal(size=2) + 1j * g.normal(size=2)
        hs /= np.linalg.norm(hs)
        C, rows = next(evolved_steps((hs, 2.0 * hs, hs), params))
        got = solve_sdp_batch(C, rows)
        for r, res, ref in zip(rows, got, convex._sdp_results(_sdp(C, rows))):
            _check_exact(C, r, res, ref)
        assert OPTIMAL in {r.status for r in got}

    @pytest.mark.parametrize("m", [2, 3])
    def test_objective_flat_on_a_face(self, m):
        # C = A_0: the objective is constant on the face Tr(A_0 W) = b_0,
        # so the stationary points there are not isolated (u = 0); the
        # optimum is b_0 whenever the face meets the other rows.  C = 0 is
        # flat everywhere.
        rng = np.random.default_rng(11)
        C, rows = _random_blocks(rng, m, 40)
        flat = [(r[0][0], r) for r in rows]
        got = solve_sdp_batch([A for A, _r in flat], rows)
        ref = convex._sdp_results(_sdp([A for A, _r in flat], rows))
        hits = 0
        for (A, r), res, one in zip(flat, got, ref):
            _check_exact(A, r, res, one)
            if res.status == OPTIMAL and res.objective >= r[0][1] - 1e-12:
                hits += 1
                assert res.objective == pytest.approx(r[0][1], abs=1e-12)
        assert hits > 5
        zero = solve_sdp_batch(np.zeros_like(C), rows)
        for r, res, one in zip(rows, zero, ref):
            _check_exact(np.zeros_like(C), r, res)
            assert res.status == one.status
            if res.status == OPTIMAL:
                assert res.objective == 0.0

    def test_tied_candidates_pick_one_point(self):
        # At m = 3 with C = diag(1, 1, 0) the objective is tau, 1 on the
        # whole disc tau = 1 where no row binds: every candidate there ties.
        # The first wins, the same alone and stacked.
        rng = np.random.default_rng(12)
        C = _block(np.eye(2), 0.0)
        loose = [[(_block(A, 0.0), 10.0) for A in (
            np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.eye(2))]]
        _C, rows = _random_blocks(rng, 3, 20)
        got = solve_sdp_batch(C, loose + rows)
        assert got[0].status == OPTIMAL and got[0].objective == 1.0
        assert got[0].W[2, 2] == 0.0
        for r, res in zip(loose + rows, got):
            _check_exact(C, r, res)
        assert [_result_repr(r) for r in got] == [
            _result_repr(solve_sdp_batch(C, [r])[0]) for r in loose + rows]

    def test_m2_keeps_tau_one(self):
        # At m = 2 the trace is 1: with rows that do not bind, the optimum
        # is lambda_max(C) at its top eigenvector.
        rng = np.random.default_rng(13)
        C, rows = _random_blocks(rng, 2, 10)
        loose = [[(A, abs(b) + 10.0 * np.linalg.norm(A)) for A, b in r]
                 for r in rows]
        vals, vecs = np.linalg.eigh(C)
        for r, res in zip(loose, solve_sdp_batch(C, loose)):
            _check_exact(C, r, res)
            assert res.objective == pytest.approx(vals[-1], rel=1e-12)
            assert res.W == pytest.approx(np.outer(vecs[:, -1],
                                                   vecs[:, -1].conj()),
                                          abs=1e-12)
            assert res.dual.tolist() == [0.0, 0.0, 0.0] and res.gap < 1e-12

    def test_m1_is_settled_at_one(self):
        # At m = 1 the trace-one set is W = [[1]]: every row is settled,
        # and a feasible entry ends there with no Newton step.
        rows = [(np.eye(1), 2.0), (-np.eye(1), 0.0), (3.0 * np.eye(1), 3.0)]
        res = solve_sdp_batch(np.array([[2.0 + 0j]]), [rows])[0]
        assert res.status == OPTIMAL and res.newton_steps == 0
        assert res.W.tolist() == [[1.0]] and res.objective == 2.0


class TestLogdet:
    def test_refused_matrix_leaves_the_others_alone(self, monkeypatch):
        # Two matrices that are not positive definite in a stack of six
        # make the stacked Cholesky refuse.  Each is then factored alone:
        # the two read nan, every other value is its matrix's own, bit for
        # bit, and no eigenvalue pass runs.
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


def _random_qcqp_dual(rng, m):
    """The duals of a batch of three QCQPs (_BallDual), and multipliers
    inside the domain of each.

    Each entry has two quadratic rows and one linear row.
    """
    problems = []
    for _ in range(3):
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
        problems.append(QcqpProblem(c=c, quad_constraints=cons))
    return qcqp._BallDual(problems), rng.uniform(0.2, 1.0, size=(3, 4))


def _random_sdp_oracle(rng, m):
    """A batch of three SDP oracles and a point inside each one's domain.

    The entries share C and have two rows each.
    """
    C = rand_herm_psd(rng, m)
    rows = []
    for _ in range(3):
        mats = [rand_herm_psd(rng, m) for _ in range(2)]
        rows.append([(A, float(np.trace(A).real / m + 0.2)) for A in mats])
    f = _sdp(C, rows)
    return f, 0.02 * rng.normal(size=(3, f.Z.shape[1]))


class TestOracleDerivatives:
    """Oracle gradients and Hessians against central differences of value.

    Each oracle holds a batch of three entries, each with its own rows.
    """

    @staticmethod
    def _check(f, x, mu):
        TestOracleDerivatives._against_differences(
            lambda x: f.evaluate(x, mu)[0], x, *f.derivs(x, mu))

    @staticmethod
    def _against_differences(value, x, val, grad, H):
        assert np.all(np.isfinite(val))
        assert val == pytest.approx(value(x), rel=1e-12, abs=1e-12)
        n = x.shape[1]
        h = 1e-5
        E = np.eye(n) * h
        fd_grad = np.stack([(value(x + E[i]) - value(x - E[i]))
                            / (2 * h) for i in range(n)], axis=1)
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6)
        h = 1e-4
        E = np.eye(n) * h
        fd_hess = np.empty(H.shape)
        for i in range(n):
            for j in range(n):
                fd_hess[:, i, j] = (value(x + E[i] + E[j])
                                    - value(x + E[i] - E[j])
                                    - value(x - E[i] + E[j])
                                    + value(x - E[i] - E[j])
                                    ) / (4 * h * h)
        for Hb, fd in zip(H, fd_hess):
            scale = max(1.0, float(np.max(np.abs(Hb))))
            assert np.allclose(Hb, fd, rtol=1e-4, atol=1e-4 * scale)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_qcqp_oracle(self, m):
        # The QCQP dual phi: its gradient is the slacks at z(lam), and its
        # Hessian J^T H^-1 J / 2.
        rng = np.random.default_rng(70 + m)
        for _ in range(3):
            f, lam = _random_qcqp_dual(rng, m)
            phi, _size, z, H = f.point(lam)
            self._against_differences(lambda x: f.point(x)[0], lam, phi,
                                      *f.derivs(z, H))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sdp_oracle(self, m):
        rng = np.random.default_rng(80 + m)
        for _ in range(3):
            f, y = _random_sdp_oracle(rng, m)
            assert np.all(f.rows(y) < 0)
            assert np.all(np.isfinite(_cone(f, y)))
            self._check(f, y, 0.3)
            self._check(_PhaseOne(f), np.column_stack([y, np.full(3, 0.1)]),
                        0.3)

    def test_block_sdp_oracle(self):
        rng = np.random.default_rng(84)
        for _ in range(3):
            f = _block_oracle(rng, 3)
            y = 0.02 * rng.normal(size=(3, 8))
            assert np.all(f.rows(y) < 0)
            assert np.all(np.isfinite(_cone(f, y)))
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
