"""Tests for the dual QCQP kernel and the exact SDP kernel.

Reference solutions come from closed forms (ball-constrained linear
objective, spectral optimum), scipy's SLSQP run from multiple starts, a
dense parameterized grid for 2x2 density matrices, dense samples of the
unit ball, and cvxpy when it is importable.  None of those share code with
the solvers under test.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from backci import beamforming, convex, lorentz, qcqp
from backci.beamforming import _span_basis, divergence_floors, evolved_steps
from backci.channel import SystemParams, gen_channel_set
from backci.convex import (
    INFEASIBLE,
    MAX_ITER,
    NO_INTERIOR,
    OPTIMAL,
    SdpProblem,
    SdpResult,
    solve_sdp_batch,
    solve_small_sdp,
)
from backci.qcqp import (
    QcqpProblem,
    embed_hermitian,
    embed_vector,
    solve_ball_qcqp,
    unembed_vector,
)
from oracles import (
    brute_sdp_2x2,
    qcqp_max_violation,
    sdp_max_violation,
    slsqp_qcqp_oracle,
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
        # 0.25 k: 0.25 and 0.5 at every k.  The SDP's other two rows are
        # the vacuous 0 <= k, of the same scale.
        E = np.diag([1.0, 0.0]).astype(complex)
        sdp = solve_small_sdp(_problem(E, [(k * E, 0.25 * k)]
                                       + [(0.0 * E, k)] * 2))
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


def _matched_filter_subproblems(ms, seeds):
    """The consensual SCA's first QCQP, linearized at the matched filter,
    on every tag of the draws gen_channel_set(SystemParams(M=m), seed) that
    the closed-form screens pass: each tag's lift is answered with no
    point, which starts the SCA there."""
    out = []
    for m in ms:
        params = SystemParams(M=m)
        for seed in seeds:
            ch = gen_channel_set(params, seed)
            for k in range(params.K):
                gen = beamforming.consensual_steps(ch.tag_channels(k),
                                                   params)
                try:
                    next(gen)
                except StopIteration:
                    continue
                out.append(gen.send([SdpResult(W=None,
                                               status=NO_INTERIOR)]))
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
        problems = (_random_qcqps(rng, 40, slack=(-1.5, 0.1))
                    + _matched_filter_subproblems([1, 2, 4], [0, 1, 2]))
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
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 4)
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
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 1)
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


class TestLorentzCoordinates:
    """lorentz.coordinates reads z's coefficients from the matrix entries:
    coef . z + const is Tr(X W) at W = W_s, or diag(W_s, 1 - tau) at m = 3,
    for every z in the trace-one set."""

    @staticmethod
    def _lift(z, m):
        tau, x1, x2, x3 = z
        Ws = 0.5 * np.array([[tau + x1, x2 + 1j * x3],
                             [x2 - 1j * x3, tau - x1]])
        if m == 2:
            return Ws
        W = np.zeros((3, 3), dtype=complex)
        W[:2, :2] = Ws
        W[2, 2] = 1.0 - tau
        return W

    @pytest.mark.parametrize("m", [2, 3])
    def test_exact_on_the_trace_one_set(self, m):
        rng = np.random.default_rng(32)
        X = np.array([rand_herm_psd(rng, m) - 0.5 * np.eye(m)
                      for _ in range(50)])
        if m == 3:
            X[:, :2, 2] = X[:, 2, :2] = 0.0
        coef, const = lorentz.coordinates(X, m)
        assert coef.shape == (4, 50) and const.shape == (50,)
        for j in range(50):
            x = rng.normal(size=3)
            tau = 1.0 if m == 2 else rng.uniform()
            x *= tau * rng.uniform() ** (1 / 3) / np.linalg.norm(x)
            if j % 5 == 0:      # on the cone's surface
                x *= tau / np.linalg.norm(x)
            z = np.concatenate([[tau], x])
            want = np.trace(X[j] @ self._lift(z, m)).real
            got = coef[:, j] @ z + const[j]
            assert abs(got - want) <= 1e-13 * max(
                1.0, np.abs(X[j]).sum())


def _problem(C, rows):
    """The trace-one SdpProblem of objective C and rows."""
    m = len(C)
    return SdpProblem(C=C, dim=m, eq_constraints=[(np.eye(m), 1.0)],
                      ineq_constraints=rows)


def _three(rows, m):
    """rows padded to three with the vacuous row Tr(0 W) <= 1, which the
    kernel settles: the row count of its exact block form."""
    return list(rows) + [(np.zeros((m, m), dtype=complex), 1.0)] * (
        3 - len(rows))


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

    def test_rowless_entry_is_lambda_max_at_its_eigenvector(self):
        # The benchmark's warm-up entry, 4 x 4 with no row: lambda_max(C)
        # at C's top eigenvector, gap 0, no multiplier and no Newton step,
        # bit for bit alone and in a stack.
        C = np.diag(np.arange(1.0, 5.0)).astype(complex)
        res = solve_small_sdp(_problem(C, []))
        assert res.status == OPTIMAL and res.newton_steps == 0
        assert res.objective == 4.0 and res.gap == 0.0
        assert res.dual.shape == (0,)
        e = np.zeros(4)
        e[3] = 1.0
        assert np.abs(res.W - np.outer(e, e)).max() == 0.0
        rng = np.random.default_rng(43)
        Cs = [C] + [rand_herm_psd(rng, 4) for _ in range(4)]
        got = solve_sdp_batch(Cs, [[] for _ in Cs])
        assert _result_repr(got[0]) == _result_repr(res)
        for c, r in zip(Cs, got):
            vals, vecs = np.linalg.eigh(c)
            assert r.objective == pytest.approx(vals[-1], rel=1e-12)
            assert np.trace(c @ r.W).real == pytest.approx(vals[-1],
                                                           rel=1e-12)
            assert abs(np.vdot(vecs[:, -1], r.W @ vecs[:, -1])) == (
                pytest.approx(1.0, abs=1e-12))


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
                ineq_constraints=_three([(A1, b1)], 2))
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
            ineq_constraints=_three([(A1, 0.6)], 2))
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
            ineq_constraints=_three([(np.eye(2, dtype=complex), 0.5)], 2))
        res = solve_small_sdp(p)
        assert res.status == INFEASIBLE
        # Violation 0.5 normalized by ||I||_F = sqrt(2).
        assert res.certificate == pytest.approx(0.5 / math.sqrt(2.0),
                                                abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2], ids=["dim-one", "trace-dim-two"])
    def test_settled_before_any_newton_step(self, m):
        # Tr(I W) <= 0.5 is constant on the plane Tr W = 1, which at m = 1
        # is the single point W = [[1]]: the row fails by 0.5 before any
        # solve, normalized by its scale ||I||_F = sqrt(m).
        res = solve_small_sdp(_problem(np.eye(m, dtype=complex),
                                       _three([(np.eye(m), 0.5)], m)))
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


class TestSdpRefusal:
    """An entry the kernel has no exact form for, one with rows W can move
    that is not three rows on a 2 x 2 or block-diagonal 3 x 3 lift, is
    refused with ValueError, naming it, its size and its row count, before
    any entry of the call is solved."""

    @staticmethod
    def _entries(m, k, rng):
        C = rand_herm_psd(rng, m)
        return C, [[(rand_herm_psd(rng, m), 1.0) for _ in range(k)]
                   for _ in range(3)]

    @pytest.mark.parametrize("m, k", [(3, 3), (2, 2), (4, 3), (3, 1)],
                             ids=["full-3x3", "two-rows-2x2", "4x4",
                                  "one-row-3x3"])
    def test_refused_before_any_solve(self, monkeypatch, m, k):
        def solved(*args):
            raise AssertionError("an entry was solved")

        monkeypatch.setattr(convex, "_block_sdps", solved)
        monkeypatch.setattr(convex, "_row_free", solved)
        C, row_sets = self._entries(m, k, np.random.default_rng(44))
        with pytest.raises(ValueError,
                           match=f"entry 0 is a {m} x {m} SDP of {k} rows"):
            solve_sdp_batch(C, row_sets)

    def test_one_non_block_entry_refuses_the_call(self, monkeypatch):
        # Block relaxations of one tag with one entry coupled outside the
        # block: the call names that entry, and solves none.
        reqs = _grid_requests((4,), (1,))
        C, row_sets = reqs[0]
        row_sets = [list(rows) for rows in row_sets[:6]]
        A, b = row_sets[4][1]
        A = A.copy()
        A[0, 2] = A[2, 0] = 1e-3
        row_sets[4][1] = (A, b)

        def solved(*args):
            raise AssertionError("an entry was solved")

        monkeypatch.setattr(convex, "_block_sdps", solved)
        with pytest.raises(ValueError, match="entry 4 is a 3 x 3 SDP of 3"):
            solve_sdp_batch(C, row_sets)

    @pytest.mark.parametrize("at", [(1, 2), (2, 0)],
                             ids=["entry-1-2", "entry-2-0"])
    def test_one_off_block_entry_in_a_row_refuses_the_call(self,
                                                            monkeypatch, at):
        # A single nonzero entry outside diag(W_s, w_out), its mirror left
        # 0, in one row of one entry.
        C, row_sets = _grid_requests((4,), (1,))[0]
        row_sets = [list(rows) for rows in row_sets[:6]]
        A, b = row_sets[2][0]
        A = A.copy()
        A[at] = 1e-3
        row_sets[2][0] = (A, b)

        def solved(*args):
            raise AssertionError("an entry was solved")

        monkeypatch.setattr(convex, "_block_sdps", solved)
        with pytest.raises(ValueError, match="entry 2 is a 3 x 3 SDP of 3"):
            solve_sdp_batch(C, row_sets)


class TestNewtonStepCount:
    """newton_steps counts the Newton steps tried, accepted or not, for a
    batch of one: one Newton system (with its line search) each in the
    dual QCQP kernel."""

    # Each problem breaks a row at the ball-only optimum, so the dual has
    # to step.  Re(v1) >= 0.5, then also Re(v1) <= 0.
    HALF = (None, np.array([-0.5 + 0j, 0.0]), -0.5)
    QCQPS = [
        (QcqpProblem(c=np.array([-1.0 + 0j, 1.0]), quad_constraints=[HALF]),
         OPTIMAL),
        (QcqpProblem(c=np.array([-1.0 + 0j, 1.0]), quad_constraints=[
            HALF, (None, np.array([1.0 + 0j, 0.0]), 0.0)]), INFEASIBLE),
    ]

    CASES = pytest.mark.parametrize(
        "problem, status", QCQPS, ids=["qcqp-feasible", "qcqp-infeasible"])

    @staticmethod
    def _check(monkeypatch, problem, status):
        searches, inner = [], qcqp._solve_newton

        def counted(*args):
            searches.append(True)
            return inner(*args)

        monkeypatch.setattr(qcqp, "_solve_newton", counted)
        res = solve_ball_qcqp(problem)
        assert res.status == status
        assert searches             # the dual took steps
        assert res.newton_steps == len(searches)

    @CASES
    def test_equals_line_searches(self, monkeypatch, problem, status):
        self._check(monkeypatch, problem, status)

    # The QCQP's dual, which needs more than one step on either problem,
    # ends max_iter after its one step.
    @CASES
    def test_equals_line_searches_one_step_stages(self, monkeypatch, problem,
                                                  status):
        monkeypatch.setattr(qcqp, "_MAX_NEWTON", 1)
        self._check(monkeypatch, problem, MAX_ITER)


def _design_lift(params, seed):
    """Tag 0 of realization seed as the evolved design lifts it: the
    channels divided by ||h1|| in the coordinates of its span basis, with
    the round-off outside the span set to 0 as evolved_steps sets it, so
    the lift is 2 x 2 at M = 2, block diagonal 3 x 3 at M >= 3, and 1 x 1
    at M = 1.  Returns (H0, H1, Hs, gamma), gamma times ||h1||^2."""
    h0, h1, hs = gen_channel_set(params, seed).tag_channels(0)
    U = _span_basis(h0, hs)
    s = np.linalg.norm(h1)
    g = [U.conj().T @ (h / s) for h in (h0, h1, hs)]
    for x in g:
        x[2:] = 0.0
    H0, H1, Hs = (np.outer(x, x.conj()) for x in g)
    return H0, H1, Hs, params.gamma * s * s


def _family_rows(params, seed, B):
    """The evolved relaxation SDPs of tag 0 of realization seed at B values
    of t in [0, 1.5 lambda_max(H0)] (0.8 lambda_max(H0) when B = 1), as
    (C, row_sets): their shared objective and their rows (_design_lift)."""
    f_without = divergence_floors(params)[3]
    H0, H1, Hs, gamma = _design_lift(params, seed)
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
            assert _result_repr(res) == _result_repr(one)
            if res.status != OPTIMAL:
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
        # A vacuous row (A = 0, b >= 0) in place of each entry's last row
        # is dropped, and an impossible one (A = 0, b < 0) settles entry 4
        # before any solve; every entry still matches its single solve.
        C, row_sets, _singles = _relaxation_family(2, 7)
        zero = np.zeros((2, 2), dtype=complex)
        row_sets = [rows[:2] + [(zero, -1.0 if j == 4 else 1.0)]
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
        # makes its entry infeasible before any solve.  The row stands in
        # for entry 1's last row, and a vacuous one for the others'.
        C, row_sets, _singles = _relaxation_family(2, 7)
        eye = np.eye(2, dtype=complex)

        def with_row(row):
            rows = [r[:2] + [row if j == 1 else (np.zeros((2, 2)), 1.0)]
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

    def test_empty_batch(self):
        assert solve_sdp_batch(np.eye(2, dtype=complex), []) == []


def _face_rows(params, seed):
    """The evolved relaxation of tag 0 of realization seed at t = 0, in the
    design's units (_design_lift), as (C, rows, zf, floor): zf is the
    objective of the zero-forcing receiver, gamma ||P gs||^2 with P the
    projector off g0, the optimum on the face W g0 = 0 that Tr(H0 W) <= 0
    leaves, and floor the without-DL floor's gamma ||gs||^2 bound."""
    H0, H1, Hs, gamma = _design_lift(params, seed)
    floor = divergence_floors(params)[3] - 1.0
    pgs = np.trace(Hs).real - np.trace(H0 @ Hs).real / np.trace(H0).real
    return (gamma * H1, [(-H1 + Hs, 0.0), (-gamma * Hs, -floor), (H0, 0.0)],
            gamma * pgs, floor)


class TestNoInterior:
    """Rows that only a face of the cone meets have no strictly feasible
    point.  The exact kernel still ends on the face: OPTIMAL where the
    zero-forcing receiver meets the without-DL floor, with W within
    lorentz.FEAS of every row and the receiver's objective; INFEASIBLE, with
    a certificate, where not even the face meets the rows."""

    def test_face_of_the_t0_relaxation(self):
        # The tags whose backscatter link alone reaches the without-DL
        # floor; the design screens out the others before any SDP.
        params = SystemParams(K=1, M=4)
        floor = divergence_floors(params)[3] - 1.0
        faces = []
        for seed in range(30):
            hs = gen_channel_set(params, seed).tag_channels(0)[2]
            if params.gamma * np.vdot(hs, hs).real >= floor:
                faces.append(_face_rows(params, seed))
        met = [zf >= floor for _C, _rows, zf, floor in faces]
        assert 0 < sum(met) < len(met)
        got = solve_sdp_batch([f[0] for f in faces], [f[1] for f in faces])
        for (C, rows, zf, _floor), ok, res in zip(faces, met, got):
            assert res.newton_steps == 0
            if ok:      # the face is met
                assert res.status == OPTIMAL
                assert res.objective == pytest.approx(zf, rel=1e-6)
                for (A, b), s in zip(rows, _scales(rows)):
                    assert np.trace(A @ res.W).real - b <= 1e-9 * s
            else:       # not even the face is: a real certificate
                assert res.status == INFEASIBLE and res.W is None
                assert res.certificate > 1e-4


def _block(Ws, w_out):
    """diag(Ws, w_out), 3 x 3."""
    W = np.zeros((3, 3), dtype=complex)
    W[:2, :2], W[2, 2] = Ws, w_out
    return W


class TestBlockSdp:
    """solve_sdp_batch solves block-diagonal 3 x 3 entries of three rows
    exactly (_block_sdps), each entry as its own call would."""

    def test_mixed_call_matches_solo_calls(self):
        # Evolved relaxations of tags at M = 4 and M = 3, each with its own
        # objective, interleaved in one call: every entry is bit for bit
        # its own call's, exact, and rank one where it is optimal.
        params = SystemParams(K=1, M=4)
        first, second = [], []
        for seed in (1, 5):
            chan = gen_channel_set(params, seed).tag_channels(0)
            C, row_sets = next(evolved_steps(chan, params))
            first += [(C, rows) for rows in row_sets[6::12]]
            C, row_sets = _family_rows(replace(params, M=3), seed, 8)
            second += [(C, rows) for rows in row_sets]
        entries = [e for pair in zip(first, second) for e in pair]
        batch = solve_sdp_batch([C for C, _rows in entries],
                                [rows for _C, rows in entries])
        solo = [solve_small_sdp(_problem(C, rows)) for C, rows in entries]
        assert [_result_repr(r) for r in batch] == [
            _result_repr(r) for r in solo]
        assert {OPTIMAL, INFEASIBLE} <= {r.status for r in batch}
        for r in batch:
            assert r.newton_steps == 0
            if r.W is not None:     # exact, and rank one: the cone binds
                assert np.linalg.eigvalsh(r.W)[-2] <= 1e-15


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
    """Each row's scale, max(|b|, ||A||_F, 1e-12), as the kernels
    normalize it."""
    return np.array([max(abs(b), np.linalg.norm(A), 1e-12)
                     for A, b in rows])


def _dual_bound(C, rows, y):
    """sum_i y_i b_i + lambda_max(C - sum_i y_i A_i): for y >= 0, a bound on
    Tr(C W) over every trace-one W that meets the rows (Lagrange)."""
    D = C - sum(yi * A for yi, (A, _b) in zip(y, rows))
    return (sum(yi * b for yi, (_A, b) in zip(y, rows))
            + float(np.linalg.eigvalsh(D)[-1]))


def _check_exact(C, rows, res):
    """An exact result against its own certificates: an optimal W that
    meets the rows, with multipliers whose Lagrange bound is within 1e-9
    of its objective, or multipliers that bound every W's largest
    normalized violation from below by the certificate."""
    C = np.asarray(C)
    scale = max(1.0, abs(res.objective)) if res.status == OPTIMAL else 1.0
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
    elif res.status == INFEASIBLE:
        y = res.dual
        assert res.W is None and (y >= 0.0).all()
        assert y @ _scales(rows) == pytest.approx(1.0, abs=1e-12)
        assert res.certificate > 1e-9
        assert -_dual_bound(np.zeros_like(C), rows, y) == pytest.approx(
            res.certificate, rel=1e-9, abs=1e-15)


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
    """_block_sdps, the exact solver of the block relaxations, against its
    own certificates, a dense grid at m = 2, and the degenerate inputs: a
    singular row Gram matrix, an objective flat on a face, ties, tau = 1
    at m = 2, and m = 1."""

    def test_certified_on_the_evolved_grids(self):
        # Every grid relaxation of the tags of seeds 0-11 at M in {2, 3,
        # 4, 8}: a W that meets the rows at a certified optimum, or an
        # infeasibility certificate that holds.
        reqs = _grid_requests((2, 3, 4, 8), range(12))
        n = 0
        for m in (2, 3):
            C, rows = _stacked([r for r in reqs if len(r[0]) == m])
            exact = solve_sdp_batch(C, rows)
            for c, r, res in zip(C, rows, exact):
                _check_exact(c, r, res)
            n += len(exact)
            assert {OPTIMAL, INFEASIBLE} == {r.status for r in exact}
        assert n > 4000

    def test_m2_grid_entries_beat_the_brute_grid(self):
        # A sample of the M = 2 grid relaxations against a dense grid over
        # the 2 x 2 density matrices, which shares no code with the kernel:
        # where the kernel says optimal the grid finds a feasible W and none
        # better, and where it says infeasible the grid finds none.  The
        # grid only bounds from below: a thin feasible set near a rank-one
        # optimum holds few grid points, and its best missed this sample's
        # optima by up to 7% (the dual certificate bounds from above).
        C, rows = _stacked(_grid_requests((2,), range(4)))
        got = solve_sdp_batch(C, rows)
        sample = [j for st in (OPTIMAL, INFEASIBLE)
                  for j in [i for i, r in enumerate(got)
                            if r.status == st][::40][:4]]
        assert len(sample) == 8
        for j in sample:
            ref, _pt = brute_sdp_2x2(C[j], rows[j])
            if got[j].status == INFEASIBLE:
                assert ref is None
            else:
                assert ref is not None
                assert ref <= got[j].objective + 1e-9 * abs(got[j].objective)

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_entries_are_certified(self, m):
        C, rows = _random_blocks(np.random.default_rng(40 + m), m, 300)
        exact = solve_sdp_batch(C, rows)
        for r, res in zip(rows, exact):
            _check_exact(C, r, res)
        statuses = [r.status for r in exact]
        assert statuses.count(OPTIMAL) > 20 and statuses.count(INFEASIBLE) > 20

    def test_entries_ignore_their_call_mates(self):
        # Tags' grids at M = 3 and M = 4 (block diagonal): alone, and in
        # one call with the others in both orders, every entry is bit for
        # bit the same; likewise at M = 2.
        reqs = _grid_requests((4,), (1, 2))[:4]
        reqs.append(_family_rows(SystemParams(K=1, M=3), 0, 7))
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
        for r, res in zip(rows, got):
            _check_exact(C, r, res)
        assert OPTIMAL in {r.status for r in got}

    @pytest.mark.parametrize("m", [2, 3])
    def test_objective_flat_on_a_face(self, m):
        # C = A_0: the objective is constant on the face Tr(A_0 W) = b_0,
        # so the stationary points there are not isolated (u = 0); the
        # optimum is b_0 whenever the face meets the other rows.  C = 0 is
        # flat everywhere, and leaves each entry's status as it was.
        rng = np.random.default_rng(11)
        C, rows = _random_blocks(rng, m, 40)
        flat = [(r[0][0], r) for r in rows]
        got = solve_sdp_batch([A for A, _r in flat], rows)
        hits = 0
        for (A, r), res in zip(flat, got):
            _check_exact(A, r, res)
            if res.status == OPTIMAL and res.objective >= r[0][1] - 1e-12:
                hits += 1
                assert res.objective == pytest.approx(r[0][1], abs=1e-12)
        assert hits > 5
        zero = solve_sdp_batch(np.zeros_like(C), rows)
        for r, res, one in zip(rows, zero, got):
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


class TestSolveNewton:
    def test_singular_entry_leaves_the_others_alone(self):
        # One zero Hessian in a stack of three: it alone gets the ridge,
        # and the other two steps are their own solves, bit for bit.
        rng = np.random.default_rng(90)
        X = rng.normal(size=(3, 5, 5))
        H = X @ X.swapaxes(1, 2) + np.eye(5)
        H[1] = 0.0
        g = rng.normal(size=(3, 5))
        d = qcqp._solve_newton(H, g)
        for i in range(3):
            solo = qcqp._solve_newton(H[i:i + 1], g[i:i + 1])
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


class TestOracleDerivatives:
    """Oracle gradients and Hessians against central differences of value.

    Each oracle holds a batch of three entries, each with its own rows.
    """

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


class TestSdpAgainstCvxpy:
    def test_random_batch(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(61)
        checked = 0
        m = 2
        for _ in range(6):
            C = rand_herm_psd(rng, m) - 0.4 * np.eye(m)
            ineqs = []
            for _ in range(int(rng.integers(1, 3))):
                A = rand_herm_psd(rng, m)
                b = float(np.trace(A).real / m + rng.uniform(0.0, 0.3))
                ineqs.append((A, b))
            p = SdpProblem(C=C, dim=m,
                           eq_constraints=[(np.eye(m, dtype=complex), 1.0)],
                           ineq_constraints=_three(ineqs, m))
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
