"""Small dense convex kernels: a unit-ball QCQP and a small SDP.

Both kernels run one textbook log-barrier interior-point method (Boyd &
Vandenberghe, Convex Optimization, sections 11.3-11.4), sized for this
package (vector dimension <= 8, matrix dimension <= 8).  It works on an
oracle for a batch of B independent problems

    minimize c_j . x  subject to  x^T P_ji x + q_ji . x < b_ji,  x in a cone,

with the batch on the leading axis of every array.  A
driver, `_solve`, runs phase one and then the main stage.  Each is the
stage loop `_barrier`: for mu = 1, 0.1, 0.01, ... until the gap bound
n_par * mu meets its tolerance, `_centre` takes damped Newton steps on
c_j . x + mu * phi_j(x), phi_j the log barrier of entry j's rows and cone.
n_par is the row count plus 1 for the QCQP's unit ball, plus the matrix
dimension for the SDP's PSD cone.  Phase one runs on a wrapper that adds a
slack s, minimizing s subject to row_i(x) <= s; it stops once every row
holds strictly, or once its gap bound certifies that they cannot all hold
(INFEASIBLE).  When its gap reaches the tolerance with s still within it
of 0, the rows can at best be met on the boundary, with no interior, and
nothing certifies infeasibility: that entry ends NO_INTERIOR, with its
certificate, and no main stage runs.

Every stage of both phases centres by one rule: until half the squared
Newton decrement is at most _CENTRE * mu, and in the last stage to the
round-off floor.  How tightly the intermediate stages centre changes the
work, not the final gap bound (Boyd & Vandenberghe, section 11.3), and
phase one needs only a strictly feasible point.  Newton steps are counted
alike in both: every step tried, accepted or not.  A stage has a budget of
_MAX_NEWTON of them; an entry still centring after them ends MAX_ITER, so
OPTIMAL, INFEASIBLE and NO_INTERIOR come only from a centre.

Every entry of one call has one row count, so the rows stack rectangularly
(ValueError otherwise).  One rule, `_settle`, settles every row that x
cannot move, 0 . x <= b, before any Newton step: when b >= 0 it becomes
padding, 0 . x < 1, whose barrier terms are exactly zero, and otherwise its
entry is INFEASIBLE, with the row's normalized violation as certificate.
The SDP applies it on the unit-trace plane, so at m = 1, where the plane is
the single point W = [[1]], every row is settled.

There is one oracle per kernel.  The QCQP oracle works in the real embedding
z = [Re v; Im v] of the complex vector v, with its unit ball as row 0.  The
SDP is the one the trace-one lift W = v v^H gives: maximize Tr(C W) subject
to Tr W = 1, rows Tr(A W) <= b and W PSD.  Its oracle works in coordinates y
of the unit-trace plane: the Hermitian matrix W has the coefficient vector
w = w_p + Z y in an orthonormal Hermitian basis (dimension M^2), and
-log det W is its cone barrier.  Besides the cone, the two differ only in
the SDP's extra stop on the gap relative to its objective, which bounds the
gap in original units.

`solve_ball_qcqps(problems, v0s)` solves QCQPs of one dimension, each
from its own start v0, in one stacked barrier run; the consensual SCA's
lockstep driver (beamforming.lockstep) sends it one batch per round.
`solve_sdp_batch(C, row_sets)` solves SDPs of one size, each with its own
row list and one shared objective C or its own, in one stacked barrier
run; lockstep stacks several tags' relaxations that way.  Both kernels are
batch-invariant: an entry's result does not depend on what else is in the
stack, because no product mixes rows of the stack in one GEMM.
`solve_ball_qcqp` and `solve_small_sdp` solve one problem, as a batch of
one.  Every SDP starts from W = I / m; only the QCQP takes a start.

Problems are normalized before solving (unit objective norm, per-constraint
scale factors), which leaves the argmax unchanged and makes the barrier
schedule meaningful across the wide dynamic range of channel realizations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NO_INTERIOR = "no_interior"
MAX_ITER = "max_iter"

_MU_FACTOR = 0.1
_MAX_NEWTON = 200       # Newton steps per barrier stage
_ARMIJO = 1e-4
_FEAS_MARGIN = 1e-10    # strict-interior margin on normalized constraints
_PHASE_ONE_TOL = 1e-10  # phase one gives up once its gap bound is this small
_TOL = 1e-8             # duality-gap target, on the normalized problem
_STALL = 1e-14          # last stage: a decrement this small that no longer
                        # falls is at the round-off floor
_CENTRE = 0.125         # a stage is centred once dec / 2 <= _CENTRE * mu


# ---------------------------------------------------------------------------
# Complex -> real embeddings
# ---------------------------------------------------------------------------

def embed_vector(c: np.ndarray) -> np.ndarray:
    """Real embedding of a complex vector: Re(c^H v) = embed(c) . embed(v)."""
    c = np.asarray(c, dtype=complex)
    return np.concatenate([c.real, c.imag])


def embed_hermitian(A: np.ndarray) -> np.ndarray:
    """Real symmetric embedding with v^H A v = z^T embed(A) z."""
    A = np.asarray(A, dtype=complex)
    return np.block([[A.real, -A.imag], [A.imag, A.real]])


def unembed_vector(z: np.ndarray) -> np.ndarray:
    m = z.size // 2
    return z[:m] + 1j * z[m:]


def _solve_newton(H, g):
    """H^-1 g, one per entry: minus the Newton step.

    An entry whose H is singular gets a ridge of 1e-12 of its mean
    diagonal.  Every other entry's step is its own solve, whatever else is
    in the stack.
    """
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(H) > 1:
            return np.concatenate([_solve_newton(H[i:i + 1], g[i:i + 1])
                                   for i in range(len(H))])
        n = H.shape[-1]
        reg = 1e-12 * (np.abs(np.trace(H, axis1=1, axis2=2)) / n + 1.0)
        return np.linalg.solve(H + reg[:, None, None] * np.eye(n),
                               g[..., None])[..., 0]


def _logdet(W):
    """log det of each Hermitian matrix in the stack W, nan where one is not
    positive definite.

    Every value comes from the matrix's own Cholesky factor, whatever else
    is in the stack.  When one matrix refuses, the others are found by
    their leading principal minors (Sylvester's criterion) and factored
    apart.
    """
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        L = np.full_like(W, np.nan)
        if len(W) > 1:
            pd = np.flatnonzero(np.logical_and.reduce(
                [np.linalg.det(W[:, :k, :k]).real > 0.0
                 for k in range(1, W.shape[1] + 1)]))
            try:
                L[pd] = np.linalg.cholesky(W[pd])
            except np.linalg.LinAlgError:    # a borderline one refuses too
                for i in pd:
                    try:
                        L[i] = np.linalg.cholesky(W[i])
                    except np.linalg.LinAlgError:
                        pass
    return 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2).real).sum(axis=1)


def _one_row_count(counts):
    """The row count all entries share; ValueError names the counts."""
    counts = sorted(set(counts))
    if len(counts) > 1:
        raise ValueError("a call takes one row count, not "
                         + " and ".join(map(str, counts)))
    return counts[0]


def _settle(size, b, s):
    """The rows x cannot move, and the certificate they give their entry.

    size (B, k) is each row's x-part and b its constant, both in the units
    the row arrived in, and s its scale.  A row is settled when size <=
    1e-14 max(1, |b|): it reads 0 <= b, so it holds unless b < -1e-12, and
    if it holds it would only block phase one's strict feasibility.  Returns
    (settled, cert): settled (B, k) marks those rows, which the oracle
    turns into padding rows 0 . x < 1; cert (B,) is the largest normalized
    violation -b / s among an entry's settled rows that fail, nan where
    none fails.
    """
    settled = size <= 1e-14 * np.maximum(1.0, np.abs(b))
    fails = settled & (b < -1e-12)
    cert = np.fmax.reduce(np.where(fails, -b / s, np.nan), axis=1,
                          initial=np.nan)
    return settled, cert


# ---------------------------------------------------------------------------
# Barrier method
# ---------------------------------------------------------------------------

class _Oracle:
    """minimize c . x subject to x^T P_i x + Q_i . x < b_i, x inside a cone.

    A batch of B problems over x of one size n: c (B, n), the rows P
    (B, k, n, n) (None for linear rows), Q (B, k, n) and b (B, k), with
    slack (B, k) marking the rows phase one relaxes: every row that is
    neither padding nor a cone written as a row.  The duality gap at a
    mu-centre is at most n_par (B,) * mu.  A subclass with a cone that is
    not a row supplies its barrier: cone(x) gives its value (nan outside
    the cone), cone_derivs(x) its value, gradient and Hessian in the
    leading coordinates of x, which derivs adds to.  take(idx)
    gives the oracle of the entries idx; _batched names the per-entry
    arrays it selects.  A kernel oracle also sets cert (B,) from _settle:
    the certificate of an entry that a settled row makes infeasible, nan
    for the others.  Every oracle centres by the one rule of _centre.
    """

    cone = None       # no cone barrier beyond the rows
    cert = None
    _batched = ("c", "P", "Q", "b", "slack", "n_par", "cert")

    def __init__(self, c, P, Q, b, slack, n_par):
        self.c, self.P, self.Q, self.b = c, P, Q, b
        self.slack, self.n_par = slack, n_par

    def take(self, idx):
        f = copy.copy(self)
        for name in self._batched:
            a = getattr(self, name)
            if a is not None:
                setattr(f, name, a[idx])
        return f

    def rows(self, x):
        """Row values minus b (all < 0 inside), and P_i x (None if linear)."""
        if self.P is None:
            return np.matvec(self.Q, x) - self.b, None
        B, k, n = self.Q.shape
        Px = np.matvec(self.P.reshape(B, k * n, n), x).reshape(B, k, n)
        return np.matvec(Px, x) + np.matvec(self.Q, x) - self.b, Px

    def value(self, x, mu):
        """c . x + mu * phi(x); inf or nan outside the strict domain.

        Either way no comparison with it holds.  Outside the domain the
        logarithms warn unless the caller silences it, as _barrier does.
        """
        phi = -np.add.reduce(np.log(-self.rows(x)[0]), axis=1)
        if self.cone is not None and np.isfinite(phi).any():
            phi = phi + self.cone(x)
        return np.vecdot(self.c, x) + mu * phi

    def derivs(self, x, mu):
        """Value, gradient and Hessian of c . x + mu * phi(x) at x inside."""
        g, Px = self.rows(x)
        G = self.Q if Px is None else self.Q + 2.0 * Px   # row gradients
        w = -1.0 / g
        GT = G.swapaxes(1, 2)
        phi = -np.add.reduce(np.log(-g), axis=1)
        grad = np.matvec(GT, w)
        H = (GT * (w ** 2)[:, None, :]) @ G
        if self.P is not None:
            Pw = np.vecmat(w, self.P.reshape(*w.shape, -1))
            H = H + 2.0 * Pw.reshape(H.shape)
        if self.cone is not None:
            cv, cg, cH = self.cone_derivs(x)
            nc = cg.shape[1]
            phi, grad[:, :nc] = phi + cv, grad[:, :nc] + cg
            H[:, :nc, :nc] += cH
        H *= mu
        return np.vecdot(self.c, x) + mu * phi, self.c + mu * grad, H

    def found(self, x):
        """Where to end at once (None: nowhere); only phase one does."""
        return None

    def stop(self, x, mu, tol):
        """Status to end with at the mu-centre x, None to go on."""
        return np.where(self.n_par * mu <= tol, OPTIMAL, None)


def _barrier(f, x, tol):
    """Barrier method on batch oracle f from strictly feasible starts x.

    For mu = 1, 0.1, 0.01, ... each stage centres the live entries
    (_centre), then asks f.stop which of them end; the rest go on to the
    next mu.  An entry still centring after the stage's _MAX_NEWTON Newton
    steps ends MAX_ITER there, as f.stop's gap bound holds only at a
    centre; f.stop judges one whose line search failed.

    Returns (x, status, mu, steps), one row or value per entry: mu of the
    stage it ended in, and steps the Newton steps it tried.
    """
    # Trial points outside the domain make value() take logs of
    # non-positive numbers, and far outside they overflow _logdet's
    # minors; the nan or inf then fails the Armijo test.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        xl = np.array(x, dtype=float)       # the live entries' points
        B = len(xl)
        x, steps = np.empty_like(xl), np.zeros(B, dtype=int)
        status = np.full(B, None, dtype=object)
        mu_end = np.zeros(B)
        live, sl, mu = np.arange(B), steps.copy(), 1.0
        while True:
            xl, n, capped = _centre(f, xl, mu, tol)
            sl += n
            st = f.stop(xl, mu, tol)
            st[capped] = MAX_ITER
            end = np.not_equal(st, None)
            n_end = np.count_nonzero(end)
            if n_end:
                out = live[end]
                x[out], steps[out], status[out], mu_end[out] = (
                    xl[end], sl[end], st[end], mu)
                if n_end == len(end):
                    return x, status, mu_end, steps
                keep = ~end
                live, xl, sl, f = live[keep], xl[keep], sl[keep], f.take(keep)
            mu *= _MU_FACTOR


def _centre(f, x, mu, tol):
    """One barrier stage: centre each entry of x on f.value(., mu).

    Damped Newton steps, each one _line_search, until half the squared
    Newton decrement is at most _CENTRE * mu; in the last stage, where the
    entry's n_par * mu reaches tol, to 1e-16, to a gradient norm of tol,
    or until a decrement below _STALL stops falling.
    f.found ends an entry's stage at once, so f.stop must then end it.  An
    entry leaves the stacked arrays once it is centred or its line search
    fails; either ends only its own stage.

    Returns the points, x updated in place, the Newton steps each entry
    tried (k for an entry centred at Newton iteration k, k + 1 for one
    whose line search failed there, and _MAX_NEWTON for one still centring
    at the end), and a mask of the entries still centring at the end.
    """
    steps = np.full(len(x), _MAX_NEWTON)
    capped = np.zeros(len(x), dtype=bool)
    act, xa = np.arange(len(x)), x      # the entries still centring
    last = f.n_par * mu * _MU_FACTOR <= tol
    floor2 = 2.0 * np.where(last, 1e-16, _CENTRE * mu)
    any_last, prev = np.count_nonzero(last), np.inf
    for k in range(_MAX_NEWTON):
        hit = f.found(xa)
        val, grad, H = f.derivs(xa, mu)
        d = _solve_newton(H, grad)        # the Newton step is -d
        dec = np.vecdot(grad, d)
        done = dec <= floor2
        if any_last:
            done |= last & ((np.sqrt(np.vecdot(grad, grad)) <= tol)
                            | ((dec >= prev) & (dec <= 2.0 * _STALL)))
        if hit is not None:     # phase one's stop then ends them
            done |= hit
        n_done = np.count_nonzero(done)
        if n_done:
            out = act[done]
            x[out], steps[out] = xa[done], k
            if n_done == len(done):
                return x, steps, capped
            keep = ~done
            act, xa, val, d, dec, last, floor2 = (
                a[keep] for a in (act, xa, val, d, dec, last, floor2))
            f = f.take(keep)
        xa, failed = _line_search(f, xa, d, val, dec, mu)
        n_failed = np.count_nonzero(failed)
        if n_failed:
            out = act[failed]
            x[out], steps[out] = xa[failed], k + 1
            if n_failed == len(failed):
                return x, steps, capped
            keep = ~failed
            act, xa, dec, last, floor2 = (
                a[keep] for a in (act, xa, dec, last, floor2))
            f = f.take(keep)
        prev = dec
    x[act] = xa
    capped[act] = True
    return x, steps, capped


def _line_search(f, x, d, val, dec, mu):
    """Masked Armijo backtracking from each x along -d.

    Every entry tries t = 1, 1/2, ... until it accepts a step; xp, dp and
    ap hold x, t d and t _ARMIJO dec for the entries still searching, at
    the positions left.  Returns the points with the accepted steps, and a
    mask of the entries that found none before t fell to 1e-14.
    """
    fp, xp, dp, vp, ap = f, x, d, val, _ARMIJO * dec
    x, left, t = x.copy(), np.arange(len(x)), 1.0
    while left.size and t > 1e-14:
        xn = xp - dp
        ok = fp.value(xn, mu) <= vp - ap
        n_ok = np.count_nonzero(ok)
        if n_ok == len(x):          # every entry takes its full step
            return xn, ~ok
        if n_ok:
            x[left[ok]] = xn[ok]
            rest = ~ok
            left, fp = left[rest], fp.take(rest)
            xp, dp, vp, ap = xp[rest], dp[rest], vp[rest], ap[rest]
        t, dp, ap = 0.5 * t, 0.5 * dp, 0.5 * ap
    failed = np.zeros(len(x), dtype=bool)
    failed[left] = True
    return x, failed


class _PhaseOne(_Oracle):
    """Phase one of oracle f on (x, s): minimize s subject to row_i(x) <= s.

    Only f's slack rows get the slack s: padding rows keep reading 0 < 1,
    and f's cone, as a row or not, keeps its barrier.  An entry ends as soon
    as every slack row of f holds by _FEAS_MARGIN, and reports INFEASIBLE
    once a centre's gap bound keeps the least achievable s above 1e-9.  An
    entry whose gap falls to the tolerance with s still within it of 0
    ends NO_INTERIOR: its rows may be met, but none strictly, as on a face
    of the cone, and nothing certifies that they cannot be.
    """

    def __init__(self, f):
        B, k, n = f.Q.shape
        c = np.zeros((B, n + 1))
        c[:, -1] = 1.0
        P = None
        if f.P is not None:
            P = np.zeros((B, k, n + 1, n + 1))
            P[:, :, :-1, :-1] = f.P
        s_col = -f.slack[..., None].astype(float)
        super().__init__(c, P, np.concatenate([f.Q, s_col], axis=2), f.b,
                         f.slack, f.n_par)
        self.f = f
        if f.cone is None:
            self.cone = None

    def take(self, idx):
        g = super().take(idx)
        g.f = self.f.take(idx)
        return g

    def cone(self, xs):
        return self.f.cone(xs[:, :-1])

    def cone_derivs(self, xs):
        return self.f.cone_derivs(xs[:, :-1])

    def found(self, xs):
        return np.logical_and.reduce(
            (self.f.rows(xs[:, :-1])[0] < -_FEAS_MARGIN) | ~self.slack,
            axis=1)

    def stop(self, xs, mu, tol):
        gap = self.n_par * mu
        return np.where(self.found(xs), OPTIMAL,
                        np.where(xs[:, -1] - gap > 1e-9, INFEASIBLE,
                                 np.where(gap <= tol, NO_INTERIOR, None)))


def _solve(f, x):
    """Phase one, then the barrier method, on batch oracle f from starts x.

    Each start must lie strictly inside f's cone and non-slack rows (the
    QCQP's ball).  An entry with a certificate from _settle (f.cert) ends
    at once, INFEASIBLE; phase one runs for the others whose start misses
    a row by _FEAS_MARGIN, and the main stage for all that then meet every
    row.

    Returns (x, status, cert, steps, mu) per entry.  status and steps are
    as _barrier gives them, phase one's steps counted in.  cert is f.cert
    for a settled entry, and otherwise the largest normalized row
    violation left at the phase-one optimum.  mu is the main stage's (see
    _barrier), nan where the entry ended before it.
    """
    cert = f.cert.copy()
    ok = np.isnan(cert)
    B = len(x)
    status = np.where(ok, OPTIMAL, INFEASIBLE).astype(object)
    steps = np.zeros(B, dtype=int)
    mu = np.full(B, np.nan)
    g = np.where(f.slack, f.rows(x)[0], -np.inf)
    need = np.flatnonzero(ok & (g.max(axis=1, initial=-np.inf)
                                >= -_FEAS_MARGIN))
    if need.size:
        fn = f if need.size == B else f.take(need)
        xs = np.concatenate([x[need], g[need].max(axis=1)[:, None] + 0.5],
                            axis=1)
        xs, status[need], _mu, steps[need] = _barrier(
            _PhaseOne(fn), xs, _PHASE_ONE_TOL)
        x[need] = xs[:, :-1]
        cert[need] = np.where(fn.slack, fn.rows(x[need])[0], -np.inf).max(
            axis=1)
    go = np.flatnonzero(status == OPTIMAL)
    if go.size:
        x[go], status[go], mu[go], main = _barrier(
            f if go.size == B else f.take(go), x[go], _TOL)
        steps[go] += main
    return x, status, cert, steps, mu


# ---------------------------------------------------------------------------
# Ball-constrained QCQP
# ---------------------------------------------------------------------------

@dataclass
class QcqpProblem:
    """maximize Re(c^H v) subject to quadratic constraints and a norm ball.

    Each constraint is a triple (A, q, b) encoding

        v^H A v + 2 Re(q^H v) <= b,

    with A Hermitian PSD or None (no quadratic part) and q a complex vector
    or None (no linear part).  The unit ball ||v||^2 <= 1 is always present
    and makes the problem compact.
    """

    c: np.ndarray
    quad_constraints: list

    def dim(self) -> int:
        return np.asarray(self.c).size


@dataclass
class QcqpResult:
    v: Optional[np.ndarray]
    status: str
    objective: float = np.nan
    certificate: float = np.nan   # max violation at the phase-one optimum
    newton_steps: int = 0


class _BallQcqp(_Oracle):
    """QCQPs of one dimension in z = [Re v; Im v], normalized: min -c_hat . z.

    Row 0 of each entry is the unit ball z . z < 1, which phase one keeps
    as a barrier; row i > 0 is constraint i, z^T At z + qr . z <= b,
    divided by its scale s_i.  Every entry has the same number of
    constraints (ValueError naming the counts otherwise).
    """

    def __init__(self, problems):
        n = 2 * problems[0].dim()
        _one_row_count(len(p.quad_constraints) for p in problems)
        self.c_norm, self.c_hat, rows = [], [], []
        for p in problems:
            cr = embed_vector(p.c)
            c_norm = float(np.linalg.norm(cr))
            self.c_norm.append(c_norm)
            self.c_hat.append(cr / c_norm if c_norm > 0 else cr)
            entry = [(np.eye(n), np.zeros(n), 1.0, 1.0)]
            for A, q, bb in p.quad_constraints:
                At = embed_hermitian(A) if A is not None else np.zeros((n, n))
                qr = 2.0 * embed_vector(q) if q is not None else np.zeros(n)
                s = abs(float(bb))
                if A is not None:
                    s = max(s, float(np.trace(np.asarray(A)).real))
                s = max(s, float(np.linalg.norm(qr)), 1e-12)
                entry.append((At, qr, float(bb), s))
            rows.append(entry)
        self.c_hat = np.array(self.c_hat)
        P, Q, b, s = (np.array([[row[i] for row in entry] for entry in rows])
                      for i in range(4))
        settled, self.cert = _settle(np.maximum(
            np.linalg.norm(Q, axis=-1), np.linalg.norm(P, axis=(-2, -1))),
            b, s)
        keep = ~settled
        slack = keep.copy()
        slack[:, 0] = False
        super().__init__(
            -self.c_hat,
            np.where(keep[..., None, None], P / s[..., None, None], 0.0),
            np.where(keep[..., None], Q / s[..., None], 0.0),
            np.where(keep, b / s, 1.0), slack, keep.sum(axis=1))


def solve_ball_qcqp(p: QcqpProblem,
                    v0: Optional[np.ndarray] = None) -> QcqpResult:
    """Solve one unit-ball QCQP: solve_ball_qcqps on a batch of one."""
    return solve_ball_qcqps([p], [v0])[0]


def solve_ball_qcqps(problems: list, v0s: list) -> list:
    """Solve unit-ball QCQPs of one dimension and one constraint count by
    a log-barrier interior method, in one stacked run.

    Every entry's result is what it gets solved alone: each entry takes
    its own Newton steps and leaves the stack when it ends.

    Args:
        problems: The QcqpProblems, all of one dim() and constraint count
            (ValueError, naming the counts, otherwise).
        v0s: One start per problem (complex vector, or None for v = 0).
            One near the ball's edge is first pulled in to half its
            squared radius; phase one then pulls it inside any constraint
            it breaks.

    Returns:
        One QcqpResult per problem, in input order, with status "optimal",
        "infeasible" (certificate holds the max violation, in normalized
        units, at the phase-one optimum), "no_interior" (phase one's gap
        reached its tolerance with that violation within it of 0: no
        strictly feasible point was found, and none was shown impossible)
        or "max_iter" (a barrier stage still centring after _MAX_NEWTON
        Newton steps).
    """
    f = _BallQcqp(problems)
    z = np.array([np.zeros(f.c.shape[1]) if v0 is None else embed_vector(v0)
                  for v0 in v0s])
    zz = np.vecdot(z, z)
    pull = zz >= 0.9
    z[pull] *= np.sqrt(0.5 / zz[pull])[:, None]
    z, status, cert, steps, mu = _solve(f, z)
    return [QcqpResult(v=None, status=status[j], certificate=float(cert[j]),
                       newton_steps=int(steps[j]))
            if np.isnan(mu[j]) else
            QcqpResult(v=unembed_vector(z[j]), status=status[j],
                       objective=float(f.c_norm[j] * (f.c_hat[j] @ z[j])),
                       newton_steps=int(steps[j]))
            for j in range(len(problems))]


# ---------------------------------------------------------------------------
# Small dense SDP
# ---------------------------------------------------------------------------

@dataclass
class SdpProblem:
    """maximize Tr(C W) s.t. Tr W = 1, Tr(A W) <= b, W PSD.

    ineq_constraints is a list of (A, b) pairs with A Hermitian, in <= form
    (flip signs for >=).  dim and eq_constraints state the lift's one
    equality: they must read m and [(I_m, 1)] for the m x m matrix C, and
    anything else is refused with ValueError.
    """

    C: np.ndarray
    dim: int
    eq_constraints: list
    ineq_constraints: list = field(default_factory=list)

    def __post_init__(self):
        if np.shape(self.C) != (self.dim, self.dim):
            raise ValueError(f"C has shape {np.shape(self.C)}, not dim "
                             f"{self.dim} x {self.dim}")
        eqs = self.eq_constraints
        if not (len(eqs) == 1 and eqs[0][1] == 1
                and np.array_equal(eqs[0][0], np.eye(self.dim))):
            raise ValueError("the only equality an SdpProblem takes is "
                             "Tr W = 1, as [(I_dim, 1)]")


@dataclass
class SdpResult:
    W: Optional[np.ndarray]
    status: str
    objective: float = np.nan
    gap: float = np.nan           # duality-gap bound, original units
    certificate: float = np.nan
    newton_steps: int = 0


@lru_cache(maxsize=16)
def _herm_basis(m: int) -> np.ndarray:
    """Orthonormal basis of m x m Hermitian matrices as an (m^2, m^2) matrix.

    Row a is basis matrix B_a flattened row-major, so svec(A) = Re Tr(B_a A)
    and its inverse, w -> sum_a w_a B_a, are products with it.  B_0 ...
    B_m-1 are the diagonal units E_ii; then each pair i < j, in row-major
    order, has (E_ij + E_ji) / sqrt 2 and i (E_ij - E_ji) / sqrt 2.
    """
    i, j = np.triu_indices(m, 1)
    re = m + 2 * np.arange(len(i))
    im = re + 1
    d = np.arange(m)
    U = np.zeros((m * m, m, m), dtype=complex)
    U[d, d, d] = 1.0
    s = 1.0 / np.sqrt(2.0)
    U[re, i, j] = U[re, j, i] = s
    U[im, i, j], U[im, j, i] = 1j * s, -1j * s
    U = U.reshape(m * m, m * m)
    U.setflags(write=False)
    return U


def svec(A: np.ndarray) -> np.ndarray:
    """Coefficients of Hermitian A in the orthonormal basis, Re Tr(B_a A):
    a real vector, or one row per matrix of a stack (..., m, m).  Each row
    is its matrix's own product with the basis (np.matvec), made contiguous
    so that np.vecdot on it sums as np.linalg.norm does.
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[-1]
    A = A.swapaxes(-1, -2).reshape(A.shape[:-2] + (m * m,))
    return np.ascontiguousarray(np.matvec(_herm_basis(m), A).real)


@lru_cache(maxsize=16)
def _trace_one(m: int) -> tuple:
    """The unit-trace plane of m x m Hermitian matrices, in the basis.

    Returns (wp, Z, UZ, Wp): w = wp + Z y, with wp = svec(I) / m the
    coordinates of W = I / m, so y = 0 is that point, and Z an orthonormal
    basis of svec(I)'s nullspace (m^2 - 1 columns); UZ = Z^T U folds Z into
    the basis matrix U, so its row a is the plane's basis matrix B_a
    flattened; Wp = wp U is wp's matrix, flattened.
    """
    U = _herm_basis(m)
    E = svec(np.eye(m))[None]
    wp = E[0] / m
    Z = np.linalg.svd(E)[2][1:].T
    parts = (wp, Z, Z.T @ U, wp @ U)
    for a in parts:
        a.setflags(write=False)
    return parts


_MAP_DIM = 3    # the cone Hessian is one map up to this matrix dimension,
                # the largest lift of the evolved design


@lru_cache(maxsize=16)
def _cone_map(m: int) -> tuple:
    """The cone barrier's Hessian in the plane's coordinates as one linear
    map of the products of x = svec(W^-1).

    With X = W^-1 = sum_c x_c U_c, H_ab = Tr(X B_a X B_b) is the quadratic
    form sum_(c <= d) x_c x_d G[ab, cd], G real.  Returns (pairs, G, full):
    pairs the index pairs c <= d, G of shape (n (n+1) / 2, m^2 (m^2+1) / 2)
    onto the entries a <= b of H (n = m^2 - 1), and full, for each entry of
    H flattened, the one of G's outputs it reads.  G has about m^8 / 4
    entries, so it is built only up to _MAP_DIM.
    """
    U = _herm_basis(m).reshape(m * m, m, m)
    _wp, Z, UZ, _Wp = _trace_one(m)
    n = Z.shape[1]
    Bz = UZ.reshape(n, m, m)
    T = np.einsum("cij,ajk,dkl,bli->cdab", U, Bz, U, Bz, optimize=True).real
    c, d = np.triu_indices(m * m)
    a, b = np.triu_indices(n)
    G = np.ascontiguousarray(
        (T[c, d] + np.where((c < d)[:, None, None], T[d, c], 0.0))[:, a, b].T)
    full = np.empty((n, n), dtype=int)
    full[a, b] = full[b, a] = np.arange(len(a))
    parts = ((c, d), G, full.ravel())
    for arr in (c, d, G, parts[2]):
        arr.setflags(write=False)
    return parts


class _Sdp(_Oracle):
    """Trace-one SDPs, one objective C_j per entry, in coordinates y of the
    plane Tr W = 1, w = w_p + Z y: min -c_hat_j . w.

    Rows are each entry's inequalities a . w <= b, a = svec(A), divided by
    their scales.  On the plane a row reads (Z^T a) . y <= b - a . w_p, and
    _settle judges it by those two parts, in the units it arrived in, so at
    m = 1 (no y) every row is settled.  The PSD cone's barrier is
    -log det W.  Its gradient is -Z^T x and
    its Hessian H_ab = Tr(X B_a X B_b), with X = W^-1 and x = svec(X).  Up
    to _MAP_DIM, H is one product of _cone_map's G with the products of x;
    above, it is U K U^H, with U the basis matrix and K[(j,k),(p,q)] =
    X_pj X_kq, Z folded into U.  Every product that involves the shared
    plane runs row by row (np.matvec), so an entry's arithmetic does not
    depend on what else is in the stack.
    """

    _batched = _Oracle._batched + ("c_norm", "c_hat")

    def __init__(self, C, row_sets):
        """C is one m x m objective, or one per entry (B, m, m); row_sets
        holds, per entry, its rows (A, b): Tr(A W) <= b, the same number
        for every entry."""
        B = len(row_sets)
        C = np.asarray(C, dtype=complex)
        if C.ndim == 3 and len(C) not in (1, B):
            raise ValueError(f"{len(C)} objectives for {B} row sets: give "
                             f"one, or one per row set")
        self.m = m = C.shape[-1]
        self.wp, self.Z, self.UZ, self.Wp = _trace_one(m)
        c_w = svec(np.broadcast_to(C, (B, m, m)))
        self.c_norm = np.sqrt(np.vecdot(c_w, c_w))
        self.c_hat = np.divide(c_w, self.c_norm[:, None], out=c_w,
                               where=self.c_norm[:, None] > 0)
        k = _one_row_count(map(len, row_sets))
        A = np.array([[a for a, _b in e] for e in row_sets], dtype=complex)
        if k and A.shape[2:] != (m, m):
            raise ValueError(f"the objective is {m} x {m}, the rows are "
                             + " x ".join(map(str, A.shape[2:])))
        a = svec(A.reshape(B, k, m, m))
        b = np.array([[b for _a, b in e] for e in row_sets],
                     dtype=float).reshape(B, k)
        s = np.maximum(np.maximum(np.abs(b), np.sqrt(np.vecdot(a, a))),
                       1e-12)
        # Settled on the plane: Z^T a moves the row, b - a . wp is the rest.
        Za = np.matvec(self.Z.T, a)
        settled, self.cert = _settle(np.sqrt(np.vecdot(Za, Za)),
                                     b - np.vecdot(a, self.wp), s)
        keep = ~settled
        a /= s[..., None]               # scaled before it is projected
        super().__init__(-np.matvec(self.Z.T, self.c_hat), None,
                         np.where(keep[..., None], np.matvec(self.Z.T, a),
                                  0.0),
                         np.where(keep, b / s - np.vecdot(a, self.wp), 1.0),
                         keep, keep.sum(axis=1) + m)

    def objective(self, y):
        """Tr(C W) in original units, per entry."""
        return self.c_norm * np.vecdot(self.wp + np.matvec(self.Z, y),
                                       self.c_hat)

    def matrix(self, y):
        """W = sum_a w_a B_a at w = w_p + Z y, w_p and Z folded into U."""
        return (self.Wp + np.matvec(self.UZ.T, y)).reshape(-1, self.m,
                                                            self.m)

    def cone(self, y):
        """-log det W, nan where W is not positive definite."""
        return -_logdet(self.matrix(y))

    def cone_derivs(self, y):
        W = self.matrix(y)
        X = np.linalg.inv(W)
        x = svec(X)
        m = self.m
        if m <= _MAP_DIM:
            (c, d), G, full = _cone_map(m)
            H = np.matvec(G, x[:, c] * x[:, d])[:, full]
        else:
            B = len(W)
            K = (X.swapaxes(1, 2)[:, :, None, :, None] * X[:, None, :, None, :]
                 ).reshape(B, m * m, m * m)
            H = (self.UZ @ K @ self.UZ.conj().T).real
        n = self.Z.shape[1]
        return -_logdet(W), -np.matvec(self.Z.T, x), H.reshape(len(W), n, n)

    def stop(self, y, mu, tol):
        """Also meets tol relative to the objective, in original units."""
        gap = self.n_par * mu * np.maximum(self.c_norm, 1.0)
        done = (self.n_par * mu <= tol) & (
            (gap <= tol * np.maximum(1.0, np.abs(self.objective(y))))
            | (mu <= 1e-13))
        return np.where(done, OPTIMAL, None)


def solve_small_sdp(p: SdpProblem) -> SdpResult:
    """Solve the small trace-one SDP by a log-barrier interior method, from
    W = I / m.

    Args:
        p: Problem data (objective maximized).

    Returns:
        SdpResult; gap is the barrier bound in original objective units,
        certificate the phase-one max violation (normalized) when
        infeasible.
    """
    return solve_sdp_batch(p.C, [p.ineq_constraints])[0]


def solve_sdp_batch(C, row_sets: list) -> list:
    """Solve trace-one SDPs of one size, one per row set, in one stacked
    run.

    Entry j is max Tr(C_j W) s.t. Tr W = 1, Tr(A W) <= b for each (A, b) in
    row_sets[j], W PSD.  Every entry starts from W = I / m, which is y = 0
    in the plane's coordinates and inside the cone.  Rows the plane cannot
    move are settled first (_settle); at m = 1 that is every row, and a
    feasible entry ends at W = [[1]] with no Newton step.  The kernel is
    batch-invariant: each entry takes its own Newton steps, leaves the
    stack when it ends, and its SdpResult is bit for bit what
    solve_small_sdp gives for it, whatever else is in the stack.  So
    several tags' relaxations, each with its own objective, can share one
    call (beamforming.lockstep).

    Args:
        C: The m x m Hermitian objective every entry shares, or one per
            entry: an array (B, m, m) or a list of B such matrices (a list
            of one is shared).
        row_sets: One list of (A, b) rows per entry, A m x m, all of one
            length.

    Returns:
        The SdpResult of each row set, in input order, with status
        "optimal", "infeasible" (certificate holds the max violation, in
        normalized units, at the phase-one optimum), "no_interior" (phase
        one's gap reached its tolerance with that violation within it of 0,
        as on a face of the cone such as W g = 0: no strictly feasible W
        was found, and none was shown impossible) or "max_iter" (a barrier
        stage still centring after _MAX_NEWTON Newton steps).

    Raises:
        ValueError: when the objectives number neither 1 nor
            len(row_sets), the rows' matrices are not C's size, or the
            row sets' lengths differ (the message names them).
    """
    if not row_sets:
        return []
    f = _Sdp(C, row_sets)
    y = np.zeros((len(row_sets), f.Z.shape[1]))     # W = I / m
    y, status, cert, steps, mu = _solve(f, y)
    results = [SdpResult(W=None, status=status[j], certificate=float(cert[j]),
                         newton_steps=int(steps[j])) for j in range(len(y))]
    main = np.flatnonzero(~np.isnan(mu))
    fm = f.take(main)
    W = fm.matrix(y[main])
    obj = fm.objective(y[main])
    gap = fm.n_par * mu[main] * np.maximum(fm.c_norm, 1.0)
    for i, j in enumerate(main):
        results[j] = SdpResult(
            W=0.5 * (W[i] + W[i].conj().T),   # clear embedding round-off
            status=status[j], objective=float(obj[i]), gap=float(gap[i]),
            newton_steps=int(steps[j]))
    return results
