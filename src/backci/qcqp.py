"""The unit-ball QCQP kernel: the consensual SCA's subproblems, solved
through their Lagrange duals.

`solve_ball_qcqps(problems)` solves QCQPs of one dimension (Boyd &
Vandenberghe, Convex Optimization, sections 5.2-5.8).  In the real
embedding z = [Re v; Im v], with a unit objective c and every row divided
by its scale, the dual of maximize c . z subject to z . z <= 1 and z^T P_i
z + Q_i . z <= b_i (P_i PSD) is a smooth function phi of one multiplier
per row, the ball's first (_BallDual), minimized over lam >= 0 by
projected Newton (_dual_newton) from the multipliers of an earlier solve
where a problem gives them (its start), else from the ball-only optimum:
no barrier stage and no phase one.  The kernel is batch-invariant, as
convex's is.  solve_ball_qcqps states what each status certifies.  It shares
convex's statuses and its row helper _settle; its Newton
budget _MAX_NEWTON is read at call time, so a caller can lower it.  It is
its own module for memory: where bytecode is not written, every start
compiles the sources, and one module with both kernels peaked about 1 MB
higher while compiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convex import INFEASIBLE, MAX_ITER, OPTIMAL, _settle

_MAX_NEWTON = 200   # Newton steps per QCQP
_ARMIJO = 1e-4
_COLD = 0.5         # the ball's multiplier at the ball-only optimum
_BALL_MIN = 1e-8    # the ball's multiplier's floor (_dual_newton)
_BALL_KEEP = 0.1    # the least fraction of itself it keeps in one step
_KKT = 1e-12        # natural residual of an optimal multiplier vector
_KKT_STALL = 1e-8   # a residual this small that no longer halves is at the
                    # round-off floor
_DAMP = 1e-4        # Newton's damping, per unit residual and mean curvature


def _one_row_count(counts):
    """The row count all problems share; ValueError names the counts."""
    counts = sorted(set(counts))
    if len(counts) > 1:
        raise ValueError("a call takes one row count, not "
                         + " and ".join(map(str, counts)))
    return counts[0]


@dataclass
class QcqpProblem:
    """maximize Re(c^H v) subject to quadratic constraints and a norm ball.

    Each constraint is a triple (A, q, b) encoding

        v^H A v + 2 Re(q^H v) <= b,

    with A Hermitian PSD or None (no quadratic part) and q a complex vector
    or None (no linear part).  The unit ball ||v||^2 <= 1 is always present
    and makes the problem compact.  start, if given, is where the dual
    Newton starts: multipliers in the problem's own units, the ball's
    first, as an earlier solve's QcqpResult.dual gives them.
    """

    c: np.ndarray
    quad_constraints: list
    start: Optional[np.ndarray] = None

    def dim(self) -> int:
        return np.asarray(self.c).size


@dataclass
class QcqpResult:
    v: Optional[np.ndarray]
    status: str
    objective: float = np.nan
    certificate: float = np.nan   # floor under the max normalized violation
    newton_steps: int = 0
    dual: Optional[np.ndarray] = None   # multipliers: the ball's, then rows'


def embed_vector(c: np.ndarray) -> np.ndarray:
    """Real embedding of a complex vector, or of each row of a stack:
    Re(c^H v) = embed(c) . embed(v)."""
    c = np.asarray(c, dtype=complex)
    return np.concatenate([c.real, c.imag], axis=-1)


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


def _cholesky(W):
    """The Cholesky factor of each Hermitian matrix in the stack W, nan
    where one is not positive definite.

    Every factor is the matrix's own, whatever else is in the stack.  When
    one matrix refuses, each is factored alone.
    """
    try:
        return np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        L = np.full_like(W, np.nan)
        for i in range(len(W)):
            try:
                L[i] = np.linalg.cholesky(W[i])
            except np.linalg.LinAlgError:
                pass
        return L


class _BallDual:
    """The duals of QCQPs of one dimension: minimize -c_hat . z subject to
    rows z^T P_i z + Q_i . z <= b_i, c_hat the unit objective.  Row 0 is
    the ball (P_0 = I), which _settle does not judge; row i > 0 is
    constraint i over its scale s_i, or padding 0 . z <= 1 where settled.
    The dual minimizes phi(lam) = lam . b + r^T H^-1 r / 4 over lam >= 0,
    H = sum_i lam_i P_i positive definite and r = c_hat - sum_i lam_i Q_i;
    the Lagrangian's minimizer is z = H^-1 r / 2."""

    _batched = ("c_hat", "P", "Q", "b")

    def __init__(self, problems):
        m = problems[0].dim()
        k = _one_row_count(len(p.quad_constraints) for p in problems) + 1
        B = len(problems)
        A = np.zeros((B, k, m, m), dtype=complex)
        A[:, 0] = np.eye(m)
        q = np.zeros((B, k, m), dtype=complex)
        b = np.ones((B, k))
        for j, p in enumerate(problems):
            for i, (Ai, qi, bi) in enumerate(p.quad_constraints, 1):
                A[j, i] = 0.0 if Ai is None else Ai
                q[j, i] = 0.0 if qi is None else qi
                b[j, i] = bi
        c = embed_vector([np.ravel(p.c) for p in problems])
        self.c_norm = np.sqrt(np.vecdot(c, c))
        self.c_hat = np.divide(c, self.c_norm[:, None], out=c,
                               where=self.c_norm[:, None] > 0)
        P, Q = embed_hermitian(A), 2.0 * embed_vector(q)
        Pf, q_norm = P.reshape(B, k, -1), np.sqrt(np.vecdot(Q, Q))
        s = np.maximum(np.maximum(np.abs(b), np.trace(A, axis1=2,
                                                      axis2=3).real), q_norm)
        s[:, 0] = 1.0
        s[s == 0.0] = 1.0       # an empty row, which _settle settles
        settled, self.cert = _settle(
            np.maximum(q_norm, np.sqrt(np.vecdot(Pf, Pf)))[:, 1:], b[:, 1:],
            s[:, 1:])
        keep = np.ones(b.shape, dtype=bool)     # the ball stays
        keep[:, 1:] = ~settled
        self.s = s
        self.P = np.where(keep[..., None, None], P / s[..., None, None], 0.0)
        self.Q = np.where(keep[..., None], Q / s[..., None], 0.0)
        self.b = np.where(keep, b / s, 1.0)

    def take(self, idx):
        f = object.__new__(type(self))
        f.__dict__ = {k: getattr(self, k)[idx] for k in self._batched}
        return f

    def point(self, lam):
        """(phi, size, z, H) at each lam, size the sum of the magnitudes of
        phi's terms.  phi is inf where H is not positive definite, or lam_0
        too small against the other multipliers (P_i of norm <= 1) for that
        to hold beyond round-off."""
        B, k, n = self.Q.shape
        H = np.vecmat(lam, self.P.reshape(B, k, n * n)).reshape(B, n, n)
        r = self.c_hat - np.vecmat(lam, self.Q)
        ok = lam[:, 0] > 1e-14 * lam[:, 1:].sum(axis=1)
        ok &= ~np.isnan(_cholesky(np.where(ok[:, None, None], H,
                                           np.eye(n)))[:, 0, 0])
        H = np.where(ok[:, None, None], H, np.eye(n))
        z = 0.5 * np.linalg.solve(H, r[..., None])[..., 0]
        lb, quad = lam * self.b, 0.5 * np.vecdot(r, z)
        return (np.where(ok, lb.sum(axis=1) + quad, np.inf),
                np.abs(lb).sum(axis=1) + np.abs(quad), z, H)

    def derivs(self, z, H):
        """phi's gradient, the rows' slacks b_i - z^T P_i z - Q_i . z, and
        its Hessian J^T H^-1 J / 2, J the rows' gradients 2 P_i z + Q_i, at
        the z and H that point gave."""
        zz = z[:, None]
        Pz = np.matvec(self.P, zz)
        J = 2.0 * Pz + self.Q
        return (self.b - np.vecdot(zz, Pz) - np.vecdot(self.Q, zz),
                0.5 * (J @ np.linalg.solve(H, J.swapaxes(1, 2))))

    def floor(self, mu):
        """min over the unit ball of sum_{i>0} mu_i (row_i - b_i), from
        below: a trust-region subproblem in P = sum mu_i P_i, Q likewise.
        In P's eigenbasis (eigenvalues p, w2 = (Q / 2)^2) every t >=
        max(0, -min p) gives the floor -t - sum w2 / (p + t) - mu . b,
        tightest where ||y|| = 1, y = (P + t)^-1 Q / 2, or at t = 0: Newton
        on the concave 1 / ||y|| - 1 (More & Sorensen, SIAM J. Sci. Stat.
        Comput. 4, 1983), from the bracket's right end."""
        B, k, n = self.Q.shape
        P = np.vecmat(mu, self.P[:, 1:].reshape(B, k - 1, n * n))
        p, U = np.linalg.eigh(P.reshape(B, n, n))
        w2 = (0.5 * np.vecmat(np.vecmat(mu, self.Q[:, 1:]), U)) ** 2
        lo = np.maximum(-p[:, 0], 0.0)
        t = np.maximum(lo, np.sqrt(w2.sum(axis=1)) - p[:, 0])
        for _ in range(50):
            e = p + t[:, None]
            y2 = np.divide(w2, e ** 2, out=np.zeros_like(w2), where=w2 > 0)
            y = np.sqrt(y2.sum(axis=1))
            go = (np.abs(y - 1.0) > 1e-12) & ((t > lo) | (y > 1.0))
            if not go.any():
                break
            slope = np.divide(y2, e, out=np.zeros_like(w2), where=y2 > 0)
            t = np.maximum(t + np.divide((y - 1.0) * y ** 2, slope.sum(
                axis=1), out=np.zeros_like(t), where=go), 0.5 * (lo + t))
        return (-t - np.vecdot(mu, self.b[:, 1:]) - np.divide(
            w2, p + t[:, None], out=np.zeros_like(w2), where=w2 > 0).sum(1))


def _dual_newton(f, lam):
    """Projected Newton on the duals of _BallDual f from lam, lam >= 0 and
    lam_0 >= _BALL_MIN, else, where phi(lam) is inf, from the ball-only
    optimum (Bertsekas, SIAM J. Control Optim. 20, 1982); (lam, z, status,
    steps) per entry.

    Live entries step together; each ends OPTIMAL when the natural residual
    max_i |min(lam_i - lo_i, slack_i)| is at most _KKT, or at most
    _KKT_STALL and no longer halving (Newton converges quadratically);
    INFEASIBLE when phi < -1 beyond its round-off (weak duality, as c_hat .
    z <= 1 on the ball); MAX_ITER after _MAX_NEWTON steps, or with
    no step found.  lo is 0 but _BALL_MIN for the ball: where it binds
    nothing and no row's curvature stands in, z maximizes c_hat . z -
    _BALL_MIN (1 - z . z) instead, as H would vanish.  Steps are Newton's
    on the free multipliers, damped by _DAMP times the residual and the
    Hessian's mean diagonal, which keeps the quadratic rate and steps where
    dependent row gradients make the Hessian singular (Li, Fukushima, Qi &
    Yamashita, Comput. Optim. Appl. 28, 2004); a multiplier at its bound
    (lam_i - lo_i <= min(residual, 1e-3), positive slack) steps along its
    slack.  The arc max(lam - t d, lo) is searched by Armijo halving up to
    phi's round-off, the ball's multiplier keeping at least _BALL_KEEP of
    itself.
    """
    B, k = lam.shape
    lo = np.zeros(k)
    lo[0] = _BALL_MIN
    phi, size, z, H = f.point(lam)
    cold = np.isinf(phi)
    if cold.any():
        lam[cold] = 0.0
        lam[cold, 0] = _COLD
        phi[cold], size[cold], z[cold], H[cold] = f.take(cold).point(
            lam[cold])
    out = [lam.copy(), z.copy(), np.full(B, None, dtype=object),
           np.zeros(B, dtype=int)]
    act, prev = np.arange(B), np.full(B, np.inf)
    stuck = np.zeros(B, dtype=bool)
    eps, diag = np.finfo(float).eps, np.arange(k)
    for step in range(_MAX_NEWTON + 1):
        g, hess = f.derivs(z, H)
        res = np.abs(np.minimum(lam - lo, g)).max(axis=1)
        # H's condition number is at most lam.sum() / lam_0
        certain = phi < -1.0 - 8.0 * eps * size * lam.sum(axis=1) / lam[:, 0]
        status = np.where(
            (res <= _KKT) | ((res <= _KKT_STALL) & (res > 0.5 * prev)),
            OPTIMAL, np.where(certain, INFEASIBLE, np.where(
                stuck | (step == _MAX_NEWTON), MAX_ITER, None)))
        end = np.not_equal(status, None)
        if end.any():
            idx = act[end]
            for into, a in zip(out, (lam, z, status)):
                into[idx] = a[end]
            out[3][idx] = step
            if end.all():
                return tuple(out)
            keep = ~end
            act, lam, phi, size, z, H, g, hess, res = (
                a[keep] for a in (act, lam, phi, size, z, H, g, hess, res))
            f = f.take(keep)
        damp = _DAMP * res * np.trace(hess, axis1=1, axis2=2) / k
        bound = (lam - lo <= np.minimum(res, 1e-3)[:, None]) & (g > 0)
        hess = np.where(bound[:, :, None] | bound[:, None, :], 0.0, hess)
        hess[:, diag, diag] += np.where(bound, 1.0, damp[:, None])
        d = _solve_newton(hess, g)
        gain = np.where(bound, 0.0, g * d).sum(axis=1)
        new = [lam.copy(), phi.copy(), size.copy(), z.copy(), H.copy()]
        left, t, fl = np.arange(len(lam)), 1.0, f
        while left.size and t > 1e-14:
            lt = np.maximum(lam[left] - t * d[left], lo)
            lt[:, 0] = np.maximum(lt[:, 0], _BALL_KEEP * lam[left, 0])
            trial = fl.point(lt)
            dec = t * gain[left] + np.where(
                bound[left], g[left] * (lam[left] - lt), 0.0).sum(axis=1)
            ok = trial[0] <= (phi[left] - _ARMIJO * dec
                              + 8.0 * eps * size[left])
            if ok.any():
                for into, a in zip(new, (lt, *trial)):
                    into[left[ok]] = a[ok]
                left = left[~ok]
                if left.size:
                    fl = fl.take(~ok)
            t *= 0.5
        lam, phi, size, z, H = new
        stuck = np.zeros(len(lam), dtype=bool)
        stuck[left] = True
        prev = res
    raise AssertionError("unreachable: the last step ends every entry")


def solve_ball_qcqp(p: QcqpProblem) -> QcqpResult:
    """Solve one unit-ball QCQP: solve_ball_qcqps on a batch of one."""
    return solve_ball_qcqps([p])[0]


def solve_ball_qcqps(problems: list) -> list:
    """Solve unit-ball QCQPs of one dimension and one constraint count,
    each through its dual (_BallDual, _dual_newton) in one stacked run;
    every entry's result is what it gets solved alone.

    An entry starts from its start, normalized as the dual is and with the
    ball's multiplier raised to at least _BALL_MIN, else from the ball-only
    optimum: where start is None, has a non-finite or negative value or a
    ball multiplier that is not positive, or gives phi = inf.

    Args:
        problems: The QcqpProblems, all of one dim() and constraint count
            (ValueError, naming the counts, otherwise), each start, if
            any, one multiplier longer than the constraints (ValueError
            otherwise).

    Returns:
        One QcqpResult per problem, in input order, with status "optimal"
        (v feasible and complementary to dual up to round-off),
        "infeasible" (certificate a floor under every point's largest
        normalized violation: that of a settled row, or the least over the
        ball of sum_{i>0} lam_i (row_i - b_i) / sum_{i>0} lam_i for the
        multipliers that show it) or "max_iter" (_MAX_NEWTON steps
        spent, or no step found).  dual holds the multipliers in the
        problem's own units, the ball's first, wherever Newton ran.
    """
    f = _BallDual(problems)
    B, k = f.b.shape
    lam = np.zeros((B, k))
    for j, p in enumerate(problems):
        if p.start is not None and f.c_norm[j] > 0:
            lam[j] = np.reshape(p.start, k) * f.s[j] / f.c_norm[j]
    bad = ~np.isfinite(lam).all(axis=1) | (lam < 0).any(axis=1) | (
        lam[:, 0] <= 0)
    lam[bad] = 0.0
    lam[:, 0] = np.where(bad, _COLD, np.maximum(lam[:, 0], _BALL_MIN))
    status = np.full(B, INFEASIBLE, dtype=object)
    steps = np.zeros(B, dtype=int)
    cert, z = f.cert.copy(), np.zeros(f.c_hat.shape)
    go = np.flatnonzero(np.isnan(cert))
    if go.size:
        fg = f if go.size == B else f.take(go)
        lam[go], z[go], status[go], steps[go] = _dual_newton(fg, lam[go])
        out = np.flatnonzero(status[go] == INFEASIBLE)
        if out.size:
            mu = lam[go[out], 1:]
            cert[go[out]] = fg.take(out).floor(mu) / mu.sum(axis=1)
    dual = lam * f.c_norm[:, None] / f.s
    opt = status == OPTIMAL
    return [QcqpResult(v=unembed_vector(z[j]) if opt[j] else None,
                       status=status[j], certificate=float(cert[j]),
                       objective=float(f.c_norm[j] * (f.c_hat[j] @ z[j])
                                       if opt[j] else np.nan),
                       newton_steps=int(steps[j]),
                       dual=None if np.isfinite(f.cert[j]) else dual[j])
            for j in range(B)]
