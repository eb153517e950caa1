"""Small dense convex kernels: a ball-constrained QCQP and a small SDP.

Both kernels run one textbook log-barrier interior-point routine,
`_barrier` (Boyd & Vandenberghe, Convex Optimization, sections 11.3-11.4),
sized for this package (vector dimension <= 8, matrix dimension <= 8).  It
works on an oracle for

    minimize c . x  subject to  x^T P_i x + q_i . x < b_i,  x inside a cone,

and centres c . x + mu * phi(x), phi the log barrier of the rows and the
cone, by damped Newton steps with a backtracking line search, for mu = 1,
0.1, 0.01, ... until the gap bound n_par * mu meets the tolerance.  n_par is
the total barrier parameter: the row count plus 1 for the QCQP's norm ball,
plus the matrix dimension for the SDP's PSD cone.

There is one oracle per kernel.  The QCQP oracle works in the real embedding
z = [Re v; Im v] of the complex vector v.  The SDP oracle works in nullspace
coordinates y of the equality constraints: the Hermitian matrix W has the
coefficient vector w = w_p + Z y in an orthonormal Hermitian basis
(dimension M^2).  Besides the cone, the two differ only in how tightly a
stage centres (half the squared Newton decrement down to 0.01 mu for the
QCQP, 0.125 mu for the SDP) and in the SDP's extra stop on the gap relative
to its objective.  Phase one is the same routine on a wrapper that adds a
slack s, minimizing s subject to row_i(x) <= s and keeping the cone barrier.
It stops as soon as every row holds strictly, or once its gap bound shows
that none can, which certifies infeasibility.

Problems are normalized before solving (unit objective norm, per-constraint
scale factors), which leaves the argmax unchanged and makes the barrier
schedule meaningful across the wide dynamic range of channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_MU_FACTOR = 0.1
_MAX_NEWTON = 200       # Newton steps per barrier stage
_MAX_STEPS = 25 * _MAX_NEWTON
_ARMIJO = 1e-4
_FEAS_MARGIN = 1e-10    # strict-interior margin on normalized constraints
_PHASE_ONE_TOL = 1e-10  # phase one gives up once its gap bound is this small


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
    try:
        return np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        reg = 1e-12 * (np.abs(np.trace(H)) / H.shape[0] + 1.0)
        return np.linalg.solve(H + reg * np.eye(H.shape[0]), -g)


# ---------------------------------------------------------------------------
# Barrier method
# ---------------------------------------------------------------------------

class _Oracle:
    """minimize c . x subject to x^T P_i x + Q_i . x < b_i, x inside a cone.

    The rows are the stacked arrays P (k, n, n), Q (k, n) and b (k,).  The
    duality gap at a mu-centre is at most n_par * mu.  A barrier stage stops
    centring once half the squared Newton decrement is at most
    max(center_tol * mu, center_floor); count_final is 1 where the Newton
    system that ends a stage counts as a step.  Subclasses supply the cone's
    barrier: cone(x) gives its value (inf outside the cone), cone_derivs(x)
    its value, gradient and Hessian.
    """

    center_floor = 0.0
    count_final = 0

    def __init__(self, c, P, Q, b, n_par):
        k, n = Q.shape
        self.c, self.P, self.Q, self.b = c, P, Q, b
        self.n_par = n_par
        self._P_rows = P.reshape(k * n, n)
        self._P_flat = P.reshape(k, n * n)

    def rows(self, x):
        """Row values minus b (all < 0 inside) and their gradients."""
        Px = (self._P_rows @ x).reshape(self.Q.shape)
        return Px @ x + self.Q @ x - self.b, self.Q + 2.0 * Px

    def value(self, x, mu):
        """c . x + mu * phi(x), or inf outside the strict domain."""
        g = self.rows(x)[0]
        if not (g < 0.0).all():
            return np.inf
        return self.c @ x + mu * (self.cone(x) - np.log(-g).sum())

    def derivs(self, x, mu):
        """Value, gradient and Hessian of c . x + mu * phi(x) at x inside."""
        g, G = self.rows(x)
        cv, cg, cH = self.cone_derivs(x)
        w = -1.0 / g
        val = self.c @ x + mu * (cv - np.log(-g).sum())
        grad = self.c + mu * (cg + G.T @ w)
        H = mu * (cH + (G.T * w ** 2) @ G
                  + 2.0 * (w @ self._P_flat).reshape(x.size, x.size))
        return val, grad, H

    def found(self, x):
        """Whether to end at once; only phase one ends before centring."""
        return False

    def stop(self, x, mu, tol):
        """Status to end with at the mu-centre x, None to go on."""
        return OPTIMAL if self.n_par * mu <= tol else None


def _barrier(f, x, tol):
    """Barrier method on oracle f from a strictly feasible x.

    Each stage centres f.value(., mu) by damped Newton steps with an Armijo
    backtracking line search, then asks f.stop whether to end; mu then
    shrinks by _MU_FACTOR.  The last stage, where n_par * mu reaches tol,
    centres to a decrement of 1e-16 (but not below f.center_floor) or a
    gradient norm of tol.

    Returns (x, status, mu, steps, first): first is the centre of the first
    stage, and status MAX_ITER once _MAX_STEPS Newton steps are spent.
    """
    mu, steps, first = 1.0, 0, None
    while True:
        last = f.n_par * mu * _MU_FACTOR <= tol
        for _ in range(_MAX_NEWTON):
            if f.found(x):
                return x, OPTIMAL, mu, steps, first
            val, grad, H = f.derivs(x, mu)
            if last and np.linalg.norm(grad) <= tol:
                break
            step = _solve_newton(H, grad)
            dec = -grad @ step
            if dec / 2.0 <= max(1e-16 if last else f.center_tol * mu,
                                f.center_floor):
                steps += f.count_final
                break
            steps += 1
            t = 1.0
            while t > 1e-14:
                xn = x + t * step
                if f.value(xn, mu) <= val - _ARMIJO * t * dec:
                    break
                t *= 0.5
            else:
                break
            x = xn
        if first is None:
            first = x
        status = f.stop(x, mu, tol)
        if status is None and steps >= _MAX_STEPS:
            status = MAX_ITER
        if status is not None:
            return x, status, mu, steps, first
        mu *= _MU_FACTOR


class _PhaseOne(_Oracle):
    """Phase one of oracle f on (x, s): minimize s subject to row_i(x) <= s.

    Keeps f's cone barrier.  It ends as soon as every row of f holds by
    _FEAS_MARGIN, and reports INFEASIBLE once a centre's gap bound keeps the
    least achievable s above 1e-9 or the gap falls to the tolerance.  Every
    stage centres to an absolute decrement of 1e-12, and every Newton system
    solved counts as a step.
    """

    center_tol = 0.0
    center_floor = 1e-12
    count_final = 1

    def __init__(self, f):
        k = f.b.size
        super().__init__(np.append(np.zeros(f.c.size), 1.0),
                         np.pad(f.P, ((0, 0), (0, 1), (0, 1))),
                         np.hstack([f.Q, -np.ones((k, 1))]), f.b, f.n_par)
        self.f = f

    def cone(self, xs):
        return self.f.cone(xs[:-1])

    def cone_derivs(self, xs):
        val, grad, H = self.f.cone_derivs(xs[:-1])
        Hs = np.zeros((xs.size, xs.size))
        Hs[:-1, :-1] = H
        return val, np.append(grad, 0.0), Hs

    def found(self, xs):
        return (self.f.rows(xs[:-1])[0] < -_FEAS_MARGIN).all()

    def stop(self, xs, mu, tol):
        if self.found(xs):
            return OPTIMAL
        if xs[-1] - self.n_par * mu > 1e-9 or self.n_par * mu <= tol:
            return INFEASIBLE
        return None


def _phase_one(f, x):
    """A start meeting every row of oracle f by _FEAS_MARGIN, found near x.

    f.into_cone(x) first moves x well inside the cone (None if it cannot).
    Returns (x, status, certificate, steps): status OPTIMAL when a start was
    found, else INFEASIBLE (or MAX_ITER) with the certificate holding the
    largest normalized row violation left at the phase-one optimum.
    """
    x = f.into_cone(x)
    if x is None:
        return None, INFEASIBLE, np.inf, 0
    g = f.rows(x)[0]
    if np.all(g < -_FEAS_MARGIN):
        return x, OPTIMAL, np.nan, 0
    xs, status, _mu, steps, _first = _barrier(
        _PhaseOne(f), np.append(x, np.max(g) + 0.5), _PHASE_ONE_TOL)
    x = xs[:-1]
    return x, status, float(np.max(f.rows(x)[0])), steps


# ---------------------------------------------------------------------------
# Ball-constrained QCQP
# ---------------------------------------------------------------------------

@dataclass
class QcqpProblem:
    """maximize Re(c^H v) subject to quadratic constraints and a norm ball.

    Each constraint is a triple (A, q, b) encoding

        v^H A v + 2 Re(q^H v) <= b,

    with A Hermitian PSD or None (no quadratic part) and q a complex vector
    or None (no linear part).  The ball ||v||^2 <= ball_radius is always
    present and makes the problem compact.
    """

    c: np.ndarray
    quad_constraints: list
    ball_radius: float = 1.0

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
    """The QCQP in z = [Re v; Im v], normalized: minimize -c_hat . z.

    Row i is z^T At z + qr . z <= b divided by its scale s_i, and the ball
    (z . z - r) / max(1, r) < 0 is the cone.
    """

    center_tol = 1e-2

    def __init__(self, p: QcqpProblem):
        n = 2 * p.dim()
        self.r = r = float(p.ball_radius)
        self.R = max(1.0, r)
        cr = embed_vector(p.c)
        self.c_norm = float(np.linalg.norm(cr))
        self.c_hat = cr / self.c_norm if self.c_norm > 0 else cr
        P, Q, b = [], [], []
        for A, q, bb in p.quad_constraints:
            At = embed_hermitian(A) if A is not None else np.zeros((n, n))
            qr = 2.0 * embed_vector(q) if q is not None else np.zeros(n)
            # A constant row (no quadratic or linear part) reads 0 <= b.
            # When b >= 0 it is vacuous but blocks *strict* feasibility in
            # phase one, so drop it; when b < 0 keep it and let phase one
            # certify.
            if (float(np.linalg.norm(At)) <= 1e-14
                    and float(np.linalg.norm(qr)) <= 1e-14
                    and float(bb) >= -1e-12):
                continue
            s = abs(float(bb))
            if A is not None:
                s = max(s, float(np.trace(np.asarray(A)).real) * r)
            s = max(s, float(np.linalg.norm(qr)) * np.sqrt(r), 1e-12)
            P.append(At / s)
            Q.append(qr / s)
            b.append(float(bb) / s)
        super().__init__(-self.c_hat, np.reshape(P, (-1, n, n)),
                         np.reshape(Q, (-1, n)), np.array(b), len(b) + 1)
        self.eye = np.eye(n)

    def ball(self, z):
        """Normalized ball value (< 0 strictly inside)."""
        return (z @ z - self.r) / self.R

    def cone(self, z):
        sb = -self.ball(z)
        return -np.log(sb) if sb > 0 else np.inf

    def cone_derivs(self, z):
        sb = -self.ball(z)
        u = 1.0 / (sb * self.R)
        return (-np.log(sb), 2.0 * u * z,
                2.0 * u * self.eye + 4.0 * u * u * (z[:, None] * z))

    def into_cone(self, z):
        """z, pulled in to half the ball's radius when near its boundary."""
        if z @ z >= 0.9 * self.r:
            z = z * np.sqrt(0.5 * self.r / (z @ z))
        return z


def solve_ball_qcqp(p: QcqpProblem, tol: float = 1e-8,
                    v0: Optional[np.ndarray] = None) -> QcqpResult:
    """Solve the ball-constrained QCQP by a log-barrier interior method.

    Args:
        p: Problem data.
        tol: Duality-gap and stationarity target on the internally
            normalized problem (so effectively relative for the original).
        v0: Optional warm-start vector (complex); pulled into the strictly
            feasible region by phase one if necessary.

    Returns:
        QcqpResult with status "optimal", "infeasible" (certificate holds
        the max violation, in normalized units, at the phase-one optimum)
        or "max_iter".
    """
    if p.ball_radius <= 0:
        raise ValueError("ball_radius must be positive")
    f = _BallQcqp(p)
    z = np.zeros(f.c.size) if v0 is None else embed_vector(v0)
    z, status, cert, steps = _phase_one(f, z)
    if status != OPTIMAL:
        return QcqpResult(v=None, status=status, certificate=cert,
                          newton_steps=steps)
    z, status, _mu, main_steps, _first = _barrier(f, z, tol)
    return QcqpResult(v=unembed_vector(z), status=status,
                      objective=float(f.c_norm * (f.c_hat @ z)),
                      newton_steps=steps + main_steps)


def qcqp_max_violation(p: QcqpProblem, v: np.ndarray) -> float:
    """Largest normalized constraint violation of v (negative if interior)."""
    f = _BallQcqp(p)
    z = embed_vector(v)
    g = f.rows(z)[0]
    return float(max(f.ball(z), np.max(g) if g.size else -np.inf))


# ---------------------------------------------------------------------------
# Small dense SDP
# ---------------------------------------------------------------------------

@dataclass
class SdpProblem:
    """maximize Tr(C W) s.t. Tr(A W) = b, Tr(A W) <= b, W PSD.

    eq_constraints and ineq_constraints are lists of (A, b) pairs with A
    Hermitian; inequalities are in <= form (flip signs for >=).
    """

    C: np.ndarray
    dim: int
    eq_constraints: list = field(default_factory=list)
    ineq_constraints: list = field(default_factory=list)


@dataclass
class SdpResult:
    W: Optional[np.ndarray]
    status: str
    objective: float = np.nan
    gap: float = np.nan           # duality-gap bound, original units
    certificate: float = np.nan
    newton_steps: int = 0
    # Well-centered interior iterate (first barrier stage).  Unlike W it has
    # healthy slack on binding constraints, so it is the right warm start for
    # a re-solve with a perturbed objective and unchanged constraints.
    center: Optional[np.ndarray] = None


@lru_cache(maxsize=16)
def _herm_basis(m: int) -> np.ndarray:
    """Orthonormal basis of m x m Hermitian matrices as an (m^2, m^2) matrix.

    Row a is basis matrix B_a flattened row-major, so svec(A) = Re Tr(B_a A)
    and smat(w) = sum_a w_a B_a are products with it.
    """
    mats = []
    for i in range(m):
        E = np.zeros((m, m), dtype=complex)
        E[i, i] = 1.0
        mats.append(E)
    s = 1.0 / np.sqrt(2.0)
    for i in range(m):
        for j in range(i + 1, m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = s
            E[j, i] = s
            mats.append(E)
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = 1j * s
            E[j, i] = -1j * s
            mats.append(E)
    U = np.stack(mats).reshape(m * m, m * m)
    U.setflags(write=False)
    return U


def svec(A: np.ndarray) -> np.ndarray:
    """Coefficients of Hermitian A in the orthonormal basis (real vector)."""
    A = np.asarray(A, dtype=complex)
    return (_herm_basis(A.shape[0]) @ A.T.ravel()).real


def smat(w: np.ndarray, m: int) -> np.ndarray:
    """Inverse of svec."""
    return (np.asarray(w, dtype=float) @ _herm_basis(m)).reshape(m, m)


def _chol_pd(W: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(W)
        return True
    except np.linalg.LinAlgError:
        return False


def _sdp_affine(p: SdpProblem):
    """Particular solution w_p and nullspace Z of the equality constraints."""
    m = p.dim
    n = m * m
    if not p.eq_constraints:
        return np.zeros(n), np.eye(n)
    E = np.stack([svec(A) for A, _ in p.eq_constraints])
    b = np.array([float(bb) for _, bb in p.eq_constraints])
    wp, *_ = np.linalg.lstsq(E, b, rcond=None)
    if np.linalg.norm(E @ wp - b) > 1e-9 * max(1.0, np.linalg.norm(b)):
        return None, None  # inconsistent equalities
    _u, sv, vt = np.linalg.svd(E)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)))
    Z = vt[rank:].T
    return wp, Z


class _Sdp(_Oracle):
    """The SDP in nullspace coordinates y, w = w_p + Z y: min -c_hat . w.

    Rows are the inequalities a . w <= b divided by their scales, and the
    PSD cone's barrier is -log det W.  Its Hessian
    H_ab = Re Tr(W^-1 B_a W^-1 B_b) is U K U^H in closed form, with U the
    basis matrix and K[(j,k),(p,q)] = (W^-1)_pj (W^-1)_kq; Z is folded into U.
    """

    center_tol = 0.125

    def __init__(self, p: SdpProblem, wp, Z, ineqs):
        """ineqs holds (svec(A), b) for the rows Tr(A W) <= b."""
        m, n = p.dim, Z.shape[1]
        c_w = svec(np.asarray(p.C, dtype=complex))
        self.c_norm = float(np.linalg.norm(c_w))
        self.c_hat = c_w / self.c_norm if self.c_norm > 0 else c_w
        scales = [max(abs(b), float(np.linalg.norm(a)), 1e-12)
                  for a, b in ineqs]
        a_mat = np.reshape([a / s for (a, _b), s in zip(ineqs, scales)],
                           (-1, m * m))
        b_vec = np.array([b / s for (_a, b), s in zip(ineqs, scales)])
        super().__init__(-(Z.T @ self.c_hat), np.zeros((len(ineqs), n, n)),
                         a_mat @ Z, b_vec - a_mat @ wp, len(ineqs) + m)
        self.m, self.wp, self.Z = m, wp, Z
        self.UZ = Z.T @ _herm_basis(m)
        self.UZh = self.UZ.conj().T
        self.Wp = wp @ _herm_basis(m)
        self.y_eye = Z.T @ (svec(np.eye(m) / m) - wp)   # W = I / m

    def objective(self, y):
        """Tr(C W) in original units."""
        return float(self.c_norm * (self.c_hat @ (self.wp + self.Z @ y)))

    def matrix(self, y):
        """W = smat(w_p + Z y), with w_p and Z folded into the basis."""
        return (self.Wp + y @ self.UZ).reshape(self.m, self.m)

    def cone(self, y):
        try:
            L = np.linalg.cholesky(self.matrix(y))
        except np.linalg.LinAlgError:
            return np.inf
        return -2.0 * np.sum(np.log(L.diagonal().real))

    def cone_derivs(self, y):
        W = self.matrix(y)
        L = np.linalg.cholesky(W)
        Winv = np.linalg.inv(W)
        m2 = self.m * self.m
        K = (Winv.T[:, None, :, None] * Winv[None, :, None, :]).reshape(m2,
                                                                         m2)
        return (-2.0 * np.sum(np.log(L.diagonal().real)),
                -(self.UZ @ Winv.T.ravel()).real,
                (self.UZ @ K @ self.UZh).real)

    def into_cone(self, y):
        """y if W is safely positive definite, else the point W = I / m."""
        eye = np.eye(self.m)
        if _chol_pd(self.matrix(y) - 1e-12 * eye):
            return y
        y = self.y_eye
        return y if _chol_pd(self.matrix(y) - 1e-14 * eye) else None

    def stop(self, y, mu, tol):
        """Also meets tol relative to the objective, in original units."""
        gap = self.n_par * mu * max(self.c_norm, 1.0)
        if self.n_par * mu <= tol and (
                gap <= tol * max(1.0, abs(self.objective(y))) or mu <= 1e-13):
            return OPTIMAL
        return None


def solve_small_sdp(p: SdpProblem, tol: float = 1e-8,
                    W0: Optional[np.ndarray] = None) -> SdpResult:
    """Solve the small SDP by a log-barrier interior method.

    Args:
        p: Problem data (objective maximized).
        tol: Relative duality-gap target.
        W0: Optional warm-start matrix; nudged toward the identity to regain
            strict feasibility.

    Returns:
        SdpResult; gap is the barrier bound in original objective units,
        certificate the phase-one max violation (normalized) when
        infeasible.
    """
    wp, Z = _sdp_affine(p)
    if wp is None:
        return SdpResult(W=None, status=INFEASIBLE, certificate=np.inf)
    # A row with A ~ 0 reads 0 <= b: vacuous when b >= 0, impossible when
    # b < 0.  Either way phase one could never reach *strict* feasibility
    # on it, so settle such rows here instead of handing them to the
    # barrier.
    ineqs = []
    for A, b in p.ineq_constraints:
        a, b = svec(A), float(b)
        if float(np.linalg.norm(a)) <= 1e-14 * max(1.0, abs(b)):
            if b < -1e-12:
                return SdpResult(W=None, status=INFEASIBLE,
                                 certificate=-b / max(abs(b), 1e-12))
            continue
        ineqs.append((a, b))
    f = _Sdp(p, wp, Z, ineqs)

    if Z.shape[1] == 0:
        # Fully determined by the equalities (e.g. M = 1 with Tr W = 1).
        y = np.zeros(0)
        W = f.matrix(y)
        worst = max(float(np.max(f.rows(y)[0], initial=-np.inf)),
                    -float(np.linalg.eigvalsh(W)[0]))
        if worst > 1e-9:
            return SdpResult(W=None, status=INFEASIBLE, certificate=worst)
        return SdpResult(W=W, status=OPTIMAL, objective=f.objective(y),
                         gap=0.0, center=W)

    y = f.y_eye
    if W0 is not None:
        # Prefer the caller's point as-is; blends toward the identity can
        # cross a binding inequality and force a fresh phase-one run.
        y0 = Z.T @ (svec(W0) - wp)
        inside = (np.isfinite(f.cone(y0))
                  and np.all(f.rows(y0)[0] < -_FEAS_MARGIN))
        y = y0 if inside else 0.98 * y0 + 0.02 * y
    y, status, cert, steps = _phase_one(f, y)
    if status != OPTIMAL:
        return SdpResult(W=None, status=status, certificate=cert,
                         newton_steps=steps)
    y, status, mu, main_steps, first = _barrier(f, y, tol)
    W, Wc = f.matrix(y), f.matrix(first)
    return SdpResult(W=0.5 * (W + W.conj().T),   # clear embedding round-off
                     status=status, objective=f.objective(y),
                     gap=float(f.n_par * mu * max(f.c_norm, 1.0)),
                     newton_steps=steps + main_steps,
                     center=0.5 * (Wc + Wc.conj().T))


def sdp_max_violation(p: SdpProblem, W: np.ndarray) -> float:
    """Largest normalized violation over equalities, inequalities, the cone."""
    W = np.asarray(W, dtype=complex)
    worst = -np.inf
    for A, b in p.eq_constraints:
        worst = max(worst, abs(float(np.trace(A @ W).real) - b)
                    / max(1.0, abs(b)))
    for A, b in p.ineq_constraints:
        s = max(abs(float(b)), float(np.linalg.norm(svec(A))), 1e-12)
        worst = max(worst, (float(np.trace(A @ W).real) - b) / s)
    lam_min = float(np.linalg.eigvalsh(W)[0])
    return max(worst, -lam_min)
