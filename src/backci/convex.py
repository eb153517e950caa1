"""Small dense convex kernels: a small SDP, and the helpers the QCQP kernel
(the module qcqp, which describes it) shares with it.

`solve_sdp_batch(C, row_sets)` solves trace-one SDPs, the lifts W = v v^H
of the evolved design: maximize Tr(C W) subject to Tr W = 1, rows
Tr(A W) <= b and W PSD.  Those of three rows that are 2 x 2, or 3 x 3 and
block diagonal, are solved exactly, as Lorentz-cone programs in four
coordinates (_block_sdps, and the module lorentz).  The others run a
log-barrier interior-point method (Boyd & Vandenberghe, Convex
Optimization, sections 11.3-11.4) on an oracle in coordinates of the
unit-trace plane, with -log det W as the cone's barrier (_Sdp): phase one,
then the main stage, each a loop of mu stages (_solve, _barrier,
_centre).  OPTIMAL, INFEASIBLE and NO_INTERIOR come only from a centre,
and an entry still centring after a stage's _MAX_NEWTON Newton steps ends
MAX_ITER.

Both kernels take one row count per call (ValueError otherwise), and
settle every row that x cannot move before any Newton step (_settle): it
becomes padding when it holds, and makes its entry INFEASIBLE, with a
certificate, when it fails.  Both are batch-invariant: an entry's result
does not depend on what else is in the stack, because no product mixes
rows of the stack in one GEMM, so beamforming.lockstep stacks many tags'
subproblems into one call.  `solve_small_sdp` and qcqp.solve_ball_qcqp
solve one problem, as a batch of one.  Problems are normalized before
solving (unit objective norm, per-row scales), which leaves the argmax
unchanged and makes the tolerances meaningful across the wide dynamic
range of channel realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import lorentz

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NO_INTERIOR = "no_interior"
MAX_ITER = "max_iter"

_MU_FACTOR = 0.1
_MAX_NEWTON = 200       # Newton steps per barrier stage, and per QCQP
_ARMIJO = 1e-4
_FEAS_MARGIN = 1e-10    # strict-interior margin on normalized constraints
_PHASE_ONE_TOL = 1e-10  # phase one gives up once its gap bound is this small
_TOL = 1e-8             # duality-gap target, on the normalized problem
_STALL = 1e-14          # last stage: a decrement this small that no longer
                        # halves is at the round-off floor
_CENTRE = 0.125         # a stage is centred once dec / 2 <= _CENTRE * mu
# At a point so centred the Newton decrement of c . x / mu + phi is at most
# 1/2, and its gap is at most mu (nu + sqrt(nu) + 1/2) for a barrier of
# parameter nu = n_par (Nesterov, Introductory Lectures on Convex
# Optimization, Thm 4.2.7; Renegar, A Mathematical View of Interior-Point
# Methods, section 2.4).  That is below _KAPPA nu mu for nu >= 2, which
# every SDP with a plane to move in has (m >= 2); at m = 1 the plane is a
# point, and the gap 0.
_KAPPA = 2.0


# ---------------------------------------------------------------------------
# Complex -> real embeddings
# ---------------------------------------------------------------------------

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


def _logdet(W):
    """log det of each Hermitian matrix in the stack W, nan where one is not
    positive definite (_cholesky)."""
    L = _cholesky(W)
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
    the row arrived in, and s its scale.  A row is settled when its x-part
    is negligible against its entry's row set: size <= 1e-14 S, with S the
    largest scale s among the entry's rows.  It then reads 0 <= b, so it
    holds unless b < -1e-12 S, and if it holds it would only block phase
    one's strict feasibility.  The rule is relative, so rows that all
    scale by one factor settle alike whatever the factor.  Returns
    (settled, cert): settled (B, k) marks those rows, which the oracle
    turns into padding rows 0 . x < 1; cert (B,) is the largest normalized
    violation -b / s among an entry's settled rows that fail, nan where
    none fails.
    """
    S = s.max(axis=1, keepdims=True, initial=0.0)
    settled = size <= 1e-14 * S
    if not settled.any():
        return settled, np.full(len(b), np.nan)
    fails = settled & (b < -1e-12 * S)
    cert = np.fmax.reduce(np.where(fails, -b / s, np.nan), axis=1,
                          initial=np.nan)
    return settled, cert


# ---------------------------------------------------------------------------
# Barrier method
# ---------------------------------------------------------------------------

class _Oracle:
    """minimize c . x subject to Q_i . x < b_i, x inside a cone.

    A batch of B problems over x of one size n: c (B, n), the rows Q
    (B, k, n) and b (B, k), with slack (B, k) marking the rows phase one
    relaxes: every row that is not padding.  The duality gap at a
    mu-centre is at most n_par (B,) * mu.  A subclass supplies its cone's
    barrier in three parts: cone_parts(x), what the
    other two need of x (a tuple of per-entry arrays); cone_value(parts),
    its value (nan outside the cone); and cone_derivs(x, parts), its value,
    gradient and Hessian in the leading coordinates of x, which derivs adds
    to.  evaluate(x, mu) gives the value and what derivs needs of x, and
    derivs(x, mu, at) takes that from it; _line_search leaves it in
    accepted for the points it accepts.  take(idx) gives the oracle of the
    entries idx; _batched names the per-entry arrays it selects.  A kernel
    oracle also sets cert (B,) from _settle: the certificate of an entry
    that a settled row makes infeasible, nan for the others.  Every oracle
    centres by the one rule of _centre.
    """

    cert = None
    _batched = frozenset(("c", "Q", "b", "slack", "n_par", "cert"))

    def __init__(self, c, Q, b, slack, n_par):
        self.c, self.Q, self.b = c, Q, b
        self.slack, self.n_par = slack, n_par

    def take(self, idx):
        f = object.__new__(type(self))
        batched = self._batched
        f.__dict__ = {k: a[idx] if k in batched else a
                      for k, a in self.__dict__.items()}
        return f

    def rows(self, x):
        """Row values minus b, all < 0 inside."""
        return np.matvec(self.Q, x) - self.b

    def evaluate(self, x, mu):
        """c . x + mu * phi(x), and what derivs needs of x: the tuple of the
        row values (rows) and, where some entry is inside its rows, the
        cone's parts.  Outside the strict domain the value is inf or nan,
        which no comparison holds with, and the logarithms warn unless the
        caller silences them, as _barrier does.
        """
        g = self.rows(x)
        phi = -np.add.reduce(np.log(-g), axis=1)
        if not np.isfinite(phi).any():
            return np.vecdot(self.c, x) + mu * phi, (g,)
        parts = self.cone_parts(x)
        phi = phi + self.cone_value(parts)
        return np.vecdot(self.c, x) + mu * phi, (g, *parts)

    def derivs(self, x, mu, at=None):
        """Value, gradient and Hessian of c . x + mu * phi(x) at x inside;
        at, when given, is what evaluate found at x."""
        if at is None:
            g, parts = self.rows(x), None
        else:
            g, *parts = at
        G = self.Q          # the row gradients
        w = -1.0 / g
        GT = G.swapaxes(1, 2)
        phi = -np.add.reduce(np.log(-g), axis=1)
        grad = np.matvec(GT, w)
        H = (GT * (w ** 2)[:, None, :]) @ G
        cv, cg, cH = self.cone_derivs(x, parts)
        nc = cg.shape[1]
        phi, grad[:, :nc] = phi + cv, grad[:, :nc] + cg
        H[:, :nc, :nc] += cH
        H *= mu
        return np.vecdot(self.c, x) + mu * phi, self.c + mu * grad, H

    def found(self, x):
        """Where to end at once (None: nowhere); only phase one does."""
        return None

    def stop(self, x, mu, tol, centred):
        """Status to end with at the mu-centre x, None to go on; centred
        marks the entries whose Newton decrement met the _CENTRE test."""
        return np.where(self.n_par * mu <= tol, OPTIMAL, None)


def _barrier(f, x, tol):
    """Barrier method on batch oracle f from strictly feasible starts x.

    For mu = 1, 0.1, 0.01, ... each stage centres the live entries
    (_centre), then asks f.stop which of them end; the rest go on to the
    next mu.  An entry still centring after the stage's _MAX_NEWTON Newton
    steps ends MAX_ITER there, as f.stop's gap bound holds only at a
    centre; f.stop judges one whose line search failed, and is told which
    entries met the _CENTRE test.

    Returns (x, status, mu, steps), one row or value per entry: mu of the
    stage it ended in, and steps the Newton steps it tried.
    """
    # Trial points outside the domain make evaluate() take logs of
    # non-positive numbers; the nan or inf then fails the Armijo test.
    with np.errstate(invalid="ignore", divide="ignore"):
        xl = np.array(x, dtype=float)       # the live entries' points
        B = len(xl)
        x, steps = np.empty_like(xl), np.zeros(B, dtype=int)
        status = np.full(B, None, dtype=object)
        mu_end = np.zeros(B)
        live, sl, mu = np.arange(B), steps.copy(), 1.0
        while True:
            xl, n, capped, centred = _centre(f, xl, mu, tol)
            sl += n
            st = f.stop(xl, mu, tol, centred)
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
    """One barrier stage: centre each entry of x on c . x + mu * phi(x).

    Damped Newton steps, each one _line_search, until half the squared
    Newton decrement is at most _CENTRE * mu; in the last two stages, where
    the entry's n_par * mu * _MU_FACTOR reaches tol, to 1e-16, or until a
    decrement below _STALL no longer halves in a step.  Near the centre
    Newton converges quadratically, so a step that still gains more than
    halves the decrement; one that does not is at the round-off floor
    (Boyd & Vandenberghe, section 9.5).
    In every stage but the first (mu < 1), the first step starts its line
    search at t = _MU_FACTOR: from the last stage's centre the new Newton
    step is 1 / _MU_FACTOR times the central path's tangent step to the new
    mu, so that trial is the path's first-order extrapolation (the
    predictor).  Each Newton step after the first reuses what the line
    search evaluated at the point it accepted.
    f.found ends an entry's stage at once, so f.stop must then end it.  An
    entry leaves the stacked arrays once it is centred or its line search
    fails; either ends only its own stage.

    Returns the points, x updated in place, the Newton steps each entry
    tried (k for an entry centred at Newton iteration k, k + 1 for one
    whose line search failed there, and _MAX_NEWTON for one still centring
    at the end), a mask of the entries still centring at the end, and a
    mask of those whose point has dec / 2 <= _CENTRE * mu (_KAPPA's bound).
    """
    steps = np.full(len(x), _MAX_NEWTON)
    capped = np.zeros(len(x), dtype=bool)
    centred = np.zeros(len(x), dtype=bool)
    act, xa, at = np.arange(len(x)), x, None   # the entries still centring
    last = f.n_par * mu * _MU_FACTOR <= tol
    floor2 = 2.0 * np.where(last, 1e-16, _CENTRE * mu)
    any_last, prev = np.count_nonzero(last), np.inf
    for k in range(_MAX_NEWTON):
        hit = f.found(xa)
        val, grad, H = f.derivs(xa, mu, at)
        d = _solve_newton(H, grad)        # the Newton step is -d
        dec = np.vecdot(grad, d)
        done = dec <= floor2
        if any_last:
            done |= last & (dec >= 0.5 * prev) & (dec <= 2.0 * _STALL)
        if hit is not None:     # phase one's stop then ends them
            done |= hit
        n_done = np.count_nonzero(done)
        if n_done:
            out = act[done]
            x[out], steps[out] = xa[done], k
            centred[out] = dec[done] <= 2.0 * _CENTRE * mu
            if n_done == len(done):
                return x, steps, capped, centred
            keep = ~done
            act, xa, val, d, dec, last, floor2 = (
                a[keep] for a in (act, xa, val, d, dec, last, floor2))
            at = _take_rows(at, keep)
            f = f.take(keep)
        if k == 0 and mu < 1.0:         # the stage predictor
            xa, failed = _line_search(f, xa, _MU_FACTOR * d, val,
                                      _MU_FACTOR * dec, mu)
        else:
            xa, failed = _line_search(f, xa, d, val, dec, mu)
        at, f.accepted = f.accepted, None
        n_failed = np.count_nonzero(failed)
        if n_failed:
            out = act[failed]
            x[out], steps[out] = xa[failed], k + 1
            if n_failed == len(failed):
                return x, steps, capped, centred
            keep = ~failed
            act, xa, dec, last, floor2 = (
                a[keep] for a in (act, xa, dec, last, floor2))
            at = _take_rows(at, keep)
            f = f.take(keep)
        prev = dec
    x[act] = xa
    capped[act] = True
    return x, steps, capped, centred


def _take_rows(arrays, idx):
    """Rows idx of each array of a tuple, or None."""
    return None if arrays is None else tuple(a[idx] for a in arrays)


def _line_search(f, x, d, val, dec, mu):
    """Masked Armijo backtracking from each x along -d.

    Every entry tries t = 1, 1/2, ... until it accepts a step; xp, dp and
    ap hold x, t d and t _ARMIJO dec for the entries still searching, at
    the positions left (None while no entry has accepted).  Returns the
    points with the accepted steps, and a mask of the entries that found
    none before t fell to 1e-14.  It sets f.accepted to what f.evaluate
    found at the accepted points, for the next f.derivs there: None when
    every entry failed, and a failed entry's rows are left unset.
    """
    fp, xp, dp, vp, ap = f, x, d, val, _ARMIJO * dec
    left, t = None, 1.0
    while t > 1e-14:
        xn = xp - dp
        vn, at = fp.evaluate(xn, mu)
        ok = vn <= vp - ap
        if ok.any():
            if left is None:
                if ok.all():        # every entry takes this trial
                    f.accepted = at
                    return xn, ~ok
                x, left = x.copy(), np.arange(len(x))
                acc = tuple(np.empty((len(x),) + a.shape[1:], a.dtype)
                            for a in at)
            idx = left[ok]
            x[idx] = xn[ok]
            for into, a in zip(acc, at):
                into[idx] = a[ok]
            rest = ~ok
            left = left[rest]
            if not left.size:
                break
            fp, xp, dp, vp, ap = (fp.take(rest), xp[rest], dp[rest],
                                  vp[rest], ap[rest])
        t, dp, ap = 0.5 * t, 0.5 * dp, 0.5 * ap
    if left is None:                # no entry accepted a step
        f.accepted = None
        return x, np.ones(len(x), dtype=bool)
    failed = np.zeros(len(x), dtype=bool)
    failed[left] = True
    f.accepted = acc
    return x, failed


class _PhaseOne(_Oracle):
    """Phase one of oracle f on (x, s): minimize s subject to row_i(x) <= s.

    Only f's slack rows get the slack s: padding rows keep reading 0 < 1,
    and f's cone keeps its barrier.  An entry ends as soon
    as every slack row of f holds by _FEAS_MARGIN, and reports INFEASIBLE
    once the gap bound of a point centred to _CENTRE, _KAPPA * n_par * mu,
    keeps the least achievable s above 1e-9; an uncentred point, or one
    whose line search failed, carries no bound and goes on.  An
    entry whose gap falls to the tolerance with s still within it of 0
    ends NO_INTERIOR: its rows may be met, but none strictly, as on a face
    of the cone, and nothing certifies that they cannot be.
    """

    def __init__(self, f):
        B, _k, n = f.Q.shape
        c = np.zeros((B, n + 1))
        c[:, -1] = 1.0
        s_col = -f.slack[..., None].astype(float)
        super().__init__(c, np.concatenate([f.Q, s_col], axis=2), f.b,
                         f.slack, f.n_par)
        self.f = f

    def take(self, idx):
        g = super().take(idx)
        g.f = self.f.take(idx)
        return g

    def cone_parts(self, xs):
        return self.f.cone_parts(xs[:, :-1])

    def cone_value(self, parts):
        return self.f.cone_value(parts)

    def cone_derivs(self, xs, parts=None):
        return self.f.cone_derivs(xs[:, :-1], parts)

    def found(self, xs):
        return np.logical_and.reduce(
            (self.f.rows(xs[:, :-1]) < -_FEAS_MARGIN) | ~self.slack,
            axis=1)

    def stop(self, xs, mu, tol, centred):
        gap = self.n_par * mu
        return np.where(
            self.found(xs), OPTIMAL,
            np.where(centred & (xs[:, -1] - _KAPPA * gap > 1e-9), INFEASIBLE,
                     np.where(gap <= tol, NO_INTERIOR, None)))


def _solve(f, x):
    """Phase one, then the barrier method, on batch oracle f from starts x.

    Each start must lie strictly inside f's cone.  An entry with a
    certificate from _settle (f.cert) ends at once, INFEASIBLE; phase one
    runs for the others whose start misses a row by _FEAS_MARGIN, and the
    main stage for all that then meet every row.

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
    g = np.where(f.slack, f.rows(x), -np.inf)
    need = np.flatnonzero(ok & (g.max(axis=1, initial=-np.inf)
                                >= -_FEAS_MARGIN))
    if need.size:
        fn = f if need.size == B else f.take(need)
        xs = np.concatenate([x[need], g[need].max(axis=1)[:, None] + 0.5],
                            axis=1)
        xs, status[need], _mu, steps[need] = _barrier(
            _PhaseOne(fn), xs, _PHASE_ONE_TOL)
        x[need] = xs[:, :-1]
        cert[need] = np.where(fn.slack, fn.rows(x[need]), -np.inf).max(
            axis=1)
    go = np.flatnonzero(status == OPTIMAL)
    if go.size:
        x[go], status[go], mu[go], main = _barrier(
            f if go.size == B else f.take(go), x[go], _TOL)
        steps[go] += main
    return x, status, cert, steps, mu


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
    gap: float = np.nan           # optimum - objective bound, original units
    certificate: float = np.nan
    newton_steps: int = 0
    dual: Optional[np.ndarray] = None   # the rows' multipliers (_block_sdps)


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


_BLOCK = 5      # at m = 3, B_0 ... B_4 span the matrices diag(W_s, w_out)


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


def _objectives(C, B) -> np.ndarray:
    """C as B objectives (B, m, m): one m x m objective shared, or one per
    entry; ValueError for any other count."""
    C = np.asarray(C, dtype=complex)
    if C.ndim == 3 and len(C) not in (1, B):
        raise ValueError(f"{len(C)} objectives for {B} row sets: give "
                         f"one, or one per row set")
    return np.broadcast_to(C, (B,) + C.shape[-2:])


def _stack_rows(row_sets, m) -> tuple:
    """Every entry's rows (A, b), Tr(A W) <= b, as stacks: a = svec(A)
    (B, k, m^2) and b (B, k).  ValueError when the row counts differ, or
    when a row's matrix is not m x m, the objective's size."""
    B = len(row_sets)
    k = _one_row_count(map(len, row_sets))
    A = np.array([[a for a, _b in e] for e in row_sets], dtype=complex)
    if k and A.shape[2:] != (m, m):
        raise ValueError(f"the objective is {m} x {m}, the rows are "
                         + " x ".join(map(str, A.shape[2:])))
    b = np.array([[b for _a, b in e] for e in row_sets], dtype=float)
    return svec(A.reshape(B, k, m, m)), b.reshape(B, k)


def _block_diagonal(c, a) -> np.ndarray:
    """Which entries _block_sdps solves: three rows, and a 2 x 2 objective,
    or a 3 x 3 one that with the rows is block diagonal, diag(W_s, w_out),
    with no coordinate on B_5 ... B_8, the basis matrices of the entries
    (0, 2) and (1, 2).  c = svec(C) (B, m^2) and a (B, k, m^2)."""
    if a.shape[1] != 3 or c.shape[-1] not in (4, 9):
        return np.zeros(len(c), dtype=bool)
    return ~(c[:, _BLOCK:].any(axis=1) | a[..., _BLOCK:].any(axis=(1, 2)))


class _Sdp(_Oracle):
    """Trace-one SDPs, one objective C_j per entry, in coordinates y of the
    plane Tr W = 1, w = w_p + Z y: min -c_hat_j . w.

    Rows are each entry's inequalities a . w <= b, a = svec(A), divided by
    their scales.  On the plane a row reads (Z^T a) . y <= b - a . w_p, and
    _settle judges it by those two parts, in the units it arrived in, so at
    m = 1 (no y) every row is settled.  The PSD cone's barrier is
    -log det W.  Its gradient is -Z^T x and its Hessian H_ab = Tr(X B_a X
    B_b), with X = W^-1 and x = svec(X): at every m, H = U K U^H, with U
    the basis matrix, Z folded in, and K[(j,k),(p,q)] = X_pj X_kq.  Every
    product that involves the shared plane is each entry's own (np.matvec,
    or one matmul per matrix of the stack), so an entry's arithmetic does
    not depend on what else is in the stack.
    """

    _batched = _Oracle._batched | {"c_norm", "c_hat"}

    def __init__(self, c_w, a, b):
        """c_w (B, m^2) is each entry's objective svec(C_j); a (B, k, m^2)
        and b (B, k) are its rows svec(A) . w <= b (_stack_rows), and both
        arrays are the oracle's to scale in place."""
        self.m = m = math.isqrt(c_w.shape[1])
        self.wp, self.Z, self.UZ, self.Wp = _trace_one(m)
        self.c_norm = np.sqrt(np.vecdot(c_w, c_w))
        self.c_hat = np.divide(c_w, self.c_norm[:, None], out=c_w,
                               where=self.c_norm[:, None] > 0)
        s = np.maximum(np.maximum(np.abs(b), np.sqrt(np.vecdot(a, a))),
                       1e-12)
        # Settled on the plane: Z^T a moves the row, b - a . wp is the rest.
        Za = np.matvec(self.Z.T, a)
        settled, self.cert = _settle(np.sqrt(np.vecdot(Za, Za)),
                                     b - np.vecdot(a, self.wp), s)
        keep = ~settled
        a /= s[..., None]               # scaled before it is projected
        super().__init__(-np.matvec(self.Z.T, self.c_hat),
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

    def cone_parts(self, y):
        """W, and log det W (nan where W is not positive definite)."""
        W = self.matrix(y)
        return W, _logdet(W)

    @staticmethod
    def cone_value(parts):
        """-log det W, nan where W is not positive definite."""
        return -parts[1]

    def cone_derivs(self, y, parts=None):
        W, logdet = self.cone_parts(y) if parts is None else parts
        X = np.linalg.inv(W)
        x = svec(X)
        B, m = len(W), self.m
        K = (X.swapaxes(1, 2)[:, :, None, :, None] * X[:, None, :, None, :]
             ).reshape(B, m * m, m * m)
        H = (self.UZ @ K @ self.UZ.conj().T).real
        return -logdet, -np.matvec(self.Z.T, x), H

    def stop(self, y, mu, tol, centred):
        """Also meets tol relative to the objective, in original units."""
        gap = self.n_par * mu * np.maximum(self.c_norm, 1.0)
        done = (self.n_par * mu <= tol) & (
            (gap <= tol * np.maximum(1.0, np.abs(self.objective(y))))
            | (mu <= 1e-13))
        return np.where(done, OPTIMAL, None)


# ---------------------------------------------------------------------------
# The block relaxations, exactly (lorentz)
# ---------------------------------------------------------------------------

def _block_sdps(c, a, b, m) -> list:
    """The SdpResults of trace-one SDPs of three rows whose objective and
    rows are 2 x 2 (m = 2), or block diagonal, diag(W_s, w_out) with W_s
    2 x 2 (m = 3), found exactly by the module lorentz.

    In z = (tau, x) (lorentz.coordinates), with w_out = 1 - tau, each row is
    a halfspace, normalized as _Sdp's rows are and settled by _settle on
    what z can move, and tau <= 1 is a fourth.  An entry for which
    lorentz.maximize finds a point ends OPTIMAL, with W exact (lorentz.lift:
    rank one where the cone binds) and dual the rows' multipliers y >= 0
    (lorentz.kkt): gap is sum_i y_i b_i + lambda_max(C - sum_i y_i A_i) -
    objective, which bounds the optimum for any such y.  The others run
    phase one (lorentz.phase_one); its dual y >= 0, with sum_i y_i s_i = 1,
    certifies -(sum_i y_i b_i + lambda_max(-sum_i y_i A_i)) as a floor under
    every W's largest normalized violation: INFEASIBLE with that
    certificate when it exceeds lorentz.FEAS, NO_INTERIOR with phase one's
    optimum otherwise.
    """
    B = len(c)
    cz, c0 = lorentz.coordinates(c, m)
    az, a0 = lorentz.coordinates(a, m)
    s = np.maximum(np.maximum(np.abs(b), np.sqrt(np.vecdot(a, a))), 1e-12)
    moves = az[1:] if m == 2 else az
    settled, cert = _settle(np.sqrt(lorentz.dot(moves, moves)),
                            b - a0 - (az[0] if m == 2 else 0.0), s)
    e_tau = np.zeros((4, B, 1))
    e_tau[0] = 1.0
    H = np.concatenate([np.where(settled, 0.0, az / s), e_tau], axis=2)
    Hb = np.concatenate([np.where(settled, 1.0, (b - a0) / s),
                         np.ones((B, 1))], axis=1)
    live = np.isnan(cert)
    status = np.where(live, OPTIMAL, INFEASIBLE).astype(object)
    obj, gap = np.full(B, np.nan), np.full(B, np.nan)
    dual = np.full((B, 3), np.nan)
    W = [None] * B
    top, z = lorentz.maximize(cz, H, Hb, live, m)
    i = np.flatnonzero(top > -np.inf)
    if i.size:
        Wi, z = lorentz.lift(z[:, i], m)
        obj[i] = lorentz.dot(cz[:, i], z) + c0[i]
        y, gap[i] = lorentz.kkt(z, cz[:, i], obj[i] - c0[i], H[:, i], Hb[i], m)
        dual[i] = y / s[i]
        for j, Wj in zip(i, Wi):
            W[j] = Wj
    i = np.flatnonzero((top == -np.inf) & live)
    if i.size:
        y, cert[i] = lorentz.phase_one(H[:, i], Hb[i], m)
        status[i] = np.where(np.isnan(y[:, 0]), NO_INTERIOR, INFEASIBLE)
        dual[i] = y / s[i]
    has = ~np.isnan(dual[:, 0])
    return [SdpResult(W=Wj, status=st, objective=o, gap=g, certificate=ce,
                      dual=y if h else None)
            for Wj, st, o, g, ce, y, h in zip(W, status, obj.tolist(),
                                              gap.tolist(), cert.tolist(),
                                              dual, has)]


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
    row_sets[j], W PSD.  Entries of three rows whose objective and rows are
    2 x 2, or 3 x 3 and block diagonal, diag(W_s, w_out), as the evolved
    design's relaxations are, are solved exactly in closed form
    (_block_sdps): a Lorentz-cone program in 4 variables, whose optimal W
    is rank one where the cone binds.  The others run the barrier method
    from W = I / m, which is y = 0 in the plane's coordinates and inside
    the cone.  Rows the plane cannot move are settled first (_settle); at
    m = 1 that is every row, and a feasible entry ends at W = [[1]] with
    no Newton step.  The kernel is batch-invariant: each entry's SdpResult
    is bit for bit what solve_small_sdp gives for it, whatever else is in
    the stack.  So several tags' relaxations, each with its own objective,
    can share one call (beamforming.lockstep).

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
        stage still centring after _MAX_NEWTON Newton steps).  An exactly
        solved entry takes no Newton step; its dual holds the rows'
        multipliers, which certify gap or, when infeasible, certificate
        (_block_sdps), and it ends "no_interior" only when it misses every
        row by less than lorentz.FEAS and nothing certifies that it must.

    Raises:
        ValueError: when the objectives number neither 1 nor
            len(row_sets), the rows' matrices are not C's size, or the row
            sets' lengths differ (the message names them).
    """
    if not row_sets:
        return []
    C = _objectives(C, len(row_sets))
    m = C.shape[-1]
    c = svec(C)
    a, b = _stack_rows(row_sets, m)
    exact = _block_diagonal(c, a)
    results = [None] * len(row_sets)
    for idx, solve in ((np.flatnonzero(exact),
                        lambda i: _block_sdps(c[i], a[i], b[i], m)),
                       (np.flatnonzero(~exact),
                        lambda i: _sdp_results(_Sdp(c[i], a[i], b[i])))):
        if idx.size:
            for j, res in zip(idx, solve(idx)):
                results[j] = res
    return results


def _sdp_results(f) -> list:
    """Solve oracle f's entries from W = I / m; their SdpResults."""
    y = np.zeros((len(f.c), f.Z.shape[1]))     # W = I / m
    y, status, cert, steps, mu = _solve(f, y)
    results = [SdpResult(W=None, status=status[j], certificate=float(cert[j]),
                         newton_steps=int(steps[j])) for j in range(len(y))]
    main = np.flatnonzero(~np.isnan(mu))
    fm = f.take(main)
    obj = fm.objective(y[main])
    gap = fm.n_par * mu[main] * np.maximum(fm.c_norm, 1.0)
    for i, (j, W) in enumerate(zip(main, fm.matrix(y[main]))):
        results[j] = SdpResult(
            # the symmetric part clears embedding round-off
            W=0.5 * (W + W.conj().T), status=status[j],
            objective=float(obj[i]), gap=float(gap[i]),
            newton_steps=int(steps[j]))
    return results
