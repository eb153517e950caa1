"""The designs' trace-one SDPs, solved exactly, and the statuses and row
helpers the QCQP kernel (the module qcqp, which describes it) shares.

`solve_sdp_batch(C, row_sets)` solves trace-one SDPs, the lifts W = v v^H
of both designs: maximize Tr(C W) subject to Tr W = 1, rows
Tr(A W) <= b and W PSD.  It takes two kinds of entry, and solves both
exactly, with no Newton step:

* three rows on a 2 x 2 lift, or on a 3 x 3 one that is block diagonal,
  diag(W_s, w_out), with its objective: Lorentz-cone programs in four
  coordinates, read straight from the matrices' block entries
  (_block_sdps, and the module lorentz).  Where the cone binds, the
  optimal W is rank one, v v^H, the point the designs recover v from;
* entries with no row W can move: no row at all, or m = 1, where the
  trace-one set is the point W = [[1]] (_row_free).  Unless a row fails,
  the optimum is lambda_max(C) at C's top eigenvector.

Any other entry is refused with ValueError before any solve.  The designs
send only these kinds: the evolved design's relaxations and rank-one
penalty subproblems, and the consensual design's lift (two rows and the
vacuous 0 <= 1), are block diagonal on the span basis, and M = 1 lifts
are 1 x 1.

Both kernels take one row count per call (ValueError otherwise), and
settle every row that x cannot move before solving (_settle): it
becomes padding when it holds, and makes its entry INFEASIBLE, with a
certificate, when it fails.  Both are batch-invariant: an entry's result
does not depend on what else is in the stack, because no product mixes
rows of the stack in one GEMM, so beamforming.lockstep stacks many tags'
subproblems into one call.  `solve_small_sdp` and qcqp.solve_ball_qcqp
solve one problem, as a batch of one.  Problems are normalized before
solving (per-row scales, and the QCQP's objective to unit norm), which
leaves the argmax unchanged and makes the tolerances meaningful across the
wide dynamic range of channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import lorentz

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NO_INTERIOR = "no_interior"
MAX_ITER = "max_iter"


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
    holds unless b < -1e-12 S, and if it holds it says nothing about x.
    The rule is relative, so rows that all scale by one factor settle alike
    whatever the factor.  Returns (settled, cert): settled (B, k) marks
    those rows, which the kernels turn into padding rows 0 . x <= 1; cert
    (B,) is the largest normalized violation -b / s among an entry's
    settled rows that fail, nan where none fails.
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


def _objectives(C, B) -> np.ndarray:
    """C as B objectives (B, m, m): one m x m objective shared, or one per
    entry; ValueError for any other count."""
    C = np.asarray(C, dtype=complex)
    if C.ndim == 3 and len(C) not in (1, B):
        raise ValueError(f"{len(C)} objectives for {B} row sets: give "
                         f"one, or one per row set")
    return np.broadcast_to(C, (B,) + C.shape[-2:])


def _stack_rows(row_sets, m) -> tuple:
    """Every entry's rows (A, b), Tr(A W) <= b, as stacks: A (B, k, m, m)
    and b (B, k).  ValueError when the row counts differ, or when a row's
    matrix is not m x m, the objective's size."""
    B = len(row_sets)
    k = _one_row_count(map(len, row_sets))
    A = np.array([[a for a, _b in e] for e in row_sets], dtype=complex)
    if k and A.shape[2:] != (m, m):
        raise ValueError(f"the objective is {m} x {m}, the rows are "
                         + " x ".join(map(str, A.shape[2:])))
    b = np.array([[b for _a, b in e] for e in row_sets], dtype=float)
    return A.reshape(B, k, m, m), b.reshape(B, k)


def _scales(A, b) -> np.ndarray:
    """Each row's scale, max(|b|, ||A||_F, 1e-12): A (B, k, m, m)."""
    return np.maximum(np.maximum(np.abs(b), np.linalg.norm(A, axis=(2, 3))),
                      1e-12)


def _block_diagonal(C, A) -> np.ndarray:
    """Which entries _block_sdps solves: three rows, and a 2 x 2 objective,
    or a 3 x 3 one that with the rows is block diagonal, diag(W_s, w_out):
    its entries (0, 2), (1, 2), (2, 0) and (2, 1) exactly 0.  C (B, m, m)
    and A (B, k, m, m)."""
    m = C.shape[-1]
    if A.shape[1] != 3 or m not in (2, 3):
        return np.zeros(len(C), dtype=bool)
    if m == 2:
        return np.ones(len(C), dtype=bool)
    i, j = [0, 1, 2, 2], [2, 2, 0, 1]
    return ~(C[:, i, j].any(axis=1) | A[:, :, i, j].any(axis=(1, 2)))


# ---------------------------------------------------------------------------
# The block relaxations, exactly (lorentz)
# ---------------------------------------------------------------------------

def _block_sdps(C, A, b, m) -> list:
    """The SdpResults of trace-one SDPs of three rows whose objective and
    rows are 2 x 2 (m = 2), or block diagonal, diag(W_s, w_out) with W_s
    2 x 2 (m = 3), found exactly by the module lorentz.

    In z = (tau, x) (lorentz.coordinates), with w_out = 1 - tau, each row is
    a halfspace, normalized by its scale (_scales) and settled by
    _settle on what z can move, and tau <= 1 is a fourth.  An entry for which
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
    B = len(C)
    cz, c0 = lorentz.coordinates(C, m)
    az, a0 = lorentz.coordinates(A, m)
    s = _scales(A, b)
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


def _row_free(C, A, b) -> list:
    """The SdpResults of entries whose rows W cannot move: entries with no
    row, or at m = 1, where Tr W = 1 leaves the one point W = [[1]].

    Each row is settled (_settle) on its value at W = I / m, Re Tr(A) / m,
    with its scale (_scales), so a row that fails makes its entry INFEASIBLE
    with that certificate.  Every other entry ends OPTIMAL at lambda_max(C),
    with W = u u^H for C's top unit eigenvector u, gap 0 and dual 0: with
    no multiplier, the Lagrange bound is lambda_max(C) itself.
    """
    k, m = b.shape[1], C.shape[-1]
    _settled, cert = _settle(
        np.zeros_like(b), b - np.trace(A, axis1=2, axis2=3).real / m,
        _scales(A, b))
    vals, vecs = np.linalg.eigh(C)
    u = vecs[..., -1]
    W = u[:, :, None] * u[:, None, :].conj()
    return [SdpResult(W=W[j], status=OPTIMAL, objective=float(vals[j, -1]),
                      gap=0.0, dual=np.zeros(k)) if np.isnan(ce)
            else SdpResult(W=None, status=INFEASIBLE, certificate=float(ce))
            for j, ce in enumerate(cert)]


def solve_small_sdp(p: SdpProblem) -> SdpResult:
    """Solve one trace-one SDP: solve_sdp_batch on a batch of one.

    Args:
        p: Problem data (objective maximized).

    Returns:
        Its SdpResult (see solve_sdp_batch).

    Raises:
        ValueError: for a problem solve_sdp_batch does not take.
    """
    return solve_sdp_batch(p.C, [p.ineq_constraints])[0]


def solve_sdp_batch(C, row_sets: list) -> list:
    """Solve trace-one SDPs of one size, one per row set, in one stacked
    run, exactly and with no Newton step.

    Entry j is max Tr(C_j W) s.t. Tr W = 1, Tr(A W) <= b for each (A, b) in
    row_sets[j], W PSD.  Entries of three rows whose objective and rows are
    2 x 2, or 3 x 3 and block diagonal, diag(W_s, w_out), as the designs'
    lifts are, are solved in closed
    form (_block_sdps): a Lorentz-cone program in 4 variables, whose optimal
    W is rank one where the cone binds.  Entries with no row, or at m = 1,
    have no row W can move, and end at lambda_max(C) unless a row fails
    (_row_free).  Rows W cannot move are settled first (_settle).  The
    kernel is batch-invariant: each entry's SdpResult is bit for bit what
    solve_small_sdp gives for it, whatever else is in the stack.  So
    several tags' SDPs, each with its own objective, can share one call
    (beamforming.lockstep).

    Args:
        C: The m x m Hermitian objective every entry shares, or one per
            entry: an array (B, m, m) or a list of B such matrices (a list
            of one is shared).
        row_sets: One list of (A, b) rows per entry, A m x m, all of one
            length.

    Returns:
        The SdpResult of each row set, in input order, with status
        "optimal", "infeasible" (certificate holds a floor under every W's
        largest normalized row violation) or "no_interior" (phase one's
        optimum misses every row by less than lorentz.FEAS, as on a face of
        the cone such as W g = 0, and nothing certifies that it must).  dual
        holds the rows' multipliers, which certify gap or, when infeasible,
        certificate; an entry that a settled row makes infeasible has none.
        newton_steps is always 0.

    Raises:
        ValueError: when the objectives number neither 1 nor
            len(row_sets), the rows' matrices are not C's size, the row
            sets' lengths differ, or an entry is of neither kind above (the
            message names the entry, its size and its row count), before
            any entry is solved.
    """
    if not row_sets:
        return []
    C = _objectives(C, len(row_sets))
    m = C.shape[-1]
    A, b = _stack_rows(row_sets, m)
    k = b.shape[1]
    if m == 1 or not k:
        return _row_free(C, A, b)
    block = _block_diagonal(C, A)
    if not block.all():
        raise ValueError(
            f"entry {int(np.argmin(block))} is a {m} x {m} SDP of {k} rows: "
            "the kernel takes three rows on a 2 x 2 or block-diagonal 3 x 3 "
            "lift, or rows W cannot move (none, or m = 1)")
    return _block_sdps(C, A, b, m)
