"""Receive and transmit beamformer designs for backscatter tag detection.

Four solvers share one solution type:

* consensual_sca: successive convex approximation on the receive vector,
  keeping both detection divergences above their floors, started at the
  problem's exact lift.  Its loop is the generator consensual_steps,
  which yields the lift as a one-entry SDP request, then one QCQP per SCA
  step; lockstep runs many such generators together and solves each
  round's QCQPs as one qcqp.solve_ball_qcqps batch per dimension, and its
  SDPs as stacked convex.solve_sdp_batch calls.  consensual_sca is
  lockstep on one generator.
* evolved_sdp: lifted semidefinite relaxation over a scalar auxiliary grid,
  enforcing that the direct link never hurts; v is the kernel's rank-one
  point of the relaxation, or else comes from a rank-one penalty SCA.  The
  grid point t = 0 is solved in closed form, by the zero-forcing receiver.
  Its
  generator, evolved_steps, yields the other grid points' relaxations as
  one request: 2 x 2 lifts at M = 2, and at M >= 3 3 x 3 lifts that are
  block diagonal, a 2 x 2 block on the channels' span plus the norm
  outside it, which the SDP kernel solves exactly, in closed form;
  lockstep stacks the requests of many tags into convex.solve_sdp_batch
  calls of at most _SDP_STACK entries, cut between requests.
  evolved_sdp is lockstep on one generator.
* mmse_beamformer: closed-form interference-suppressing benchmark.
* alternating_mimo: block alternation between receive and transmit vectors,
  running the generators above on effective single-input channels by yield
  from in its own, alternating_steps; it is lockstep on one generator.

Every tag solve in the library runs a generator under lockstep.

Per-tag channels are passed as a triple (h0, h1, h_str): the direct-only
channel, the combined channel and the backscatter channel, vectors for the
single-transmit case and M x Q matrices for the MIMO case.

One failure rule holds for the SCA, penalty and alternation loops: a loop
reports infeasible only when it holds no feasible incumbent, a point
verified feasible so far (the consensual SCA's first is its lift's
point), or with a certificate.  Any other failed step, an iteration cap
or round-off, ends the loop at the incumbent with converged=False.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# solve_ball_qcqp stays importable from this module: bench/tracer.py
# wraps it here.
from .convex import (
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    SdpProblem,
    solve_sdp_batch,
    solve_small_sdp,
)
from .qcqp import (  # noqa: F401
    QcqpProblem,
    solve_ball_qcqp,
    solve_ball_qcqps,
)
from .detection import DetectionStats, detection_stats, kld_threshold
from .numerics import big_f, hermitian_eig

_FEAS_TOL = 1e-6     # tolerance on the verified divergence floors


@dataclass
class BeamformerSolution:
    """Outcome of one beamforming solve.

    v is the unit-norm receive vector; x the transmit vector with
    ||x||^2 = sigma_s2 (MIMO only, else None).  snr is gamma * |v^H h1|^2
    in linear units.  objective_trace records the per-iteration surrogate
    objective (empty for an evolved relaxation's rank-one point);
    rank_residual is lambda2/lambda1 of the final lift's block W_s on the
    channels' span (evolved mode only: 0 for a relaxation's rank-one point,
    whose lift is v v^H).
    stats carries the detection divergences at the returned point,
    recomputed independently of the solver.  iterations counts, per
    design: consensual_sca, the SCA subproblems solved from the accepted
    start; evolved_sdp, the grid points (t = 0, solved in closed form,
    included) plus the SDP solves of the penalty fallback;
    alternating_mimo (alternating_steps), the completed alternation
    rounds, a trade round counted; the closed-form benchmark schemes, 0.
    """

    v: Optional[np.ndarray]
    snr: float
    feasible: bool
    iterations: int
    x: Optional[np.ndarray] = None
    objective_trace: list = field(default_factory=list)
    rank_residual: Optional[float] = None
    stats: Optional[DetectionStats] = None
    converged: bool = True


def divergence_floors(params) -> tuple:
    """(D_min, E_min, F_with, F_without) for the configured DEP tolerances.

    D_min / E_min are the divergence floors for the with-DL and without-DL
    tests; F_* are the corresponding variance-ratio thresholds obtained by
    inverting ln(x) + 1/x = floor/N + 1 on the upper branch.  Computed
    once per (xi_max, zeta_max, N): params is mutable, so the values, not
    the object, are the key.
    """
    return _floors(params.xi_max, params.zeta_max, params.N)


@functools.lru_cache(maxsize=256)
def _floors(xi_max: float, zeta_max: float, n: int) -> tuple:
    d_min = kld_threshold(xi_max)
    e_min = kld_threshold(zeta_max)
    return d_min, e_min, big_f(d_min / n + 1.0), big_f(e_min / n + 1.0)


def _unpack(chan):
    """The channel triple as complex arrays.

    ValueError if an entry is not finite, or if h1 is not h0 + h_str to
    round-off: the designs see h1 only through h0 and h_str.
    """
    out = tuple(np.asarray(h, dtype=complex) for h in chan)
    for name, h in zip(("h0", "h1", "h_str"), out):
        if not np.isfinite(h).all():
            raise ValueError(f"channel {name} has a non-finite entry")
    h0, h1, hs = out
    if (np.linalg.norm(h1 - h0 - hs)
            > 1e-10 * (np.linalg.norm(h0) + np.linalg.norm(hs))):
        raise ValueError("channel h1 is not h0 + h_str")
    return out


def _span_basis(h0, hs):
    """Orthonormal U, M x min(M, 3), whose range holds h0 and hs.

    The first min(M, 3) left singular vectors of [h0 hs]: the channels'
    span plus a direction orthogonal to it, which carries the norm a unit
    v may leave outside the span.  Every quantity the designs use depends
    on v only through v^H h0, v^H hs and ||v||, so the problem on U^H h
    is the full one, with v = U v'.  The full basis covers M <= 2, h0 = 0
    and hs parallel to h0 with the same rule.
    """
    m = len(h0)
    return np.linalg.svd(np.column_stack([h0, hs]))[0][:, :min(m, 3)]


def _span_lift(h0, h1, hs, gamma) -> tuple:
    """(U, g0, g1, gs, gamma'): the channels on the basis U of _span_basis,
    divided by s = ||h1||, and gamma' = gamma s^2, so that gamma' |v'^H g|^2
    is gamma |v^H h|^2 at v = U v'.

    The floors of both designs are absolute, so the lifts built on these
    stay put when every channel scales by s and sigma_w2 by s^2.  At
    M >= 3, U's last column is outside span(h0, hs), so the channels'
    components there are round-off; they are set to exactly 0, which makes
    every lift built on them block diagonal, diag(W_s, w_out)
    (convex._block_sdps).
    """
    U = _span_basis(h0, hs)
    s = float(np.linalg.norm(h1)) or 1.0
    g0, g1, gs = (U.conj().T @ (h / s) for h in (h0, h1, hs))
    if len(g0) == 3 and (abs(g0[2]) + abs(gs[2]) <= 1e-12 * (
            np.linalg.norm(g0) + np.linalg.norm(gs))):
        for g in (g0, g1, gs):
            g[2] = 0.0
    return U, g0, g1, gs, gamma * (s * s)


def _no_dl_floor_unreachable(gamma, hs, f_without) -> bool:
    """Whether no v meets the without-DL floor: gamma ||hs||^2 < F - 1."""
    return gamma * float(np.vdot(hs, hs).real) < f_without - 1.0 - 1e-12


def _settled(new, old, omega) -> bool:
    """The loops' stop test: |new - old| < omega * max(1, |new|)."""
    return abs(new - old) < omega * max(1.0, abs(new))


def _infeasible(iterations=0, converged=True) -> BeamformerSolution:
    return BeamformerSolution(v=None, snr=0.0, feasible=False,
                              iterations=iterations, converged=converged)


def _finalize(v, h0, h1, hs, params, d_min, e_min, mode) -> tuple:
    """Unit-normalize v, recompute stats, decide feasibility per mode."""
    v = v / np.linalg.norm(v)
    stats = detection_stats(v, h0, h1, hs, params.sigma_s2, params.sigma_w2,
                            params.N)
    if mode == "consensual":
        ok = (stats.kld_with >= d_min - _FEAS_TOL
              and stats.kld_without >= e_min - _FEAS_TOL)
    else:
        ok = (stats.delta_kld >= -_FEAS_TOL
              and stats.kld_without >= e_min - _FEAS_TOL)
    snr = params.gamma * abs(np.vdot(v, h1)) ** 2
    return v, stats, ok, snr


def consensual_steps(chan, params, v_init: Optional[np.ndarray] = None,
                     margin: float = 0.0):
    """The consensual SCA as a generator of its subproblems.

    Maximizes gamma |v^H h1|^2 over unit-norm v subject to the with-DL
    variance-ratio constraint (convexified by linearizing |v^H h1|^2 around
    the incumbent) and the without-DL floor (same linearization applied to
    |v^H h_str|^2).  margin raises both constraints' F - 1 by that fraction
    (alternating_steps' trades).

    Without v_init, it first yields the problem's exact lift, (C, [rows]):
    max gamma' Tr(G1 W) s.t. Tr W = 1, gamma' Tr((G1 - F_with G0) W) >=
    F_with - 1, gamma' Tr(Gs W) >= F_without - 1, W PSD, on _span_lift's
    channels, padded with the vacuous row 0 <= 1.  Trace plus two rows has
    a rank-one optimum (Huang and Palomar, IEEE TSP 58(2), 2010), so the
    lift is exact.  INFEASIBLE: its certificate proves no unit v meets
    both floors, and no QCQP runs.  OPTIMAL: the SCA starts at its
    rank-one point U v' (_block_rank_one).  NO_INTERIOR certifies nothing:
    the SCA starts at the matched filter h1/||h1||, with one retry from
    the MMSE direction.  v_init (alternating_steps' incumbent) replaces
    the lift and the starts.

    Then yields each SCA subproblem, a QcqpProblem, and takes its
    QcqpResult back by send(); returns the BeamformerSolution.  Run it with
    lockstep.  Each start's first subproblem starts its dual Newton from
    the ball-only optimum; every later one starts from the previous step's
    multipliers (its dual), as consecutive subproblems differ only by the
    linearization point.  If no start's first subproblem ends OPTIMAL,
    the lift's point, if any, goes to _finalize with converged=False.
    """
    h0, h1, hs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, f_with, f_without = divergence_floors(params)

    # Feasibility bails: the without-DL floor, and the with-DL constraint,
    # which needs lambda_max(gamma(H1 - F H0)) to reach F - 1 even before
    # the other constraints bite.
    if _no_dl_floor_unreachable(gamma, hs, f_without):
        return _infeasible()
    H0 = np.outer(h0, h0.conj())
    H1 = np.outer(h1, h1.conj())
    Hs = np.outer(hs, hs.conj())
    lam = np.linalg.eigvalsh(gamma * (H1 - f_with * H0))[-1]
    if lam < f_with - 1.0 - 1e-12:
        return _infeasible()
    floor_w = (f_with - 1.0) * (1.0 + margin)
    floor_o = (f_without - 1.0) * (1.0 + margin)

    lift_v = None       # the lift's rank-one point, where it has one
    if v_init is None:
        U, g0, g1, gs, gam = _span_lift(h0, h1, hs, gamma)
        G0, G1, Gs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
        (lift,) = yield gam * G1, [[(-gam * (G1 - f_with * G0), -floor_w),
                                    (-gam * Gs, -floor_o),
                                    (np.zeros_like(G1), 1.0)]]
        if lift.status == INFEASIBLE:
            return _infeasible()
        if lift.status == OPTIMAL:
            lift_v = U @ _block_rank_one(lift.W)[0]
    v0 = lift_v if v_init is None else v_init

    def inits():    # the MMSE direction is built only for the retry
        if v0 is not None:
            yield np.asarray(v0, dtype=complex)
            return
        yield h1 / np.linalg.norm(h1)
        yield mmse_beamformer(h0, hs, params.sigma_s2, params.sigma_w2)

    def around(vbar, start=None):
        """The subproblem linearized at vbar, its dual Newton started from
        start, and vbar^H H1 vbar."""
        c1 = float(np.vdot(vbar, H1 @ vbar).real)
        cs1 = float(np.vdot(vbar, Hs @ vbar).real)
        cons = [
            (f_with * gamma * H0, -gamma * (H1 @ vbar),
             -floor_w - gamma * c1),
            (None, -gamma * (Hs @ vbar), -floor_o - gamma * cs1),
        ]
        return QcqpProblem(c=2.0 * gamma * (H1 @ vbar),
                           quad_constraints=cons, start=start), c1

    capped = False
    for init in inits():
        vbar = init / np.linalg.norm(init)
        prob, c1 = around(vbar)
        res = yield prob
        if res.status == OPTIMAL:
            break
        capped |= res.status == MAX_ITER
    else:
        if lift_v is None:
            return _infeasible(converged=not capped)

    trace = []
    converged = False
    for it in range(params.L):
        if it:      # step 0 is the solve around the init above
            prob, c1 = around(vbar, res.dual)
            res = yield prob
        if res.status != OPTIMAL:
            break   # keep the incumbent: at step 0, the lift's point
        v = res.v / np.linalg.norm(res.v)
        mu = 2.0 * float(np.vdot(vbar, H1 @ v).real) - c1
        trace.append(gamma * mu)
        vbar = v
        if it and _settled(trace[-1], trace[-2], params.omega):
            converged = True
            break

    v, stats, ok, snr = _finalize(vbar, h0, h1, hs, params, d_min, e_min,
                                  "consensual")
    return BeamformerSolution(v=v, snr=snr, feasible=ok,
                              iterations=len(trace),
                              objective_trace=trace, stats=stats,
                              converged=converged)


_SDP_STACK = 200    # most SDP entries in one solve_sdp_batch call of lockstep:
                    # it bounds the memory one call takes


def _solve_sdp_requests(reqs) -> list:
    """The SdpResults of each SDP request, all of one matrix size, from
    solve_sdp_batch calls of at most _SDP_STACK entries, cut only between
    requests (a longer request is a call of its own)."""
    calls, n = [[]], 0
    for req in reqs:
        if n and n + len(req[1]) > _SDP_STACK:
            calls.append([])
            n = 0
        calls[-1].append(req)
        n += len(req[1])
    out = []
    for call in calls:
        flat = solve_sdp_batch([c for c, row_sets in call for _r in row_sets],
                               [r for _c, row_sets in call for r in row_sets])
        for _c, row_sets in call:
            out.append(flat[:len(row_sets)])
            flat = flat[len(row_sets):]
    return out


def lockstep(gens) -> list:
    """Run design generators together; their solutions, in order.

    A generator yields either a QcqpProblem and takes back its QcqpResult
    (consensual_steps' SCA steps), or (C, row_sets), the trace-one SDPs of
    objective C, one per row set, and takes back their SdpResults
    (evolved_steps' relaxations, consensual_steps' lift);
    alternating_steps yields what its inner design yields.  Each round
    sends every pending generator its results, then solves what they
    yield: the QCQPs as one solve_ball_qcqps batch per dimension, and the
    SDPs, each entry with its own request's C, as
    solve_sdp_batch calls of at most _SDP_STACK entries per matrix size,
    cut only between requests.  Both kernels are batch-invariant, so every
    generator gets the results it would get run alone, and its solution
    does too.  An exception a generator raises ends the run.
    """
    out = [None] * len(gens)
    asked = {}      # generator index -> its pending request

    def send(i, res):
        try:
            asked[i] = gens[i].send(res)
        except StopIteration as stop:
            out[i] = stop.value

    for i in range(len(gens)):
        send(i, None)
    while asked:
        now, asked = asked, {}
        kinds = {}
        for i, req in now.items():
            qcqp = isinstance(req, QcqpProblem)
            size = req.dim() if qcqp else len(req[0])
            kinds.setdefault((qcqp, size), []).append(i)
        for (qcqp, _size), idx in kinds.items():
            if qcqp:
                results = solve_ball_qcqps([now[i] for i in idx])
            else:
                results = _solve_sdp_requests([now[i] for i in idx])
            for i, res in zip(idx, results):
                send(i, res)
    return out


def consensual_sca(chan, params) -> BeamformerSolution:
    """SCA solver keeping both detection divergences above their floors:
    consensual_steps run alone by lockstep."""
    return lockstep([consensual_steps(chan, params)])[0]


def recover_rank_one(W: np.ndarray) -> tuple:
    """Dominant unit eigenvector of W and the rank residual lambda2/lambda1."""
    vals, vecs = hermitian_eig(W)
    v = vecs[:, 0]
    if vals.size == 1:
        return v, 0.0
    lam1 = max(float(vals[0]), 1e-300)
    return v, float(max(vals[1], 0.0) / lam1)


_RANK_TOL = 1e-7     # a lift with lambda2/lambda1 at most this is rank one


_PEN_CYCLE = 4       # solves per extrapolation cycle of the penalty SCA


def _block_rank_one(W):
    """The rank-one point of a lift W and how far W is from rank one.

    W is W_s (m <= 2) or has the blocks W_s and w_out = W[2, 2] (m = 3), as
    both designs' lifts do.  Returns the unit v = (sqrt(lambda_1)
    u_1, sqrt(w_out)) / norm from W_s's top eigenpair, and W_s's rank
    residual lambda_2 / lambda_1 (recover_rank_one).  A design sees v only
    through v^H g0, v^H gs and ||v|| (_span_basis), so when W_s is rank one
    v v^H has W's blocks, and so its objective and rows.
    """
    Ws = W[:2, :2]
    u, residual = recover_rank_one(Ws)
    lam1 = max(float(np.vdot(u, Ws @ u).real), 0.0)
    w_out = np.maximum(W.diagonal()[2:].real, 0.0)      # empty at m <= 2
    v = np.append(np.sqrt(lam1) * u, np.sqrt(w_out))
    return v / np.linalg.norm(v), residual


def _penalized_sca(rows, H1, gamma, chi, W, max_iter, omega):
    """Inner SCA on the penalized lifted problem at one grid point.

    The lift is W_s at m <= 2 and block diagonal, diag(W_s, w_out), at
    m = 3 (evolved_steps), and the penalty is on W_s's rank alone: the
    objective is gamma Tr(H1 W) - chi (Tr W_s - lambda_max(W_s)).  Each
    convex subproblem linearizes lambda_max(W_s) at a unit anchor a, the
    dominant eigenvector of the current iterate's W_s; with Tr W = 1 its
    objective is gamma H1 + chi diag(a a^H, 1) (gamma H1 + chi a a^H at
    m <= 2), block diagonal like its rows, so the kernel solves it exactly
    (convex._block_sdps).  Because the linearized penalty is a global
    underestimator for ANY unit anchor, the anchor may be extrapolated
    along the iterates' drift without losing monotonicity, provided the
    step is kept only when the true penalized objective improves.  With
    the plain anchor the drift contracts at a rate near 1 - 1/chi_rel and
    would burn the whole iteration budget; extrapolation collapses it in a
    handful of solves while converging to the same fixed point.  Every
    subproblem has the relaxation's rows, so the relaxation's W is the
    incumbent until a solve is accepted.  It has converged when the
    penalized objective climbs by less than omega (relative) over the last
    _PEN_CYCLE solves, or the anchor stops moving.

    Returns (W, trace, converged, n_solves).
    """
    m = len(H1)
    prob = SdpProblem(C=H1, dim=m, ineq_constraints=rows,
                      eq_constraints=[(np.eye(m), 1.0)])
    trace = []
    pen_cur = None
    delta_last = None   # last anchor move, phase-aligned
    s_last = 0.0        # its norm
    s_before = 0.0      # norm of the move before it
    n_solve = 0
    converged = False

    def solve(anchor):
        """(result, penalized objective) at anchor, or (None, None)."""
        nonlocal n_solve
        lin = np.eye(m, dtype=complex)
        lin[:2, :2] = np.outer(anchor, anchor.conj())
        prob.C = gamma * H1 + chi * lin
        res = solve_small_sdp(prob)
        n_solve += 1
        if res.status != OPTIMAL:
            return None, None
        Ws = res.W[:2, :2]
        lam_top = float(np.linalg.eigvalsh(Ws)[-1])
        return res, (gamma * float(np.trace(H1 @ res.W).real)
                     - chi * (float(np.trace(Ws).real) - lam_top))

    u = recover_rank_one(W[:2, :2])[0]
    overshot = False    # the last extrapolation did not improve
    for j in range(max_iter):
        res = None
        if not overshot and s_before > 1e-14 and s_last > 1e-12:
            r = s_last / s_before
            if 0.05 < r < 0.995:
                ext = u + min(r / (1.0 - r), 500.0) * delta_last
                nrm = float(np.linalg.norm(ext))
                if nrm > 1e-12:
                    res, pen = solve(ext / nrm)
        overshot = res is not None and not pen > pen_cur
        if res is None or overshot:
            res, pen = solve(u)
            if res is None:
                break
        W = res.W
        trace.append(pen)
        v_new, _ = recover_rank_one(W[:2, :2])
        # align the global phase before differencing successive anchors
        ph = np.vdot(u, v_new)
        if abs(ph) > 1e-15:
            v_new = v_new * (ph.conjugate() / abs(ph))
        step = float(np.linalg.norm(v_new - u))
        # Within a cycle the increments swing by 10x, so one small one
        # does not show that the climb has ended.
        done = (len(trace) > _PEN_CYCLE
                and _settled(pen, trace[-1 - _PEN_CYCLE], omega))
        delta_last, s_before, s_last = v_new - u, s_last, step
        u, pen_cur = v_new, pen
        if done or (step < 1e-10 and j > 0):
            converged = True
            break
    return W, trace, converged, n_solve


def evolved_steps(chan, params):
    """The lifted design as a generator: its set-up, one request for its
    relaxation batch, then its finish.

    Yields (C, row_sets), the relaxations of every grid point but t = 0
    (which it solves in closed form) with their shared objective C, and
    takes their SdpResults back by send(); returns the BeamformerSolution.
    Run it with lockstep, which stacks the relaxations of many tags into
    shared solve_sdp_batch calls; evolved_sdp runs it alone.  What it
    solves is evolved_sdp's docstring.
    """
    h0, h1, hs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, _f_with, f_without = divergence_floors(params)
    if _no_dl_floor_unreachable(gamma, hs, f_without):
        return _infeasible()

    U, g0, g1, gs, gamma = _span_lift(h0, h1, hs, gamma)
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    # H0 and H1 are rank one: H0's spectrum is {0, ||g0||^2} (just
    # ||g0||^2 when m = 1), and lambda_max(H1) = ||g1||^2.
    t_hi = float(np.vdot(g0, g0).real)
    t_lo = t_hi if U.shape[1] == 1 else 0.0
    grid = np.linspace(t_lo, t_hi, params.T if t_hi - t_lo >= 1e-15 else 1)
    chi = params.chi * gamma * float(np.vdot(g1, g1).real)

    # relax holds (bound, t, W, rows, v): the relaxation optimum at t, and
    # v where the bound is attained in closed form (W and rows are None).
    relax = []
    kernel_grid = grid
    if len(grid) > 1:
        kernel_grid = grid[1:]
        # At t = 0 the row Tr(H0 W) <= 0 leaves only the face W g0 = 0,
        # which has no interior, so it is not sent to the kernel.  There
        # g1 = gs, the DL-gain row reads 0 <= 0, and the optimum is the
        # zero-forcing receiver v = P gs / ||P gs||, P the projector off
        # g0, with bound gamma ||P gs||^2 (facial reduction).
        pgs = gs - g0 * (np.vdot(g0, gs) / t_hi)
        if pgs.any() and not _no_dl_floor_unreachable(gamma, pgs,
                                                      f_without):
            relax.append((gamma * float(np.vdot(pgs, pgs).real), 0.0, None,
                          None, pgs / np.linalg.norm(pgs)))

    # Relaxation pass: without the rank restriction, the optimum at each
    # grid point upper-bounds whatever rank-one point exists there, and its
    # solution is the rank-one point, or where the penalty stage starts.
    # Both are skipped at the points whose bound cannot beat the best SNR
    # found.  The grid points share the
    # matrices of their last two rows.
    no_dl = (-gamma * Hs, -(f_without - 1.0))     # without-DL floor
    row_sets = [[
        (-H1 + (1.0 + gamma * t) * Hs, -t),       # DL-gain floor via t
        no_dl,
        (H0, t),                                  # t dominates the DLI
    ] for t in kernel_grid]
    results = yield gamma * H1, row_sets
    relax += [(float(res.objective), float(t), res.W, rows, None)
              for t, rows, res in zip(kernel_grid, row_sets, results)
              if res.status == OPTIMAL]

    # Candidates by falling bound until none left can beat the best SNR
    # found; achieved holds (snr, t, v, residual, trace, stats).
    achieved = []
    best_snr = -np.inf
    n_solves, pen_capped = 0, False
    for ub, t, W_rel, rows, v in sorted(relax, key=lambda e: -e[0]):
        if ub < best_snr - 1e-9:
            break   # sorted by bound: none of the rest can win
        exact = v is not None
        if not exact:
            v, residual = _block_rank_one(W_rel)
            if residual > _RANK_TOL:
                v = None
        ok = v is not None
        if ok:
            v, stats, ok, snr = _finalize(U @ v, h0, h1, hs, params,
                                          d_min, e_min, "evolved")
            residual, trace_t = 0.0, []
        if not ok:
            if exact:   # the closed form has no fallback
                continue
            W, trace_t, converged_t, n_solve = _penalized_sca(
                rows, H1, gamma, chi, W_rel, params.J, params.omega)
            n_solves += n_solve
            pen_capped |= not converged_t
            v, residual = _block_rank_one(W)
            v, stats, ok, snr = _finalize(U @ v, h0, h1, hs, params,
                                          d_min, e_min, "evolved")
            if not ok:
                continue
        achieved.append((snr, t, v, residual, trace_t, stats))
        best_snr = max(best_snr, snr)

    total_iter = len(grid) + n_solves
    converged = not pen_capped
    if not achieved:
        return _infeasible(iterations=total_iter, converged=converged)
    best_snr = max(a[0] for a in achieved)
    # smallest t wins among the grid points tying for the best objective
    best = min((a for a in achieved if a[0] >= best_snr - 1e-9),
               key=lambda a: a[1])
    snr, _t, v, residual, trace_t, stats = best
    return BeamformerSolution(v=v, snr=snr, feasible=True,
                              iterations=total_iter,
                              objective_trace=trace_t,
                              rank_residual=residual, stats=stats,
                              converged=converged)


def evolved_sdp(chan, params) -> BeamformerSolution:
    """Lifted solver enforcing that the direct link never hurts detection:
    evolved_steps run alone by lockstep.

    Grids a scalar t over the spectrum of H0 = h0 h0^H and bounds each t by
    its trace-one SDP relaxation.  When the grid has more than one point,
    its first, t = 0, is solved in closed form: there Tr(H0 W) <= 0 leaves
    only the face W h0 = 0, which has no interior, and the relaxation's
    optimum on it is rank one, the zero-forcing receiver v = P hs /
    ||P hs|| with P the projector off h0 and bound gamma ||P hs||^2
    (facial reduction).  It is a candidate like a relaxation's rank-one
    point, kept if it meets the without-DL floor and _finalize verifies it,
    and it still counts in iterations, so a grid of T points counts T.  A
    one-point grid (M = 1, where the lift is 1 x 1 and the kernel settles
    every row, or a direct link too weak for the grid) goes to the kernel
    whole.  The relaxations of the other grid points are one solve_sdp_batch
    request, which lockstep may stack with other tags' (greedy_select does).
    The lift is built on _span_lift's channels: the span of h0 and hs plus,
    at M >= 3, one direction outside it that carries the norm v may leave
    there.  It is exact, and at M >= 3 each relaxation is block diagonal,
    diag(W_s, w_out) with W_s the 2 x 2 lift on the span, which the kernel
    solves exactly (convex._block_sdps), as it does every 2 x 2 lift at
    M = 2: where the cone binds its W is rank one, v' = (u, sqrt(w_out))
    with u u^H = W_s.  Each v' found is mapped back as v = U v' and
    verified by _finalize on the full channels.  A relaxation that ends
    infeasible or with no interior drops its grid point.  Grid points are
    examined by falling bound until no remaining bound can beat the best
    SNR found.  At each, the kernel's optimum is rank one where it lies on
    the cone's surface or at its apex (lorentz.lift), and then v from
    _block_rank_one, with W_s's rank residual at most _RANK_TOL, is optimal
    for that t; it is kept if _finalize verifies it, with rank_residual 0.
    The kernel's only other optimum is the vertex of three rows and the
    trace inside the cone, where no rank-one point keeps the objective and
    the rows.  There, or where v does not verify, the penalized trace-one
    SDP is solved by SCA from the relaxation's point, once, at the weight
    chi * gamma * lambda_max(H1) (_penalized_sca): it penalizes the rank of
    W_s alone, linearized through W_s's dominant eigenvector, so every
    subproblem is block diagonal and solved exactly.  The unit
    v' = (sqrt(lambda_1) u_1, sqrt(w_out)) / norm from the end point's W_s
    (_block_rank_one) is kept if _finalize verifies it, else the grid point
    is dropped, and rank_residual reports W_s's lambda_2 / lambda_1.  The
    best t by recovered objective wins, smallest t on ties.
    """
    return lockstep([evolved_steps(chan, params)])[0]


def mmse_beamformer(h_sr: np.ndarray, h_str: np.ndarray, sigma_s2: float,
                    sigma_w2: float) -> np.ndarray:
    """MMSE receive filter treating the direct link as interference.

    v* = normalize((h_sr h_sr^H + h_str h_str^H + (sigma_w2/sigma_s2) I)^{-1}
    h_str).  Always well defined for sigma_w2 > 0.  With a leading tag
    axis, h_sr and h_str of shape (K, M), the K filters come from one
    solve on the stack of K matrices.
    """
    h_sr = np.asarray(h_sr, dtype=complex)
    h_str = np.asarray(h_str, dtype=complex)
    if (np.vecdot(h_str, h_str).real == 0.0).any():
        raise ValueError("backscatter channel must be nonzero")
    m = h_str.shape[-1]
    A = (_outer(h_sr) + _outer(h_str)
         + (sigma_w2 / sigma_s2) * np.eye(m))
    return _unit_rows(np.linalg.solve(A, h_str[..., None])[..., 0])


def _outer(h):
    """h h^H, for one vector or a stack of them."""
    return h[..., :, None] * h.conj()[..., None, :]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """v over its norm along the last axis, each row's norm rounded as
    np.linalg.norm rounds it: the square root of the real parts' dot
    product plus the imaginary parts' (its axis= form sums otherwise)."""
    sq = np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)
    return v / np.sqrt(sq)[..., None]


def _design_steps(chan, params, mode: str, incumbent=None):
    """A mode's single-transmit design generator on chan; the consensual
    SCA starts at the incumbent if one is given.  ValueError on an unknown
    mode, before any solve."""
    if mode == "consensual":
        return consensual_steps(chan, params, incumbent)
    if mode == "evolved":
        return evolved_steps(chan, params)
    raise ValueError(f"unknown mode {mode!r}")


_TRADE_MAX = 0.1    # the largest floor raise of alternating_steps' trade


def alternating_steps(chan, params, mode: str):
    """The block alternation of a MIMO link as a generator.

    chan is the per-tag matrix triple (G0, G1, Gs), each M x Q.  Fixing the
    unit transmit direction xt reduces to the single-transmit problem on
    channels G_i @ xt; fixing v reduces to the same problem shape on the
    adjoint channels G_i^H v with the unit ball on xt.  Each step runs the
    mode's design generator by yield from, so lockstep sees its requests:
    M-dimensional on the receive step, Q-dimensional on the transmit step.
    The incumbent seeds each consensual step, which keeps the SNR trace
    nondecreasing; a new block value is kept only if it does not lower the
    SNR.  Stops on relative SNR change below omega or after L rounds.

    Exact block optima stall where the blocks price a floor they share
    differently, so in consensual mode the first round that settles is
    followed by one trade round: one block is re-solved with its floors
    raised by a fraction delta (consensual_steps' margin), and the other
    spends the slack.  delta runs from _TRADE_MAX down by factors of 10 to
    omega, the transmit block leaving slack first at each; the first pair
    that raises the SNR is kept, and with none the alternation ends.
    Further trades keep gaining, but zigzag for up to L rounds.
    """
    G0, G1, Gs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, _fw, _fo = divergence_floors(params)

    def receive(xt):        # the receive step's channels
        return G0 @ xt, G1 @ xt, Gs @ xt

    def transmit(v):        # the transmit step's
        return G0.conj().T @ v, G1.conj().T @ v, Gs.conj().T @ v

    def trade(v, xt, snr):
        delta = _TRADE_MAX
        while delta >= params.omega:
            for leave, spend, a, b in ((transmit, receive, xt, v),
                                       (receive, transmit, v, xt)):
                sol_a = yield from consensual_steps(leave(b), params, a,
                                                    delta)
                if not sol_a.feasible:
                    continue
                sol_b = yield from consensual_steps(spend(sol_a.v), params,
                                                    b)
                if not sol_b.feasible:
                    continue
                vx = ((sol_b.v, sol_a.v) if leave is transmit
                      else (sol_a.v, sol_b.v))
                got = gamma * abs(np.vdot(vx[0], G1 @ vx[1])) ** 2
                if got > snr:
                    return (*vx, got)
            delta *= 0.1
        return None

    _u, _s, vh = np.linalg.svd(G1)
    xt = vh[0].conj()
    v = None
    snr_cur = -np.inf
    trace = []
    converged = stalled = traded = False
    rounds = 0
    for s_round in range(1, params.L + 1):
        if stalled:
            pair = yield from trade(v, xt, snr_cur)
            if pair is None:
                converged = True
                break
            v, xt, snr_cur = pair
            traded = True
        else:
            sol_v = yield from _design_steps(receive(xt), params, mode, v)
            if not sol_v.feasible:
                if v is None:
                    return _infeasible(converged=sol_v.converged)
                break
            snr_v = gamma * abs(np.vdot(sol_v.v, G1 @ xt)) ** 2
            if snr_v >= snr_cur:
                v = sol_v.v
                snr_cur = snr_v

            sol_x = yield from _design_steps(transmit(v), params, mode, xt)
            if not sol_x.feasible:
                break
            snr_x = gamma * abs(np.vdot(v, G1 @ sol_x.v)) ** 2
            if snr_x >= snr_cur:
                xt = sol_x.v
                snr_cur = snr_x

        rounds = s_round
        trace.append(snr_cur)
        settled = (len(trace) >= 2
                   and _settled(trace[-1], trace[-2], params.omega))
        if settled and (traded or mode != "consensual"):
            converged = True
            break
        stalled = settled

    v, stats, ok, snr = _finalize(v, G0 @ xt, G1 @ xt, Gs @ xt, params,
                                  d_min, e_min, mode)
    return BeamformerSolution(v=v, snr=snr, feasible=ok, iterations=rounds,
                              x=np.sqrt(params.sigma_s2) * xt,
                              objective_trace=trace, stats=stats,
                              converged=converged)


def alternating_mimo(chan, params, mode: str) -> BeamformerSolution:
    """Alternate receive- and transmit-side solves on a MIMO link:
    alternating_steps run alone by lockstep."""
    return lockstep([alternating_steps(chan, params, mode)])[0]
