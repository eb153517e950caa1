"""Receive and transmit beamformer designs for backscatter tag detection.

Four solvers share one solution type:

* consensual_sca: successive convex approximation on the receive vector,
  keeping both detection divergences above their floors.  Its loop is
  the generator consensual_steps, which yields one QCQP per SCA step;
  lockstep runs many such generators together and solves each round's
  QCQPs as one convex.solve_ball_qcqps batch per dimension.
  consensual_sca is lockstep on one generator.
* evolved_sdp: lifted semidefinite relaxation over a scalar auxiliary grid,
  enforcing that the direct link never hurts; its optimum is purified to
  rank one, with a rank-one penalty SCA as the fallback.  The grid point
  t = 0 is solved in closed form, by the zero-forcing receiver.  Its
  generator, evolved_steps, yields the other grid points' relaxations as
  one request;
  lockstep stacks the requests of many tags into convex.solve_sdp_batch
  calls of at most _SDP_STACK entries.  evolved_sdp is lockstep on one
  generator.
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
verified feasible so far.  Any other failed step, an iteration cap or
round-off, ends the loop at the incumbent with converged=False.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# solve_ball_qcqp stays importable from this module: bench/tracer.py
# wraps it here.
from .convex import (  # noqa: F401
    MAX_ITER,
    OPTIMAL,
    QcqpProblem,
    SdpProblem,
    _herm_basis,
    solve_ball_qcqp,
    solve_ball_qcqps,
    solve_sdp_batch,
    solve_small_sdp,
    svec,
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
    objective (empty for a purified evolved point); rank_residual is
    lambda2/lambda1 of the final lifted matrix (evolved mode only: 0 for
    a purified point, whose lift is v v^H).  stats carries the detection
    divergences at the returned point, recomputed independently of the
    solver.  iterations counts, per design: consensual_sca, the SCA
    subproblems solved from the accepted start; evolved_sdp, the grid
    points (t = 0, solved in closed form, included) plus the SDP solves of
    the penalty fallback;
    alternating_mimo (alternating_steps), the completed alternation
    rounds; the closed-form benchmark schemes, 0.
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
    inverting ln(x) + 1/x = floor/N + 1 on the upper branch.
    """
    d_min = kld_threshold(params.xi_max)
    e_min = kld_threshold(params.zeta_max)
    f_with = big_f(d_min / params.N + 1.0)
    f_without = big_f(e_min / params.N + 1.0)
    return d_min, e_min, f_with, f_without


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


def consensual_steps(chan, params, v_init: Optional[np.ndarray] = None):
    """The consensual SCA as a generator of its subproblems.

    Maximizes gamma |v^H h1|^2 over unit-norm v subject to the with-DL
    variance-ratio constraint (convexified by linearizing |v^H h1|^2 around
    the incumbent) and the without-DL floor (same linearization applied to
    |v^H h_str|^2).  Initialized at the matched filter h1/||h1||, with one
    retry from the MMSE direction; v_init overrides both (the alternation
    of alternating_steps passes its incumbent).

    Yields (QcqpProblem, v0), one SCA subproblem and its start, and takes
    its QcqpResult back by send(); returns the BeamformerSolution.  Run it
    with lockstep.
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

    if v_init is not None:
        inits = [np.asarray(v_init, dtype=complex)]
    else:
        inits = [h1 / np.linalg.norm(h1),
                 mmse_beamformer(h0, hs, params.sigma_s2, params.sigma_w2)]

    def around(vbar):
        """The subproblem linearized at vbar, and vbar^H H1 vbar."""
        c1 = float(np.vdot(vbar, H1 @ vbar).real)
        cs1 = float(np.vdot(vbar, Hs @ vbar).real)
        cons = [
            (f_with * gamma * H0, -gamma * (H1 @ vbar),
             -(f_with - 1.0) - gamma * c1),
            (None, -gamma * (Hs @ vbar), -(f_without - 1.0) - gamma * cs1),
        ]
        return QcqpProblem(c=2.0 * gamma * (H1 @ vbar),
                           quad_constraints=cons), c1

    capped = False
    for init in inits:
        vbar = init / np.linalg.norm(init)
        prob, c1 = around(vbar)
        res = yield prob, vbar
        if res.status == OPTIMAL:
            break
        capped |= res.status == MAX_ITER
    else:
        return _infeasible(converged=not capped)

    trace = []
    converged = False
    for it in range(params.L):
        if it:      # step 0 is the solve around the init above
            prob, c1 = around(vbar)
            res = yield prob, vbar
            if res.status != OPTIMAL:
                break   # boundary case: keep the incumbent
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


_SDP_STACK = 200    # most SDP entries in one solve_sdp_batch call of lockstep


def lockstep(gens) -> list:
    """Run design generators together; their solutions, in order.

    A generator yields either (QcqpProblem, v0), one QCQP and its start,
    and takes back its QcqpResult (consensual_steps), or (C, row_sets),
    the trace-one SDPs of objective C, one per row set, and takes back
    their SdpResults (evolved_steps); alternating_steps yields what its
    inner design yields.  Each round sends every pending generator its
    results, then solves what they yield: the QCQPs as one
    solve_ball_qcqps batch per dimension, and the SDPs, each entry with its
    own request's C, as solve_sdp_batch calls of at most _SDP_STACK
    entries per matrix size.  Both kernels are batch-invariant, so every
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
        groups = {}
        for i, (first, _rest) in now.items():
            qcqp = isinstance(first, QcqpProblem)
            size = first.dim() if qcqp else len(first)
            groups.setdefault((qcqp, size), []).append(i)
        for (qcqp, _size), idx in groups.items():
            if qcqp:
                results = solve_ball_qcqps([now[i][0] for i in idx],
                                           [now[i][1] for i in idx])
            else:
                C = [now[i][0] for i in idx for _rows in now[i][1]]
                rows = [r for i in idx for r in now[i][1]]
                flat = [res for s in range(0, len(rows), _SDP_STACK)
                        for res in solve_sdp_batch(C[s:s + _SDP_STACK],
                                                   rows[s:s + _SDP_STACK])]
                ends = np.cumsum([len(now[i][1]) for i in idx])
                results = [flat[e - len(now[i][1]):e]
                           for i, e in zip(idx, ends)]
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


_RANK_TOL = 1e-7     # eigenvalues below this times lambda1 count as zero
_BIND_TOL = 1e-7     # a row binds when its normalized slack is below this


def _purify(W, H1, rows):
    """A unit v with v v^H as good as W in the relaxation, or None.

    W is a point of max Tr(H1 W) s.t. Tr W = 1, Tr(A W) <= b for (A, b) in
    rows, W PSD.  Rank reduction (Huang and Palomar, IEEE TSP 58(2), 2010):
    with W = V S V^H over its r top eigenpairs, a Hermitian r x r D with
    Tr(V^H F V D) = 0 for F in {I, H1, the binding rows} keeps the trace,
    the objective and those rows fixed along W + a V D V^H.  Each step goes
    along D or -D until S + a D turns singular, which drops the rank, or
    until a slack row binds, which then joins the fixed maps; a direction
    that drops the rank is preferred.  Such a D exists while the fixed
    maps, counted independently, are fewer than r^2; when none does, the
    result is None.
    """
    for _ in range(len(W) + len(rows)):   # a step drops the rank or binds
        vals, vecs = hermitian_eig(W)
        r = int(np.count_nonzero(vals > _RANK_TOL * vals[0]))
        if r == 1:
            return vecs[:, 0]
        V, S = vecs[:, :r], vals[:r]
        slack = [b - np.trace(A @ W).real for A, b in rows]
        free = [s >= _BIND_TOL * max(abs(b), np.linalg.norm(A), 1e-12)
                for s, (A, b) in zip(slack, rows)]
        fixed = np.array([svec(V.conj().T @ F @ V) for F in
                          [np.eye(len(W)), H1]
                          + [A for (A, _b), f in zip(rows, free) if not f]])
        fixed /= np.maximum(np.linalg.norm(fixed, axis=1, keepdims=True),
                            1e-300)
        _u, sv, vt = np.linalg.svd(fixed)
        null = vt[int(np.count_nonzero(sv > 1e-9 * sv[0])):]
        if not len(null):
            return None
        D = (null[0] @ _herm_basis(r)).reshape(r, r)
        G = V @ D @ V.conj().T
        rate = [np.trace(A @ G).real for A, _b in rows]
        lam = np.linalg.eigvalsh(D / np.sqrt(np.outer(S, S)))
        steps = []
        for sign, a_psd in ((1.0, -1.0 / lam[0]), (-1.0, 1.0 / lam[-1])):
            a_row = min((s / (sign * g) for s, g, f in zip(slack, rate, free)
                         if f and sign * g > 0), default=np.inf)
            steps.append((a_row < a_psd, sign * min(a_psd, a_row)))
        a = min(steps, key=lambda s: s[0])[1]
        W = (V * S) @ V.conj().T + a * G
        W = 0.5 * (W + W.conj().T)
    return None


_PEN_CYCLE = 4       # solves per extrapolation cycle of the penalty SCA


def _penalized_sca(rows, H1, gamma, chi, W, max_iter, omega):
    """Inner SCA on the penalized lifted problem at one grid point.

    The anchor of each convex subproblem is the dominant eigenvector of the
    current iterate.  Because the linearized penalty is a global
    underestimator for ANY unit anchor, the anchor may be extrapolated along
    the iterates' drift without losing monotonicity, provided the step is
    kept only when the true penalized objective improves.  With the plain
    anchor the drift contracts at a rate near 1 - 1/chi_rel and would burn
    the whole iteration budget; extrapolation collapses it in a handful of
    solves while converging to the same fixed point.  Every solve starts
    from W = I / m, like every SDP.  Every subproblem has the relaxation's
    rows, so the relaxation's W is the incumbent until a solve is accepted.
    It has converged when the penalized objective climbs by less than omega
    (relative) over the last _PEN_CYCLE solves, or the anchor stops moving.

    Returns (W, trace, converged, n_solves).
    """
    prob = SdpProblem(C=H1, dim=len(H1), ineq_constraints=rows,
                      eq_constraints=[(np.eye(len(H1)), 1.0)])
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
        prob.C = gamma * H1 + chi * np.outer(anchor, anchor.conj())
        res = solve_small_sdp(prob)
        n_solve += 1
        if res.status != OPTIMAL:
            return None, None
        lam_top = float(np.linalg.eigvalsh(res.W)[-1])
        return res, (gamma * float(np.trace(H1 @ res.W).real)
                     - chi * (1.0 - lam_top))

    u, _ = recover_rank_one(W)
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
        v_new, _ = recover_rank_one(W)
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

    Yields (C, row_sets) once, the relaxations of every grid point but
    t = 0 (which it solves in closed form) with their shared objective C,
    and takes their SdpResults back by send(); returns the
    BeamformerSolution.  Run it with lockstep, which stacks the
    relaxations of many tags into shared solve_sdp_batch calls; evolved_sdp
    runs it alone.  What it solves is evolved_sdp's docstring.
    """
    h0, h1, hs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, _f_with, f_without = divergence_floors(params)
    if _no_dl_floor_unreachable(gamma, hs, f_without):
        return _infeasible()

    U = _span_basis(h0, hs)
    s = float(np.linalg.norm(h1)) or 1.0
    g0, g1, gs = (U.conj().T @ (h / s) for h in (h0, h1, hs))
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    gamma *= s * s
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
    # solution is what purification or the penalty stage starts from.
    # Every relaxation is solved; purification and the penalty stage are
    # skipped at the points whose bound cannot beat the best SNR found.
    # The grid points share the matrices of their last two rows.
    no_dl = (-gamma * Hs, -(f_without - 1.0))     # without-DL floor
    row_sets = [[
        (-H1 + (1.0 + gamma * t) * Hs, -t),       # DL-gain floor via t
        no_dl,
        (H0, t),                                  # t dominates the DLI
    ] for t in kernel_grid]
    total_iter = len(grid)
    any_nonconverged = False
    results = yield gamma * H1, row_sets
    for t, rows, res in zip(kernel_grid, row_sets, results):
        if res.status == MAX_ITER:
            any_nonconverged = True
        if res.status != OPTIMAL:
            continue
        relax.append((float(res.objective), float(t), res.W, rows, None))
    if not relax:
        return _infeasible(iterations=total_iter,
                           converged=not any_nonconverged)

    relax.sort(key=lambda e: -e[0])
    achieved = []        # (snr, t, v, residual, trace, stats)
    best_snr = -np.inf
    for ub, t, W_rel, rows, v in relax:
        if ub < best_snr - 1e-9:
            break       # relax is sorted by bound: none of the rest can win
        exact = v is not None
        if not exact:
            v = _purify(W_rel, H1, rows)
        ok = v is not None
        if ok:
            v, stats, ok, snr = _finalize(U @ v, h0, h1, hs, params, d_min,
                                          e_min, "evolved")
            residual, trace_t = 0.0, []
        if not ok:
            if exact:   # the closed form has no fallback
                continue
            W, trace_t, converged_t, n_solve = _penalized_sca(
                rows, H1, gamma, chi, W_rel, params.J, params.omega)
            total_iter += n_solve
            if not converged_t:
                any_nonconverged = True
            v, residual = recover_rank_one(W)
            v, stats, ok, snr = _finalize(U @ v, h0, h1, hs, params, d_min,
                                          e_min, "evolved")
            if not ok:
                continue
        achieved.append((snr, t, v, residual, trace_t, stats))
        best_snr = max(best_snr, snr)

    if not achieved:
        return _infeasible(iterations=total_iter,
                           converged=not any_nonconverged)
    # smallest t wins among the grid points tying for the best objective
    best = min((a for a in achieved if a[0] >= best_snr - 1e-9),
               key=lambda a: a[1])
    snr, _t, v, residual, trace_t, stats = best
    return BeamformerSolution(v=v, snr=snr, feasible=True,
                              iterations=total_iter,
                              objective_trace=trace_t,
                              rank_residual=residual, stats=stats,
                              converged=not any_nonconverged)


def evolved_sdp(chan, params) -> BeamformerSolution:
    """Lifted solver enforcing that the direct link never hurts detection:
    evolved_steps run alone by lockstep.

    Grids a scalar t over the spectrum of H0 = h0 h0^H and bounds each t by
    its trace-one SDP relaxation.  When the grid has more than one point,
    its first, t = 0, is solved in closed form: there Tr(H0 W) <= 0 leaves
    only the face W h0 = 0, which has no interior, and the relaxation's
    optimum on it is rank one, the zero-forcing receiver v = P hs /
    ||P hs|| with P the projector off h0 and bound gamma ||P hs||^2
    (facial reduction).  It is a candidate like a purified point, kept if
    it meets the without-DL floor and _finalize verifies it, and it still
    counts in iterations, so a grid of T points counts T.  A one-point
    grid (M = 1, or a direct link too weak for the grid) goes to the
    kernel whole.  The relaxations of the other grid points are one
    solve_sdp_batch request, which lockstep may stack with other tags'
    (greedy_select does).  The lift is built on the basis U of _span_basis,
    so it is at most 3 x 3 for any M, and exact; each v' found there is
    mapped back as v = U v' and verified by _finalize on the full channels.
    It is built from the channels divided by ||h1||, with gamma times
    ||h1||^2: the grid's and the kernels' floors are absolute, and so the
    answer stays put when every channel scales by s and sigma_w2 by s^2.
    A relaxation that hits the iteration cap drops its grid point and
    marks the result not converged; one that ends infeasible or with no
    interior drops it alone.  Grid points are examined by falling bound
    until no remaining bound can beat the best SNR found.  At each,
    _purify reduces the relaxation's optimum to a rank-one v v^H at the
    same objective, so v is optimal for that t; it is kept if _finalize
    verifies it, with rank_residual 0.  Where no
    reduction exists, or v does not verify, the penalized trace-one SDP is
    solved by SCA from the relaxation's point (the rank penalty is
    linearized through the dominant eigenvector), once, at the weight chi *
    gamma * lambda_max(H1); its dominant eigenvector is kept if _finalize
    verifies it, else the grid point is dropped, and rank_residual reports
    how far from rank one it ended.  The best t by recovered objective
    wins, smallest t on ties.
    """
    return lockstep([evolved_steps(chan, params)])[0]


def mmse_beamformer(h_sr: np.ndarray, h_str: np.ndarray, sigma_s2: float,
                    sigma_w2: float) -> np.ndarray:
    """MMSE receive filter treating the direct link as interference.

    v* = normalize((h_sr h_sr^H + h_str h_str^H + (sigma_w2/sigma_s2) I)^{-1}
    h_str).  Always well defined for sigma_w2 > 0.
    """
    h_sr = np.asarray(h_sr, dtype=complex)
    h_str = np.asarray(h_str, dtype=complex)
    if float(np.vdot(h_str, h_str).real) == 0.0:
        raise ValueError("backscatter channel must be nonzero")
    m = h_str.size
    A = (np.outer(h_sr, h_sr.conj()) + np.outer(h_str, h_str.conj())
         + (sigma_w2 / sigma_s2) * np.eye(m))
    v = np.linalg.solve(A, h_str)
    return v / np.linalg.norm(v)


def _design_steps(chan, params, mode: str, incumbent=None):
    """A mode's single-transmit design generator on chan; the consensual
    SCA starts at the incumbent if one is given.  ValueError on an unknown
    mode, before any solve."""
    if mode == "consensual":
        return consensual_steps(chan, params, incumbent)
    if mode == "evolved":
        return evolved_steps(chan, params)
    raise ValueError(f"unknown mode {mode!r}")


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
    """
    G0, G1, Gs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, _fw, _fo = divergence_floors(params)

    _u, _s, vh = np.linalg.svd(G1)
    xt = vh[0].conj()
    v = None
    snr_cur = -np.inf
    trace = []
    converged = False
    rounds = 0
    for s_round in range(1, params.L + 1):
        sol_v = yield from _design_steps((G0 @ xt, G1 @ xt, Gs @ xt),
                                         params, mode, v)
        if not sol_v.feasible:
            if v is None:
                return _infeasible(converged=sol_v.converged)
            break
        v_new = sol_v.v
        snr_v = gamma * abs(np.vdot(v_new, G1 @ xt)) ** 2
        if snr_v >= snr_cur:
            v = v_new
            snr_cur = snr_v

        sol_x = yield from _design_steps(
            (G0.conj().T @ v, G1.conj().T @ v, Gs.conj().T @ v), params,
            mode, xt)
        if not sol_x.feasible:
            break
        xt_new = sol_x.v
        snr_x = gamma * abs(np.vdot(v, G1 @ xt_new)) ** 2
        if snr_x >= snr_cur:
            xt = xt_new
            snr_cur = snr_x

        rounds = s_round
        trace.append(snr_cur)
        if len(trace) >= 2 and _settled(trace[-1], trace[-2], params.omega):
            converged = True
            break

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
