"""Receive and transmit beamformer designs for backscatter tag detection.

Four solvers share one solution type:

* consensual_sca: successive convex approximation on the receive vector,
  keeping both detection divergences above their floors.
* evolved_sdp: lifted semidefinite formulation with a rank-one penalty and a
  scalar auxiliary grid, enforcing that the direct link never hurts.
* mmse_beamformer: closed-form interference-suppressing benchmark.
* alternating_mimo: block alternation between receive and transmit vectors,
  reusing the two solvers above on effective single-input channels.

Per-tag channels are passed as a triple (h0, h1, h_str): the direct-only
channel, the combined channel and the backscatter channel, vectors for the
single-transmit case and M x Q matrices for the MIMO case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .convex import (
    OPTIMAL,
    QcqpProblem,
    SdpProblem,
    solve_ball_qcqp,
    solve_small_sdp,
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
    objective; rank_residual is lambda2/lambda1 of the final lifted matrix
    (evolved mode only).  stats carries the detection divergences at the
    returned point, recomputed independently of the solver.
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
    h0, h1, hs = chan
    return (np.asarray(h0, dtype=complex), np.asarray(h1, dtype=complex),
            np.asarray(hs, dtype=complex))


def _infeasible(iterations=0) -> BeamformerSolution:
    return BeamformerSolution(v=None, snr=0.0, feasible=False,
                              iterations=iterations)


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


def consensual_sca(chan, params, v_init: Optional[np.ndarray] = None
                   ) -> BeamformerSolution:
    """SCA solver keeping both detection divergences above their floors.

    Maximizes gamma |v^H h1|^2 over unit-norm v subject to the with-DL
    variance-ratio constraint (convexified by linearizing |v^H h1|^2 around
    the incumbent) and the without-DL floor (same linearization applied to
    |v^H h_str|^2).  Initialized at the matched filter h1/||h1||, with one
    retry from the MMSE direction; v_init overrides both (used by the
    alternating MIMO loop).
    """
    h0, h1, hs = _unpack(chan)
    gamma = params.gamma
    d_min, e_min, f_with, f_without = divergence_floors(params)

    # Feasibility bails: the without-DL floor caps at gamma ||hs||^2, and
    # the with-DL constraint needs lambda_max(gamma(H1 - F H0)) to reach
    # F - 1 even before the other constraints bite.
    if gamma * float(np.vdot(hs, hs).real) < f_without - 1.0 - 1e-12:
        return _infeasible()
    H0 = np.outer(h0, h0.conj())
    H1 = np.outer(h1, h1.conj())
    Hs = np.outer(hs, hs.conj())
    lam = np.linalg.eigvalsh(gamma * (H1 - f_with * H0))[-1]
    if lam < f_with - 1.0 - 1e-12:
        return _infeasible()

    h0_zero = float(np.vdot(h0, h0).real) == 0.0
    if v_init is not None:
        inits = [np.asarray(v_init, dtype=complex)]
    else:
        inits = [h1 / np.linalg.norm(h1)]
        if not h0_zero:
            inits.append(mmse_beamformer(h0, hs, params.sigma_s2,
                                         params.sigma_w2))

    def solve_around(vbar):
        """The subproblem linearized at vbar, solved; and vbar^H H1 vbar."""
        c1 = float(np.vdot(vbar, H1 @ vbar).real)
        cs1 = float(np.vdot(vbar, Hs @ vbar).real)
        cons = [
            (None if h0_zero else f_with * gamma * H0, -gamma * (H1 @ vbar),
             -(f_with - 1.0) - gamma * c1),
            (None, -gamma * (Hs @ vbar), -(f_without - 1.0) - gamma * cs1),
        ]
        return solve_ball_qcqp(QcqpProblem(c=2.0 * gamma * (H1 @ vbar),
                                           quad_constraints=cons),
                               v0=vbar), c1

    trace = []
    vbar = None
    converged = False
    for init in inits:
        vbar = init / np.linalg.norm(init)
        first, c1 = solve_around(vbar)
        if first.status == OPTIMAL:
            break
    else:
        return _infeasible()

    v = first.v / np.linalg.norm(first.v)
    mu = 2.0 * float(np.vdot(vbar, H1 @ v).real) - c1
    trace.append(gamma * mu)
    vbar = v
    for _ in range(1, params.L):
        res, c1 = solve_around(vbar)
        if res.status != OPTIMAL:
            break   # boundary case: keep the incumbent
        v = res.v / np.linalg.norm(res.v)
        mu = 2.0 * float(np.vdot(vbar, H1 @ v).real) - c1
        trace.append(gamma * mu)
        vbar = v
        if abs(trace[-1] - trace[-2]) < params.omega * max(
                1.0, abs(trace[-1])):
            converged = True
            break

    v, stats, ok, snr = _finalize(vbar, h0, h1, hs, params, d_min, e_min,
                                  "consensual")
    return BeamformerSolution(v=v, snr=snr, feasible=ok,
                              iterations=len(trace),
                              objective_trace=trace, stats=stats,
                              converged=converged)


def recover_rank_one(W: np.ndarray) -> tuple:
    """Dominant unit eigenvector of W and the rank residual lambda2/lambda1."""
    vals, vecs = hermitian_eig(W)
    v = vecs[:, 0]
    if vals.size == 1:
        return v, 0.0
    lam1 = max(float(vals[0]), 1e-300)
    return v, float(max(vals[1], 0.0) / lam1)


def _penalized_sca(prob, H1, gamma, chi, W, center, max_iter, omega):
    """Inner SCA on the penalized lifted problem for one (t, chi) pair.

    The anchor of each convex subproblem is the dominant eigenvector of the
    current iterate.  Because the linearized penalty is a global
    underestimator for ANY unit anchor, the anchor may be extrapolated along
    the iterates' drift without losing monotonicity, provided the step is
    kept only when the true penalized objective improves.  With the plain
    anchor the drift contracts at a rate near 1 - 1/chi_rel and would burn
    the whole iteration budget; extrapolation collapses it in a handful of
    solves while converging to the same fixed point.

    Returns (W, center, trace, converged, infeasible, n_solves).
    """
    trace = []
    pen_cur = None
    delta_last = None   # last anchor move, phase-aligned
    s_last = 0.0        # its norm
    s_before = 0.0      # norm of the move before it
    skip_extra = True   # first steps just establish the drift
    n_solve = 0
    converged = False

    u, _ = recover_rank_one(W)
    for j in range(max_iter):
        u_try = None
        if not skip_extra and s_before > 1e-14 and s_last > 1e-12:
            r = s_last / s_before
            if 0.05 < r < 0.995:
                ext = u + min(r / (1.0 - r), 500.0) * delta_last
                nrm = float(np.linalg.norm(ext))
                if nrm > 1e-12:
                    u_try = ext / nrm
        skip_extra = False
        accepted = None
        for anchor in ([u_try, u] if u_try is not None else [u]):
            prob.C = gamma * H1 + chi * np.outer(anchor, anchor.conj())
            res = solve_small_sdp(prob, W0=center if center is not None
                                  else W)
            n_solve += 1
            if res.status != OPTIMAL:
                if anchor is u:
                    if j == 0:
                        return W, center, trace, False, True, n_solve
                    accepted = None
                    break
                continue
            lam_top = float(np.linalg.eigvalsh(res.W)[-1])
            pen = (gamma * float(np.trace(H1 @ res.W).real)
                   - chi * (1.0 - lam_top))
            if anchor is u or pen_cur is None or pen > pen_cur:
                accepted = (res, pen)
                break
            skip_extra = True   # overshot; re-establish the drift first
        if accepted is None:
            break
        res, pen = accepted
        W, center = res.W, res.center
        trace.append(pen)
        v_new, _ = recover_rank_one(W)
        # align the global phase before differencing successive anchors
        ph = np.vdot(u, v_new)
        if abs(ph) > 1e-15:
            v_new = v_new * (ph.conjugate() / abs(ph))
        step = float(np.linalg.norm(v_new - u))
        done = (pen_cur is not None
                and abs(pen - pen_cur) < omega * max(1.0, abs(pen)))
        delta_last, s_before, s_last = v_new - u, s_last, step
        u, pen_cur = v_new, pen
        if done or (step < 1e-10 and j > 0):
            converged = True
            break
    return W, center, trace, converged, False, n_solve


def evolved_sdp(chan, params, v_init: Optional[np.ndarray] = None
                ) -> BeamformerSolution:
    """Lifted solver enforcing that the direct link never hurts detection.

    Grids a scalar t over the spectrum of H0 = h0 h0^H; for each t solves a
    penalized trace-one SDP by SCA (the rank penalty is linearized through
    the dominant eigenvector), with the penalty weight chi doubled up to six
    times whenever the recovered solution is not close enough to rank one.
    Each grid point is first bounded by its unpenalized relaxation, whose
    solution also seeds the penalty iteration.  The best t by recovered
    objective wins, smallest t on ties.  v_init is accepted for interface
    symmetry with consensual_sca but the lifted iteration starts from the
    relaxation solution.
    """
    del v_init
    h0, h1, hs = _unpack(chan)
    m = h1.size
    gamma = params.gamma
    d_min, e_min, _f_with, f_without = divergence_floors(params)
    if gamma * float(np.vdot(hs, hs).real) < f_without - 1.0 - 1e-12:
        return _infeasible()

    H0 = np.outer(h0, h0.conj())
    H1 = np.outer(h1, h1.conj())
    Hs = np.outer(hs, hs.conj())
    eye = np.eye(m, dtype=complex)
    lam0 = np.linalg.eigvalsh(H0)
    t_lo, t_hi = max(float(lam0[0]), 0.0), max(float(lam0[-1]), 0.0)
    if t_hi - t_lo < 1e-15:
        grid = np.array([t_lo])
    else:
        grid = np.linspace(t_lo, t_hi, params.T)
    chi0 = params.chi * gamma * float(np.linalg.eigvalsh(H1)[-1])

    total_iter = 0
    any_nonconverged = False

    # Relaxation pass: without the rank restriction, the optimum at each
    # grid point upper-bounds whatever the penalty iteration can recover
    # there, and its solution is the natural warm start.  Points whose bound
    # cannot beat the incumbent are skipped outright, which is where most of
    # the grid's budget would otherwise go.
    relax = []
    W_carry = None
    for idx, t in enumerate(grid):
        ineqs = [
            (-H1 + (1.0 + gamma * t) * Hs, -t),       # DL-gain floor via t
            (-gamma * Hs, -(f_without - 1.0)),        # without-DL floor
            (H0, t),                                  # t dominates the DLI
        ]
        prob = SdpProblem(C=gamma * H1, dim=m, eq_constraints=[(eye, 1.0)],
                          ineq_constraints=ineqs)
        res = solve_small_sdp(prob, W0=W_carry)
        total_iter += 1
        if res.status != OPTIMAL:
            continue
        W_carry = res.center
        relax.append((float(res.objective), idx, float(t), res.W,
                      res.center, ineqs))
    if not relax:
        return _infeasible(iterations=total_iter)

    relax.sort(key=lambda e: -e[0])
    achieved = []        # (snr, t, v, residual, trace, converged, stats)
    best_snr = -np.inf
    for ub, _idx, t, W_rel, center_rel, ineqs in relax:
        if ub < best_snr - 1e-9:
            continue
        prob = SdpProblem(C=H1, dim=m, eq_constraints=[(eye, 1.0)],
                          ineq_constraints=ineqs)
        chi = chi0
        W, center = W_rel, center_rel
        candidate = None      # best ok attempt at this t
        for _attempt in range(7):
            W, center, trace_t, converged_t, infeasible_t, n_solve = (
                _penalized_sca(prob, H1, gamma, chi, W, center,
                               params.J, params.omega))
            total_iter += n_solve
            if infeasible_t:
                break
            if not converged_t:
                any_nonconverged = True
            v, residual = recover_rank_one(W)
            v, stats, ok, snr = _finalize(v, h0, h1, hs, params, d_min,
                                          e_min, "evolved")
            if ok and (candidate is None or residual < candidate[2]):
                candidate = (snr, v, residual, trace_t, converged_t, stats)
            if residual <= 1e-3 and ok:
                break
            chi *= 2.0
        if candidate is None:
            continue
        snr, v, residual, trace_t, converged_t, stats = candidate
        achieved.append((snr, t, v, residual, trace_t, converged_t, stats))
        best_snr = max(best_snr, snr)

    if not achieved:
        return _infeasible(iterations=total_iter)
    # smallest t wins among the grid points tying for the best objective
    best = min((a for a in achieved if a[0] >= best_snr - 1e-9),
               key=lambda a: a[1])
    snr, _t, v, residual, trace_t, _converged_t, stats = best
    return BeamformerSolution(v=v, snr=snr, feasible=True,
                              iterations=total_iter,
                              objective_trace=trace_t,
                              rank_residual=residual, stats=stats,
                              converged=not any_nonconverged)


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


def _solver_for(mode):
    """The single-transmit solver for a mode, looked up when called."""
    if mode == "consensual":
        return consensual_sca
    if mode == "evolved":
        return evolved_sdp
    raise ValueError(f"unknown mode {mode!r}")


def alternating_mimo(chan, params, mode: str) -> BeamformerSolution:
    """Alternate receive- and transmit-side solves on a MIMO link.

    chan is the per-tag matrix triple (G0, G1, Gs), each M x Q.  Fixing the
    unit transmit direction xt reduces to the single-transmit problem on
    channels G_i @ xt; fixing v reduces to the same problem shape on the
    adjoint channels G_i^H v with the unit ball on xt.  The incumbent seeds
    each inner solve, which keeps the SNR trace nondecreasing; a new block
    value is kept only if it does not lower the SNR.  Stops on relative SNR
    change below omega or after L rounds.
    """
    G0, G1, Gs = _unpack(chan)
    solver = _solver_for(mode)
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
        sol_v = solver((G0 @ xt, G1 @ xt, Gs @ xt), params, v_init=v)
        if not sol_v.feasible:
            if v is None:
                return _infeasible()
            break
        v_new = sol_v.v
        snr_v = gamma * abs(np.vdot(v_new, G1 @ xt)) ** 2
        if snr_v >= snr_cur:
            v = v_new
            snr_cur = snr_v

        sol_x = solver((G0.conj().T @ v, G1.conj().T @ v, Gs.conj().T @ v),
                       params, v_init=xt)
        if not sol_x.feasible:
            if s_round == 1:
                return _infeasible()
            break
        xt_new = sol_x.v
        snr_x = gamma * abs(np.vdot(v, G1 @ xt_new)) ** 2
        if snr_x >= snr_cur:
            xt = xt_new
            snr_cur = snr_x

        rounds = s_round
        trace.append(snr_cur)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) \
                < params.omega * max(1.0, abs(trace[-1])):
            converged = True
            break

    if v is None:
        return _infeasible()
    v, stats, ok, _snr = _finalize(v, G0 @ xt, G1 @ xt, Gs @ xt, params,
                                   d_min, e_min,
                                   "consensual" if mode == "consensual"
                                   else "evolved")
    snr = gamma * abs(np.vdot(v, G1 @ xt)) ** 2
    return BeamformerSolution(v=v, snr=snr, feasible=ok, iterations=rounds,
                              x=np.sqrt(params.sigma_s2) * xt,
                              objective_trace=trace, stats=stats,
                              converged=converged)
