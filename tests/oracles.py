"""Independent reference implementations used only by the test suite.

Every oracle here deliberately avoids the code paths of the package under
test: Lambert W and the threshold map are solved by bisection, cubic
eigenvalues by the trigonometric closed form, Gamma CDFs by adaptive
quadrature, and small optimization problems by dense grid search.  Expected
values frozen into the tests were computed with these functions.  Two
kinds of helper do use the package: sdp_stack and sdp_rows convert between
lists of (A, b) rows and the SDP kernel's stacks, and
evolved_every_candidate is the evolved design's candidate walk without its
once-per-W verification, the reference that walk is compared against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def bisect_root(g, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection for g with a sign change on [lo, hi]."""
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: g={glo}, {ghi}")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def lambert_w0_oracle(x: float) -> float:
    """Principal-branch Lambert W by bisection on w*e^w = x, w >= -1."""
    if x == 0.0:
        return 0.0
    g = lambda w: w * math.exp(w) - x
    hi = max(1.0, x)
    return bisect_root(g, -1.0, hi)


def big_f_oracle(x: float) -> float:
    """Upper branch of ln y + 1/y = x by bisection on y >= 1."""
    if x == 1.0:
        return 1.0
    g = lambda y: math.log(y) + 1.0 / y - x
    return bisect_root(g, 1.0, math.exp(x) + 1.0)


def big_f_lower_oracle(x: float) -> float:
    """Lower branch of ln y + 1/y = x by bisection on 0 < y <= 1."""
    if x == 1.0:
        return 1.0
    g = lambda y: math.log(y) + 1.0 / y - x
    lo = 1e-300
    while g(lo) < 0:  # pragma: no cover - defensive
        lo *= 10.0
    return bisect_root(g, lo, 1.0)


def cubic_hermitian_eigvals(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix from its characteristic cubic.

    Uses the trigonometric solution of the depressed cubic; all roots are
    real for Hermitian input.  Returned sorted descending.
    """
    H = np.asarray(H, dtype=complex)
    assert H.shape == (3, 3)
    c2 = float(np.trace(H).real)
    # Sum of principal 2x2 minors.
    m01 = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    m02 = H[0, 0] * H[2, 2] - H[0, 2] * H[2, 0]
    m12 = H[1, 1] * H[2, 2] - H[1, 2] * H[2, 1]
    c1 = float((m01 + m02 + m12).real)
    c0 = float(np.linalg.det(H).real)
    # lambda^3 - c2 lambda^2 + c1 lambda - c0 = 0; shift lambda = t + c2/3.
    p = c1 - c2 * c2 / 3.0
    q = -c0 + c1 * c2 / 3.0 - 2.0 * c2 ** 3 / 27.0
    shift = c2 / 3.0
    if abs(p) < 1e-30:
        t = -np.cbrt(q)
        roots = np.array([t, t, t]) + shift
        return np.sort(roots)[::-1]
    m = 2.0 * math.sqrt(max(-p, 0.0) / 3.0)
    arg = 3.0 * q / (p * m) if m > 0 else 0.0
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    ks = np.array([0.0, 1.0, 2.0])
    roots = m * np.cos(theta - 2.0 * math.pi * ks / 3.0) + shift
    return np.sort(roots)[::-1]


def gamma_cdf_quad(tau: float, shape: int, scale: float) -> float:
    """Gamma CDF by adaptive quadrature of the density (independent of
    incomplete-gamma series)."""
    if tau <= 0.0:
        return 0.0
    norm = math.gamma(shape) * scale ** shape

    def pdf(t):
        return t ** (shape - 1) * math.exp(-t / scale) / norm

    val, _ = quad(pdf, 0.0, tau, limit=200)
    return min(1.0, max(0.0, val))


def dep_oracle_quad(delta0: float, delta1: float, n: int) -> float:
    """Optimal detection error probability via quadrature Gamma CDFs."""
    if delta0 == delta1:
        return 1.0
    lo, hi = sorted((delta0, delta1))
    tau = n * math.log(delta1 / delta0) / (1.0 / delta0 - 1.0 / delta1)
    return 1.0 - (gamma_cdf_quad(tau, n, lo) - gamma_cdf_quad(tau, n, hi))


def unit_sphere_grid_2d(n_mag: int, n_phase: int) -> np.ndarray:
    """Phase-reduced grid over complex unit vectors of dimension 2.

    The global phase is fixed by making the first entry real nonnegative:
    v = [cos(a), sin(a) e^{j phi}] with a in [0, pi/2], phi in [0, 2 pi).
    Returns an array of shape (n_mag * n_phase, 2).
    """
    a = np.linspace(0.0, math.pi / 2.0, n_mag)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
    A, P = np.meshgrid(a, phi, indexing="ij")
    v = np.empty(A.shape + (2,), dtype=complex)
    v[..., 0] = np.cos(A)
    v[..., 1] = np.sin(A) * np.exp(1j * P)
    return v.reshape(-1, 2)


def refine_sphere_grid_2d(center: np.ndarray, width_a: float, width_phi: float,
                          n: int) -> np.ndarray:
    """Local grid around a unit 2-vector, same phase convention."""
    c0 = abs(center[0])
    a0 = math.atan2(abs(center[1]), c0)
    phi0 = math.atan2(center[1].imag, center[1].real) - math.atan2(
        center[0].imag, center[0].real)
    a = np.clip(np.linspace(a0 - width_a, a0 + width_a, n), 0.0, math.pi / 2.0)
    phi = np.linspace(phi0 - width_phi, phi0 + width_phi, n)
    A, P = np.meshgrid(a, phi, indexing="ij")
    v = np.empty(A.shape + (2,), dtype=complex)
    v[..., 0] = np.cos(A)
    v[..., 1] = np.sin(A) * np.exp(1j * P)
    return v.reshape(-1, 2)


def slsqp_qcqp_oracle(c, constraints, ball_radius, starts):
    """Reference QCQP solution via scipy SLSQP from several start points.

    constraints is a list of (A, q, b) with the same meaning as in the
    package solver; starts is an iterable of complex start vectors.  Returns
    the best (objective, v) found.  The problem is convex, so any local
    optimum SLSQP reaches is global; multiple starts guard against the rare
    failed line search.
    """
    from scipy.optimize import minimize

    c = np.asarray(c, dtype=complex)
    m = c.size

    def split(z):
        return z[:m] + 1j * z[m:]

    def neg_obj(z):
        return -float(np.real(np.vdot(c, split(z))))

    cons = [{"type": "ineq",
             "fun": lambda z, r=ball_radius: r - float(z @ z)}]
    for A, q, b in constraints:
        def fun(z, A=A, q=q, b=b):
            v = split(z)
            val = float(b)
            if A is not None:
                val -= float(np.real(np.vdot(v, A @ v)))
            if q is not None:
                val -= 2.0 * float(np.real(np.vdot(q, v)))
            return val
        cons.append({"type": "ineq", "fun": fun})

    best = (-np.inf, None)
    for v0 in starts:
        z0 = np.concatenate([np.asarray(v0).real, np.asarray(v0).imag])
        res = minimize(neg_obj, z0, method="SLSQP", constraints=cons,
                       options={"ftol": 1e-12, "maxiter": 500})
        if not res.success:
            continue
        viol = max(0.0, -min(cc["fun"](res.x) for cc in cons))
        if viol > 1e-7:
            continue
        if -res.fun > best[0]:
            best = (-res.fun, split(res.x))
    return best


def slsqp_sphere_oracle(C, rows, starts, tol=1e-9):
    """Reference maximum of v^H C v over unit v subject to v^H A v <= b for
    each (A, b) in rows, by scipy SLSQP from several start points, in the
    real coordinates (Re v, Im v) with analytic gradients.

    The problem is not convex, so the starts should spread over the sphere.
    A local optimum counts only when it is a unit vector and meets every
    row to tol, both relative to the row's scale max(|b|, ||A||_F).
    Returns the best (objective, v) found, (-inf, None) when none counts.
    """
    from scipy.optimize import minimize

    C = np.asarray(C, dtype=complex)
    m = len(C)

    def split(z):
        return z[:m] + 1j * z[m:]

    def form(X):
        """v^H X v and its gradient in z."""
        def f(z):
            return float(np.vdot(split(z), X @ split(z)).real)

        def g(z):
            w = 2.0 * (X @ split(z))
            return np.concatenate([w.real, w.imag])
        return f, g

    fc, gc = form(C)
    scale = max(float(np.linalg.norm(C)), 1e-300)
    cons = [{"type": "eq", "fun": lambda z: float(z @ z) - 1.0,
             "jac": lambda z: 2.0 * z}]
    scaled = []
    for A, b in rows:
        A = np.asarray(A, dtype=complex)
        s = max(abs(float(b)), float(np.linalg.norm(A)), 1e-12)
        fa, ga = form(A)
        scaled.append((fa, b, s))
        cons.append({"type": "ineq",
                     "fun": lambda z, fa=fa, b=b, s=s: (b - fa(z)) / s,
                     "jac": lambda z, ga=ga, s=s: -ga(z) / s})
    best = (-np.inf, None)
    for v0 in starts:
        v0 = np.asarray(v0, dtype=complex)
        v0 = v0 / np.linalg.norm(v0)
        res = minimize(lambda z: -fc(z) / scale, np.concatenate(
            [v0.real, v0.imag]), jac=lambda z: -gc(z) / scale,
            method="SLSQP", constraints=cons,
            options={"ftol": 1e-15, "maxiter": 1000})
        z = res.x
        if abs(float(z @ z) - 1.0) > tol or any(
                fa(z) - b > tol * s for fa, b, s in scaled):
            continue
        if fc(z) > best[0]:
            best = (fc(z), split(z))
    return best


def qcqp_max_violation(p, v) -> float:
    """Largest normalized constraint violation of v (negative if interior).

    p is a QcqpProblem.  Row values are those of the unit ball,
    ||v||^2 - 1, and of each constraint v^H A v + 2 Re(q^H v) - b divided
    by the scale max(|b|, Tr A, 2 ||q||), as the solver normalizes them.
    """
    v = np.asarray(v, dtype=complex)
    worst = float(np.vdot(v, v).real) - 1.0
    for A, q, b in p.quad_constraints:
        val, s = -float(b), abs(float(b))
        if A is not None:
            val += float(np.vdot(v, A @ v).real)
            s = max(s, float(np.trace(A).real))
        if q is not None:
            val += 2.0 * float(np.vdot(q, v).real)
            s = max(s, 2.0 * float(np.linalg.norm(q)))
        worst = max(worst, val / max(s, 1e-12))
    return worst


def sdp_max_violation(p, W) -> float:
    """Largest normalized violation over equalities, inequalities, the cone.

    p is an SdpProblem; an inequality Tr(A W) <= b is scaled by
    max(|b|, ||A||_F), as the solver normalizes it.
    """
    W = np.asarray(W, dtype=complex)
    worst = -np.inf
    for A, b in p.eq_constraints:
        worst = max(worst, abs(float(np.trace(A @ W).real) - b)
                    / max(1.0, abs(b)))
    for A, b in p.ineq_constraints:
        s = max(abs(float(b)), float(np.linalg.norm(A)), 1e-12)
        worst = max(worst, (float(np.trace(A @ W).real) - b) / s)
    return max(worst, -float(np.linalg.eigvalsh(W)[0]))


def brute_sdp_2x2(C, ineqs, n=120):
    """Dense grid maximization of Tr(C W) over 2x2 density matrices.

    W is parameterized as [[a, x+iy], [x-iy, 1-a]] with a in [0, 1] and
    x^2 + y^2 <= a(1-a).  ineqs is a list of (A, b) meaning
    Tr(A W) <= b.  One refinement pass shrinks the grid error to about
    1e-4 * scale.  Returns (objective, (a, x, y)) or (None, None) if no grid
    point is feasible.
    """
    def evaluate(a, x, y):
        def lin(Mx):
            return (Mx[0, 0].real * a + Mx[1, 1].real * (1.0 - a)
                    + 2.0 * (Mx[1, 0].real * x - Mx[1, 0].imag * y))
        obj = lin(C)
        ok = x ** 2 + y ** 2 <= a * (1.0 - a) + 1e-12
        for A, b in ineqs:
            ok = ok & (lin(A) <= b + 1e-9)
        return np.where(ok, obj, -np.inf)

    def search(a_lo, a_hi, x_lo, x_hi, y_lo, y_hi):
        a = np.linspace(a_lo, a_hi, n)
        x = np.linspace(x_lo, x_hi, n)
        y = np.linspace(y_lo, y_hi, n)
        A3, X3, Y3 = np.meshgrid(a, x, y, indexing="ij")
        vals = evaluate(A3, X3, Y3)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        return vals[idx], (A3[idx], X3[idx], Y3[idx])

    best, pt = search(0.0, 1.0, -0.5, 0.5, -0.5, 0.5)
    if not np.isfinite(best):
        return None, None
    a0, x0, y0 = pt
    h = 1.5 / n
    best, pt = search(max(0.0, a0 - h), min(1.0, a0 + h),
                      x0 - h, x0 + h, y0 - h, y0 + h)
    return float(best), pt


def constrained_snr_oracle(h0, h1, hs, sigma_s2, sigma_w2, n_samples,
                           d_floor, e_floor, mode, n_mag=241, n_phase=480):
    """Grid-search maximum of gamma |v^H h1|^2 under the detection floors.

    Dimension-2 channels only; the constraints are recomputed here from the
    variance definitions, independent of the package.  Both modes search
    the branch the optimization formulations actually live on; the raw
    divergence floors admit a second, destructive branch (delta1 below
    delta0, a power *drop* so large it is itself detectable) that the
    variance-ratio / lifted transformations exclude by construction, and
    on some draws that branch's optimum is strictly better, which no
    faithful implementation can reach.  Concretely: "consensual" enforces
    the variance-ratio forms delta1 >= F(d_floor/n + 1) delta0 and
    delta1_bar >= F(e_floor/n + 1) delta0_bar (the without-DL ratio has no
    second branch since delta1_bar >= delta0_bar always); "evolved"
    enforces the constructive channel inequality

        |v^H h1|^2 - |v^H h0|^2 - |v^H hs|^2 >= gamma |v^H h0|^2 |v^H hs|^2

    together with the without-DL floor.  Two refinement passes bring the
    grid error to roughly 1e-5 relative.  Returns (snr, v) or (None, None).
    """
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    hs = np.asarray(hs, dtype=complex)
    gamma = sigma_s2 / sigma_w2
    f_with = big_f_oracle(d_floor / n_samples + 1.0)
    f_without = big_f_oracle(e_floor / n_samples + 1.0)

    def score(pts):
        p0 = np.abs(pts @ h0.conj()) ** 2
        p1 = np.abs(pts @ h1.conj()) ** 2
        ps = np.abs(pts @ hs.conj()) ** 2
        d0 = p0 * sigma_s2 + sigma_w2
        d1 = p1 * sigma_s2 + sigma_w2
        d1b = ps * sigma_s2 + sigma_w2
        if mode == "consensual":
            ok = ((d1 >= f_with * d0 * (1.0 - 1e-9))
                  & (d1b >= f_without * sigma_w2 * (1.0 - 1e-9)))
        else:
            rb = d1b / sigma_w2
            kld_wo = n_samples * (np.log(rb) + 1.0 / rb - 1.0)
            ok = ((p1 - p0 - ps - gamma * p0 * ps >= -1e-9)
                  & (kld_wo >= e_floor - 1e-9))
        return np.where(ok, gamma * p1, -np.inf)

    pts = unit_sphere_grid_2d(n_mag, n_phase)
    vals = score(pts)
    i = int(np.argmax(vals))
    if not np.isfinite(vals[i]):
        return None, None
    best_v = pts[i]
    wa, wp = math.pi / (2.0 * n_mag), 2.0 * math.pi / n_phase
    for _ in range(2):
        pts = refine_sphere_grid_2d(best_v, 2.0 * wa, 2.0 * wp, 161)
        vals = score(pts)
        i = int(np.argmax(vals))
        best_v = pts[i]
        wa /= 40.0
        wp /= 40.0
    return float(vals[i]), best_v


def ci_inequality_margin(v: np.ndarray, h0: np.ndarray, h1_bar: np.ndarray,
                         gamma: float) -> float:
    """Margin of the evolved-CI channel inequality at a unit-norm beamformer.

    Returns lhs - rhs of

        |v^H h1|^2 - |v^H h0|^2 - |v^H h1_bar|^2 >= gamma |v^H h0|^2 |v^H h1_bar|^2

    with h1 = h0 + h1_bar.  Positive margin means the direct link is
    constructive (delta-KLD >= 0) whenever delta1 >= delta0, which the
    inequality itself implies when it holds.
    """
    v = np.asarray(v, dtype=complex)
    a0 = abs(np.vdot(v, np.asarray(h0, dtype=complex))) ** 2
    ab = abs(np.vdot(v, np.asarray(h1_bar, dtype=complex))) ** 2
    a1 = abs(np.vdot(v, np.asarray(h0, dtype=complex)
                     + np.asarray(h1_bar, dtype=complex))) ** 2
    return float(a1 - a0 - ab - gamma * a0 * ab)


def collinear_x_range(c, hs_norm2, sigma_s2, sigma_w2, n_samples, d_floor,
                      e_floor, mode):
    """Feasible range of x = |v^H hs|^2 over unit v when h0 = c hs.

    With collinear channels every quantity both designs use depends on v
    only through x: |v^H h0|^2 = |c|^2 x and |v^H h1|^2 = |1 + c|^2 x, and
    a unit v reaches any x in [0, ||hs||^2] (dimension >= 2).  The floors
    become bounds on x, recomputed here from the variance definitions:

    * without-DL, both modes: 1 + gamma x >= F(e_floor/n + 1);
    * "consensual", with-DL: 1 + gamma |1+c|^2 x >= F(d_floor/n + 1)
      (1 + gamma |c|^2 x), a lower bound when |1+c|^2 > F |c|^2 and, for
      F > 1, unmeetable otherwise;
    * "evolved", the constructive inequality 2 Re(c) x >= gamma |c|^2 x^2,
      an upper bound 2 Re(c) / (gamma |c|^2) when Re(c) > 0, and x = 0
      otherwise.

    Returns (lo, hi); the set is empty when lo > hi.  The SNR
    gamma |1+c|^2 x rises with x, so hi is the optimal x where lo <= hi.
    """
    gamma = sigma_s2 / sigma_w2
    a, b = abs(1.0 + c) ** 2, abs(c) ** 2
    lo = (big_f_oracle(e_floor / n_samples + 1.0) - 1.0) / gamma
    hi = float(hs_norm2)
    if mode == "consensual":
        f_with = big_f_oracle(d_floor / n_samples + 1.0)
        slope = gamma * (a - f_with * b)
        if slope <= 0.0:
            return lo, 0.0
        lo = max(lo, (f_with - 1.0) / slope)
    else:
        hi = min(hi, 2.0 * c.real / (gamma * b)) if c.real > 0 else 0.0
    return lo, hi


def benchmark_scheme_oracle(h0, h1, hs, sigma_s2, sigma_w2, n_samples,
                            zeta_max, scheme, tol=1e-6):
    """One tag's closed-form benchmark scheme, computed alone.

    The per-tag form of harness.run_benchmark, written out with np.outer,
    np.linalg.solve, np.linalg.norm, np.vdot and math, one tag at a time:
    harmful_dli takes the MMSE filter
    (h0 h0^H + hs hs^H + (sigma_w2/sigma_s2) I)^-1 hs, normalized, and its
    output SINR; canceled_dli the matched filter hs/||hs|| and
    gamma ||hs||^2.  The variances are |v^H h|^2 sigma_s2 + sigma_w2 ||v||^2
    with and without h0, and the tag is feasible when the no-DL KLD clears
    -ln(1 - (1 - zeta_max)^2) - tol.

    Returns None for a zero hs, else (v, snr, feasible, stats): stats is
    (delta0, delta1, delta0_bar, delta1_bar, kld_with, kld_without,
    delta_kld, dep_bound_with, dep_bound_without).
    """
    if not hs.any():
        return None
    if scheme == "harmful_dli":
        A = (np.outer(h0, h0.conj()) + np.outer(hs, hs.conj())
             + (sigma_w2 / sigma_s2) * np.eye(hs.size))
        v = np.linalg.solve(A, hs)
        v = v / np.linalg.norm(v)
        snr = (sigma_s2 * abs(np.vdot(v, hs)) ** 2
               / (sigma_s2 * abs(np.vdot(v, h0)) ** 2 + sigma_w2))
    else:
        v = hs / np.linalg.norm(hs)
        snr = sigma_s2 / sigma_w2 * float(np.vdot(hs, hs).real)
        h0 = np.zeros_like(h0)
        h1 = hs
    nv2 = float(np.vdot(v, v).real)

    def delta(h):
        return abs(np.vdot(v, h)) ** 2 * sigma_s2 + sigma_w2 * nv2

    def kld(num, den):
        r = num / den
        return n_samples * (math.log(r) + 1.0 / r - 1.0)

    d0, d1 = delta(h0), delta(h1)
    d0b, d1b = delta(np.zeros_like(h0)), delta(hs)
    k_with, k_without = kld(d1, d0), kld(d1b, d0b)
    e_min = -math.log1p(-((1.0 - zeta_max) ** 2))
    stats = (d0, d1, d0b, d1b, k_with, k_without, k_with - k_without,
             1.0 - math.sqrt(-math.expm1(-k_with)),
             1.0 - math.sqrt(-math.expm1(-k_without)))
    return v, float(snr), k_without >= e_min - tol, tuple(map(float, stats))


def sdp_stack(row_sets):
    """Row sets, each a list of (A, b) rows of one length, as the SDP
    kernel's stack: A (B, k, m, m) and b (B, k)."""
    return (np.array([[a for a, _b in rows] for rows in row_sets],
                     dtype=complex),
            np.array([[b for _a, b in rows] for rows in row_sets],
                     dtype=float))


def sdp_rows(A, b):
    """The stack A (B, k, m, m), b (B, k) as B lists of (A, b) rows."""
    return [list(zip(a, bj)) for a, bj in zip(A, b)]


def evolved_every_candidate(chan, params):
    """evolved_sdp's BeamformerSolution from the walk that verifies every
    examined candidate: _block_rank_one and _finalize run on each grid point
    examined, whether or not an earlier one had the same relaxation optimum
    W, and the penalty SCA runs at each one they do not verify.  The
    relaxations are built one grid point t at a time and solved in one
    kernel call.  The package's helpers are read from the module at call
    time, so a test's patches (_RANK_TOL, spies) apply here too."""
    from backci import beamforming as bf
    from backci.convex import OPTIMAL, solve_sdp_batch

    h0, h1, hs = bf._unpack(chan)
    gamma = params.gamma
    d_min, e_min, _f_with, f_without = bf.divergence_floors(params)
    if bf._no_dl_floor_unreachable(gamma, hs, f_without):
        return bf._infeasible()
    U, g0, g1, gs, gamma = bf._span_lift(h0, h1, hs, gamma)
    H0, H1, Hs = (np.outer(g, g.conj()) for g in (g0, g1, gs))
    t_hi = float(np.vdot(g0, g0).real)
    t_lo = t_hi if U.shape[1] == 1 else 0.0
    grid = np.linspace(t_lo, t_hi, params.T if t_hi - t_lo >= 1e-15 else 1)
    chi = params.chi * gamma * float(np.vdot(g1, g1).real)
    relax = []      # (bound, t, W, rows, v), as evolved_steps
    kernel_grid = grid
    if len(grid) > 1:
        kernel_grid = grid[1:]
        pgs = gs - g0 * (np.vdot(g0, gs) / t_hi)
        if pgs.any() and not bf._no_dl_floor_unreachable(gamma, pgs,
                                                         f_without):
            relax.append((gamma * float(np.vdot(pgs, pgs).real), 0.0, None,
                          None, pgs / np.linalg.norm(pgs)))
    row_sets = [[(-H1 + (1.0 + gamma * t) * Hs, -t),
                 (-gamma * Hs, -(f_without - 1.0)),
                 (H0, t)] for t in kernel_grid]
    results = solve_sdp_batch(gamma * H1, *sdp_stack(row_sets))
    relax += [(float(res.objective), float(t), res.W, rows, None)
              for t, rows, res in zip(kernel_grid, row_sets, results)
              if res.status == OPTIMAL]

    achieved = []
    best_snr = -np.inf
    n_solves, pen_capped = 0, False
    for ub, t, W_rel, rows, v in sorted(relax, key=lambda e: -e[0]):
        if ub < best_snr - 1e-9:
            break
        exact = v is not None
        if not exact:
            v, residual = bf._block_rank_one(W_rel)
            if residual > bf._RANK_TOL:
                v = None
        ok = v is not None
        if ok:
            v, stats, ok, snr = bf._finalize(U @ v, h0, h1, hs, params,
                                             d_min, e_min, "evolved")
            residual, trace_t = 0.0, []
        if not ok:
            if exact:
                continue
            W, trace_t, converged_t, n_solve = bf._penalized_sca(
                rows, H1, gamma, chi, W_rel, params.J, params.omega)
            n_solves += n_solve
            pen_capped |= not converged_t
            v, residual = bf._block_rank_one(W)
            v, stats, ok, snr = bf._finalize(U @ v, h0, h1, hs, params,
                                             d_min, e_min, "evolved")
            if not ok:
                continue
        achieved.append((snr, t, v, residual, trace_t, stats))
        best_snr = max(best_snr, snr)

    total_iter = len(grid) + n_solves
    if not achieved:
        return bf._infeasible(iterations=total_iter,
                              converged=not pen_capped)
    best_snr = max(a[0] for a in achieved)
    snr, _t, v, residual, trace_t, stats = min(
        (a for a in achieved if a[0] >= best_snr - 1e-9), key=lambda a: a[1])
    return bf.BeamformerSolution(v=v, snr=snr, feasible=True,
                                 iterations=total_iter,
                                 objective_trace=trace_t,
                                 rank_residual=residual, stats=stats,
                                 converged=not pen_capped)
