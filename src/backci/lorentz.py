"""The designs' block lifts as Lorentz-cone programs in four real
coordinates, solved exactly by enumeration.

A 2 x 2 Hermitian W_s = [[tau + x_1, x_2 + i x_3], [x_2 - i x_3, tau - x_1]] / 2
is PSD iff |x| <= tau (Ben-Tal & Nemirovski, Lectures on Modern Convex
Optimization, 2001): a Lorentz cone in z = (tau, x).  A trace-one SDP on
W_s (m = 2, tau = 1), or on diag(W_s, 1 - tau) (m = 3, tau <= 1), whose
objective and rows see only those blocks is therefore max c . z over the
cone, tau <= 1 and its rows, each a halfspace h . z <= hb.  That set is
compact and convex, so a linear objective peaks at an extreme point
(Alizadeh & Goldfarb, Second-order cone programming, Math. Program. 95,
2003): the apex z = 0, the vertex where four halfspaces meet, or a point of
the cone's surface where 1 to 3 halfspaces bind and c . z is stationary.
Each such point lies on one line of a fixed table (_table), which meets the
cone in closed form (_meet), so the enumeration is exact.  Phase one, the
least largest row violation over the trace-one set, peaks the same way on
lines of its own.  convex._block_sdps builds the halfspaces from an SDP's
rows, reading each matrix's four block entries (coordinates), and turns
the points found here into SdpResults.  An optimum on the cone's surface
or at the apex lifts to a rank-one W = v v^H (lift); the only other
optimum, the vertex of the three rows and the trace inside the cone, lifts
to a W_s of rank two, which the evolved design hands to its penalty SCA.

Every array holds the 4 coordinates on its leading axis and the entries
next, and every product is a sum over one axis in numpy's own loops, so no
entry's arithmetic depends on what else is in the stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

FEAS = 1e-9     # the most an exact solution may miss a normalized row, the
                # cone or the trace by, and the least certificate that makes
                # an entry INFEASIBLE
_J = np.array([-1.0, 1.0, 1.0, 1.0]).reshape(4, 1, 1)   # z^T J z = |x|^2 - tau^2
_LINES = 1000   # entry-lines solved at once (_lines), which bounds memory


def coordinates(X, m):
    """Tr(X W) = coef . z + const for W = W_s (m = 2) or diag(W_s, 1 - tau)
    (m = 3), W_s = [[tau + x_1, x_2 + i x_3], [x_2 - i x_3, tau - x_1]] / 2.

    X (..., m, m) is Hermitian, and block diagonal at m = 3 (only X00, X11,
    X01 and X22 are read).  Returns coef (4, ...), the coordinates
    z = (tau, x) first, and const (...): X22 at m = 3, else 0.
    """
    d0, d1 = X[..., 0, 0].real, X[..., 1, 1].real
    off = X[..., 0, 1]
    const = np.zeros(d0.shape) if m == 2 else X[..., 2, 2].real
    return np.array([0.5 * (d0 + d1) - const, 0.5 * (d0 - d1),
                     off.real, off.imag]), const


def dot(u, v):
    """u . v over the leading axis, the 4 coordinates of z, summed in
    numpy's own loop: np.einsum's sum changed with the stack's size."""
    return (u * v).sum(0)


def _perp(v, qs):
    """v less its components along the orthonormal vectors qs, in place."""
    for q in qs:
        v -= dot(v, q) * q
    return v


def _cross(u, v, w):
    """The 4-vector n with n . x = det[u; v; w; x] for every x: orthogonal to
    u, v and w, and 0 when they are dependent."""
    p01, p02, p03 = (u[0] * v[i] - u[i] * v[0] for i in (1, 2, 3))
    p12, p13, p23 = (u[i] * v[j] - u[j] * v[i]
                     for i, j in ((1, 2), (1, 3), (2, 3)))
    return np.array([w[2] * p13 - w[1] * p23 - w[3] * p12,
                     w[0] * p23 - w[2] * p03 + w[3] * p02,
                     w[1] * p03 - w[0] * p13 - w[3] * p01,
                     w[0] * p12 - w[1] * p02 + w[2] * p01])


def _frame(pool, frame_in):
    """An orthonormal basis q_0 ... q_3 of R^4 per line, by modified
    Gram-Schmidt on the four pool vectors frame_in[l] ((4, B, p) and
    (L, 4)).  A v within 1e-12 of the span of the q before it (0 included)
    gives way there to the unit vector e_j farthest from that span."""
    qs = []
    for i in frame_in.T:
        w = pool[:, :, i]
        size = 1e-24 * dot(w, w)
        near = dot(_perp(w, qs), w) <= size
        if near.any():
            far = np.ones_like(w)
            for q in qs:
                far -= q * q
            e = (np.arange(4).reshape(4, 1, 1) == far.argmax(0)).astype(float)
            del far
            np.copyto(w, _perp(e, qs), where=near)
        w /= np.sqrt(dot(w, w))
        qs.append(w)
    return qs


def _meet(E, r):
    """Where the line E_i . z = r_i (i = 0, 1, 2) meets the cone's surface.

    E holds three normals (4, ...), which become the line's orthonormal
    frame in place (Gram-Schmidt, E = R Q), and r their right sides.
    Returns the two roots of z^T J z = 0 on the line, (2, 4, ...), nan
    where the normals are dependent or the line misses the surface (a
    tangent meets it twice at one point), and the line as (z0, n): its
    point nearest the origin, Q^T R^-1 r, and its unit direction.
    """
    R = []
    for i, q in enumerate(E):
        for p in E[:i]:
            R.append(dot(q, p))
            q -= R[-1] * p
        R.append(np.sqrt(dot(q, q)))
        q /= R[-1]
    y0 = r[0] / R[0]
    y1 = (r[1] - R[1] * y0) / R[2]
    y2 = (r[2] - R[3] * y0 - R[4] * y1) / R[5]
    z0 = y0 * E[0]
    z0 += y1 * E[1]
    z0 += y2 * E[2]
    n = _cross(*E)
    n /= np.sqrt(dot(n, n))
    Jn = _J * n
    a, b, c = dot(n, Jn), dot(z0, Jn), dot(z0, _J * z0)
    del Jn
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    root = -(b + np.copysign(root, b))
    points = np.empty((2,) + z0.shape)
    for out, t in zip(points, (root / a, c / root)):
        np.multiply(t, n, out=out)
        out += z0
    return points, z0, n


def _lines(pool, rhs, frame_in, eqs):
    """The candidate points of a table of lines (_table), as chunks
    (4, B, 2 l) of l lines at a time, l B at most _LINES (l >= 1), which
    bounds the memory a call takes.

    pool (4, B, p) and rhs (B, p) hold the equations pool_i . z = rhs_i.
    Line l takes the frame (_frame) of the pool vectors frame_in[l], and the
    three equations eqs[l]: index i < p is pool equation i, and p + j is
    (J q_j) . z = 0 for the frame's q_j.  Its candidates are the two points
    where it meets the cone's surface (_meet).
    """
    p, B = pool.shape[2], len(rhs)
    step = max(1, _LINES // max(B, 1))
    for at in range(0, len(eqs), step):
        qs = _frame(pool, frame_in[at:at + step])
        E, r = [], []
        for i in eqs[at:at + step].T:
            own = i < p
            e = pool[:, :, np.where(own, i, 0)]
            # not np.unique: its first sort maps about 0.6 MB of numpy's
            # code into the process's resident memory
            for j, q in enumerate(qs):
                on = i == p + j
                if on.any():
                    e[:, :, on] = _J * q[:, :, on]
            E.append(e)
            r.append(np.where(own, rhs[:, np.where(own, i, 0)], 0.0))
        del qs
        yield _meet(E, r)[0].transpose(1, 2, 0, 3).reshape(4, B, -1)


def _best(chunks, score):
    """Each entry's candidate of highest score over chunks of candidates
    (4, B, n), the first on ties: (score (B,), z (4, B)); score(Z) is
    (B, n), -inf for a candidate that does not count."""
    top = None
    for Z in chunks:
        s = score(Z)
        at = np.arange(len(s))
        j = s.argmax(axis=1)
        s, z = s[at, j], Z[:, at, j]
        if top is None:
            top, best = s, z
        else:
            up = s > top
            top, best = np.where(up, s, top), np.where(up, z, best)
    return top, best


@lru_cache(maxsize=2)
def _table(m):
    """The lines on which the block relaxation's extreme points lie, at m.

    Halfspaces 0, 1 and 2 are the rows and 3 is tau <= 1 (tau = 1 at m = 2,
    which every line then keeps).  Each of the main problem's lines, over
    pool [h_0, h_1, h_2, h_3, c, 0], is one active set S of 1 to 3
    halfspaces: their equations, and the 3 - |S| frame vectors q beyond
    span(S, c), whose (J q) . z = 0 says J z lies in span(S, c), the
    first-order condition on the cone's surface.  Each of phase one's
    lines, over pool [h_1 - h_0, h_2 - h_0, h_2 - h_1, h_3, h_0, h_1, h_2, 0],
    is a set R of rows tied at the largest violation, with tau = 1 or not:
    their differences, tau = 1 if so, and the frame vectors beyond the
    span V of R's normals and h_3 if tau = 1, whose equations say J z lies
    in span(V).  Returns ((frame_in, eqs), (frame_in, eqs), vertex): the
    main problem's lines and phase one's (see _lines), and the four
    halfspaces in the order _candidates meets them at their vertex: on the
    line of the first three, where the last binds.
    """
    main = [S for k in (1, 2, 3) for S in combinations(range(4), k)
            if m == 3 or 3 in S]
    main_in = [S + (4,) + (5,) * (3 - len(S)) for S in main]
    main_eq = [S + tuple(6 + j for j in range(len(S) + 1, 4)) for S in main]
    diff = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    one = []
    for k in (1, 2, 3):
        for R in combinations(range(3), k):
            for tau in ((False, True) if m == 3 else (True,)):
                V = tuple(4 + i for i in R) + ((3,) if tau else ())
                one.append((V + (7,) * (4 - len(V)),
                            tuple(diff[(R[0], i)] for i in R[1:])
                            + ((3,) if tau else ())
                            + tuple(8 + j for j in range(len(V), 4))))
    return ((np.array(main_in), np.array(main_eq)),
            tuple(np.array(t) for t in zip(*one)),
            (0, 1, 2, 3) if m == 3 else (0, 1, 3, 2))


def _candidates(chunks, H, Hb, m, vertex=None):
    """The chunks of line candidates, then, given vertex (the halfspace
    order of _table), the four halfspaces' vertex, on the line of the
    first three, and at m = 3 the apex z = 0, each a chunk (4, B, 1)."""
    yield from chunks
    if vertex is not None:
        z0, n = _meet([H[:, :, [i]] for i in vertex[:3]],
                      [Hb[:, [i]] for i in vertex[:3]])[1:]
        h = H[:, :, vertex[3], None]
        yield z0 + (Hb[:, vertex[3], None] - dot(h, z0)) / dot(h, n) * n
    if m == 3:
        yield np.zeros((4, len(Hb), 1))


def _judge(Z, H, Hb, m):
    """Per candidate z (4, B, n): its largest normalized row violation
    (B, n), and whether it lies in the trace-one set to FEAS."""
    g = np.maximum.reduce([dot(H[:, :, i, None], Z) - Hb[:, i, None]
                           for i in range(3)])
    tau = Z[0]
    inside = ((np.sqrt(dot(Z[1:], Z[1:])) - tau <= FEAS)
              & (tau - 1.0 <= FEAS))
    if m == 2:
        inside &= 1.0 - tau <= FEAS
    return g, inside


def _support(d, m):
    """max d . z over the trace-one set: |d_x| + d_tau at tau = 1, or 0 at
    the apex (m = 3)."""
    h = d[0] + np.sqrt(dot(d[1:], d[1:]))
    return h if m == 2 else np.maximum(h, 0.0)


def _multipliers(cols, act, rhs):
    """Least-squares multipliers y (B, n) of rhs = sum_i y_i cols_i over the
    active columns, 0 on the others: cols (n, rows, B), act (n, B).

    They solve the normal equations, with a ridge of 1e-14 of their largest
    diagonal (a unit one on an inactive column), then once more for the
    residual (iterative refinement).  Every product is a sum over one axis,
    in numpy's own loops, so no entry's arithmetic depends on the stack.
    """
    K = np.where(act[:, None], cols, 0.0).transpose(2, 1, 0)
    G = K[:, 0, :, None] * K[:, 0, None, :]
    for k in K.transpose(1, 0, 2)[1:]:
        G += k[:, :, None] * k[:, None, :]
    d = np.diagonal(G, axis1=1, axis2=2)
    G += (np.where(act.T, 1e-14 * d.max(axis=1, keepdims=True), 1.0)
          [:, :, None] * np.eye(len(act)))
    y = np.zeros((len(rhs), len(act)))
    for _ in range(2):
        r = rhs - (K * y[:, None, :]).sum(axis=2)
        y = y + np.linalg.solve(G, (K * r[:, :, None]).sum(axis=1)[..., None]
                                )[..., 0]
    return np.where(act.T, y, 0.0)


def maximize(c, H, Hb, live, m):
    """Each live entry's best candidate for max c . z (c (4, B)) over the
    trace-one set and the halfspaces H (4, B, 4), Hb (B, 4): the rows, then
    tau <= 1.  Returns (top, z): c . z at the best candidate within FEAS of
    every halfspace, the cone and the trace, the first on ties, and that
    candidate (4, B); top is -inf where there is none."""
    (frame_in, eqs), _one, vertex = _table(m)
    B = len(Hb)

    def feasible(Z):
        g, inside = _judge(Z, H, Hb, m)
        return np.where(inside & (g <= FEAS) & live[:, None],
                        dot(c[:, :, None], Z), -np.inf)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _best(_candidates(
            _lines(np.concatenate([H, c[:, :, None], np.zeros((4, B, 1))],
                                  axis=2),
                   np.concatenate([Hb, np.zeros((B, 2))], axis=1),
                   frame_in, eqs), H, Hb, m, vertex), feasible)


def lift(z, m):
    """W at z in the trace-one set, and the z it reads.

    On the cone's surface (|x| >= tau - FEAS) W is rank one: v v^H, v = u
    at m = 2 and (u, sqrt(1 - tau)) at m = 3, u u^H = W_s at x scaled to
    |x| = tau (and tau = 1 at m = 2).  Inside the cone W_s has rank two, and
    W = W_s or diag(W_s, 1 - tau).
    """
    tau = np.ones(z.shape[1]) if m == 2 else np.clip(z[0], 0.0, 1.0)
    xn = np.sqrt(dot(z[1:], z[1:]))
    one = xn >= tau - FEAS
    xh = z[1:] / np.where(xn > 0.0, xn, 1.0)
    z = np.where(one, np.concatenate([tau[None], tau * xh]),
                 np.concatenate([tau[None], z[1:]]))
    up = xh[0] >= 0.0
    big = np.sqrt(0.5 * (1.0 + np.abs(xh[0])))
    off = 0.5 * (xh[1] + 1j * xh[2]) / big
    e = np.where(up, [big, off.conj()], [off, big]) * np.sqrt(tau)
    v = e if m == 2 else np.concatenate([e, np.sqrt(1.0 - tau)[None]])
    W = v.T[:, :, None] * v.T[:, None, :].conj()
    Ws = 0.5 * np.array([[z[0] + z[1], z[2] + 1j * z[3]],
                         [z[2] - 1j * z[3], z[0] - z[1]]]).transpose(2, 0, 1)
    full = np.zeros_like(W)
    full[:, :2, :2] = Ws
    if m == 3:
        full[:, 2, 2] = 1.0 - tau
    return np.where(one[:, None, None], W, full), z


def kkt(z, c, value, H, Hb, m):
    """The rows' multipliers y >= 0 (B, 3) at the optimum z (4, B) of
    c . z, and the gap they certify over value = c . z.

    y fits the KKT conditions c = sum_i y_i h_i + eta e_tau + lambda J z
    over the rows that bind at z, tau = 1 where it binds, and the cone
    where z is on its surface (_multipliers), and is clipped at 0.  For any
    y >= 0, sum_i y_i hb_i + _support(c - sum_i y_i h_i) bounds c . z over
    the rows and the trace-one set (Lagrange), so gap, that bound less
    value (0 where below), holds whatever the fit.
    """
    B = z.shape[1]
    slack = dot(H[:, :, :3], z[:, :, None]) - Hb[:, :3]
    act = np.concatenate([
        (slack >= -FEAS).T,
        [z[0] >= 1.0 - FEAS if m == 3 else np.ones(B, bool)],
        [np.sqrt(dot(z[1:], z[1:])) >= z[0] - FEAS]])
    cols = np.concatenate([H.transpose(2, 0, 1), (_J[:, :, 0] * z)[None]])
    y = np.maximum(_multipliers(cols, act, c.T)[:, :3], 0.0)
    bound = ((y * Hb[:, :3]).sum(axis=1)
             + _support(c - (H[:, :, :3] * y).sum(axis=2), m))
    return y, np.maximum(bound - value, 0.0)


def phase_one(H, Hb, m):
    """Phase one of entries with no feasible candidate: min over the
    trace-one set of the largest normalized row violation, on phase one's
    lines of _table, and its Farkas certificate.

    y (B, 3) >= 0, sum 1, fits the KKT conditions at phase one's optimum z:
    sum_i y_i h_i + eta e_tau + lambda J z = 0 over the rows tied at the
    largest violation, tau = 1 where it binds, and the cone.  For any such
    y, -(sum_i y_i hb_i + _support(-sum_i y_i h_i)) is a floor under every
    W's largest violation.  Returns (y, cert): y and that floor where it
    exceeds FEAS (INFEASIBLE), nan and phase one's optimum elsewhere
    (NO_INTERIOR).
    """
    B = len(Hb)
    frame_in, eqs = _table(m)[1]
    h = [H[:, :, i] for i in range(4)]
    pool = np.stack([h[1] - h[0], h[2] - h[0], h[2] - h[1], h[3],
                     h[0], h[1], h[2], np.zeros((4, B))], axis=2)
    rhs = np.zeros((B, 8))
    rhs[:, :4] = np.stack([Hb[:, 1] - Hb[:, 0], Hb[:, 2] - Hb[:, 0],
                           Hb[:, 2] - Hb[:, 1], Hb[:, 3]], axis=1)

    def least(Z):
        g, inside = _judge(Z, H, Hb, m)
        return np.where(inside, -g, -np.inf)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        low, z = _best(_candidates(_lines(pool, rhs, frame_in, eqs), H, Hb,
                                   m), least)
    low = -low
    viol = dot(H[:, :, :3], z[:, :, None]) - Hb[:, :3]
    act = np.concatenate([
        (viol >= low[:, None] - FEAS).T,
        [z[0] >= 1.0 - FEAS if m == 3 else np.ones(B, bool)],
        np.ones((1, B), bool)])
    sums = np.zeros((5, 1, B))      # the row sum_i y_i = 1
    sums[:3] = 1.0
    cols = np.concatenate([np.concatenate([H.transpose(2, 0, 1),
                                           (_J[:, :, 0] * z)[None]]), sums],
                          axis=1)
    rhs = np.zeros((B, 5))
    rhs[:, 4] = 1.0
    y = np.maximum(_multipliers(cols, act, rhs)[:, :3], 0.0)
    y = np.where(y.sum(axis=1, keepdims=True) > 0.0, y,
                 viol == viol.max(axis=1, keepdims=True))
    y /= y.sum(axis=1, keepdims=True)
    floor = -((y * Hb[:, :3]).sum(axis=1)
              + _support(-(H[:, :, :3] * y).sum(axis=2), m))
    certified = floor > FEAS
    return (np.where(certified[:, None], y, np.nan),
            np.where(certified, floor, low))
