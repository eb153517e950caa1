"""Scalar special functions and small Hermitian eigensolves.

The detection thresholds of this package all reduce to inverting
``ln y + 1/y = x``.  Only its upper root y >= 1 is used, because the design
requires delta1 > delta0, and that root is expressed through the principal
branch W0 of the Lambert W function, computed here in pure ``math`` by
Halley's iteration (Corless et al., "On the Lambert W function", Adv.
Comput. Math. 5, 1996).  Everything here is scalar or small-dense (matrix
dimension <= 8), so the implementations favor robustness and auditability
over asymptotics.
"""

from __future__ import annotations

import math

import numpy as np

_INV_E = math.exp(-1.0)
_INV_E_LO = -1.2428753672788363e-17     # 1/e - _INV_E
_HALLEY_CAP = 12


def _halley(z: float, residual, a: float) -> float:
    """Root of residual(., a) by Halley's iteration from z.

    residual(z, a) returns (f, f', f''/(2 f')).  Stops once a step is at
    most 1e-15 max(1, |z|), or no smaller than the step before it (the
    iterate has reached rounding noise), or after _HALLEY_CAP steps.
    """
    last = math.inf
    for _ in range(_HALLEY_CAP):
        f, d1, r = residual(z, a)
        step = f / (d1 - f * r)
        z -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z)) or abs(step) >= last:
            break
        last = abs(step)
    return z


def _w_residual(w: float, x: float) -> tuple:
    """w e^w - x and its derivatives."""
    ew = math.exp(w)
    return w * ew - x, ew * (w + 1.0), (w + 2.0) / (2.0 * w + 2.0)


def _w_residual_scaled(w: float, x: float) -> tuple:
    """_w_residual divided by e^w, which cannot overflow for large x."""
    return w - x * math.exp(-w), w + 1.0, (w + 2.0) / (2.0 * w + 2.0)


def _u_residual(u: float, c: float) -> tuple:
    """e (w e^w - x) in u = 1 + w and c = e x + 1.

    Near -1/e, w e^w - x cancels to rounding noise; u e^u - expm1(u) - c
    does not, so u, and w = u - 1, come out within a few ulps of 1.
    """
    eu = math.exp(u)
    return u * eu - math.expm1(u) - c, u * eu, (1.0 + u) / (2.0 * u)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Halley's iteration from one of three starts: the branch-point series
    in p = sqrt(2 (e x + 1)) for x < -1/4, ln(1 + x) corrected by its log
    for x < 3, and ln x - ln ln x beyond.  Where e x + 1 < 1e-2 it iterates
    on u = 1 + w, with e x + 1 formed from a two-part 1/e; within 1e-14 of
    -1/e it returns the leading term of the series, -1 + p.

    Args:
        x: Argument, must satisfy x >= -1/e; +inf gives +inf.

    Returns:
        w >= -1 with w * exp(w) = x, residual below 1e-12 * max(1, |x|).

    Raises:
        ValueError: If x < -1/e (outside the real domain) or x is NaN.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w0 domain error: x is NaN")
    if x < -_INV_E:
        if x > -_INV_E - 1e-15 * max(1.0, abs(x)):
            return -1.0  # representation noise at the branch point
        raise ValueError(f"lambert_w0 domain error: x = {x} < -1/e")
    if x < -_INV_E + 1e-14:
        return -1.0 + math.sqrt(2.0 * (math.e * x + 1.0))
    if x == math.inf:
        return x
    if x < -0.25:
        c = math.e * ((x + _INV_E) + _INV_E_LO)
        near = c < 1e-2
        # Away from -1/e the start uses the plain e x + 1: the default
        # divergence floors, pinned in the tests, depend on it to the bit.
        p = math.sqrt(2.0 * (c if near else math.e * x + 1.0))
        u = p * (1.0 - p * (1.0 / 3.0 - p * 11.0 / 72.0))    # 1 + W0
        if near:
            return _halley(u, _u_residual, c) - 1.0
        return _halley(u - 1.0, _w_residual, x)
    if x < 3.0:
        lx = math.log1p(x)
        return _halley(lx * (1.0 - math.log1p(lx) / (2.0 + lx)),
                       _w_residual, x)
    lx = math.log(x)
    llx = math.log(lx)
    return _halley(lx - llx + llx / lx, _w_residual_scaled, x)


def big_f(x: float) -> float:
    """Upper solution branch of ln y + 1/y = x.

    This is the threshold map F(x) = exp(W0(-exp(-x)) + x) that converts a KLD
    floor into a variance-ratio floor.  F is strictly increasing on [1, inf)
    with F(1) = 1.

    Args:
        x: Threshold argument, must be >= 1.

    Returns:
        y >= 1 solving ln y + 1/y = x.

    Raises:
        ValueError: If x < 1 or x is NaN.
    """
    x = float(x)
    if not x > 1.0:
        if x > 1.0 - 1e-12:
            return 1.0
        raise ValueError(f"big_f domain error: x = {x}, need x >= 1")
    return math.exp(lambert_w0(-math.exp(-x)) + x)


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small dense Hermitian matrix.

    Args:
        H: Square complex array equal to its conjugate transpose within 1e-12
            relative tolerance.

    Returns:
        Tuple (eigenvalues, eigenvectors) with eigenvalues real and sorted
        descending, and eigenvectors[:, i] the orthonormal eigenvector for
        eigenvalues[i].

    Raises:
        ValueError: If H is not square or not Hermitian.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"hermitian_eig expects a square matrix, got {H.shape}")
    scale = np.linalg.norm(H)
    if scale > 0 and np.linalg.norm(H - H.conj().T) > 1e-12 * scale:
        raise ValueError("hermitian_eig input is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(H)
    return vals[::-1].copy(), vecs[:, ::-1].copy()

