"""Scalar special functions and small Hermitian eigensolves.

The detection thresholds of this package all reduce to inverting
``ln y + 1/y = x``.  Only its upper root y >= 1 is used, because the design
requires delta1 > delta0, and that root is expressed through the principal
branch W0 of the Lambert W function.  Everything here is scalar or
small-dense (matrix dimension <= 8), so the implementations favor robustness
and auditability over asymptotics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw

_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    scipy.special.lambertw away from the branch point; within 1e-14 of
    -1/e, where scipy returns nan at the float nearest -1/e, the leading
    term of the branch-point series.

    Args:
        x: Argument, must satisfy x >= -1/e.

    Returns:
        w >= -1 with w * exp(w) = x, residual below 1e-12 * max(1, |x|).

    Raises:
        ValueError: If x < -1/e (outside the real domain).
    """
    x = float(x)
    if x < -_INV_E:
        if x > -_INV_E - 1e-15 * max(1.0, abs(x)):
            return -1.0  # representation noise at the branch point
        raise ValueError(f"lambert_w0 domain error: x = {x} < -1/e")
    if x < -_INV_E + 1e-14:
        return -1.0 + math.sqrt(2.0 * (math.e * x + 1.0))
    return float(lambertw(x).real)


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

