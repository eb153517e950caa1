"""Closed-form constructive-interference region for the single-antenna case.

With one reader antenna the beamformer drops out and the evolved-CI
feasibility question has a closed form: the input SNR gamma must lie in an
interval whose lower end enforces the no-direct-link detection floor and
whose upper end keeps the direct link constructive.  The upper end also
rewrites as an angle condition between the direct and backscatter channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from backci.numerics import big_f


@dataclass
class CiRegion:
    """CI region summary for one SISO link pair.

    Attributes:
        gamma_lo: Smallest input SNR meeting the no-DL detection floor.
        gamma_hi: Largest input SNR at which the DL stays constructive
            (math.inf when there is no direct link).
        nonempty: Whether the interval [gamma_lo, gamma_hi] is nonempty.
    """

    gamma_lo: float
    gamma_hi: float
    nonempty: bool


def snr_interval(h_sr: complex, h_str: complex, g_min: float) -> CiRegion:
    """Evolved-CI input-SNR interval for scalar channels.

    Args:
        h_sr: Direct-link coefficient (may be 0).
        h_str: Backscatter-link coefficient, nonzero.
        g_min: No-DL threshold argument E_min/N + 1, >= 1.

    Returns:
        CiRegion with gamma_lo = (F(g_min) - 1)/|h_str|^2 and
        gamma_hi = 2 Re(h_sr^* h_str) / (|h_sr|^2 |h_str|^2), infinite when
        h_sr = 0.  Both divide by one magnitude at a time, never by a
        square, so a tiny magnitude cannot underflow them: a bound beyond
        the float range takes its limiting value, +inf or -inf.

    Raises:
        ValueError: If a channel is not finite, h_str = 0 (the lower bound
            diverges), g_min is below 1 or NaN, or both bounds are beyond
            the float range, where their order cannot be told.
    """
    h_sr = complex(h_sr)
    h_str = complex(h_str)
    if not math.isfinite(abs(h_sr) + abs(h_str)):
        raise ValueError("channels must be finite")
    if h_str == 0:
        raise ValueError("h_str must be nonzero")
    if not g_min >= 1.0:
        raise ValueError("g_min must be >= 1")
    m_sr, m_str = abs(h_sr), abs(h_str)
    gamma_lo = (big_f(g_min) - 1.0) / m_str / m_str
    if h_sr == 0:
        gamma_hi = math.inf
    else:
        cos = ((h_sr / m_sr).conjugate() * (h_str / m_str)).real
        gamma_hi = 2.0 * cos / m_sr / m_str
        if gamma_lo == gamma_hi == math.inf:
            raise ValueError(f"|h_sr| = {m_sr:.3g} and |h_str| = "
                             f"{m_str:.3g} are too small: both SNR bounds "
                             "are beyond the float range")
    return CiRegion(gamma_lo=gamma_lo, gamma_hi=gamma_hi,
                    nonempty=gamma_lo <= gamma_hi)


def ci_angle(h_sr_mag: float, h_str_mag: float,
             gamma: float) -> Optional[float]:
    """Largest channel angle at which the direct link is constructive.

    Args:
        h_sr_mag: |h_sr| > 0, finite.
        h_str_mag: |h_str| > 0, finite.
        gamma: Input SNR, >= 0 (inf allowed).

    Returns:
        arccos(gamma * |h_sr| * |h_str| / 2) in radians, at most pi/2, or
        None when the arccos argument exceeds 1 (no angle is constructive).
    """
    if not (0 < h_sr_mag < math.inf and 0 < h_str_mag < math.inf):
        raise ValueError("magnitudes must be positive and finite")
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    arg = gamma * h_sr_mag * h_str_mag / 2.0
    if arg > 1.0:
        return None
    return math.acos(arg)


def theta_max_at_min_snr(h_sr_mag: float, h_str_mag: float,
                         g_min: float) -> Optional[float]:
    """Widest CI angle, attained by operating at the minimum feasible SNR.

    ci_angle at snr_interval's gamma_lo = (F(g_min) - 1)/|h_str|^2; None
    when the floor SNR already breaks constructiveness, which includes a
    gamma_lo beyond the float range.  ValueError where snr_interval
    refuses the magnitudes.
    """
    if not (0 < h_sr_mag < math.inf and 0 < h_str_mag < math.inf):
        raise ValueError("magnitudes must be positive and finite")
    if not g_min >= 1.0:
        raise ValueError("g_min must be >= 1")
    gamma_lo = snr_interval(h_sr_mag, h_str_mag, g_min).gamma_lo
    return ci_angle(h_sr_mag, h_str_mag, gamma_lo)
