"""Hypothesis-testing layer for tag detection.

Under the on/off tag hypotheses the combined receive samples are
zero-mean complex Gaussian with per-sample variances

    delta_i = |v^H h_i|^2 sigma_s^2 + sigma_w^2 ||v||^2,  i in {0, 1},

with and without the direct link.  Detectability is measured by the KLD of
the two sample distributions; the Bretagnolle-Huber bound converts KLD floors
into detection-error-probability (DEP) ceilings.  An exact DEP oracle based on
the Gamma sufficient statistic validates the bound direction; for an integer
sample count its Gamma CDF is a finite Erlang sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from backci.numerics import big_f


@dataclass
class DetectionStats:
    """Variances, KLDs and DEP bounds for one (beamformer, tag) pair.

    Attributes:
        delta0, delta1: Sample variances with the direct link, under H0/H1.
        delta0_bar, delta1_bar: Same without the direct link.
        kld_with: KLD between the hypothesis distributions with the DL (nats).
        kld_without: KLD without the DL.
        delta_kld: kld_with - kld_without.
        dep_bound_with: Bretagnolle-Huber DEP lower bound with the DL.
        dep_bound_without: Same without the DL.
    """

    delta0: float
    delta1: float
    delta0_bar: float
    delta1_bar: float
    kld_with: float
    kld_without: float
    delta_kld: float
    dep_bound_with: float
    dep_bound_without: float


def hypothesis_variances(v: np.ndarray, h0: np.ndarray, h1: np.ndarray,
                         sigma_s2: float, sigma_w2: float) -> tuple:
    """Per-sample variances of the combined signal under both hypotheses.

    Args:
        v: Receive beamformer (any norm; the norm term is kept explicit),
            shape (M,), or (K, M) for K tags at once.
        h0: Channel under H0 (tag silent), v's shape.
        h1: Channel under H1 (tag reflecting), v's shape.
        sigma_s2: Transmit power (watts).
        sigma_w2: Noise power (watts).

    Returns:
        (delta0, delta1) with delta_i = |v^H h_i|^2 sigma_s2
        + sigma_w2 ||v||^2: floats for one tag, lists of K floats for a
        stack.
    """
    v = np.asarray(v, dtype=complex)
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    if v.shape != h0.shape or v.shape != h1.shape:
        raise ValueError(f"dimension mismatch: {v.shape}, {h0.shape}, {h1.shape}")
    if sigma_s2 <= 0 or sigma_w2 <= 0:
        raise ValueError("powers must be positive")
    # A stack's products come from np.vecdot, which conjugates v and rounds
    # as np.vdot does; the rest is per-tag scalar math, as np.abs and ** on
    # arrays round otherwise.
    dot = np.vdot if v.ndim == 1 else np.vecdot
    nv2 = dot(v, v).real.tolist()
    p0 = dot(v, h0).tolist()
    p1 = dot(v, h1).tolist()
    if v.ndim == 1:
        return (_variance(p0, nv2, sigma_s2, sigma_w2),
                _variance(p1, nv2, sigma_s2, sigma_w2))
    return ([_variance(p, n, sigma_s2, sigma_w2) for p, n in zip(p0, nv2)],
            [_variance(p, n, sigma_s2, sigma_w2) for p, n in zip(p1, nv2)])


def _variance(p: complex, nv2: float, sigma_s2: float,
              sigma_w2: float) -> float:
    """|p|^2 sigma_s2 + sigma_w2 nv2, for p = v^H h and nv2 = ||v||^2."""
    return abs(p) ** 2 * sigma_s2 + sigma_w2 * nv2


def kld(delta_num: float, delta_den: float, n: int) -> float:
    """KLD between N-sample complex Gaussian vectors of the given variances.

    Args:
        delta_num: Variance of the alternative (H1) distribution, the
            numerator of the log ratio.
        delta_den: Variance of the reference (H0) distribution.
        n: Samples per detection interval.

    Returns:
        N * (ln(delta_num/delta_den) + delta_den/delta_num - 1), >= 0 with
        equality iff the variances agree.
    """
    if delta_den <= 0 or delta_num <= 0:
        raise ValueError("variances must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    r = delta_num / delta_den
    return n * (math.log(r) + 1.0 / r - 1.0)


def kld_threshold(eps_max: float) -> float:
    """Minimum KLD forcing the optimal DEP below eps_max.

    Inverts the Bretagnolle-Huber bound: returns -ln(1 - (1 - eps_max)^2).
    This is D_min for the with-DL tolerance and E_min for the without-DL one.

    Args:
        eps_max: Acceptable DEP, in (0, 1].
    """
    if not 0.0 < eps_max <= 1.0:
        raise ValueError("eps_max must lie in (0, 1]")
    return -math.log1p(-((1.0 - eps_max) ** 2))


def dep_lower_bound(d: float) -> float:
    """Bretagnolle-Huber lower bound on the optimal DEP given a KLD of d."""
    if not d >= 0.0:
        raise ValueError("KLD must be nonnegative")
    # expm1 keeps the sqrt argument exact for small d.
    return 1.0 - math.sqrt(-math.expm1(-d))


def _erlang_cdf(n: int, y: float) -> float:
    """Gamma(n, 1) CDF at y for an integer shape n >= 1.

    1 - sum_{k<n} y^k e^-y / k!, each term formed in log space, so none
    overflows or underflows for large n y.
    """
    if y <= 0.0:
        return 0.0
    if y == math.inf:
        return 1.0
    ly = math.log(y)
    return 1.0 - math.fsum(math.exp(k * ly - y - math.lgamma(k + 1.0))
                           for k in range(n))


def dep_oracle(delta0: float, delta1: float, n: int) -> float:
    """Exact optimal DEP for the two-variance Gaussian test.

    The energy statistic T = sum |y_i|^2 is sufficient and Gamma(n, delta)
    distributed under each hypothesis; the likelihood ratio is monotone in T,
    so the total variation is attained at the single density crossing

        tau = n * ln(delta1/delta0) / (1/delta0 - 1/delta1).

    F is the Gamma(n) CDF, the Erlang sum for the integer sample count n.

    Returns:
        xi* = 1 - [F(tau; n, delta_min) - F(tau; n, delta_max)], the sum of
        the two conditional error probabilities at the optimal threshold.

    Raises:
        ValueError: If a variance is not positive, or n is not an integer
            >= 1.
    """
    if delta0 <= 0 or delta1 <= 0:
        raise ValueError("variances must be positive")
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"n must be an integer >= 1, got {n}")
    n = int(n)
    if delta0 == delta1:
        return 1.0
    lo, hi = (delta0, delta1) if delta0 < delta1 else (delta1, delta0)
    tau = n * math.log(delta1 / delta0) / (1.0 / delta0 - 1.0 / delta1)
    return 1.0 - (_erlang_cdf(n, tau / lo) - _erlang_cdf(n, tau / hi))


def detection_stats(v: np.ndarray, h0: np.ndarray, h1: np.ndarray,
                    h1_bar: np.ndarray, sigma_s2: float, sigma_w2: float,
                    n: int):
    """Full detection summary for a beamformer against one tag's channels.

    h1_bar is the backscatter-only channel; the no-DL hypothesis pair is
    (0, h1_bar), so delta0_bar is the pure noise floor.  With a leading
    tag axis, v and the channels of shape (K, M), the products of all K
    tags are formed together and a list of K DetectionStats is returned.
    """
    d0, d1 = hypothesis_variances(v, h0, h1, sigma_s2, sigma_w2)
    zeros = np.zeros_like(np.asarray(h0))
    d0b, d1b = hypothesis_variances(v, zeros, h1_bar, sigma_s2, sigma_w2)
    if isinstance(d0, float):
        return _summary(d0, d1, d0b, d1b, n)
    return [_summary(*deltas, n) for deltas in zip(d0, d1, d0b, d1b)]


def _summary(d0: float, d1: float, d0b: float, d1b: float,
             n: int) -> DetectionStats:
    """One tag's DetectionStats from its four variances, in scalar math."""
    k_with = kld(d1, d0, n)
    k_without = kld(d1b, d0b, n)
    return DetectionStats(
        delta0=d0,
        delta1=d1,
        delta0_bar=d0b,
        delta1_bar=d1b,
        kld_with=k_with,
        kld_without=k_without,
        delta_kld=k_with - k_without,
        dep_bound_with=dep_lower_bound(k_with),
        dep_bound_without=dep_lower_bound(k_without),
    )
