"""Channel synthesis for the backscatter system.

All links follow a Rician model with distance path loss,

    h = sqrt(d^-rho) * ( sqrt(kappa/(kappa+1)) a(theta)
                         + sqrt(1/(kappa+1)) g ),

where a(theta) is the uniform-linear-array response with m-th entry
exp(-j pi (m-1) sin theta) and g has i.i.d. standard circularly-symmetric
complex Gaussian entries.  A tag's backscatter link is the cascade of its
forward and backward hops scaled by the in-tag attenuation alpha.

Randomness is counter-based and splittable: every link of every tag draws
from its own Philox stream keyed by (caller entropy, tag, link), so trials
are order-independent and safe to generate from parallel workers.  A
stream takes two draws, its geometry and its normals, and the links of
one kind, all K tags' at once, are built in one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

# Placement window when distances are not pinned in the params (meters).
DIST_RANGE = (1.0, 5.0)

# Link codes for stream keying.
_LINK_SR = 0
_LINK_ST = 1
_LINK_TR = 2


@dataclass
class SystemParams:
    """Scalar configuration for the whole toolkit.

    A float that is not finite, or a value out of range, raises ValueError;
    the message of the first names its field.

    Attributes:
        K: Number of candidate tags.
        M: Reader (receive) antennas.
        N: Samples per detection interval.
        Q: Source (transmit) antennas; 1 selects the SIMO pipeline.
        alpha: In-tag attenuation, in [0, 1].
        sigma_s2: Transmit power (watts).
        sigma_w2: Noise power (watts).
        xi_max: Acceptable DEP with the direct link, in (0, 1].
        zeta_max: Acceptable DEP without the direct link, in (0, 1].
        kappa: Rician factor, >= 0.
        rho: Path-loss exponent, > 0.
        chi: Rank-one penalty multiplier of the evolved solver's penalty
            fallback, which runs only where the relaxation's point is
            not rank one or does not verify; its
            weight is chi * gamma * lambda_max(H1).
        T: Grid points for the evolved solver's auxiliary variable
            (endpoints included).
        J: Iteration budget of the evolved solver's penalty fallback.
        L: Outer iteration budget (SCA steps / alternation rounds).
        omega: Relative convergence tolerance of the iterative solvers.
        seed: Base RNG seed.
        d_st, d_sr, d_tr: Link distances in meters; None draws each one
            uniformly from [1, 5] m per realization.
    """

    K: int = 5
    M: int = 4
    N: int = 10
    Q: int = 1
    alpha: float = 0.8
    sigma_s2: float = 0.6
    sigma_w2: float = 0.03
    xi_max: float = 0.5
    zeta_max: float = 0.5
    kappa: float = 2.8
    rho: float = 3.0
    chi: float = 10.0
    T: int = 100
    J: int = 100
    L: int = 100
    omega: float = 1e-6
    seed: int = 0
    d_st: Optional[float] = None
    d_sr: Optional[float] = None
    d_tr: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.K < 1 or self.M < 1 or self.N < 1 or self.Q < 1:
            raise ValueError("counts K, M, N, Q must be >= 1")
        if self.sigma_s2 <= 0 or self.sigma_w2 <= 0:
            raise ValueError("powers must be positive")
        if not (0.0 < self.xi_max <= 1.0 and 0.0 < self.zeta_max <= 1.0):
            raise ValueError("DEP tolerances must lie in (0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.kappa < 0 or self.rho <= 0 or self.chi <= 0:
            raise ValueError("kappa >= 0, rho > 0, chi > 0 required")
        if self.T < 1 or self.J < 1 or self.L < 1 or self.omega <= 0:
            raise ValueError("iteration budgets must be positive")
        for d in (self.d_st, self.d_sr, self.d_tr):
            if d is not None and d <= 0:
                raise ValueError("distances must be positive")

    @property
    def gamma(self) -> float:
        """Input SNR sigma_s2 / sigma_w2 (linear)."""
        return self.sigma_s2 / self.sigma_w2


@dataclass
class ChannelRealization:
    """One draw of every link for K tags.

    SIMO layout (Q = 1): h_sr is (M,), h_st is (K,), h_tr and h_str are
    (K, M), h1 is (K, M) with h1[k] = h_sr + h_str[k] and h0 = h_sr.

    MIMO layout (Q > 1): h_sr is (Q, M), h_st is (K, Q), h_str and h1 are
    (K, M, Q) with h0 = h_sr^H of shape (M, Q).
    """

    h_sr: np.ndarray
    h_st: np.ndarray
    h_tr: np.ndarray
    h_str: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    alpha: float
    distances: dict = field(default_factory=dict)

    @property
    def K(self) -> int:
        return self.h_tr.shape[0]

    @property
    def M(self) -> int:
        return self.h_tr.shape[1]

    @property
    def Q(self) -> int:
        return 1 if self.h_st.ndim == 1 else self.h_st.shape[1]

    def tag_channels(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h0, h1, h1_bar) for 0-based tag k (SIMO and MIMO shapes alike)."""
        return self.h0, self.h1[k], self.h_str[k]


def gen_rician_vector(d: float, theta: float, M: int, kappa: float,
                      rho: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one Rician link vector of length M.

    Args:
        d: Link distance in meters, > 0.
        theta: Line-of-sight angle in radians.
        M: Number of entries (array size), >= 1.
        kappa: Rician factor, >= 0; the kappa -> inf limit is the pure
            steering vector scaled by sqrt(d^-rho).
        rho: Path-loss exponent, > 0.
        rng: Source of the scattered component: M real parts, then M
            imaginary parts.
    """
    if d <= 0 or rho <= 0:
        raise ValueError("d and rho must be positive")
    if M < 1 or kappa < 0:
        raise ValueError("M >= 1 and kappa >= 0 required")
    return _rician(np.sqrt(d ** (-rho)), theta, kappa,
                   rng.standard_normal(2 * M).reshape(2, M))


def _rician(scale, theta, kappa: float, normals: np.ndarray) -> np.ndarray:
    """Rician vectors of length M from their normals, shape (..., 2, M):
    real parts, then imaginary parts.  scale, sqrt(d^-rho), and theta are
    scalars or arrays that broadcast against the vectors' leading axes
    with a trailing axis of 1."""
    M = normals.shape[-1]
    los = np.exp(-1j * np.pi * np.arange(M) * np.sin(theta))
    scat = (normals[..., 0, :] + 1j * normals[..., 1, :]) / np.sqrt(2.0)
    return scale * (np.sqrt(kappa / (kappa + 1.0)) * los
                    + np.sqrt(1.0 / (kappa + 1.0)) * scat)


def cascade(h_st, h_tr: np.ndarray, alpha: float) -> np.ndarray:
    """Backscatter-link channel through one tag, or a stack of tags.

    SIMO (scalar h_st): alpha * h_st * h_tr, a length-M vector.
    MIMO (length-Q h_st): alpha * outer(h_tr, conj(h_st)), an (M, Q) array.
    With a leading tag axis on both, h_st of shape (K,) or (K, Q) and h_tr
    of shape (K, M), it returns the K tags' cascades stacked.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    h_tr = np.asarray(h_tr, dtype=complex)
    h_st = np.asarray(h_st, dtype=complex)
    if h_st.ndim < h_tr.ndim:
        return (alpha * h_st)[..., None] * h_tr
    return alpha * (h_tr[..., :, None] * h_st.conj()[..., None, :])


def _entropy_tuple(rng) -> tuple:
    if isinstance(rng, np.random.SeedSequence):
        ent = rng.entropy
        if isinstance(ent, (tuple, list)):
            return tuple(int(e) for e in ent)
        return (int(ent),)
    return (int(rng),)


def _links(base: tuple, tags, link: int, fixed_d: Optional[float],
           shape: tuple, params: SystemParams) -> tuple:
    """Draw one link per tag index, each from its own keyed Philox stream.

    A stream draws the geometry first, one uniform u for the distance
    unless fixed_d pins it and one for the angle, each mapped to lo +
    (hi - lo) u as Generator.uniform maps it; then the normals of its
    entries' real and imaginary parts, row by row for a link of shape
    (Q, M).  Returns the distances and the links, shape (len(tags),) +
    shape, built in one array expression.
    """
    lo, hi = DIST_RANGE
    dists, thetas, normals = [], [], []
    for tag in tags:
        stream = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(base + (tag, link))))
        u = stream.random(1 if fixed_d is not None else 2).tolist()
        dists.append(fixed_d if fixed_d is not None else lo + (hi - lo) * u[0])
        thetas.append(-np.pi / 2.0 + np.pi * u[-1])
        normals.append(stream.standard_normal(2 * math.prod(shape)))
    # d ** -rho per link: np.power on an array rounds differently
    axes = (len(tags),) + (1,) * len(shape)
    scale = np.sqrt([d ** (-params.rho) for d in dists]).reshape(axes)
    normals = np.reshape(normals, (len(tags),) + shape[:-1] + (2, shape[-1]))
    return dists, _rician(scale, np.reshape(thetas, axes), params.kappa,
                          normals)


def gen_channel_set(params: SystemParams, rng) -> ChannelRealization:
    """Draw all links for one realization.

    Every link keeps its own Philox stream keyed by (entropy, tag, link).
    Each stream takes two draws, its geometry and its normals, and the K
    tags' links of one kind are built together; the MIMO source link's Q
    rows share one stream, one geometry and one draw of normals.

    Args:
        params: System configuration.
        rng: Either an integer seed or a numpy SeedSequence; its entropy is
            the base key of the per-link streams, so callers embed trial
            indices there.

    Returns:
        ChannelRealization with cascades and hypothesis composites built.
    """
    base = _entropy_tuple(rng)
    K, M, Q = params.K, params.M, params.Q
    tags = range(1, K + 1)
    (d_sr,), (h_sr,) = _links(base, (0,), _LINK_SR, params.d_sr,
                              (M,) if Q == 1 else (Q, M), params)
    d_st, h_st = _links(base, tags, _LINK_ST, params.d_st, (Q,), params)
    d_tr, h_tr = _links(base, tags, _LINK_TR, params.d_tr, (M,), params)
    dists = {"sr": d_sr}
    for k in range(K):
        dists[f"st_{k}"] = d_st[k]
        dists[f"tr_{k}"] = d_tr[k]
    return _assemble(h_sr, h_st[:, 0] if Q == 1 else h_st, h_tr,
                     params.alpha, dists)


def _assemble(h_sr, h_st, h_tr, alpha, dists=None) -> ChannelRealization:
    h_str = cascade(h_st, h_tr, alpha)
    # MIMO: h0 is the (M, Q) source-side composite
    h0 = h_sr if h_st.ndim == 1 else h_sr.conj().T
    h1 = h_str + h0[None]
    return ChannelRealization(h_sr=h_sr, h_st=h_st, h_tr=h_tr, h_str=h_str,
                              h0=h0, h1=h1, alpha=alpha,
                              distances=dists or {})


# ---------------------------------------------------------------------------
# Plain-text serialization: one complex entry per token, formatted "a+bi"
# (".17g" fields, so float64 values round-trip exactly).  Layout:
#
#     channelset K M Q alpha
#     h_sr
#     <Q rows of M tokens (one row when Q = 1)>
#     h_st
#     <K rows of Q tokens>
#     h_tr
#     <K rows of M tokens>
#
# Cascades and hypothesis composites are rebuilt on load.
# ---------------------------------------------------------------------------

def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(tok: str) -> complex:
    if not tok.endswith("i"):
        raise ValueError(f"bad complex token: {tok!r}")
    body = tok[:-1]
    # Split before the sign of the imaginary part: the last +/- that is not
    # an exponent sign and not the leading sign.
    for i in range(len(body) - 1, 0, -1):
        c = body[i]
        if c in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    raise ValueError(f"bad complex token: {tok!r}")


def _matrix_lines(name: str, mat: np.ndarray) -> list[str]:
    mat = np.atleast_2d(mat)
    lines = [name]
    for row in mat:
        lines.append(" ".join(format_complex(complex(z)) for z in row))
    return lines


def to_text(chan: ChannelRealization) -> str:
    """Serialize a realization to the plain-text matrix format."""
    K, M, Q = chan.K, chan.M, chan.Q
    lines = [f"channelset {K} {M} {Q} {chan.alpha:.17g}"]
    lines += _matrix_lines("h_sr", chan.h_sr)
    h_st = chan.h_st.reshape(K, Q)
    lines += _matrix_lines("h_st", h_st)
    lines += _matrix_lines("h_tr", chan.h_tr)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ChannelRealization:
    """Parse the format written by to_text and rebuild the composites.

    Raises:
        ValueError: On a bad header, a missing, short or misshapen block, or
            a line after the h_tr block; the message names the block or line.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[0] != "channelset":
        raise ValueError("missing channelset header")
    K, M, Q = int(head[1]), int(head[2]), int(head[3])
    if min(K, M, Q) < 1:
        raise ValueError(f"channelset header needs K, M, Q >= 1: {lines[0]!r}")
    alpha = float(head[4])

    def read_block(idx: int, name: str, rows: int, cols: int):
        if idx >= len(lines) or lines[idx] != name:
            raise ValueError(f"expected block {name!r} at line {idx + 1}")
        if idx + rows >= len(lines):
            raise ValueError(f"block {name!r} at line {idx + 1} has "
                             f"{len(lines) - idx - 1} of {rows} rows")
        block = [[parse_complex(tok) for tok in lines[idx + 1 + r].split()]
                 for r in range(rows)]
        if any(len(row) != cols for row in block):
            raise ValueError(f"block {name!r} needs {cols} entries per row")
        return np.array(block), idx + 1 + rows

    pos = 1
    h_sr, pos = read_block(pos, "h_sr", Q if Q > 1 else 1, M)
    if Q == 1:
        h_sr = h_sr[0]
    h_st, pos = read_block(pos, "h_st", K, Q)
    if Q == 1:
        h_st = h_st[:, 0]
    h_tr, pos = read_block(pos, "h_tr", K, M)
    if pos != len(lines):
        raise ValueError(f"unexpected line {pos + 1} after block 'h_tr'")
    return _assemble(h_sr, h_st, h_tr, alpha)
