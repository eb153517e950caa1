"""Output checks on every result the benchmark's workloads produce.

Each check is recomputed from the library's public detection functions,
not read back from the solver: the divergence floors come from
``kld_threshold`` and the error-probability bounds from ``dep_lower_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from backci.detection import dep_lower_bound, kld_threshold

TOL = 1e-6


@dataclass
class Result:
    """The fields of one sweep row or one per-tag solution that are checked."""

    algorithm: str
    feasible: bool
    snr_db: float
    kld_with: float
    kld_without: float
    dep_bound_with: float
    dep_bound_without: float
    # gamma * ||h1||^2 in dB, the SNR of an unconstrained matched
    # filter; NaN where the row's SNR is another objective (benchmarks).
    snr_bound_db: float = math.nan


def from_record(r, snr_bound_db=math.nan) -> Result:
    """Result from a harness SweepRecord."""
    return Result(r.algorithm, bool(r.feasible), r.snr_db, r.kld_with,
                  r.kld_without, r.dep_bound_with, r.dep_bound_without,
                  snr_bound_db)


def from_solution(algorithm, sol, snr_bound_db) -> Result:
    """Result from a BeamformerSolution; screened-out tags carry no stats."""
    st = sol.stats
    if st is None:
        nan = math.nan
        return Result(algorithm, bool(sol.feasible), nan, nan, nan, nan, nan,
                      snr_bound_db)
    snr_db = 10.0 * math.log10(sol.snr) if sol.snr > 0 else -math.inf
    return Result(algorithm, bool(sol.feasible), snr_db, st.kld_with,
                  st.kld_without, st.dep_bound_with, st.dep_bound_without,
                  snr_bound_db)


def problems(r: Result, xi_max: float, zeta_max: float) -> list:
    """Every violated guarantee of a feasible result (empty when it holds).

    consensual (and random_sel, which runs it): both divergence floors.
    evolved: the direct link never hurts, plus the no-DL floor.
    canceled_dli and harmful_dli: the no-DL floor.
    Every feasible result: bounds equal dep_lower_bound of the divergences
    and a finite SNR, not above the matched-filter bound where one applies.
    """
    if not r.feasible:
        return []
    d_min = kld_threshold(xi_max)
    e_min = kld_threshold(zeta_max)
    out = []
    if not r.kld_without >= e_min - TOL:
        out.append(f"kld_without {r.kld_without!r} < E_min {e_min!r}")
    if r.algorithm in ("consensual", "random_sel"):
        if not r.kld_with >= d_min - TOL:
            out.append(f"kld_with {r.kld_with!r} < D_min {d_min!r}")
    elif r.algorithm == "evolved":
        if not r.kld_with >= r.kld_without - TOL:
            out.append(f"kld_with {r.kld_with!r} < kld_without "
                       f"{r.kld_without!r}")
    elif r.algorithm not in ("canceled_dli", "harmful_dli"):
        out.append(f"unknown algorithm {r.algorithm!r}")
    for name, bound, div in (("with", r.dep_bound_with, r.kld_with),
                             ("without", r.dep_bound_without, r.kld_without)):
        try:
            ok = abs(bound - dep_lower_bound(div)) <= TOL
        except ValueError:      # a negative divergence
            ok = False
        if not ok:
            out.append(f"dep_bound_{name} {bound!r} != "
                       f"dep_lower_bound({div!r})")
    if not math.isfinite(r.snr_db):
        out.append(f"snr_db {r.snr_db!r} not finite")
    elif r.snr_db > r.snr_bound_db + TOL:
        out.append(f"snr_db {r.snr_db!r} above the matched-filter bound "
                   f"{r.snr_bound_db!r}")
    return out
