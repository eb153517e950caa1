"""Configuration, benchmark schemes, Monte Carlo sweeps, CSV emission.

The sweep engine regenerates channels per (sweep value, trial) from a
deterministic seed tree, runs each requested algorithm, and emits one CSV
row per algorithm.  Cells run in chunks of 8, serially or one chunk per
pool task; the consensual SCA runs of a chunk's single-transmit cells go
through one beamforming.lockstep call, whose rounds are batched
convex.solve_ball_qcqps calls.  Rows are sorted before writing, so output
bytes do not depend on worker scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, get_type_hints

import numpy as np

from .beamforming import _FEAS_TOL, BeamformerSolution, \
    divergence_floors, lockstep, mmse_beamformer
from .channel import DIST_RANGE, SystemParams, gen_channel_set
from .detection import detection_stats, kld_threshold
from .selection import SelectionResult, _best_of, _pick_one, _tag_steps, \
    greedy_select, random_select
from .siso import snr_interval, theta_max_at_min_snr

SWEEP_VARS = ("sigma_s2", "rho", "M", "Q", "zeta_max")
ALGORITHMS = ("consensual", "evolved", "harmful_dli", "canceled_dli",
              "random_sel")
CSV_HEADER = ("sweep_var,value,trial,algorithm,selected_tag,snr_db,"
              "kld_with,kld_without,dep_bound_with,dep_bound_without,"
              "feasible,iterations")
REGION_HEADER = "var,value,gamma_lo,gamma_hi,theta_max"


@dataclass
class SweepConfig:
    """One Monte Carlo sweep: which knob moves, over what values, how often."""

    sweep_var: str = "sigma_s2"
    values: List[float] = field(default_factory=lambda: [0.2, 0.4, 0.6, 0.8])
    trials: int = 200
    algorithms: List[str] = field(default_factory=lambda: list(ALGORITHMS))
    base: SystemParams = field(default_factory=SystemParams)
    out_path: Optional[str] = None


@dataclass
class SweepRecord:
    """One CSV row: one algorithm on one (value, trial) cell.

    converged is an internal diagnostic for the CLI's exit code; it is not
    part of the CSV schema.  It is SelectionResult.converged: the selected
    tag's, or on an infeasible row every solved tag's.
    """

    sweep_var: str
    value: float
    trial: int
    algorithm: str
    selected_tag: int
    snr_db: float
    kld_with: float
    kld_without: float
    dep_bound_with: float
    dep_bound_without: float
    feasible: bool
    iterations: int
    converged: bool = True


# ---------------------------------------------------------------------------
# Flat key=value configuration
# ---------------------------------------------------------------------------

def _floats(val: str) -> list:
    return [float(t) for t in val.split(",") if t.strip()]


def _strs(val: str) -> list:
    return [t.strip() for t in val.split(",") if t.strip()]


# Every config key with its parser: each SystemParams field by its declared
# type, then the sweep keys and the ci-region keys.
_PARAM_KEYS = {name: {int: int, float: float, Optional[float]: float}[hint]
               for name, hint in get_type_hints(SystemParams).items()}
_KEYS = {**_PARAM_KEYS,
         "sweep_var": str, "values": _floats, "trials": int,
         "algorithms": _strs, "out_path": str,
         "region_var": str, "region_values": _floats, "h_sr_mag": float,
         "h_str_mag": float}


def parse_config(text: str) -> dict:
    """Parse flat key = value lines into a typed dict.

    Blank lines and '#' comments are skipped.  Unknown or repeated keys and
    malformed values raise ValueError (fail loud; a typo must not silently
    fall back to a default).
    """
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, "
                             f"got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in cfg:
            raise ValueError(f"line {lineno}: repeated config key {key!r}")
        try:
            cfg[key] = _KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: "
                             f"{val!r}") from exc
    return cfg


def params_from_config(cfg: dict) -> SystemParams:
    """SystemParams with any configured fields overriding the defaults."""
    return SystemParams(**{k: v for k, v in cfg.items() if k in _PARAM_KEYS})


def sweep_from_config(cfg: dict) -> SweepConfig:
    """SweepConfig from a parsed dict; validates variable and algorithms."""
    sc = SweepConfig(base=params_from_config(cfg),
                     **{f.name: cfg[f.name] for f in fields(SweepConfig)
                        if f.name != "base" and f.name in cfg})
    validate_sweep(sc)
    return sc


def validate_sweep(cfg: SweepConfig) -> None:
    if cfg.sweep_var not in SWEEP_VARS:
        raise ValueError(f"sweep_var must be one of {SWEEP_VARS}, "
                         f"got {cfg.sweep_var!r}")
    if not cfg.values:
        raise ValueError("values must be nonempty")
    for v in cfg.values:
        if not math.isfinite(v):
            raise ValueError(f"{cfg.sweep_var} = {v}: must be finite")
    diffs = [b - a for a, b in zip(cfg.values, cfg.values[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("values must be strictly monotone")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    bad = [a for a in cfg.algorithms if a not in ALGORITHMS]
    if bad or not cfg.algorithms:
        raise ValueError(f"algorithms must be a nonempty subset of "
                         f"{ALGORITHMS}, got {cfg.algorithms}")
    if _PARAM_KEYS[cfg.sweep_var] is int:
        for v in cfg.values:
            if float(v) != int(v):
                raise ValueError(f"{cfg.sweep_var} values must be integers")
    for v in cfg.values:
        try:
            _with_value(cfg.base, cfg.sweep_var, v)
        except ValueError as exc:
            raise ValueError(f"{cfg.sweep_var} = {v}: {exc}") from exc
    multi_q = (cfg.sweep_var == "Q" and any(int(v) > 1 for v in cfg.values)
               ) or (cfg.sweep_var != "Q" and cfg.base.Q > 1)
    if multi_q:
        bench = [a for a in cfg.algorithms
                 if a in ("harmful_dli", "canceled_dli")]
        if bench:
            raise ValueError(f"benchmark schemes {bench} are "
                             f"single-transmit only; drop them from a "
                             f"multi-antenna-source sweep")


def _with_value(base: SystemParams, var: str, value: float) -> SystemParams:
    return replace(base, **{var: _PARAM_KEYS[var](value)})


# ---------------------------------------------------------------------------
# Benchmark schemes
# ---------------------------------------------------------------------------

def run_benchmark(chans, params, scheme: str) -> SelectionResult:
    """Closed-form benchmark schemes, greedy over tags.

    harmful_dli keeps the direct link and treats it as interference: per
    tag the receive filter is the MMSE solution and the objective is its
    output SINR.  canceled_dli assumes ideal DL cancellation: matched
    filter on the backscatter channel, objective gamma * ||h_str||^2.
    Under both, a tag is feasible when the no-DL KLD through its filter
    clears E_min to the tolerance the designs verify with.  A tag with no
    backscatter channel (alpha = 0) is infeasible under both, with no
    filter.
    """
    if scheme not in ("harmful_dli", "canceled_dli"):
        raise ValueError(f"unknown benchmark scheme {scheme!r}")
    gamma = params.gamma
    _d, e_min, _fw, _fo = divergence_floors(params)
    zeros = np.zeros_like(chans.h0)
    per_tag = []
    for k in range(params.K):
        h0, h1, hs = chans.tag_channels(k)
        if hs.ndim > 1:
            raise ValueError("benchmark schemes are single-transmit only")
        if not hs.any():
            per_tag.append(BeamformerSolution(v=None, snr=0.0,
                                              feasible=False, iterations=0))
            continue
        if scheme == "harmful_dli":
            v = mmse_beamformer(h0, hs, params.sigma_s2, params.sigma_w2)
            sig = params.sigma_s2 * abs(np.vdot(v, hs)) ** 2
            intf = params.sigma_s2 * abs(np.vdot(v, h0)) ** 2
            objective = sig / (intf + params.sigma_w2)
            stats = detection_stats(v, h0, h1, hs, params.sigma_s2,
                                    params.sigma_w2, params.N)
        else:
            v = hs / np.linalg.norm(hs)
            objective = gamma * float(np.vdot(hs, hs).real)
            stats = detection_stats(v, zeros, hs, hs, params.sigma_s2,
                                    params.sigma_w2, params.N)
        feasible = stats.kld_without >= e_min - _FEAS_TOL
        per_tag.append(BeamformerSolution(v=v, snr=float(objective),
                                          feasible=bool(feasible),
                                          iterations=0, stats=stats))
    return _best_of(per_tag)


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------

def _record_from(cfg_var, value, trial, algorithm,
                 res: SelectionResult) -> SweepRecord:
    """The row of one result; NaN figures when none is feasible."""
    best = res.best
    ok = best is not None
    st = best.stats if ok else None
    return SweepRecord(
        sweep_var=cfg_var, value=value, trial=trial, algorithm=algorithm,
        selected_tag=res.selected_tag,
        snr_db=10.0 * math.log10(best.snr) if ok else math.nan,
        kld_with=st.kld_with if ok else math.nan,
        kld_without=st.kld_without if ok else math.nan,
        dep_bound_with=st.dep_bound_with if ok else math.nan,
        dep_bound_without=st.dep_bound_without if ok else math.nan,
        feasible=ok, iterations=best.iterations if ok else 0,
        converged=res.converged)


_CHUNK = 8      # cells per task of run_sweep, serial or pooled


def _sweep_chunk(cells) -> List[SweepRecord]:
    """All requested algorithms on each (value, trial) cell of a chunk.

    The consensual SCA runs of every single-transmit cell in the chunk, K
    tags each, go through one lockstep call.  random_sel keeps the greedy
    consensual run's solution for the tag it draws when the cell has one,
    and solves that tag itself otherwise.
    """
    drawn = []
    for base, var, value, value_idx, trial, algorithms in cells:
        params = _with_value(base, var, value)
        chans = gen_channel_set(
            params, np.random.SeedSequence((params.seed, value_idx, trial)))
        steps = (_tag_steps(chans, params, "consensual")
                 if "consensual" in algorithms else [])
        drawn.append((var, value, value_idx, trial, algorithms, params,
                      chans, steps))
    sols = iter(lockstep([g for *_cell, steps in drawn for g in steps]))
    out = []
    for var, value, value_idx, trial, algorithms, params, chans, steps \
            in drawn:
        greedy = None
        if steps:
            greedy = _best_of([next(sols) for _ in steps])
        elif "consensual" in algorithms:
            greedy = greedy_select(chans, params, "consensual")
        for algorithm in algorithms:
            if algorithm == "consensual":
                res = greedy
            elif algorithm == "evolved":
                res = greedy_select(chans, params, algorithm)
            elif algorithm == "random_sel":
                rng = np.random.default_rng(
                    np.random.SeedSequence((params.seed, value_idx, trial, 1)))
                res = (random_select(chans, params, "consensual", rng)
                       if greedy is None else
                       _pick_one(params.K, rng, lambda k: greedy.per_tag[k]))
            else:
                res = run_benchmark(chans, params, algorithm)
            out.append(_record_from(var, value, trial, algorithm, res))
    return out


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def record_row(r: SweepRecord) -> str:
    """r's CSV line: its fields named in CSV_HEADER, in that order."""
    return ",".join(_fmt(getattr(r, name)) for name in CSV_HEADER.split(","))


def _write_lines(path: str, lines: List[str]) -> None:
    """Write lines to path by way of a temp file beside it.

    The temp file takes path's place only once it is whole, so a write
    that fails or is interrupted leaves any earlier file at path as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # the write failed before the rename
            os.remove(tmp)


def write_csv(records: List[SweepRecord], path: str) -> None:
    _write_lines(path, [CSV_HEADER] + [record_row(r) for r in records])


def run_sweep(cfg: SweepConfig, workers: int = 1) -> List[SweepRecord]:
    """Run the full sweep; returns sorted records, writes CSV if configured.

    Channels for cell (value_idx, trial) are keyed by (seed, value_idx,
    trial), so records are identical for a fixed config no matter how many
    workers share the grid or in which order cells finish.  At most one
    worker process per cell is started; workers < 1 raises ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    validate_sweep(cfg)
    cells = [(cfg.base, cfg.sweep_var, value, vi, trial,
              tuple(cfg.algorithms))
             for vi, value in enumerate(cfg.values)
             for trial in range(cfg.trials)]
    chunks = [cells[i:i + _CHUNK] for i in range(0, len(cells), _CHUNK)]
    workers = min(workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_chunk, chunks))
    else:
        done = [_sweep_chunk(c) for c in chunks]
    records = [r for chunk in done for r in chunk]
    records.sort(key=lambda r: (float(r.value), r.trial, r.algorithm))
    if cfg.out_path:
        write_csv(records, cfg.out_path)
    return records


# ---------------------------------------------------------------------------
# SISO region report
# ---------------------------------------------------------------------------

def ci_region_report(var: str, values, params: SystemParams,
                     h_sr_mag: float = 1.0, h_str_mag: float = 1.0,
                     out_path: Optional[str] = None) -> list:
    """Tabulate the scalar CI region across a grid of zeta_max or rho.

    Only channel magnitudes are configured, so gamma_lo and gamma_hi are
    siso.snr_interval's at zero relative phase, where gamma_hi takes its
    best case 2/(|h_sr| |h_str|); gamma_lo and the CI angle depend on
    magnitudes alone.  For var = "rho" the magnitudes are unit-distance
    values scaled by the configured link distances (default the midpoint of
    channel.DIST_RANGE, 3 m, for each) raised to -rho/2 per hop, with the tag
    attenuation applied to the cascade.

    Returns rows (var, value, gamma_lo, gamma_hi, theta_max) and writes
    them as CSV when out_path is given; theta_max is NaN where no angle is
    constructive.  A non-finite value or magnitude, or a magnitude <= 0,
    raises ValueError before any row is computed.
    """
    if var not in ("zeta_max", "rho"):
        raise ValueError("region variable must be zeta_max or rho")
    if not len(values):
        raise ValueError("values must be nonempty")
    for name, x in [(var, v) for v in values] + [("h_sr_mag", h_sr_mag),
                                                  ("h_str_mag", h_str_mag)]:
        if not math.isfinite(x):
            raise ValueError(f"{name} = {x}: must be finite")
    rows = []
    for value in values:
        if var == "zeta_max":
            g_min = kld_threshold(float(value)) / params.N + 1.0
            sr_mag, str_mag = h_sr_mag, h_str_mag
        else:
            g_min = kld_threshold(params.zeta_max) / params.N + 1.0
            mid = sum(DIST_RANGE) / 2.0
            d_sr = params.d_sr if params.d_sr is not None else mid
            d_st = params.d_st if params.d_st is not None else mid
            d_tr = params.d_tr if params.d_tr is not None else mid
            sr_mag = h_sr_mag * d_sr ** (-float(value) / 2.0)
            str_mag = (params.alpha * h_str_mag
                       * (d_st * d_tr) ** (-float(value) / 2.0))
        theta = theta_max_at_min_snr(sr_mag, str_mag, g_min)
        region = snr_interval(sr_mag, str_mag, g_min)
        rows.append((var, float(value), region.gamma_lo, region.gamma_hi,
                     math.nan if theta is None else theta))
    if out_path:
        _write_lines(out_path, [REGION_HEADER] + [
            ",".join([v, _fmt(val), _fmt(lo), _fmt(hi), _fmt(th)])
            for v, val, lo, hi, th in rows])
    return rows
