"""Configuration, benchmark schemes, Monte Carlo sweeps, CSV emission.

The sweep engine regenerates channels per (sweep value, trial) from a
deterministic seed tree, runs each requested algorithm, and emits one CSV
row per algorithm.  Cells run in chunks of 8, serially or one chunk per
pool task; every design solve of a chunk, consensual, evolved and the
random baseline's, at any Q, goes through one beamforming.lockstep call,
whose rounds are batched kernel calls.  The closed-form benchmark
schemes evaluate a cell's K tags at once (run_benchmark).  Rows are
sorted before writing, so output bytes do not depend on worker
scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, get_type_hints

import numpy as np

from .beamforming import _FEAS_TOL, BeamformerSolution, _unit_rows, \
    divergence_floors, lockstep, mmse_beamformer
from .channel import DIST_RANGE, SystemParams, gen_channel_set
from .detection import detection_stats, kld_threshold
from .selection import SelectionResult, _best_of, tag_steps
# The sweep calls neither; bench/tracer.py wraps them under these names.
from .selection import greedy_select, random_select  # noqa: F401
from .siso import ci_angle, snr_interval

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
    _refuse_bad_values(cfg.base, cfg.sweep_var, cfg.values)
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


def _refuse_bad_values(base: SystemParams, var: str, values) -> None:
    """ValueError "<var> = <value>: ..." for the first value SystemParams
    refuses as var."""
    for v in values:
        try:
            _with_value(base, var, v)
        except ValueError as exc:
            raise ValueError(f"{var} = {v}: {exc}") from exc


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
    filter.  The tags with one are evaluated together: their filters and
    the filters' products with the channels as arrays over the tags, and
    each tag's objective and detection statistics from those in scalar
    math.
    """
    if scheme not in ("harmful_dli", "canceled_dli"):
        raise ValueError(f"unknown benchmark scheme {scheme!r}")
    if chans.h_str.ndim > 2:
        raise ValueError("benchmark schemes are single-transmit only")
    _d, e_min, _fw, _fo = divergence_floors(params)
    s2, w2 = params.sigma_s2, params.sigma_w2
    live = np.flatnonzero(chans.h_str.any(axis=-1)).tolist()
    per_tag = [BeamformerSolution(v=None, snr=0.0, feasible=False,
                                  iterations=0) for _k in range(params.K)]
    hs = chans.h_str[live]
    if scheme == "harmful_dli":
        h0 = np.broadcast_to(chans.h0, hs.shape)
        v = mmse_beamformer(h0, hs, s2, w2)
        # scalar math per tag: np.abs and ** on arrays round otherwise
        snr = [s2 * abs(a) ** 2 / (s2 * abs(b) ** 2 + w2) for a, b in
               zip(np.vecdot(v, hs).tolist(), np.vecdot(v, h0).tolist())]
        stats = detection_stats(v, h0, chans.h1[live], hs, s2, w2, params.N)
    else:
        v = _unit_rows(hs)
        snr = (params.gamma * np.vecdot(hs, hs).real).tolist()
        stats = detection_stats(v, np.zeros_like(hs), hs, hs, s2, w2,
                                params.N)
    for k, v_k, snr_k, st in zip(live, v, snr, stats):
        per_tag[k] = BeamformerSolution(
            v=v_k, snr=snr_k, feasible=st.kld_without >= e_min - _FEAS_TOL,
            iterations=0, stats=st)
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

    Every design solve of the chunk, consensual and evolved, K tags per
    cell at any Q, goes through one lockstep call.  random_sel keeps the
    greedy consensual solution of the tag it draws when the cell has one;
    otherwise only the drawn tag's generator joins the call.
    """
    gens, drawn = [], []
    for base, var, value, value_idx, trial, algorithms in cells:
        params = _with_value(base, var, value)
        chans = gen_channel_set(
            params, np.random.SeedSequence((params.seed, value_idx, trial)))
        runs = {mode: tag_steps(chans, params, mode)
                for mode in ("consensual", "evolved") if mode in algorithms}
        pick = None
        if "random_sel" in algorithms:      # random_select's draw
            pick = int(np.random.default_rng(np.random.SeedSequence(
                (params.seed, value_idx, trial, 1))).integers(params.K))
            if "consensual" not in runs:
                runs["random_sel"] = [
                    tag_steps(chans, params, "consensual")[pick]]
        gens += [g for steps in runs.values() for g in steps]
        drawn.append((var, value, trial, algorithms, params, chans, runs,
                      pick))
    sols = iter(lockstep(gens))
    out = []
    for var, value, trial, algorithms, params, chans, runs, pick in drawn:
        solved = {name: [next(sols) for _ in steps]
                  for name, steps in runs.items()}
        for algorithm in algorithms:
            if algorithm == "random_sel":
                sol = (solved["consensual"][pick] if "consensual" in solved
                       else solved["random_sel"][0])
                res = _best_of([sol if k == pick else None
                                for k in range(params.K)])
            elif algorithm in solved:
                res = _best_of(solved[algorithm])
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
    worker process per chunk of _CHUNK cells is started, and none for a
    single chunk; workers < 1 raises ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    validate_sweep(cfg)
    cells = [(cfg.base, cfg.sweep_var, value, vi, trial,
              tuple(cfg.algorithms))
             for vi, value in enumerate(cfg.values)
             for trial in range(cfg.trials)]
    chunks = [cells[i:i + _CHUNK] for i in range(0, len(cells), _CHUNK)]
    workers = min(workers, len(chunks))
    if workers > 1:
        from concurrent import futures      # a serial run needs no pool
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
    constructive.  A value SystemParams refuses as var (non-finite, rho <=
    0, zeta_max outside (0, 1]), a non-finite magnitude or a magnitude <= 0
    raises ValueError before any row is computed.
    """
    if var not in ("zeta_max", "rho"):
        raise ValueError("region variable must be zeta_max or rho")
    if not len(values):
        raise ValueError("values must be nonempty")
    _refuse_bad_values(params, var, values)
    for name, x in (("h_sr_mag", h_sr_mag), ("h_str_mag", h_str_mag)):
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
        region = snr_interval(sr_mag, str_mag, g_min)
        theta = ci_angle(sr_mag, str_mag, region.gamma_lo)
        rows.append((var, float(value), region.gamma_lo, region.gamma_hi,
                     math.nan if theta is None else theta))
    if out_path:
        _write_lines(out_path, [REGION_HEADER] + [
            ",".join([v, _fmt(val), _fmt(lo), _fmt(hi), _fmt(th)])
            for v, val, lo, hi, th in rows])
    return rows
