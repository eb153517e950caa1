"""Command-line front end: solve, sweep, ci-region, selftest.

Exit codes: 0 success, 1 configuration error, 2 nothing feasible,
3 an iterative solver returned without meeting its tolerance (on a selected
tag, or on any tag of a result with none feasible).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .beamforming import lockstep
from .channel import SystemParams, gen_channel_set
from .detection import dep_lower_bound, kld_threshold
from .harness import (
    ci_region_report,
    params_from_config,
    parse_config,
    run_sweep,
    sweep_from_config,
)
from .numerics import big_f, lambert_w0
from .selection import _best_of, tag_steps
from .siso import ci_angle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGED = 3


def _add_common(sub, out=True, trials=True):
    sub.add_argument("--config", metavar="PATH",
                     help="flat key = value configuration file")
    sub.add_argument("--seed", type=int, metavar="U64",
                     help="override the RNG seed")
    if out:
        sub.add_argument("--out", metavar="PATH", help="output CSV path")
    if trials:
        sub.add_argument("--trials", type=int, metavar="N",
                         help="override the trial count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="backci",
        description="Backscatter-detection beamforming toolkit")
    subs = ap.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve",
                            help="solve one channel realization and report")
    _add_common(solve, out=False, trials=False)

    sweep = subs.add_parser("sweep", help="Monte Carlo sweep to CSV")
    _add_common(sweep)
    sweep.add_argument("--workers", type=int, default=1, metavar="N",
                       help="parallel worker processes (default 1)")

    region = subs.add_parser("ci-region",
                             help="tabulate the scalar CI region")
    _add_common(region, trials=False)

    subs.add_parser("selftest", help="run the built-in anchor checks")
    return ap


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _fmt_db(x: float) -> str:
    return f"{10.0 * math.log10(x):.3f} dB" if x > 0 else "-inf dB"


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    params = params_from_config(cfg)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    chans = gen_channel_set(params, params.seed)
    print(f"realization seed={params.seed} K={params.K} M={params.M} "
          f"Q={params.Q} gamma={params.gamma:.6g}")

    any_feasible = False
    nonconverged = False
    modes = ("consensual", "evolved")
    # both designs' tags run in one lockstep, so their SDPs share calls
    sols = lockstep([gen for mode in modes
                     for gen in tag_steps(chans, params, mode)])
    for i, mode in enumerate(modes):
        res = _best_of(sols[i * params.K:(i + 1) * params.K])
        nonconverged |= not res.converged
        if res.best is None:
            print(f"{mode:10s}  infeasible on all {params.K} tags"
                  + ("" if res.converged else "  [not converged]"))
            continue
        any_feasible = True
        st = res.best.stats
        print(f"{mode:10s}  tag {res.selected_tag}  "
              f"snr {_fmt_db(res.best.snr)}  "
              f"kld {st.kld_with:.6g}/{st.kld_without:.6g}  "
              f"dep>= {st.dep_bound_with:.4g}/{st.dep_bound_without:.4g}  "
              f"iters {res.best.iterations}"
              + ("" if res.converged else "  [not converged]"))
    if nonconverged:
        return EXIT_NONCONVERGED
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sweep_cfg = sweep_from_config(cfg)
    if args.seed is not None:
        sweep_cfg.base = replace(sweep_cfg.base, seed=args.seed)
    if args.trials is not None:
        sweep_cfg.trials = args.trials
    if args.out is not None:
        sweep_cfg.out_path = args.out
    records = run_sweep(sweep_cfg, workers=args.workers)
    n_feas = sum(r.feasible for r in records)
    dest = sweep_cfg.out_path or "(not written)"
    print(f"{len(records)} records, {n_feas} feasible -> {dest}")
    if not all(r.converged for r in records):
        return EXIT_NONCONVERGED
    return EXIT_OK if n_feas else EXIT_INFEASIBLE


def cmd_region(args) -> int:
    cfg = _load_config(args.config)
    params = params_from_config(cfg)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    var = cfg.get("region_var", "zeta_max")
    values = cfg.get("region_values",
                     [round(v, 12) for v in np.linspace(0.1, 1.0, 10)])
    out = args.out or cfg.get("out_path") or "ci_region.csv"
    rows = ci_region_report(var, values, params,
                            h_sr_mag=cfg.get("h_sr_mag", 1.0),
                            h_str_mag=cfg.get("h_str_mag", 1.0),
                            out_path=out)
    print(f"{len(rows)} rows -> {out}")
    return EXIT_OK


def _selftest_checks():
    yield ("kld threshold anchor",
           abs(kld_threshold(0.5) - 0.2876820724) <= 1e-9)
    ok = True
    for e in (0.1, 0.3, 0.5, 0.9):
        ok &= abs(dep_lower_bound(kld_threshold(e)) - e) <= 1e-12
    yield ("dep/threshold round trip", ok)
    ok = True
    for x in (1.0, 1.5, 2.0, 4.0, 8.0):
        y = big_f(x)
        ok &= abs(math.log(y) + 1.0 / y - x) <= 1e-12 * max(1.0, x)
    yield ("threshold map postcondition", ok)
    ok = True
    for w_x in (-0.3, -0.1, 0.5, 3.0):
        w = lambert_w0(w_x)
        ok &= abs(w * math.exp(w) - w_x) <= 1e-12
    yield ("lambert w0", ok)
    th = ci_angle(1.0, 1.0, 1.0)
    yield ("ci angle anchor", th is not None
           and abs(th - math.pi / 3.0) <= 1e-9)


def cmd_selftest(_args) -> int:
    n_ok = n = 0
    for name, ok in _selftest_checks():
        n += 1
        n_ok += ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"{n_ok}/{n} checks passed")
    return EXIT_OK if n_ok == n else EXIT_CONFIG


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = {"solve": cmd_solve, "sweep": cmd_sweep,
               "ci-region": cmd_region, "selftest": cmd_selftest}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
