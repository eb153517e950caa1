"""Alternating benchmark pairs between two checkouts, judged by the win rule.

    python3 tools/pairs.py OLD NEW --workload solve --seed 1 --pairs 10 \\
        --seconds 45

Runs ``bench/run.py --workload W --seed S --seconds X --trace 0`` in the
checkouts OLD and NEW, ``--pairs`` times each, alternating which side runs
first (OLD in the first pair), and reads each run's metrics from the JSON
object on the last line of its output.  Each run's line is printed as it
ends, prefixed with ``# pair <i> <side>``, so that every run made is on
record.  Then, for each end-to-end metric of ``BENCHMARK.json``, it prints
one line: each side's median and quartiles, the relative change of the
medians, the pairs NEW won (better in the metric's direction; ties count
for neither side), and whether the win rule holds: NEW won at least nine
tenths of the pairs, and its median is better than OLD's by more than the
distance between OLD's quartiles.  Quartiles are numpy's linear
percentiles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout, argv) -> str:
    """The standard output of bench/run.py with argv in checkout."""
    return subprocess.run([sys.executable, "bench/run.py", *argv],
                          cwd=checkout, capture_output=True, text=True,
                          check=True).stdout


def metrics_of(stdout: str) -> dict:
    """Metric name -> value from a run's last output line."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def judge(old, new, better: str) -> dict:
    """The win rule on one metric's paired runs, old[i] against new[i]."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    q_old = np.percentile(old, [25, 50, 75])
    q_new = np.percentile(new, [25, 50, 75])
    wins = int((sign * (new - old) > 0).sum())
    gain = sign * (q_new[1] - q_old[1])
    return {"old": q_old, "new": q_new, "wins": wins,
            "change": (q_new[1] / q_old[1] - 1.0 if q_old[1] else np.nan),
            "holds": bool(wins >= 0.9 * len(old)
                          and gain > q_old[2] - q_old[0])}


def main(argv=None, runner=run_bench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="checkout of the parent commit")
    ap.add_argument("new", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args(argv)
    bench = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"]
    runs = {"old": [], "new": []}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            out = runner(getattr(args, side), bench)
            runs[side].append(metrics_of(out))
            print(f"# pair {i + 1} {side} {out.strip().splitlines()[-1]}",
                  flush=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: "
          "median [quartiles] old -> new, change, pairs new won, win rule")
    for metric in end_to_end:
        name = metric["name"]
        j = judge([r[name] for r in runs["old"]],
                  [r[name] for r in runs["new"]], metric["better"])
        o, n = j["old"], j["new"]
        print(f"{name:14s} {o[1]:.6g} [{o[0]:.6g}, {o[2]:.6g}] -> "
              f"{n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {j['change']:+.2%}  "
              f"{j['wins']}/{args.pairs}  "
              f"{'holds' if j['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
