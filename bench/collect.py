"""Run the benchmark over many seeds and write ``bench/BENCH_<label>.json``.

    python3 bench/collect.py --label baseline --seeds 1-10 --crosscheck

For each workload it runs ``run.py --trace 0`` once per seed and records
every end-to-end value with its median and quartile spread (the distance
between the first and third quartile over the median), the sweep CSV
digests per seed, the machine and its load.  It then runs ``--trace 1``
twice on the first seed, keeps the per-layer metrics and checks that every
work counter repeats exactly.  ``--crosscheck`` adds the per-layer counts of
``backci solve`` on realization seeds 0-7.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics that are work counts: they must repeat exactly.
COUNTER_SUFFIXES = (".calls", "_calls", ".newton_steps", ".optimal_frac",
                    ".infeasible", ".max_iter", ".screened", ".bytes",
                    ".sdp_per_solve")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation; returns its result line and detail record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as fh:
        line["detail"] = json.load(fh)
    return line


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def crosscheck() -> dict:
    """Per-layer counts of ``backci solve`` on realization seeds 0-7."""
    os.environ.update({v: "1" for v in ("OMP_NUM_THREADS",
                                         "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")})
    sys.path.insert(0, str(ROOT / "src"))
    import tempfile
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, tiny_solve
    wl = WORKLOADS["solve"]
    tiny_solve()
    with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
        for rseed in range(8):
            tracer.op = rseed
            wl.run((rseed, None), tmp)
    spans = tracer.spans
    m = layer_metrics(spans)

    def evolved_ancestor(i):
        while spans[i][0] != "beamforming.evolved_sdp":
            i = spans[i][3]
        return i
    evolved = [i for i, s in enumerate(spans)
               if s[0] == "beamforming.evolved_sdp"]
    solving = {evolved_ancestor(i) for i, s in enumerate(spans)
               if s[0] == "convex.sdp"}
    sdp = m["convex.sdp.calls"]
    return {
        "realization_seeds": "0-7",
        "sdp_calls": sdp,
        "sdp_newton_steps": m["convex.sdp.newton_steps"],
        "evolved_calls": len(evolved),
        "evolved_calls_with_sdp": len(solving),
        "sdp_per_evolved_call": sdp / len(evolved),
        "sdp_per_evolved_call_with_sdp": sdp / len(solving),
        "newton_steps_per_sdp": m["convex.sdp.newton_steps"] / sdp,
        "ms_per_sdp": m["convex.sdp.ms"] / sdp,
        "relax_share_of_sdp_calls": m["beamforming.evolved.relax_sdp_calls"]
        / sdp,
        "relax_share_of_evolved_ms": m["beamforming.evolved.relax_ms"]
        / sum(1e3 * (spans[i][2] - spans[i][1]) for i in evolved),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--crosscheck", action="store_true")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    report = {"label": args.label,
              "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = [run(w, s, args.seconds, 0) for s in seeds]
        report.setdefault("env", runs[0]["detail"]["env"])
        e2e = {k: dict(unit=v["unit"], **summarize(
                   [r["metrics"][k]["value"] for r in runs]))
               for k, v in runs[0]["metrics"].items()}
        traced = [run(w, seeds[0], args.seconds, 1) for _ in range(2)]
        layers = [{k: v["value"] for k, v in t["metrics"].items()}
                  for t in traced]
        diffs = [k for k in layers[0] if k.endswith(COUNTER_SUFFIXES)
                 and layers[0][k] != layers[1][k]]
        report["workloads"][w] = {
            "end_to_end": e2e,
            "runs": [{"seed": s, "attempted": r["attempted"],
                      "failed": r["failed"], "correct": r["correct"],
                      "loadavg": [r["detail"]["env"]["loadavg_start"][0],
                                  r["detail"]["env"]["loadavg_end"][0]],
                      "csv": r["detail"]["csv"]}
                     for s, r in zip(seeds, runs)],
            "csv_sha256": {str(s): r["detail"]["csv_sha256"]
                           for s, r in zip(seeds, runs)
                           if r["detail"]["csv_sha256"]},
            "per_layer": {"seed": seeds[0], "metrics": {
                k: {"value": v["value"], "unit": v["unit"]}
                for k, v in traced[0]["metrics"].items()}},
            "counters_repeat": not diffs,
            "counters_differing": diffs,
            "traced_correct": all(t["correct"] for t in traced),
        }
        print(f"{w}: " + ", ".join(
            f"{k} {v['median']:.4g} {v['unit']} (spread {v['spread']:.3f})"
            if v["spread"] is not None else f"{k} {v['median']:.4g}"
            for k, v in e2e.items()), flush=True)
        print(f"{w}: counters repeat: {not diffs} {diffs}", flush=True)
    if args.crosscheck:
        report["roadmap_crosscheck"] = crosscheck()
        print(json.dumps(report["roadmap_crosscheck"], indent=1))
    path = BENCH / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
