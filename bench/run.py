"""backci benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep-sca --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it measures set-up time, then runs operations until
``--seconds`` have passed and reports throughput, latency, memory and
result quality.  Quality is taken over the workload's first
``quality_ops`` operations, the same inputs on every commit; a run that
has not reached them at the deadline goes on until it has.  With
``--trace 1`` it runs a fixed number of operations twice, untraced and
then traced, and reports per-layer counters and times plus the tracing
overhead.  Every result is checked (see checker.py).  The
last line of standard output is one JSON object; the lines before it are
for people.  Run details and spans go to ``.bench_out/``.

Operation and set-up times are wall times rescaled to a nominal machine
speed (see speed.py); the raw wall times are printed and kept as well.
``setup_s`` is the median of ``SETUP_PROBES`` cold starts, rescaled by the
mean of the reference loops timed between them.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set before numpy loads, and inherited by the set-up probes.
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import NOMINAL_S, normalized, reference_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
BASELINE = BENCH / "BENCH_baseline.json"
SETUP_PROBES = 15
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "units_per_s": "1/s",
             "unit_ms_p50": "ms", "unit_ms_p75": "ms", "feasible_frac": "frac",
             "snr_mf_frac": "frac", "ok_frac": "frac"}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".sdp_per_solve"):
        return "sdp/solve"
    return "count"


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def setup_times() -> tuple:
    """Normalized median, wall times and reference times of cold starts.

    Each probe is a fresh interpreter set up to solve.  The reference loop
    is timed (best of three) before each probe and after the last.
    """
    wall, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(min(reference_s() for _ in range(3)))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                       check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
    refs.append(min(reference_s() for _ in range(3)))
    setup = statistics.median(wall) * NOMINAL_S / statistics.fmean(refs)
    return setup, wall, refs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


class Run:
    """Operations of one workload, timed, checked and tallied.

    ``times`` are wall times rescaled to the nominal machine speed, from
    the reference loop timed before and after each operation; ``wall`` and
    ``refs`` keep what was measured.
    """

    def __init__(self, wl, tmpdir, check):
        self.wl, self.tmpdir, self.check = wl, tmpdir, check
        self.times = []          # normalized seconds per operation
        self.wall = []           # wall seconds per operation
        self.refs = [reference_s()]
        self.units = []          # work units per completed operation
        self.outcomes = []
        self.failed = 0          # raised, or failed the output check
        self.problems = []       # (op index, message)
        self.nonconverged = []   # (op index, input)

    def op(self, inp):
        i = len(self.times)
        error = None
        t0 = time.perf_counter()
        try:
            raw = self.wl.run(inp, self.tmpdir)
        except Exception:       # a raising operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        self.wall.append(time.perf_counter() - t0)
        self.refs.append(reference_s())
        self.times.append(normalized(self.wall[-1], *self.refs[-2:]))
        if error is not None:
            self.failed += 1
            self.problems.append((i, error))
            self.outcomes.append(None)
            return
        out = self.wl.outcome(inp, raw, self.tmpdir)
        self.outcomes.append(out)
        self.units.append(out.units)
        found = [msg for r in out.results
                 for msg in self.check(r, self.wl.base.xi_max,
                                       self.wl.base.zeta_max)]
        self.problems.extend((i, msg) for msg in found)
        if found:
            self.failed += 1
        if not out.converged:
            self.nonconverged.append((i, repr(inp)))

    def failed_frac(self, n=None) -> float:
        """Share of the first n operations (default all) that raised,
        failed a check, or did not converge."""
        n = len(self.times) if n is None else n
        bad = {i for i, _ in self.problems} | {i for i, _ in self.nonconverged}
        return len([i for i in bad if i < n]) / n

    @property
    def correct(self) -> bool:
        return not self.problems

    def unit_ms(self) -> list:
        """Normalized ms per work unit of each operation that has units."""
        done = [(t, o.units) for t, o in zip(self.times, self.outcomes)
                if o is not None and o.units]
        return [1e3 * t / u for t, u in done]

    def digests(self) -> list:
        return [o.digest if o else None for o in self.outcomes]

    def results(self, n=None) -> list:
        """Results of the first n operations (default all)."""
        return [r for o in self.outcomes[:n] if o is not None
                for r in o.results]

    def beamformer_results(self, n=None) -> list:
        return [r for r in self.results(n)
                if r.feasible and r.algorithm in ("consensual", "evolved")]


def end_to_end(run: Run, setup: float, quality_ops: int) -> dict:
    """Speed over every operation; quality over the first quality_ops."""
    results = run.results(quality_ops)
    _q1, p50, p75 = quartiles(run.unit_ms())
    snr = run.beamformer_results(quality_ops)
    return {
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "units_per_s": sum(run.units) / sum(run.times),
        "unit_ms_p50": p50,
        "unit_ms_p75": p75,
        "feasible_frac": (sum(r.feasible for r in results) / len(results)
                          if results else math.nan),
        "snr_mf_frac": statistics.fmean(
            10.0 ** ((r.snr_db - r.snr_bound_db) / 10.0) for r in snr)
        if snr else math.nan,
        "ok_frac": 1.0 - run.failed_frac(quality_ops),
    }


def notes(wl, run: Run, setup_wall: list) -> list:
    """The end-to-end figures under their task names, and raw wall times."""
    sweep = wl.name.startswith("sweep")
    _q1, p50, p75 = quartiles([1e3 * t for t in run.times])
    _q1, w50, w75 = quartiles([1e3 * t for t in run.wall])
    snr = [r.snr_db for r in run.beamformer_results()]
    op = "batch" if sweep else "solve"
    rate = (f"cells_per_s {sum(run.units) / sum(run.times):.6g} 1/s (wall "
            f"{sum(run.units) / sum(run.wall):.6g})" if sweep else
            f"solves_per_s {len(run.times) / sum(run.times):.6g} 1/s (wall "
            f"{len(run.times) / sum(run.wall):.6g})")
    return [
        rate,
        f"{op}_ms_p50 {p50:.6g} ms, {op}_ms_p75 {p75:.6g} ms over "
        f"{len(run.times)} samples (wall {w50:.6g} / {w75:.6g} ms)",
        f"setup_s wall median {statistics.median(setup_wall):.6g} s",
        f"failed_frac {run.failed_frac():.6g} over all {len(run.times)} "
        f"operations ({run.failed} raised or failed a check, "
        f"{len(run.nonconverged)} not converged); quality metrics over the "
        f"first {wl.quality_ops}",
        f"snr_db_mean {statistics.fmean(snr) if snr else math.nan:.6g} dB "
        f"over {len(snr)} feasible consensual/evolved results",
        f"reference loop median {1e3 * statistics.median(run.refs):.4g} ms",
    ]


def baseline_digests(workload: str, seed: int) -> list:
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            base = json.load(fh)
    except FileNotFoundError:
        return []
    return base.get("workloads", {}).get(workload, {}).get(
        "csv_sha256", {}).get(str(seed), [])


def csv_flag(wl, run: Run, seed: int) -> str:
    """Compare this run's sweep CSV digests with the baseline's, same seed."""
    if not wl.name.startswith("sweep"):
        return "no CSV"
    ref = baseline_digests(wl.name, seed)
    mine = run.digests()
    n = min(len(ref), len(mine))
    if n == 0:
        return "no baseline digests for this seed"
    diff = [i for i in range(n) if ref[i] != mine[i]]
    if diff:
        return f"CHANGED: {len(diff)} of {n} batch CSVs differ from the " \
               f"baseline, first at batch {diff[0]}"
    return f"unchanged: {n} batch CSVs match the baseline"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="cap on operations (traced default: per workload)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "backci" / "__init__.py").is_file():
        print(f"error: no backci sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checker import problems
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, tiny_solve
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment()
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    lines = []

    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        if args.trace:
            n_ops = args.ops or wl.traced_ops
            inputs = list(islice(wl.inputs(args.seed), n_ops))
            tiny_solve()
            plain = Run(wl, tmpdir, problems)
            for inp in inputs:
                plain.op(inp)
            run = Run(wl, tmpdir, problems)
            with Tracer() as tracer:
                for i, inp in enumerate(inputs):
                    tracer.op = i
                    run.op(inp)
            metrics = layer_metrics(tracer.spans)
            untraced, traced = 1e3 * sum(plain.times), 1e3 * sum(run.times)
            metrics.update({"trace.ops": n_ops, "trace.untraced_ms": untraced,
                            "trace.traced_ms": traced,
                            "trace.overhead_ms": traced - untraced})
            if plain.digests() != run.digests():
                run.problems.append((-1, "traced outputs differ from "
                                         "untraced outputs"))
            tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
            units = {k: layer_unit(k) for k in metrics}
        else:
            setup, setup_wall, setup_refs = setup_times()
            tiny_solve()
            run = Run(wl, tmpdir, problems)
            inputs = wl.inputs(args.seed)
            deadline = time.perf_counter() + args.seconds
            while True:
                run.op(next(inputs))
                done = len(run.times)
                if (args.ops and done >= args.ops) or (
                        done >= wl.quality_ops
                        and time.perf_counter() >= deadline):
                    break
            metrics = end_to_end(run, setup,
                                 min(wl.quality_ops, len(run.times)))
            units = E2E_UNITS
            lines = notes(wl, run, setup_wall)
            detail.update(setup_s=setup, setup_s_wall=setup_wall,
                          setup_reference_s=setup_refs)
    env["loadavg_end"] = os.getloadavg()

    flag = csv_flag(wl, run, args.seed)
    detail.update({
        "env": env, "metrics": metrics, "units": units, "csv": flag,
        "attempted": len(run.times), "failed": run.failed,
        "op_ms": [1e3 * t for t in run.times],
        "op_ms_wall": [1e3 * t for t in run.wall],
        "reference_ms": [1e3 * t for t in run.refs],
        "units": run.units,
        "snr_mf": [10.0 ** ((r.snr_db - r.snr_bound_db) / 10.0)
                   for r in run.beamformer_results()],
        "csv_sha256": run.digests() if wl.name.startswith("sweep") else [],
        "problems": run.problems[:50],
        "nonconverged": run.nonconverged})
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"ops={len(run.times)} failed={run.failed}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']}, nproc {env['nproc']}, threads "
          f"pinned to 1, loadavg {env['loadavg_start'][0]:.2f} -> "
          f"{env['loadavg_end'][0]:.2f}")
    print(f"# csv sha256: {flag}")
    for line in lines:
        print(f"# {line}")
    for i, msg in run.problems[:10]:
        print(f"# FAILED CHECK op {i}: {msg}")
    for i, inp in run.nonconverged:
        print(f"# NOT CONVERGED op {i}: input {inp}")
    for k, v in metrics.items():
        print(f"{k:45s} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": run.correct, "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
