"""Digests of backci's outputs, for a byte-identity check between two commits.

    python3 tools/identity.py > identity.txt
    python3 tools/identity.py --compare old.txt new.txt

Prints one ``name sha256`` line per output:

* ``sweep-sca/s<seed>/b<batch>``: the CSV of each batch of the benchmark's
  ``sweep-sca`` workload, batches 0-99 of seeds 1-3;
* ``solve/s<seed>/r<i>``: every per-tag solution of both designs on the
  benchmark's ``solve`` workload, realizations 0-24 of seeds 1-3 (v bytes,
  snr, feasible, iterations, rank residual, converged, objective trace,
  detection stats and x), then the evolved SNR of each tag, linear, ``-``
  where infeasible, then the evolved ``iterations`` of each tag;
* ``solve-m8/s1/r<i>``: the same for realizations 0-3 of seed 1 of the
  ``solve`` workload's inputs at M = 8, where reducing the evolved
  design's lift to three dimensions changes the most;
* ``fallback/s1/r<i>``: as ``solve``, for realizations 0-7 of seed 1, with
  ``beamforming._purify`` switched off (restored afterwards), so that every
  examined grid point runs the penalty SCA; no other family reaches it;
* ``sweep-m/s<seed>/w<workers>``: the CSV of a ``consensual`` and
  ``random_sel`` sweep over M in {1, 2, 4, 8} at Q = 1, 3 trials, seeds 1
  and 2, run at 1 and at 2 workers; its chunks mix QCQP dimensions, and
  at 2 workers they run in the process pool;
* ``mimo/s<seed>``: the CSV of a ``consensual`` sweep over M in {2, 4, 6, 8}
  at Q = 2, K = 3, 4 trials, seeds 1 and 2;
* ``mimo-evolved/s<seed>``: the CSV of an ``evolved`` sweep over M in
  {2, 4} at Q = 2, K = 3, 2 trials, seeds 1 and 2, which runs the lifted
  design inside the alternation.

The four sweep families end their line with each row's ``snr_db`` as the
CSV holds it (12 significant digits), ``-`` where infeasible, so their SNRs
move only where the digest does.  The SNRs let a reader check, between two
commits, that no SNR fell where a digest moved.

Inputs come from ``bench/workloads.py``, imported only, and the package is
imported from this checkout's ``src/``.  BLAS is pinned to one thread
before numpy loads, as the benchmark does.  Run the script at both commits
and diff the two outputs; any line that differs names the output that moved.

``--compare OLD NEW`` reads two such outputs.  It prints each moved line with
its SNRs before -> after (only the SNRs that moved), then per family the
moved digests, the SNRs that rose and fell, the worst relative fall (in
linear SNR), the feasibility flips and the lines whose per-tag
``iterations`` changed (when both outputs carry them).  It exits 1 on a
feasibility flip, a fall larger than 1e-8 relative, or a line present in
only one output.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from backci import beamforming, harness  # noqa: E402
from backci.channel import SystemParams  # noqa: E402

import workloads  # noqa: E402


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _solution_bytes(sol) -> bytes:
    """Every field of one BeamformerSolution, floats in their exact repr."""
    parts = [b"None" if a is None else a.tobytes() for a in (sol.v, sol.x)]
    parts.append(repr((sol.snr, sol.feasible, sol.iterations,
                       sol.rank_residual, sol.converged,
                       [float(t) for t in sol.objective_trace],
                       sol.stats)).encode())
    return b"|".join(parts) + b";"


def sweep_sca(tmpdir):
    w = workloads.WORKLOADS["sweep-sca"]
    for seed in (1, 2, 3):
        for b, base in enumerate(islice(w.inputs(seed), 100)):
            w.run(base, tmpdir)
            out = os.path.join(tmpdir, f"{w.name}.csv")
            yield f"sweep-sca/s{seed}/b{b}", _file_digest(out), _csv_snrs(out)


def _solve_lines(tmpdir, family, seeds, count,
                 w=workloads.WORKLOADS["solve"]):
    for seed in seeds:
        for i, inp in enumerate(islice(w.inputs(seed), count)):
            _chans, selections = w.run(inp, tmpdir)
            h = hashlib.sha256()
            for res in selections:
                for sol in res.per_tag:
                    h.update(_solution_bytes(sol))
            evolved = selections[workloads.SOLVE_MODES.index("evolved")]
            yield (f"{family}/s{seed}/r{i}", h.hexdigest(),
                   _snrs(s.snr if s.feasible else None
                         for s in evolved.per_tag),
                   ",".join(str(s.iterations) for s in evolved.per_tag))


def solve(tmpdir):
    return _solve_lines(tmpdir, "solve", (1, 2, 3), 25)


def solve_m8(tmpdir):
    w = workloads.WORKLOADS["solve"]
    return _solve_lines(tmpdir, "solve-m8", (1,), 4,
                        replace(w, base=replace(w.base, M=8)))


def fallback(tmpdir):
    purify = beamforming._purify
    beamforming._purify = lambda *args: None
    try:
        yield from _solve_lines(tmpdir, "fallback", (1,), 8)
    finally:
        beamforming._purify = purify


def _m_sweep(tmpdir, family, algorithms, values, trials, base,
             workers=None):
    """A sweep over M at seeds 1 and 2; with workers, one line per count."""
    out = os.path.join(tmpdir, "m.csv")
    for seed in (1, 2):
        for w in workers or (1,):
            harness.run_sweep(harness.SweepConfig(
                sweep_var="M", values=values, trials=trials,
                algorithms=algorithms, base=replace(base, seed=seed),
                out_path=out), workers=w)
            name = f"{family}/s{seed}" + (f"/w{w}" if workers else "")
            yield name, _file_digest(out), _csv_snrs(out)


def sweep_m(tmpdir):
    return _m_sweep(tmpdir, "sweep-m", ["consensual", "random_sel"],
                    [1, 2, 4, 8], 3, SystemParams(), workers=(1, 2))


def mimo(tmpdir):
    return _m_sweep(tmpdir, "mimo", ["consensual"], [2, 4, 6, 8], 4,
                    SystemParams(K=3, Q=2))


def mimo_evolved(tmpdir):
    return _m_sweep(tmpdir, "mimo-evolved", ["evolved"], [2, 4], 2,
                    SystemParams(K=3, Q=2))


def _snrs(values) -> str:
    return ",".join("-" if x is None else repr(float(x)) for x in values)


def _csv_snrs(path) -> str:
    """Each row's snr_db as the CSV holds it; an infeasible row's is nan."""
    with open(path, newline="") as fh:
        return ",".join("-" if r["snr_db"] == "nan" else r["snr_db"]
                        for r in csv.DictReader(fh))


_MAX_FALL = 1e-8      # largest relative SNR fall --compare lets pass


def _read(path) -> dict:
    """name -> (digest, SNRs as floats, None where infeasible, iterations
    or None where the line has none)."""
    out = {}
    with open(path) as fh:
        for line in fh:
            name, digest, *rest = line.split()
            snrs = rest[0].split(",") if rest else []
            out[name] = (digest, [None if x == "-" else float(x)
                                  for x in snrs],
                         rest[1] if len(rest) > 1 else None)
    return out


def _linear(name, x):
    """An SNR of the line name in linear units: the per-tag lines are."""
    return (x if name.startswith(("solve/", "solve-m8/", "fallback/"))
            else 10.0 ** (x / 10.0))


def compare(old_path, new_path) -> int:
    old, new = _read(old_path), _read(new_path)
    fams = {}
    bad = 0
    for name in list(old) + [n for n in new if n not in old]:
        fam = fams.setdefault(name.split("/")[0], dict(
            lines=0, moved=0, rises=0, falls=0, worst=0.0, flips=0,
            iters=0))
        fam["lines"] += 1
        if name not in old or name not in new:
            print(f"{name}: only in {old_path if name in old else new_path}")
            bad += 1
            continue
        (d0, s0, i0), (d1, s1, i1) = old[name], new[name]
        if d0 == d1:
            continue
        fam["moved"] += 1
        if i0 is not None and i1 is not None and i0 != i1:
            print(f"{name}: iterations {i0} -> {i1}")
            fam["iters"] += 1
        moves = [(i, a, b) for i, (a, b) in enumerate(zip(s0, s1)) if a != b]
        if len(s0) != len(s1):
            print(f"{name}: {len(s0)} SNRs -> {len(s1)}")
            bad += 1
        if not moves:
            print(f"{name}: digest moved, SNRs unchanged")
        for i, a, b in moves:
            print(f"{name}[{i}]: {a} -> {b}")
            if a is None or b is None:
                fam["flips"] += 1
                continue
            la, lb = _linear(name, a), _linear(name, b)
            if lb > la:
                fam["rises"] += 1
            elif lb < la:
                fam["falls"] += 1
                fam["worst"] = max(fam["worst"], (la - lb) / la)
    for name, f in fams.items():
        print(f"{name}: {f['moved']} of {f['lines']} digests moved; SNRs "
              f"rose {f['rises']}, fell {f['falls']}, worst relative fall "
              f"{f['worst']:.2g}; {f['flips']} feasibility flips; "
              f"{f['iters']} lines with changed iterations")
        bad += f["flips"] + (f["worst"] > _MAX_FALL)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two outputs of this script")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as tmpdir:
        for family in (sweep_sca, sweep_m, solve, solve_m8, mimo,
                       mimo_evolved, fallback):
            for line in family(tmpdir):
                print(*line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
