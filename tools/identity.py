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
  where infeasible, then the evolved ``iterations`` of each tag, then the
  ``converged`` flag of each tag, ``1`` or ``0``, per design
  (``consensual/evolved``);
* ``solve-m8/s1/r<i>``: the same for realizations 0-3 of seed 1 of the
  ``solve`` workload's inputs at M = 8, where reducing the evolved
  design's lift to the channels' span and the norm outside it changes the
  most;
* ``solve-m3/s1/r<i>``: the same at M = 3, where ``_span_basis`` is square
  and the direction outside the span still exists;
* ``fallback/s1/r<i>``: as ``solve``, for realizations 0-7 of seed 1, with
  ``beamforming._RANK_TOL`` set to -1 (restored afterwards), so that no
  relaxation point counts as rank one and every examined grid point runs
  the penalty SCA; no other family reaches it;
* ``sweep-m/s<seed>/w<workers>``: the CSV of a ``consensual`` and
  ``random_sel`` sweep over M in {1, 2, 4, 8} at Q = 1, 3 trials, seeds 1
  and 2, run at 1 and at 2 workers; its chunks mix QCQP dimensions, and
  at 2 workers they run in the process pool;
* ``sweep-evolved/s<seed>/w<workers>``: the CSV of a ``consensual`` and
  ``evolved`` sweep over sigma_s2 in {0.2, 0.4, 0.6, 0.8} at K = 5, M = 4,
  3 trials, seeds 1 and 2, run at 1 and at 2 workers; it pins the evolved
  design's path through a sweep chunk;
* ``mimo/s<seed>``: the CSV of a ``consensual`` sweep over M in {2, 4, 6, 8}
  at Q = 2, K = 3, 4 trials, seeds 1 and 2;
* ``mimo-evolved/s<seed>``: the CSV of an ``evolved`` sweep over M in
  {2, 4} at Q = 2, K = 3, 2 trials, seeds 1 and 2, which runs the lifted
  design inside the alternation;
* ``mimo-random/s<seed>``: the CSV of a ``random_sel`` sweep over M in
  {2, 4} at Q = 2, K = 3, 3 trials, seeds 1 and 2; with no consensual run
  to reuse, the random baseline solves its drawn tag by the alternation;
* ``siso-evolved/s<seed>``: the CSV of a ``consensual`` and ``evolved``
  sweep over sigma_s2 in {0.2, 0.4, 0.6, 0.8} at K = 5, M = 1, 10 trials,
  seeds 1 and 2, where every relaxation is the 1 x 1 lift W = [[1]];
* ``weak-dl/m<M>/e<e>``: ``evolved_sdp`` on tag 0 of
  ``gen_channel_set(SystemParams(M=M, K=1), seed)`` for seeds 0-39, with
  h0 scaled by r = 10^-e and h1 = r h0 + h_str, for M in {2, 4} and e in
  {5, 6, 7, 8} (every solution's bytes, then the SNRs, ``iterations``
  and ``converged`` flags of the 40 seeds); at these grid points the
  kernel's test for rows that x cannot move decides feasibility.

The seven sweep families end their line with each row's ``snr_db`` as the
CSV holds it (12 significant digits), ``-`` where infeasible, so their SNRs
move only where the digest does.  The SNRs let a reader check, between two
commits, that no SNR fell where a digest moved.

Inputs come from ``bench/workloads.py``, imported only, and the package is
imported from this checkout's ``src/``.  BLAS is pinned to one thread
before numpy loads, as the benchmark does.  Run the script at both commits
and diff the two outputs; any line that differs names the output that moved.

``--compare OLD NEW`` reads two such outputs.  It prints each moved line with
its SNRs before -> after (only the SNRs that moved), each feasibility flip
as ``infeasible -> feasible`` or ``feasible -> infeasible`` with the SNR it
gained or lost, then per family the moved digests, the SNRs that rose and
fell, the worst relative fall (in linear SNR), the flips of each direction,
and the lines whose per-tag ``iterations`` or ``converged`` flags changed
(when both outputs carry them); a kernel solve that ends ``max_iter``
where it ended ``optimal`` can move the ``converged`` flag alone.  It exits
1 on a feasible -> infeasible flip, a fall larger than 1e-8 relative, or a
line present in only one output.  A flip to feasible is a gain: it is
listed, and passes.
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
from backci.channel import SystemParams, gen_channel_set  # noqa: E402

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
                   ",".join(str(s.iterations) for s in evolved.per_tag),
                   "/".join(_converged(res.per_tag) for res in selections))


def solve(tmpdir):
    return _solve_lines(tmpdir, "solve", (1, 2, 3), 25)


def _solve_at(tmpdir, m):
    w = workloads.WORKLOADS["solve"]
    return _solve_lines(tmpdir, f"solve-m{m}", (1,), 4,
                        replace(w, base=replace(w.base, M=m)))


def solve_m8(tmpdir):
    return _solve_at(tmpdir, 8)


def solve_m3(tmpdir):
    return _solve_at(tmpdir, 3)


def fallback(tmpdir):
    rank_tol = beamforming._RANK_TOL
    beamforming._RANK_TOL = -1.0
    try:
        yield from _solve_lines(tmpdir, "fallback", (1,), 8)
    finally:
        beamforming._RANK_TOL = rank_tol


def _sweep(tmpdir, family, var, algorithms, values, trials, base,
           workers=None):
    """A sweep over var at seeds 1 and 2; with workers, one line per
    count."""
    out = os.path.join(tmpdir, "sweep.csv")
    for seed in (1, 2):
        for w in workers or (1,):
            harness.run_sweep(harness.SweepConfig(
                sweep_var=var, values=values, trials=trials,
                algorithms=algorithms, base=replace(base, seed=seed),
                out_path=out), workers=w)
            name = f"{family}/s{seed}" + (f"/w{w}" if workers else "")
            yield name, _file_digest(out), _csv_snrs(out)


def sweep_m(tmpdir):
    return _sweep(tmpdir, "sweep-m", "M", ["consensual", "random_sel"],
                  [1, 2, 4, 8], 3, SystemParams(), workers=(1, 2))


def sweep_evolved(tmpdir):
    return _sweep(tmpdir, "sweep-evolved", "sigma_s2",
                  ["consensual", "evolved"], [0.2, 0.4, 0.6, 0.8], 3,
                  SystemParams(), workers=(1, 2))


def mimo(tmpdir):
    return _sweep(tmpdir, "mimo", "M", ["consensual"], [2, 4, 6, 8], 4,
                  SystemParams(K=3, Q=2))


def mimo_evolved(tmpdir):
    return _sweep(tmpdir, "mimo-evolved", "M", ["evolved"], [2, 4], 2,
                  SystemParams(K=3, Q=2))


def mimo_random(tmpdir):
    return _sweep(tmpdir, "mimo-random", "M", ["random_sel"], [2, 4], 3,
                  SystemParams(K=3, Q=2))


def siso_evolved(tmpdir):
    return _sweep(tmpdir, "siso-evolved", "sigma_s2",
                  ["consensual", "evolved"], [0.2, 0.4, 0.6, 0.8], 10,
                  SystemParams(M=1))


def weak_dl(_tmpdir):
    for M in (2, 4):
        params = SystemParams(M=M, K=1)
        chans = [gen_channel_set(params, seed).tag_channels(0)
                 for seed in range(40)]
        for e in (5, 6, 7, 8):
            r = 10.0 ** -e
            sols = [beamforming.evolved_sdp((r * h0, r * h0 + hs, hs), params)
                    for h0, _h1, hs in chans]
            h = hashlib.sha256()
            for sol in sols:
                h.update(_solution_bytes(sol))
            yield (f"weak-dl/m{M}/e{e}", h.hexdigest(),
                   _snrs(s.snr if s.feasible else None for s in sols),
                   ",".join(str(s.iterations) for s in sols),
                   _converged(sols))


def _converged(sols) -> str:
    return "".join("1" if s.converged else "0" for s in sols)


def _snrs(values) -> str:
    return ",".join("-" if x is None else repr(float(x)) for x in values)


def _csv_snrs(path) -> str:
    """Each row's snr_db as the CSV holds it; an infeasible row's is nan."""
    with open(path, newline="") as fh:
        return ",".join("-" if r["snr_db"] == "nan" else r["snr_db"]
                        for r in csv.DictReader(fh))


_MAX_FALL = 1e-8      # largest relative SNR fall --compare lets pass


def _read(path) -> dict:
    """name -> (digest, SNRs as floats, None where infeasible, iterations,
    converged flags), the last two None where the line has none."""
    out = {}
    with open(path) as fh:
        for line in fh:
            name, digest, *rest = line.split()
            snrs = rest[0].split(",") if rest else []
            rest += [None] * (3 - len(rest))
            out[name] = (digest, [None if x == "-" else float(x)
                                  for x in snrs], rest[1], rest[2])
    return out


def _linear(name, x):
    """An SNR of the line name in linear units: the per-tag lines are."""
    return (x if name.startswith(("solve/", "solve-m8/", "solve-m3/",
                                  "fallback/", "weak-dl/"))
            else 10.0 ** (x / 10.0))


def compare(old_path, new_path) -> int:
    old, new = _read(old_path), _read(new_path)
    fams = {}
    bad = 0
    for name in list(old) + [n for n in new if n not in old]:
        fam = fams.setdefault(name.split("/")[0], dict(
            lines=0, moved=0, rises=0, falls=0, worst=0.0, gained=0,
            lost=0, iters=0, conv=0))
        fam["lines"] += 1
        if name not in old or name not in new:
            print(f"{name}: only in {old_path if name in old else new_path}")
            bad += 1
            continue
        (d0, s0, *per0), (d1, s1, *per1) = old[name], new[name]
        if d0 == d1:
            continue
        fam["moved"] += 1
        for key, a, b in zip(("iterations", "converged"), per0, per1):
            if a is not None and b is not None and a != b:
                print(f"{name}: {key} {a} -> {b}")
                fam["iters" if key == "iterations" else "conv"] += 1
        moves = [(i, a, b) for i, (a, b) in enumerate(zip(s0, s1)) if a != b]
        if len(s0) != len(s1):
            print(f"{name}: {len(s0)} SNRs -> {len(s1)}")
            bad += 1
        if not moves:
            print(f"{name}: digest moved, SNRs unchanged")
        for i, a, b in moves:
            if a is None:
                print(f"{name}[{i}]: infeasible -> feasible {b}")
                fam["gained"] += 1
                continue
            if b is None:
                print(f"{name}[{i}]: feasible {a} -> infeasible")
                fam["lost"] += 1
                continue
            print(f"{name}[{i}]: {a} -> {b}")
            la, lb = _linear(name, a), _linear(name, b)
            if lb > la:
                fam["rises"] += 1
            elif lb < la:
                fam["falls"] += 1
                fam["worst"] = max(fam["worst"], (la - lb) / la)
    for name, f in fams.items():
        print(f"{name}: {f['moved']} of {f['lines']} digests moved; SNRs "
              f"rose {f['rises']}, fell {f['falls']}, worst relative fall "
              f"{f['worst']:.2g}; {f['gained']} infeasible -> feasible, "
              f"{f['lost']} feasible -> infeasible; {f['iters']} lines with "
              f"changed iterations; {f['conv']} with changed converged "
              f"flags")
        bad += f["lost"] + (f["worst"] > _MAX_FALL)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two outputs of this script")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as tmpdir:
        for family in (sweep_sca, sweep_m, sweep_evolved, solve, solve_m8,
                       solve_m3, mimo, mimo_evolved, mimo_random,
                       siso_evolved, weak_dl, fallback):
            for line in family(tmpdir):
                print(*line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
