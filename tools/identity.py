"""Digests of backci's outputs, for a byte-identity check between two commits.

    python3 tools/identity.py > identity.txt

Prints one ``name sha256`` line per output:

* ``sweep-sca/s<seed>/b<batch>``: the CSV of each batch of the benchmark's
  ``sweep-sca`` workload, batches 0-99 of seeds 1-3;
* ``solve/s<seed>/r<i>``: every per-tag solution of both designs on the
  benchmark's ``solve`` workload, realizations 0-24 of seeds 1 and 2 (v
  bytes, snr, feasible, iterations, rank residual, converged, objective
  trace, detection stats and x);
* ``mimo/s<seed>``: the CSV of a ``consensual`` sweep over M in {2, 4, 6, 8}
  at Q = 2, K = 3, 4 trials, seeds 1 and 2;
* ``mimo-evolved/s<seed>``: the CSV of an ``evolved`` sweep over M in
  {2, 4} at Q = 2, K = 3, 2 trials, seeds 1 and 2, which runs the lifted
  design inside the alternation.

Inputs come from ``bench/workloads.py``, imported only, and the package is
imported from this checkout's ``src/``.  BLAS is pinned to one thread
before numpy loads, as the benchmark does.  Run the script at both commits
and diff the two outputs; any line that differs names the output that moved.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from backci import harness  # noqa: E402
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
            yield (f"sweep-sca/s{seed}/b{b}",
                   _file_digest(os.path.join(tmpdir, f"{w.name}.csv")))


def solve(tmpdir):
    w = workloads.WORKLOADS["solve"]
    for seed in (1, 2):
        for i, inp in enumerate(islice(w.inputs(seed), 25)):
            _chans, selections = w.run(inp, tmpdir)
            h = hashlib.sha256()
            for res in selections:
                for sol in res.per_tag:
                    h.update(_solution_bytes(sol))
            yield f"solve/s{seed}/r{i}", h.hexdigest()


def _mimo_sweep(tmpdir, family, algorithm, values, trials):
    out = os.path.join(tmpdir, "mimo.csv")
    for seed in (1, 2):
        harness.run_sweep(harness.SweepConfig(
            sweep_var="M", values=values, trials=trials,
            algorithms=[algorithm],
            base=SystemParams(K=3, Q=2, seed=seed), out_path=out))
        yield f"{family}/s{seed}", _file_digest(out)


def mimo(tmpdir):
    return _mimo_sweep(tmpdir, "mimo", "consensual", [2, 4, 6, 8], 4)


def mimo_evolved(tmpdir):
    return _mimo_sweep(tmpdir, "mimo-evolved", "evolved", [2, 4], 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmpdir:
        for family in (sweep_sca, solve, mimo, mimo_evolved):
            for name, digest in family(tmpdir):
                print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
