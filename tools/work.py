"""Work counters of backci's kernels on the benchmark's inputs.

    python3 tools/work.py --workload solve --seed 1 --ops 40 [--fallback]

Runs the first ``--ops`` operations of the benchmark's ``solve`` or
``sweep-sca`` workload, as ``bench/run.py`` runs them, and prints one
``name value`` line per counter, sorted, so that the outputs of two commits
diff line by line.  ``--fallback`` runs them with ``beamforming._purify``
switched off (restored afterwards), as ``tools/identity.py``'s ``fallback``
family does, so that every examined grid point runs the penalty SCA and
its barrier SDPs.  The counters are:

* ``calls/<kernel>``, ``entries/<kernel>`` and ``s/<kernel>``: calls of the
  kernel entry points ``qcqp.solve_ball_qcqps`` (``qcqp``) and
  ``convex.solve_sdp_batch`` (``sdp``), the entries they solved, and the
  seconds spent in them;
* ``status/<kernel>/<status>``: the statuses those entries ended with;
* ``newton/qcqp``: the Newton steps of the QCQP entries, the sum of their
  ``newton_steps``;
* ``rounds/qcqp``: the batched Newton rounds of the QCQP calls, the largest
  ``newton_steps`` of each call summed over the calls (a call steps its
  entries together until the last one ends);
* ``rounds/sdp/<phase>``: batched barrier rounds, one per
  ``_Oracle.derivs`` call;
* ``entry-rounds/sdp/<phase>``: the entries stepped in those rounds;
* ``value/sdp/<phase>``: line-search trials, one per evaluation of a trial
  stack (``_Oracle.evaluate``);
* ``take/sdp/<phase>``: sub-oracles built (``take``);
* ``s/total``: the seconds of the whole run.

``<phase>`` is ``phase-one`` or ``main``.  The QCQP kernel solves its
duals by Newton's method, with no barrier, so its counters are read from
the results its entry point returns.  The SDP kernel solves the evolved
design's block relaxations exactly, with no barrier round, so
``rounds/sdp/*``, ``entry-rounds/sdp/*``, ``value/sdp/*`` and
``take/sdp/*`` count only the SDPs that still run the barrier: the penalty
fallback's full-plane ones, which only ``--fallback`` reaches on these
workloads.  ``calls/sdp``, ``entries/sdp``, ``status/sdp/*`` and
``s/sdp`` count every SDP.  The counters wrap ``backci.convex`` and
``backci.qcqp`` from outside, while the run lasts, so the library itself
is unchanged and costs nothing when this script is not running.  A call
made from inside a counted call of the same counter (``_PhaseOne.take``
taking its inner oracle) is not counted again.

Inputs come from ``bench/workloads.py``, imported only, and the package is
imported from this checkout's ``src/``.  BLAS is pinned to one thread
before numpy loads, as the benchmark does.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from backci import beamforming, convex, qcqp  # noqa: E402

import workloads  # noqa: E402

_ENTRY_POINTS = {"solve_ball_qcqps": ("qcqp", qcqp),
                 "solve_sdp_batch": ("sdp", convex)}


def _where(oracle) -> str:
    """sdp/<phase> of a barrier oracle: only the SDP kernel has one."""
    if isinstance(oracle, convex._PhaseOne):
        return "sdp/phase-one"
    return "sdp/main"


class Counters:
    """Wraps the barrier core's methods and the kernels' entry points, and
    undoes it."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()
        self._inside = set()
        self._undo = []

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, functools.wraps(owner.__dict__[name])(wrapper))

    def _method(self, cls, name, counter, rows=False):
        """Count cls.name per <kernel>/<phase>, outermost calls only; with
        rows, also the entries of its first argument."""
        inner = cls.__dict__[name]

        def counted(oracle, *args, **kwargs):
            if counter in self._inside:
                return inner(oracle, *args, **kwargs)
            where = _where(oracle)
            self.counts[f"{counter}/{where}"] += 1
            if rows:
                self.counts[f"entry-{counter}/{where}"] += len(args[0])
            self._inside.add(counter)
            try:
                return inner(oracle, *args, **kwargs)
            finally:
                self._inside.discard(counter)

        self._patch(cls, name, counted)

    def _entry_point(self, name, kernel, home):
        inner = getattr(home, name)

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            results = inner(*args, **kwargs)
            self.seconds[f"s/{kernel}"] += time.perf_counter() - t0
            self.counts[f"calls/{kernel}"] += 1
            self.counts[f"entries/{kernel}"] += len(results)
            self.counts.update(f"status/{kernel}/{r.status}" for r in results)
            if kernel == "qcqp" and results:
                steps = [r.newton_steps for r in results]
                self.counts["newton/qcqp"] += sum(steps)
                self.counts["rounds/qcqp"] += max(steps)
            return results

        for module in (home, beamforming):
            if name in vars(module):
                self._patch(module, name, counted)

    def __enter__(self):
        self._method(convex._Oracle, "derivs", "rounds", rows=True)
        self._method(convex._Oracle, "evaluate", "value")
        for cls in (convex._Oracle, convex._PhaseOne):
            self._method(cls, "take", "take")
        for name, (kernel, home) in _ENTRY_POINTS.items():
            self._entry_point(name, kernel, home)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def run(workload: str, seed: int, ops: int, fallback: bool = False) -> dict:
    """Counter name -> value over the first ops operations of a workload;
    with fallback, _purify finds no rank-one point, so the penalty SCA
    runs."""
    w = workloads.WORKLOADS[workload]
    workloads.tiny_solve()       # the benchmark's warm-up, not counted
    with tempfile.TemporaryDirectory() as tmpdir, Counters() as c:
        if fallback:        # undone with the counters
            c._patch(beamforming, "_purify", lambda *args: None)
        t0 = time.perf_counter()
        for inp in islice(w.inputs(seed), ops):
            w.run(inp, tmpdir)
        c.seconds["s/total"] = time.perf_counter() - t0
    out = dict(c.counts)
    out.update({k: round(v, 3) for k, v in c.seconds.items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    default="solve")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=40,
                    help="operations to run, from the workload's first")
    ap.add_argument("--fallback", action="store_true",
                    help="switch _purify off, so that the penalty SCA runs")
    args = ap.parse_args(argv)
    for name, value in sorted(run(args.workload, args.seed, args.ops,
                                  args.fallback).items()):
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
