"""Work counters of backci's kernels on the benchmark's inputs.

    python3 tools/work.py --workload solve --seed 1 --ops 40 [--fallback]

Runs the first ``--ops`` operations of the benchmark's ``solve`` or
``sweep-sca`` workload, as ``bench/run.py`` runs them, and prints one
``name value`` line per counter, sorted, so that the outputs of two commits
diff line by line.  ``--fallback`` runs them with ``beamforming._RANK_TOL``
set to -1 (restored afterwards), as ``tools/identity.py``'s ``fallback``
family does, so that no relaxation point counts as rank one and every
examined grid point runs the penalty SCA, whose
subproblems the SDP kernel solves exactly, one entry per call.  The
counters are:

* ``calls/<kernel>``, ``entries/<kernel>`` and ``s/<kernel>``: calls of the
  kernel entry points ``qcqp.solve_ball_qcqps`` (``qcqp``) and
  ``convex.solve_sdp_batch`` (``sdp``), the entries they solved, and the
  seconds spent in them;
* ``status/<kernel>/<status>``: the statuses those entries ended with;
* ``warm/qcqp``: the QCQP entries that arrived with a ``start``, the
  multipliers of an earlier solve;
* ``newton/qcqp``: the Newton steps of the QCQP entries, the sum of their
  ``newton_steps``;
* ``rounds/qcqp``: the batched Newton rounds of the QCQP calls, the largest
  ``newton_steps`` of each call summed over the calls (a call steps its
  entries together until the last one ends);
* ``s/channels``, ``s/benchmark`` and ``s/csv``: the seconds spent
  outside the kernels in ``channel.gen_channel_set`` (where ``harness``
  and ``channel`` bind it), ``harness.run_benchmark`` (both closed-form
  schemes) and ``harness.write_csv``;
* ``s/total``: the seconds of the operations, their inputs drawn
  beforehand, and ``s/outside``, those of them outside the two kernels,
  ``s/total`` minus ``s/qcqp`` and ``s/sdp``.

The SDP kernel solves every entry exactly, with no Newton step, so it has
no round counters.  ``calls/sdp`` and ``entries/sdp`` count the
consensual design's lifts, one entry per solve that its closed-form
screens pass (the only SDPs of ``sweep-sca``), and the penalty SCA's
subproblems too: ``convex.solve_small_sdp`` is a call of
``solve_sdp_batch`` on one entry.  The counters wrap ``backci.convex`` and
``backci.qcqp`` from outside, while the run lasts, so the library itself
is unchanged and costs nothing when this script is not running.

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

from backci import beamforming, channel, convex, harness, qcqp  # noqa: E402

import workloads  # noqa: E402

_ENTRY_POINTS = {"solve_ball_qcqps": ("qcqp", qcqp),
                 "solve_sdp_batch": ("sdp", convex)}
# (namespace, name, counter) of the layers timed outside the kernels
_LAYERS = ((harness, "gen_channel_set", "s/channels"),
           (channel, "gen_channel_set", "s/channels"),
           (harness, "run_benchmark", "s/benchmark"),
           (harness, "write_csv", "s/csv"))


class Counters:
    """Wraps the kernels' entry points, and undoes it."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()
        self._undo = []

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, functools.wraps(owner.__dict__[name])(wrapper))

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
                self.counts["warm/qcqp"] += sum(p.start is not None
                                                for p in args[0])
                steps = [r.newton_steps for r in results]
                self.counts["newton/qcqp"] += sum(steps)
                self.counts["rounds/qcqp"] += max(steps)
            return results

        for module in (home, beamforming):
            if name in vars(module):
                self._patch(module, name, counted)

    def _timed(self, owner, name, counter):
        inner = getattr(owner, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds[counter] += time.perf_counter() - t0

        self._patch(owner, name, timed)

    def __enter__(self):
        for name, (kernel, home) in _ENTRY_POINTS.items():
            self._entry_point(name, kernel, home)
        for owner, name, counter in _LAYERS:
            self._timed(owner, name, counter)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def run(workload: str, seed: int, ops: int, fallback: bool = False) -> dict:
    """Counter name -> value over the first ops operations of a workload;
    with fallback, beamforming._RANK_TOL is -1, so no relaxation point
    counts as rank one and the penalty SCA runs."""
    w = workloads.WORKLOADS[workload]
    workloads.tiny_solve()       # the benchmark's warm-up, not counted
    # drawn before the clock starts: choosing the solve workload's
    # realizations is no part of an operation
    inputs = list(islice(w.inputs(seed), ops))
    with tempfile.TemporaryDirectory() as tmpdir, Counters() as c:
        if fallback:        # undone with the counters
            c._undo.append((beamforming, "_RANK_TOL", beamforming._RANK_TOL))
            beamforming._RANK_TOL = -1.0
        t0 = time.perf_counter()
        for inp in inputs:
            w.run(inp, tmpdir)
        c.seconds["s/total"] = time.perf_counter() - t0
    c.seconds["s/outside"] = c.seconds["s/total"] - sum(
        c.seconds[f"s/{kernel}"] for kernel, _home in _ENTRY_POINTS.values())
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
                    help="accept no relaxation point as rank one, so that "
                         "the penalty SCA runs")
    args = ap.parse_args(argv)
    for name, value in sorted(run(args.workload, args.seed, args.ops,
                                  args.fallback).items()):
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
