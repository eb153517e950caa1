"""Machine-speed reference for normalizing wall times.

The benchmark runs on shared virtual CPUs, where the same work can take
2x longer for minutes at a time while a neighbour is busy.  Between
operations the benchmark times ``reference_s()``, a fixed loop of small
numpy factorizations and Python float work (the instruction mix of backci's
kernels) that uses no backci code, so no change to backci moves it.  Each
operation's wall time is rescaled to a machine on which the loop takes
``NOMINAL_S``: the idle speed of a 2-vCPU Xeon VM (Python 3.11, numpy 2.4,
OpenBLAS, one thread).  On that VM this cut the quartile spread of
repeated identical sweeps from 17% to 3%.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.0143
_LOOPS = 1000

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8, 8))
_A = _X @ _X.T + 8.0 * np.eye(8)
_B = _rng.standard_normal((16, 8, 8))
_b = _rng.standard_normal(8)


def reference_s() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(_LOOPS):
        np.linalg.cholesky(_A)
        x = np.linalg.solve(_A, _b)
        s += float(np.einsum("kij,j->ki", _B, x).sum())
        s = math.fsum([s, 1e-3 * i]) % 7.0
    return time.perf_counter() - t0


def normalized(wall_s: float, ref_before: float, ref_after: float) -> float:
    """wall_s rescaled to the nominal machine speed."""
    return wall_s * NOMINAL_S / (0.5 * (ref_before + ref_after))
