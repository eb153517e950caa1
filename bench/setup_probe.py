"""One cold start of the benchmarked program: interpreter, imports, first solve.

run.py launches this file several times and reports the median wall time
as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import tiny_solve  # noqa: E402  (imports all of backci)

tiny_solve()
