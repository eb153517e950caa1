"""Each script under demos/ runs to completion.

The demos are the package's worked examples, so a change that breaks one
breaks the documentation.  Each runs in its own interpreter with BLAS pinned
to one thread; TMPDIR points at the test's temporary directory because the
sweep demo writes its CSV to the system temp directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import backci

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # The child imports backci from where this process found it.
    src = os.path.dirname(os.path.dirname(backci.__file__))
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=300, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
