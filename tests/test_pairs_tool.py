"""tools/pairs.py: it alternates the sides, reads each run's last line, and
judges each end-to-end metric by the win rule, with a fake runner in place
of bench/run.py."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_METRICS = ("setup_s", "peak_rss_mb", "units_per_s", "unit_ms_p50",
            "unit_ms_p75", "feasible_frac", "snr_mf_frac", "ok_frac")


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(values):
    """bench/run.py's standard output: lines for people, then one JSON
    object."""
    return "\n".join(["# solve seed=1 trace=0 ops=10 failed=0",
                      "units_per_s  1 1/s",
                      json.dumps({"correct": True, "attempted": 10,
                                  "failed": 0, "metrics": {
                                      k: {"value": v, "unit": "x"}
                                      for k, v in values.items()}})]) + "\n"


def _fake(calls):
    """A runner whose i-th run on a side reads: units_per_s 100 + i (old)
    or 120 + i (new); unit_ms_p50 10 (old) or 9 (new), but 11 in new's
    first two runs; peak_rss_mb 50 on both; the rest 1."""
    seen = {"old": 0, "new": 0}

    def runner(checkout, argv):
        side = Path(checkout).name
        calls.append((side, list(argv)))
        i = seen[side]
        seen[side] += 1
        values = dict.fromkeys(_METRICS, 1.0)
        values["peak_rss_mb"] = 50.0
        if side == "old":
            values.update(units_per_s=100.0 + i, unit_ms_p50=10.0)
        else:
            values.update(units_per_s=120.0 + i,
                          unit_ms_p50=11.0 if i < 2 else 9.0)
        return _output(values)

    return runner


def test_alternates_and_judges_each_metric(tmp_path, capsys):
    calls = []
    old, new = tmp_path / "old", tmp_path / "new"
    assert _pairs().main([str(old), str(new), "--workload", "solve",
                          "--seed", "1", "--pairs", "10", "--seconds", "3"],
                         runner=_fake(calls)) == 0
    assert [side for side, _argv in calls] == (["old", "new", "new",
                                                "old"] * 5)
    assert all(argv == ["--workload", "solve", "--seed", "1", "--seconds",
                        "3.0", "--trace", "0"] for _side, argv in calls)
    out = capsys.readouterr().out.splitlines()
    runs = [line for line in out if line.startswith("# pair ")]
    assert len(runs) == 20 and runs[0].startswith("# pair 1 old {")
    rows = {line.split()[0]: line for line in out
            if line.split() and line.split()[0] in _METRICS}
    assert set(rows) == set(_METRICS)
    # new won every pair by 20, against old's quartile distance of 4.5
    assert rows["units_per_s"].endswith("10/10  holds")
    assert "104.5 [102.25, 106.75] -> 124.5 [122.25, 126.75]" in (
        rows["units_per_s"])
    # lower is better: new won 8 of 10, short of nine tenths
    assert rows["unit_ms_p50"].endswith("8/10  does not hold")
    # ties count for neither side
    assert rows["peak_rss_mb"].endswith("0/10  does not hold")
    assert "+0.00%" in rows["peak_rss_mb"]


@pytest.mark.parametrize("better, new, holds", [
    ("higher", [12, 13, 14, 15], True),
    ("higher", [10.5, 11.5, 12.5, 13.5], False),   # won 4 of 4, by 0.5
    ("lower", [1, 2, 3, 4], True),
    ("lower", [1, 2, 3, 11], False),           # won 3 of 4
])
def test_win_rule(better, new, holds):
    # old reads 6..9, or 10..13 for higher-is-better: quartiles 1.5 apart,
    # so the medians must differ by more than 1.5
    old = [10, 11, 12, 13] if better == "higher" else [6, 7, 8, 9]
    got = _pairs().judge(old, new, better)
    assert got["holds"] is holds
    assert got["old"][2] - got["old"][0] == 1.5
