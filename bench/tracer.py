"""Spans around backci's layer boundaries, installed from outside the library.

backci binds its cross-module names with ``from ... import``, so a call is
routed through whatever object the *calling* module's namespace holds.  Each
wrap point therefore names the module whose namespace is patched, not the
module that defines the function.  Wrappers are removed on exit, and spans
stay in memory until the run writes them out.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the benchmark operation it
belongs to, and ``info`` a small tuple read off the call's return value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict

# (namespace patched, attribute, span name).  Every namespace that calls a
# measured function is listed, so no call slips past untraced.
# alternating_mimo (Q > 1 only) is not measured: no workload reaches it.
WRAP_POINTS = (
    ("backci.harness", "run_sweep", "harness.run_sweep"),
    ("backci.harness", "run_benchmark", "harness.run_benchmark"),
    ("backci.harness", "write_csv", "harness.write_csv"),
    ("backci.harness", "gen_channel_set", "channel.gen_channel_set"),
    ("backci.channel", "gen_channel_set", "channel.gen_channel_set"),
    ("backci.harness", "detection_stats", "detection.detection_stats"),
    ("backci.beamforming", "detection_stats", "detection.detection_stats"),
    ("backci.harness", "greedy_select", "selection.greedy_select"),
    ("backci.selection", "greedy_select", "selection.greedy_select"),
    ("backci.harness", "random_select", "selection.random_select"),
    ("backci.selection", "consensual_sca", "beamforming.consensual_sca"),
    ("backci.beamforming", "consensual_sca", "beamforming.consensual_sca"),
    ("backci.selection", "evolved_sdp", "beamforming.evolved_sdp"),
    ("backci.beamforming", "evolved_sdp", "beamforming.evolved_sdp"),
    # The one private boundary: it splits evolved_sdp into its relaxation
    # pass and its rank-one penalty stage.
    ("backci.beamforming", "_penalized_sca", "beamforming.penalized_sca"),
    ("backci.beamforming", "solve_ball_qcqp", "convex.qcqp"),
    ("backci.beamforming", "solve_small_sdp", "convex.sdp"),
    ("backci.beamforming", "hermitian_eig", "numerics.hermitian_eig"),
)


def _kernel_info(res, _args, _kwargs):
    return (res.status, res.newton_steps)


def _beamformer_info(res, _args, _kwargs):
    return (bool(res.feasible), int(res.iterations))


def _csv_info(_res, args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return (os.path.getsize(path),)


INFO = {
    "convex.qcqp": _kernel_info,
    "convex.sdp": _kernel_info,
    "beamforming.consensual_sca": _beamformer_info,
    "harness.write_csv": _csv_info,
}


class Tracer:
    """Context manager that patches every wrap point and records spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(out, args, kwargs)
            return out
        return wrapper

    def __enter__(self):
        for mod_name, attr, name in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *_exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name, t0, t1, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "info": info}) + "\n")


def layer_metrics(spans):
    """Per-layer counters and times (ms) from a list of spans.

    Self time is a span's duration minus the durations of its direct
    children; all work is on one thread, so children never overlap.
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]][s[0]] += 1
    calls = defaultdict(int)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        ms[s[0]] += 1e3 * dur[i]
        self_ms[s[0]] += 1e3 * (dur[i] - child_time[i])

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else None

    m = {}
    for layer in ("channel.gen_channel_set", "detection.detection_stats",
                  "numerics.hermitian_eig"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.ms"] = ms[layer]

    # info is None on a span whose call raised.
    for kernel in ("convex.qcqp", "convex.sdp"):
        infos = [s[5] for s in spans if s[0] == kernel and s[5]]
        n = calls[kernel]
        m[f"{kernel}.calls"] = n
        m[f"{kernel}.ms"] = ms[kernel]
        m[f"{kernel}.newton_steps"] = sum(i[1] for i in infos)
        m[f"{kernel}.optimal_frac"] = (
            sum(i[0] == "optimal" for i in infos) / n if n else 0.0)
        m[f"{kernel}.infeasible"] = sum(i[0] == "infeasible" for i in infos)
        m[f"{kernel}.max_iter"] = sum(i[0] == "max_iter" for i in infos)

    sca = "beamforming.consensual_sca"
    m[f"{sca}.calls"] = calls[sca]
    m[f"{sca}.self_ms"] = self_ms[sca]
    m[f"{sca}.screened"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == sca and s[5] and not s[5][0]
        and not children[i]["convex.qcqp"])

    evo = "beamforming.evolved_sdp"
    pen = "beamforming.penalized_sca"
    relax = [i for i, s in enumerate(spans)
             if s[0] == "convex.sdp" and parent_name(s) == evo]
    m[f"{evo}.calls"] = calls[evo]
    m[f"{evo}.self_ms"] = self_ms[evo]
    m[f"{evo}.sdp_per_solve"] = (calls["convex.sdp"] / calls[evo]
                                 if calls[evo] else 0.0)
    m["beamforming.evolved.relax_sdp_calls"] = len(relax)
    m["beamforming.evolved.relax_ms"] = 1e3 * sum(dur[i] for i in relax)
    m["beamforming.evolved.penalty_calls"] = calls[pen]
    m["beamforming.evolved.penalty_sdp_calls"] = sum(
        1 for s in spans if s[0] == "convex.sdp" and parent_name(s) == pen)
    m["beamforming.evolved.penalty_ms"] = ms[pen]

    m["selection.greedy_select.calls"] = calls["selection.greedy_select"]
    m["selection.greedy_select.self_ms"] = self_ms["selection.greedy_select"]
    m["selection.random_select.calls"] = calls["selection.random_select"]

    m["harness.run_sweep.ms"] = ms["harness.run_sweep"]
    m["harness.run_benchmark.calls"] = calls["harness.run_benchmark"]
    m["harness.run_benchmark.self_ms"] = self_ms["harness.run_benchmark"]
    m["harness.write_csv.ms"] = ms["harness.write_csv"]
    m["harness.write_csv.bytes"] = sum(
        s[5][0] for s in spans if s[0] == "harness.write_csv" and s[5])
    m["harness.self_ms"] = self_ms["harness.run_sweep"]
    return m
