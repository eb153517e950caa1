"""Tag selection: greedy sweep over all candidates and the random baseline.

Exactly one tag backscatters per detection interval, so selection is an
argmax over the per-tag beamforming problems.  Greedy solves all K of them;
the random baseline commits to a uniformly drawn tag first and solves only
that one, infeasibility included (no re-draw), so it prices in the risk the
greedy sweep removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

# consensual_sca and evolved_sdp stay importable from this module.
from .beamforming import (  # noqa: F401
    BeamformerSolution,
    _solver_for,
    alternating_mimo,
    consensual_sca,
    evolved_sdp,
)


@dataclass
class SelectionResult:
    """Outcome of choosing one tag out of K.

    selected_tag is 1-based; 0 means no feasible tag.  per_tag holds one
    entry per tag in tag order; entries the algorithm never solved (random
    baseline) are None.  best aliases the selected tag's solution, None
    when nothing was feasible.
    """

    selected_tag: int
    per_tag: List[Optional[BeamformerSolution]]
    best: Optional[BeamformerSolution]


def _solve_tag(chans, params, mode: str, k: int) -> BeamformerSolution:
    tri = chans.tag_channels(k)
    if params.Q > 1:
        return alternating_mimo(tri, params, mode)
    return _solver_for(mode)(tri, params)


def _best_of(per_tag: list) -> SelectionResult:
    """Keep the feasible tag of highest snr, the smallest index on ties."""
    best_idx = 0
    for k, sol in enumerate(per_tag):
        if not sol.feasible:
            continue
        if best_idx == 0 or sol.snr > per_tag[best_idx - 1].snr:
            best_idx = k + 1
    return SelectionResult(selected_tag=best_idx, per_tag=per_tag,
                           best=per_tag[best_idx - 1] if best_idx else None)


def greedy_select(chans, params, mode: str) -> SelectionResult:
    """Solve every tag's beamforming problem and keep the best feasible one.

    Args:
        chans: ChannelRealization holding all K tags' links.
        params: System configuration (K, solver budgets, powers).
        mode: "consensual" or "evolved".

    Returns:
        SelectionResult with all K solutions attached; ties on snr go to
        the smallest tag index, and selected_tag = 0 if every tag is
        infeasible.
    """
    return _best_of([_solve_tag(chans, params, mode, k)
                     for k in range(params.K)])


def random_select(chans, params, mode: str, rng) -> SelectionResult:
    """Pick a uniform random tag and solve only that tag's problem.

    Args:
        rng: numpy Generator supplying the tag draw.

    Returns:
        SelectionResult whose per_tag list is None except at the drawn
        index; selected_tag = 0 when the drawn tag is infeasible (the
        baseline does not get a second draw).
    """
    k = int(rng.integers(params.K))
    sol = _solve_tag(chans, params, mode, k)
    per_tag: List[Optional[BeamformerSolution]] = [None] * params.K
    per_tag[k] = sol
    if sol.feasible:
        return SelectionResult(selected_tag=k + 1, per_tag=per_tag, best=sol)
    return SelectionResult(selected_tag=0, per_tag=per_tag, best=None)
