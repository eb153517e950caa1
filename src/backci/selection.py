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
    consensual_steps,
    evolved_sdp,
    lockstep,
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

    @property
    def converged(self) -> bool:
        """The selected tag's solve converged, or with no tag feasible,
        every solved tag's did."""
        if self.best is not None:
            return self.best.converged
        return all(s.converged for s in self.per_tag if s is not None)


def _solve_tag(chans, params, mode: str, k: int) -> BeamformerSolution:
    tri = chans.tag_channels(k)
    if params.Q > 1:
        return alternating_mimo(tri, params, mode)
    return _solver_for(mode)(tri, params)


def _tag_steps(chans, params, mode: str) -> list:
    """One consensual_steps generator per tag, in tag order, for the
    consensual design on a single-transmit link; [] for any other case,
    which is solved tag by tag."""
    if mode != "consensual" or params.Q > 1:
        return []
    return [consensual_steps(chans.tag_channels(k), params)
            for k in range(params.K)]


def _best_of(per_tag: list) -> SelectionResult:
    """Keep the feasible tag of highest snr, the smallest index on ties;
    None entries (tags never solved) are skipped."""
    best_idx = 0
    for k, sol in enumerate(per_tag):
        if sol is None or not sol.feasible:
            continue
        if best_idx == 0 or sol.snr > per_tag[best_idx - 1].snr:
            best_idx = k + 1
    return SelectionResult(selected_tag=best_idx, per_tag=per_tag,
                           best=per_tag[best_idx - 1] if best_idx else None)


def greedy_select(chans, params, mode: str) -> SelectionResult:
    """Solve every tag's beamforming problem and keep the best feasible one.

    The consensual design on a single-transmit link solves all K tags'
    SCA runs together, by lockstep; every other case goes tag by tag.

    Args:
        chans: ChannelRealization holding all K tags' links.
        params: System configuration (K, solver budgets, powers).
        mode: "consensual" or "evolved".

    Returns:
        SelectionResult with all K solutions attached; ties on snr go to
        the smallest tag index, and selected_tag = 0 if every tag is
        infeasible.
    """
    steps = _tag_steps(chans, params, mode)
    if steps:
        return _best_of(lockstep(steps))
    return _best_of([_solve_tag(chans, params, mode, k)
                     for k in range(params.K)])


def _pick_one(K: int, rng, solve) -> SelectionResult:
    """The random baseline's draw: a uniform tag k of K from rng, and
    solve(k) as its only solution."""
    k = int(rng.integers(K))
    per_tag: List[Optional[BeamformerSolution]] = [None] * K
    per_tag[k] = solve(k)
    return _best_of(per_tag)


def random_select(chans, params, mode: str, rng) -> SelectionResult:
    """Pick a uniform random tag and solve only that tag's problem.

    Args:
        rng: numpy Generator supplying the tag draw.

    Returns:
        SelectionResult whose per_tag list is None except at the drawn
        index; selected_tag = 0 when the drawn tag is infeasible (the
        baseline does not get a second draw).
    """
    return _pick_one(params.K, rng,
                    lambda k: _solve_tag(chans, params, mode, k))
