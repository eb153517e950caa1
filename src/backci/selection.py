"""Tag selection: greedy sweep over all candidates and the random baseline.

Exactly one tag backscatters per detection interval, so selection is an
argmax over the per-tag beamforming problems.  Greedy solves all K of them;
the random baseline commits to a uniformly drawn tag first and solves only
that one, infeasibility included (no re-draw), so it prices in the risk the
greedy sweep removes.  Both only build design generators with tag_steps and
run them by beamforming.lockstep, on any link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

# consensual_sca and evolved_sdp stay importable from this module.
from .beamforming import (  # noqa: F401
    BeamformerSolution,
    _design_steps,
    alternating_steps,
    consensual_sca,
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


def tag_steps(chans, params, mode: str) -> list:
    """One design generator per tag, in tag order, for lockstep: the
    alternation (alternating_steps) on a MIMO link, else the mode's own
    design.  A generator never run solves nothing.  An unknown mode raises
    ValueError before any solve."""
    design = alternating_steps if params.Q > 1 else _design_steps
    return [design(chans.tag_channels(k), params, mode)
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

    All K tags run together, by lockstep, on any link: the consensual
    design's SCA subproblems as one QCQP batch per round and dimension,
    the evolved design's relaxations, every live tag's grid, as one
    stacked SDP batch (split between tags at beamforming._SDP_STACK
    entries) that the kernel solves exactly, and on a MIMO link the
    alternation's receive and transmit steps the same way.  Each tag's solution is what it gets
    solved alone.

    Args:
        chans: ChannelRealization holding all K tags' links.
        params: System configuration (K, solver budgets, powers).
        mode: "consensual" or "evolved".

    Returns:
        SelectionResult with all K solutions attached; ties on snr go to
        the smallest tag index, and selected_tag = 0 if every tag is
        infeasible.
    """
    return _best_of(lockstep(tag_steps(chans, params, mode)))


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
    sol = lockstep([tag_steps(chans, params, mode)[k]])[0]
    return _best_of([sol if j == k else None for j in range(params.K)])
