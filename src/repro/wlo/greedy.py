"""Greedy word-length optimization baselines.

The two classic single-direction procedures of the WLO literature,
kept as ablation baselines against the Tabu search:

* ``max_minus_one`` — start from maximum word lengths (feasible) and
  greedily narrow whichever tie group yields the largest cost saving
  while staying feasible;
* ``min_plus_one`` — start from minimum word lengths (usually
  infeasible) and greedily widen whichever tie group buys the most
  noise reduction per unit of cost until feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accuracy.analytical import AccuracyModel
from repro.errors import WLOError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.program import Program
from repro.targets.model import TargetModel
from repro.wlo.continuation import apply_warm_start
from repro.wlo.cost import WlRelativeCost, wl_relative_cost

__all__ = ["GreedyResult", "max_minus_one", "min_plus_one"]


@dataclass
class GreedyResult:
    """Outcome of a greedy WLO run."""

    cost: float
    moves: int
    evaluations: int
    #: Whether the search actually continued from a warm-start seed
    #: (``False`` for cold runs *and* for rejected/unusable seeds).
    warm_start: bool = False


def max_minus_one(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    target: TargetModel,
    constraint_db: float,
    warm_start: dict[int, int] | None = None,
) -> GreedyResult:
    """Greedy narrowing from the all-maximum assignment.

    ``warm_start`` (a root → word-length assignment, typically a
    neighboring stricter constraint's solution) replaces the all-max
    starting point when it is complete, supported and feasible at this
    constraint; the narrowing continues from there.  An unusable or
    infeasible seed falls back to the cold all-max start — the result
    is feasible either way.
    """
    roots = spec.slotmap.roots
    supported = sorted(target.supported_wls)
    for root in roots:
        spec.set_wl(root, target.max_wl)
    if model.violates(spec, constraint_db):
        raise WLOError(
            f"constraint {constraint_db} dB infeasible at maximum word lengths"
        )
    warm = False
    if warm_start is not None:
        token = spec.save()
        if apply_warm_start(spec, warm_start, supported) and not model.violates(
            spec, constraint_db
        ):
            warm = True
        else:
            spec.revert(token)
    cost_of = WlRelativeCost(program, target)
    moves = 0
    evaluations = 0
    while True:
        best: tuple[float, int, int] | None = None
        for root in roots:
            narrower = [w for w in supported if w < spec.wl(root)]
            if not narrower:
                continue
            wl = max(narrower)
            token = spec.save()
            spec.set_wl(root, wl)
            evaluations += 1
            if not model.violates(spec, constraint_db):
                cost = cost_of(spec)
                key = (cost, root, wl)
                if best is None or key < best:
                    best = key
            spec.revert(token)
        if best is None:
            break
        _cost, root, wl = best
        spec.set_wl(root, wl)
        moves += 1
    return GreedyResult(cost_of(spec), moves, evaluations, warm)


def min_plus_one(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    target: TargetModel,
    constraint_db: float,
    max_moves: int = 10_000,
    warm_start: dict[int, int] | None = None,
) -> GreedyResult:
    """Greedy widening from the all-minimum assignment.

    A useful ``warm_start`` for a *widening* search is an **infeasible**
    seed below the constraint (e.g. a looser constraint's solution):
    the widening continues from it, skipping the moves the two
    trajectories share (the move scoring is constraint-independent, so
    a seed produced by this engine lies on the cold path and the
    result is bit-identical to cold).  A *feasible* seed carries no
    information a widening search can exploit — accepting it as-is
    would strand the cost above the cold result — so it falls back to
    the cold all-minimum start.
    """
    roots = spec.slotmap.roots
    supported = sorted(target.supported_wls)
    warm = False
    if warm_start is not None and apply_warm_start(spec, warm_start, supported):
        if model.violates(spec, constraint_db):
            warm = True
    if not warm:
        for root in roots:
            spec.set_wl(root, supported[0])
    moves = 0
    evaluations = 0
    while model.violates(spec, constraint_db):
        if moves >= max_moves:
            raise WLOError("min_plus_one did not reach feasibility")
        best: tuple[float, int, int] | None = None
        current_noise = model.noise_power(spec)
        for root in roots:
            wider = [w for w in supported if w > spec.wl(root)]
            if not wider:
                continue
            wl = min(wider)
            token = spec.save()
            spec.set_wl(root, wl)
            evaluations += 1
            gain = current_noise - model.noise_power(spec)
            added_cost = wl - supported[0]
            score = gain / max(added_cost, 1)
            spec.revert(token)
            key = (-score, root, wl)
            if best is None or key < best:
                best = key
        if best is None:
            raise WLOError(
                f"constraint {constraint_db} dB infeasible even at maximum "
                "word lengths"
            )
        _score, root, wl = best
        spec.set_wl(root, wl)
        moves += 1
    return GreedyResult(
        wl_relative_cost(program, spec, target), moves, evaluations, warm
    )
