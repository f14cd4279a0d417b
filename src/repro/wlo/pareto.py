"""Single-search Pareto-front word-length optimization.

A constraint sweep asks the same cost-vs-noise question C times with C
different cut-offs.  Instead of C independent searches, this module
walks the whole cost/noise frontier of one (program, spec, model,
target) **once**, from the all-maximum assignment down to the
all-minimum one: every step greedily narrows the tie group buying the
largest cost saving per decibel of added noise — each frontier point
literally seeds the next, which is the continuation idea taken to its
limit.  Projecting the frontier onto a constraint grid is then O(1)
per cell: the cheapest recorded point that still satisfies the cell's
noise budget.

By construction the walk's cost is non-increasing and its noise
non-decreasing, so after dominated-point pruning the recorded points
form a true Pareto front; a projection is therefore *feasible by
selection* — the dense-grid CI smoke asserts exactly that on every
cell.  The front is a greedy approximation (like the ``max-1``
engine's endpoint, reached by a slightly different move order), not a
certified optimum; the paper-grid quality checks live in
``tests/test_wlo_continuation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accuracy.analytical import AccuracyModel
from repro.errors import WLOError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.program import Program
from repro.targets.model import TargetModel
from repro.wlo.cost import WlRelativeCost

__all__ = ["FrontierPoint", "ParetoFrontier", "ParetoResult", "pareto_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated (noise, cost) trade-off and its assignment."""

    noise_db: float
    cost: float
    wls: dict[int, int]


@dataclass
class ParetoFrontier:
    """The recorded frontier of one walk, plus its search statistics."""

    #: Cost strictly decreasing, noise strictly increasing.
    points: list[FrontierPoint]
    moves: int = 0
    evaluations: int = 0

    def project(self, constraint_db: float) -> FrontierPoint:
        """The cheapest frontier point satisfying ``constraint_db``.

        Raises :class:`WLOError` when even the most accurate point
        (the all-maximum assignment) violates the constraint — the
        same infeasibility every engine reports.
        """
        best: FrontierPoint | None = None
        for point in self.points:
            if point.noise_db <= constraint_db:
                best = point  # points are ordered by decreasing cost
            else:
                break
        if best is None:
            raise WLOError(
                f"accuracy constraint {constraint_db} dB is infeasible even "
                f"at maximum word lengths (frontier floor "
                f"{self.points[0].noise_db:.2f} dB)"
            )
        return best


@dataclass
class ParetoResult:
    """Per-cell statistics of a frontier projection (``wlo_stats``).

    ``moves``/``evaluations`` are the *frontier walk's* totals — paid
    once per kernel × target and amortized over every projected cell;
    ``warm_start`` records whether this cell reused a memoized
    frontier (every cell after the panel's first does).
    """

    cost: float
    noise_db: float
    points: int
    moves: int
    evaluations: int
    warm_start: bool = False
    wls: dict[int, int] = field(default_factory=dict)


def pareto_frontier(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    target: TargetModel,
) -> ParetoFrontier:
    """Walk the full cost/noise frontier in one descending pass.

    Mutates ``spec`` while walking (callers project a point onto it
    afterwards); deterministic for fixed inputs.  No constraint is
    involved: the walk records every trade-off from all-max to all-min
    and leaves the cut-off to :meth:`ParetoFrontier.project`.
    """
    roots = spec.slotmap.roots
    supported = sorted(target.supported_wls)

    def snapshot() -> dict[int, int]:
        return {root: spec.wl(root) for root in roots}

    for root in roots:
        spec.set_wl(root, target.max_wl)
    cost_of = WlRelativeCost(program, target)
    cost = cost_of(spec)
    noise = model.noise_db(spec)
    frontier = ParetoFrontier([FrontierPoint(noise, cost, snapshot())])

    while True:
        best: tuple[tuple, int, int, float, float] | None = None
        for root in roots:
            narrower = [w for w in supported if w < spec.wl(root)]
            if not narrower:
                continue
            wl = max(narrower)
            token = spec.save()
            spec.set_wl(root, wl)
            frontier.evaluations += 1
            move_cost = cost_of(spec)
            move_noise = model.noise_db(spec)
            spec.revert(token)
            saving = cost - move_cost
            added_noise = max(move_noise - noise, 1e-9)
            # Most saving per decibel first; deterministic tie-break on
            # (least added noise, lowest root, widest wl).
            key = (-(saving / added_noise), move_noise, root, -wl)
            if best is None or key < best[0]:
                best = (key, root, wl, move_cost, move_noise)
        if best is None:
            break  # every root is at the minimum supported width
        _key, root, wl, cost, noise = best
        spec.set_wl(root, wl)
        frontier.moves += 1
        previous = frontier.points[-1]
        if noise <= previous.noise_db:
            # A move that costs no noise dominates the previous point:
            # replace it instead of recording a dominated pair.
            frontier.points.pop()
            frontier.points.append(FrontierPoint(noise, cost, snapshot()))
        elif cost < previous.cost:
            frontier.points.append(FrontierPoint(noise, cost, snapshot()))
        # else: noisier at no saving — keep walking, record nothing.
    return frontier
