"""Conflict detection between SIMD group candidates.

Two candidates conflict when they cannot both be realized:

* **common operation** — an op can live in only one group;
* **cyclic dependency** — some lane of A depends on a lane of B *and*
  some lane of B depends on a lane of A, so neither group can be
  scheduled atomically before the other.

The accuracy-aware variant of the paper (Fig. 1c lines 14-25) adds a
third class — joint selection violates the accuracy constraint — which
lives in ``repro.slp.accuracy_aware`` because it needs the spec and
the accuracy model.
"""

from __future__ import annotations

from repro.ir.deps import DependenceGraph
from repro.slp.candidates import Candidate

__all__ = [
    "have_common_op",
    "have_cyclic_dependency",
    "structural_conflict",
    "conflict_matrix",
]


def have_common_op(a: Candidate, b: Candidate) -> bool:
    """True when the candidates share an operation."""
    return a.shares_op_with(b)


def have_cyclic_dependency(
    a: Candidate, b: Candidate, deps: DependenceGraph
) -> bool:
    """True when grouping both would create a group-level cycle."""
    a_lanes, b_lanes = a.lanes, b.lanes
    a_reaches_b = any(
        not deps.descendants(la).isdisjoint(b_lanes) for la in a_lanes
    )
    if not a_reaches_b:
        return False
    return any(
        not deps.descendants(lb).isdisjoint(a_lanes) for lb in b_lanes
    )


def structural_conflict(
    a: Candidate, b: Candidate, deps: DependenceGraph
) -> bool:
    """Common-op or cyclic-dependency conflict."""
    return have_common_op(a, b) or have_cyclic_dependency(a, b, deps)


def conflict_matrix(
    candidates: list[Candidate], deps: DependenceGraph
) -> set[frozenset[int]]:
    """All structurally conflicting index pairs among ``candidates``."""
    conflicts: set[frozenset[int]] = set()
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if structural_conflict(candidates[i], candidates[j], deps):
                conflicts.add(frozenset((i, j)))
    return conflicts
