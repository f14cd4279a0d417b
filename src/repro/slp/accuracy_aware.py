"""Accuracy-aware SLP extraction (paper Fig. 1c).

The joint algorithm's inner engine.  Differences from plain SLP:

* ``SETMAXWL`` (here :func:`set_group_wl`) — selecting a group narrows
  the word length of all its lanes to eq. (1)'s ``m`` and narrows the
  multiply operand edges to the lane width;
* *invalid candidates* — a candidate that violates the accuracy
  constraint even with every other node at maximum word length can
  never be implemented as a SIMD instruction and is eliminated up
  front (lines 6-12);
* *accuracy conflicts* — two candidates that cannot coexist without
  violating the constraint conflict exactly like structural conflicts
  (lines 14-25).
"""

from __future__ import annotations


from repro.accuracy.analytical import AccuracyModel
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.deps import DependenceGraph
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.slp.benefit import BenefitEstimator
from repro.slp.candidates import Candidate, PackItem, extract_candidates
from repro.slp.conflicts import structural_conflict
from repro.slp.extraction import SelectionStats, select_groups
from repro.targets.model import TargetModel

__all__ = ["set_group_wl", "slp_round_accuracy_aware"]


def set_group_wl(
    spec: FixedPointSpec,
    program: Program,
    lanes: tuple[int, ...],
    wl: int,
) -> None:
    """The paper's ``SETMAXWL``: apply eq. (1)'s lane width to a group.

    Every lane node is narrowed to ``wl`` (keeping its range-derived
    ``iwl``, so only precision is traded); multiply lanes additionally
    record that their operands are consumed through ``wl``-bit lanes,
    which the accuracy model prices as pack-boundary narrowing.
    """
    for opid in lanes:
        spec.set_wl(opid, wl)
        if program.op(opid).kind is OpKind.MUL:
            spec.set_edge_wl(opid, 0, wl)
            spec.set_edge_wl(opid, 1, wl)


def slp_round_accuracy_aware(
    program: Program,
    block: BasicBlock,
    items: list[PackItem],
    deps: DependenceGraph,
    target: TargetModel,
    spec: FixedPointSpec,
    model: AccuracyModel,
    constraint_db: float,
    estimator: BenefitEstimator,
    stats: SelectionStats | None = None,
    accuracy_conflicts: bool = True,
) -> list[Candidate]:
    """One extraction round of Fig. 1c; selections mutate ``spec``.

    Returns the selected candidates (possibly empty, which terminates
    the widening loop of Fig. 1a).  ``accuracy_conflicts=False``
    disables the joint-selection conflict class (ablation B), keeping
    only the per-candidate validity check.
    """
    candidates = extract_candidates(program, items, deps, target)
    if stats is not None:
        stats.rounds += 1
        stats.candidates_seen += len(candidates)

    # --- Candidates Extraction: eliminate accuracy-invalid ones -------
    valid: list[Candidate] = []
    for candidate in candidates:
        token = spec.save()
        set_group_wl(spec, program, candidate.lanes, candidate.wl)
        violates = model.violates(spec, constraint_db)
        spec.revert(token)
        if violates:
            if stats is not None:
                stats.accuracy_rejections += 1
        else:
            valid.append(candidate)
    candidates = valid

    # --- Conflicts Detection ------------------------------------------
    conflicts: set[frozenset[int]] = set()
    for i in range(len(candidates)):
        # Candidate i's SETMAXWL is applied once for all its partners.
        with_i: int | None = None
        for j in range(i + 1, len(candidates)):
            if structural_conflict(candidates[i], candidates[j], deps):
                conflicts.add(frozenset((i, j)))
                if stats is not None:
                    stats.structural_conflicts += 1
                continue
            if not accuracy_conflicts:
                continue
            if with_i is None:
                with_i = spec.save()
                set_group_wl(spec, program, candidates[i].lanes, candidates[i].wl)
            token = spec.save()
            set_group_wl(spec, program, candidates[j].lanes, candidates[j].wl)
            violates = model.violates(spec, constraint_db)
            spec.revert(token)
            if violates:
                conflicts.add(frozenset((i, j)))
                if stats is not None:
                    stats.accuracy_conflicts += 1
        if with_i is not None:
            spec.revert(with_i)

    # --- SIMD Groups Selection (SETMAXWL applied permanently) ----------
    def on_select(candidate: Candidate) -> None:
        set_group_wl(spec, program, candidate.lanes, candidate.wl)

    return select_groups(
        candidates, conflicts, estimator, items, on_select, stats
    )
