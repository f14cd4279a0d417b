"""Candidate benefit estimation (Liu et al.'s reuse/cost ratio).

The benefit of selecting a candidate is its contribution to overall
*superword reuse* divided by the *packing/unpacking cost* it incurs
(paper Sections II-A and III-B).  The estimate mirrors the cost rules
of the SIMD lowering (``repro.codegen.simd``) so that what the
selector prefers is what the cycle model rewards:

* operands produced lane-exactly by another group/candidate: free
  (vector register reuse);
* operands that are contiguous same-array loads: vector-loadable;
* the loop-carried accumulator pattern (lanes read variables that the
  same lanes write back): the vector lives in a register across
  iterations — free, and highly reusable;
* everything else must be packed (lane inserts), and lanes consumed by
  scalar ops outside any group must be unpacked (extracts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.ir.deps import is_loop_invariant_load
from repro.ir.optypes import ARITHMETIC_KINDS, OpKind
from repro.ir.program import Program
from repro.slp.candidates import Candidate, PackItem
from repro.slp.groups import memory_lane_stride

__all__ = ["BenefitEstimator", "BenefitPools"]

#: Relative reuse credit of a match against an already-formed item
#: versus a still-tentative candidate.
_ITEM_WEIGHT = 1.0
_CANDIDATE_WEIGHT = 0.75


@dataclass(frozen=True)
class BenefitPools:
    """What a benefit score reads of the selection state, indexed.

    Built once per selection step (:meth:`BenefitEstimator.pools`) and
    shared by every score of that step.
    """

    #: Lane tuples of the formed pack items.
    items: frozenset[PackItem]
    #: Lane tuples of the live candidates.
    candidates: frozenset[tuple[int, ...]]
    #: Producer lanes -> (consumer lanes, reuse weight), one entry per
    #: operand position of an item or candidate that reads exactly
    #: those lanes.
    consumers: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]]


@dataclass
class BenefitEstimator:
    """Benefit oracle for one basic block."""

    program: Program
    block: BasicBlock
    #: op -> list of (consumer opid, operand position) within the block.
    _consumers: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    #: producer opid -> variable written from it (WRITEVAR value edges).
    _feeds_var: dict[int, str] = field(default_factory=dict)
    #: lanes -> per operand position, the tuple of lane producers.
    _operands: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for op in self.block.ops:
            for pos, producer in enumerate(op.operands):
                self._consumers.setdefault(producer, []).append((op.opid, pos))
            if op.kind is OpKind.WRITEVAR:
                self._feeds_var[op.operands[0]] = op.var  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def _operand_lanes(self, lanes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Per operand position, the producers of ``lanes``' operands."""
        found = self._operands.get(lanes)
        if found is None:
            ops = [self.program.op(opid) for opid in lanes]
            found = tuple(
                tuple(op.operands[pos] for op in ops)
                for pos in range(len(ops[0].operands))
            )
            self._operands[lanes] = found
        return found

    def pools(
        self, candidates: list[Candidate], items: list[PackItem]
    ) -> BenefitPools:
        """Index the items and candidates every score of a step reads.

        Tuple equality implies size equality, so one pool of each
        suffices for full-lane, half-lane and operand matching alike.
        """
        item_lanes = frozenset(items)
        candidate_lanes = frozenset(c.lanes for c in candidates)
        consumers: dict[tuple[int, ...], list] = {}
        for pool, weight in (
            (item_lanes, _ITEM_WEIGHT),
            (candidate_lanes, _CANDIDATE_WEIGHT),
        ):
            for other in pool:
                for producers in self._operand_lanes(other):
                    consumers.setdefault(producers, []).append((other, weight))
        return BenefitPools(item_lanes, candidate_lanes, consumers)

    def benefit(
        self,
        candidate: Candidate,
        candidates: list[Candidate],
        items: list[PackItem],
        pools: BenefitPools | None = None,
    ) -> float:
        """Reuse-over-cost score of ``candidate`` in the current state.

        ``pools`` is :meth:`pools` of ``candidates`` and ``items``,
        passed in when many candidates are scored in one state.  (A
        candidate never matches its own lanes: no op reads itself, and
        half-lane matches are shorter than it.)
        """
        if pools is None:
            pools = self.pools(candidates, items)
        lanes = candidate.lanes
        n = candidate.size
        reuse = 0.0
        pack_cost = 0.0
        unpack_cost = 0.0

        if candidate.kind in (OpKind.LOAD, OpKind.STORE):
            if candidate.kind is OpKind.LOAD and all(
                is_loop_invariant_load(self.program, self.program.op(opid))
                for opid in lanes
            ):
                reuse += 1.0  # hoisted: the vector is packed once, free
            else:
                stride = memory_lane_stride(self.program, lanes)
                if stride == 1:
                    reuse += 1.0
                elif stride == -1:
                    pack_cost += 0.5  # one permute after the vector access
                else:
                    pack_cost += n - 1  # gather / scatter
        if candidate.kind in ARITHMETIC_KINDS or candidate.kind is OpKind.STORE:
            for producers in self._operand_lanes(lanes):
                reuse_gain, cost = self._operand_cost(lanes, producers, pools)
                reuse += reuse_gain
                pack_cost += cost

        if candidate.kind is not OpKind.STORE:
            r_gain, u_cost = self._result_cost(lanes, pools)
            reuse += r_gain
            unpack_cost += u_cost

        saved_issue_slots = 0.5 * (n - 1)
        return (saved_issue_slots + reuse) / (1.0 + pack_cost + unpack_cost)

    # ------------------------------------------------------------------
    def _operand_cost(
        self,
        lanes: tuple[int, ...],
        producers: tuple[int, ...],
        pools: BenefitPools,
    ) -> tuple[float, float]:
        """(reuse gained, pack cost) of one vector operand."""
        n = len(lanes)
        if producers in pools.items:
            return _ITEM_WEIGHT, 0.0
        if producers in pools.candidates:
            supply = [self.program.op(p) for p in producers]
            if all(op.kind is OpKind.LOAD for op in supply):
                stride = memory_lane_stride(self.program, producers)
                if stride not in (1, -1) and not all(
                    is_loop_invariant_load(self.program, op) for op in supply
                ):
                    # The feeding candidate is itself a gather: its
                    # packing cost would land on this chain.
                    return 0.25, 0.0
            return _CANDIDATE_WEIGHT, 0.0
        ops = [self.program.op(p) for p in producers]
        if all(
            op.kind is OpKind.CONST or is_loop_invariant_load(self.program, op)
            for op in ops
        ):
            return 0.25, 0.0  # loop-invariant splat, packed once
        if all(op.kind is OpKind.LOAD for op in ops):
            stride = memory_lane_stride(self.program, producers)
            if stride == 1:
                return 0.5, 0.0  # one vector load feeds the lanes
            return 0.0, float(n - 1)
        if self._is_loop_carried_accumulator(lanes, producers):
            return _ITEM_WEIGHT, 0.0
        if self._single_item_source(producers, pools.items):
            return 0.25, 1.0  # one permute/lane-select op
        return 0.0, float(n - 1)

    def _single_item_source(
        self, producers: tuple[int, ...], items: frozenset[PackItem]
    ) -> bool:
        """All producers are lanes of one existing wider item."""
        produced = set(producers)
        for item in items:
            if len(item) > len(producers) and produced <= set(item):
                return True
        return False

    def _is_loop_carried_accumulator(
        self, lanes: tuple[int, ...], producers: tuple[int, ...]
    ) -> bool:
        """Lanes read variables that the same lanes write back.

        This is the ``vacc += vmul`` reduction pattern: the packed
        accumulator never leaves its vector register across loop
        iterations, so consuming it costs nothing.
        """
        for lane, producer in zip(lanes, producers):
            op = self.program.op(producer)
            if op.kind is not OpKind.READVAR:
                return False
            if self._feeds_var.get(lane) != op.var:
                return False
        return True

    def _result_cost(
        self, lanes: tuple[int, ...], pools: BenefitPools
    ) -> tuple[float, float]:
        """(reuse gained, unpack cost) of the candidate's result.

        Vector consumers (an item or candidate whose operand lanes are
        exactly these lanes) earn reuse credit; loop-carried write-backs
        keep the result in its vector register; any remaining scalar
        consumer forces an extract per use (capped at the lane count —
        a full unpack).
        """
        reuse = sum(self._vector_consumers(lanes, pools))
        scalar_uses = 0
        for lane in lanes:
            for consumer, _pos in self._consumers.get(lane, ()):
                cop = self.program.op(consumer)
                if cop.kind is OpKind.WRITEVAR and self._reads_var_somewhere(
                    lanes, cop.var
                ):
                    continue  # stays packed across iterations
                scalar_uses += 1
        unpack = 0.0
        if reuse == 0.0 and scalar_uses:
            unpack = float(min(scalar_uses, len(lanes)))
        if reuse == 0.0:
            # Widening a vector whose *halves* are currently consumed
            # lane-exactly breaks working superword reuse: consumers
            # would have to extract their lanes back out.  Charge the
            # repacking this forces on them.
            unpack += self._broken_half_reuse(lanes, pools)
        return reuse, unpack

    def _broken_half_reuse(
        self, lanes: tuple[int, ...], pools: BenefitPools
    ) -> float:
        if len(lanes) < 4:
            return 0.0
        half = len(lanes) // 2
        penalty = 0.0
        for part in (lanes[:half], lanes[half:]):
            if self._vector_consumers(part, pools):
                penalty += float(half)
        return penalty

    def _vector_consumers(
        self, lanes: tuple[int, ...], pools: BenefitPools
    ) -> list[float]:
        """Reuse credits from items/candidates consuming ``lanes``."""
        return [
            weight
            for other, weight in pools.consumers.get(lanes, ())
            if other != lanes
        ]

    def _reads_var_somewhere(self, lanes: tuple[int, ...], var: str | None) -> bool:
        if var is None:
            return False
        for lane in lanes:
            for producer in self.program.op(lane).operands:
                pop = self.program.op(producer)
                if pop.kind is OpKind.READVAR and pop.var == var:
                    return True
        return False
