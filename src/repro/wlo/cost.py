"""Word-length-relative cost model for the decoupled WLO baselines.

Menard et al.'s assumption (paper Section II-B / V-A): the relative
execution time of an instruction is proportional to the word length it
operates on — a 32-bit scalar op costs 1, a 16-bit op costs 0.5
(because a 2x16 SIMD instruction *would* retire two of them), an 8-bit
op 0.25.  This is precisely the "very optimistic and unrealistic"
assumption the paper criticizes: it prices SIMD without knowing
whether grouping is possible or what packing would cost.  We implement
it faithfully because the WLO-First baseline needs it.
"""

from __future__ import annotations

from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.targets.model import TargetModel

__all__ = ["WlRelativeCost", "wl_relative_cost"]

#: Op kinds that translate into machine instructions (register moves
#: and constants do not).
_COSTING_KINDS = frozenset({
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.MIN, OpKind.MAX,
    OpKind.NEG, OpKind.ABS, OpKind.LOAD, OpKind.STORE,
})


class _DatapathShare(dict):
    """Word length -> charged share of the datapath, filled on demand."""

    def __init__(self, target: TargetModel) -> None:
        super().__init__()
        self._supported = sorted(target.supported_wls)
        self._scalar_wl = target.scalar_wl

    def __missing__(self, wl: int) -> float:
        supported = self._supported
        effective = next((w for w in supported if w >= wl), supported[-1])
        share = self[wl] = effective / self._scalar_wl
        return share


class WlRelativeCost:
    """:func:`wl_relative_cost` of one (program, target), precomputed.

    The costing ops and their block weights are listed once, in the
    summation order of the full walk, so every call returns the same
    float as :func:`wl_relative_cost`.  Search engines build one per
    search and call it once per feasible neighbour.
    """

    def __init__(self, program: Program, target: TargetModel) -> None:
        self._terms = [
            (op.opid, float(block.executions))
            for block in program.blocks.values()
            for op in block.ops
            if op.kind in _COSTING_KINDS
        ]
        self._share = _DatapathShare(target)

    def __call__(self, spec: FixedPointSpec) -> float:
        wl = spec.wl_vector().tolist()
        share = self._share
        total = 0.0
        for opid, weight in self._terms:
            total += weight * share[wl[opid]]
        return total


def wl_relative_cost(
    program: Program, spec: FixedPointSpec, target: TargetModel
) -> float:
    """Execution-time estimate under the optimistic WL-relative model.

    Each costing operation contributes ``executions * wl/datapath``:
    at 32 bits the full op, at 16 bits half (assuming perfect 2x16
    SIMDization), at 8 bits a quarter.  Word lengths outside the
    supported set are charged at the next wider supported width.
    """
    return WlRelativeCost(program, target)(spec)
