"""Benefit estimator tests: the ordering the selector relies on."""

import pytest

from repro.ir import OpKind, build_dependence_graph
from repro.slp import (
    BenefitEstimator,
    extract_candidates,
    initial_items,
)
from repro.experiments import PAPER_TARGETS
from repro.kernels import kernel_catalog
from repro.slp.extraction import (
    DEFAULT_MIN_BENEFIT,
    SelectionStats,
    extract_groups_decoupled,
)
from repro.targets import get_target
from repro.wlo import tabu_wlo, wlo_slp_optimize


@pytest.fixture()
def fir_setup(small_fir):
    block = small_fir.blocks["body"]
    deps = build_dependence_graph(block)
    items = initial_items(block)
    candidates = extract_candidates(
        small_fir, items, deps, get_target("xentium")
    )
    estimator = BenefitEstimator(small_fir, block)
    return small_fir, block, items, candidates, estimator


def _by_lanes(candidates, program, kind):
    return [c for c in candidates if c.kind is kind]


class TestOrdering:
    def test_contiguous_load_pairs_beat_strided(self, fir_setup):
        program, block, items, candidates, estimator = fir_setup
        loads = _by_lanes(candidates, program, OpKind.LOAD)
        scored = {
            c.lanes: estimator.benefit(c, candidates, items) for c in loads
        }
        from repro.slp import memory_lane_stride

        contiguous = [s for c, s in
                      ((c, scored[c.lanes]) for c in loads)
                      if memory_lane_stride(program, c.lanes) == 1]
        strided = [s for c, s in
                   ((c, scored[c.lanes]) for c in loads)
                   if memory_lane_stride(program, c.lanes)
                   not in (1, -1)]
        assert contiguous and strided
        assert min(contiguous) > max(strided)

    def test_chained_muls_beat_unchained(self, fir_setup):
        """Adjacent-lane muls (fed by one vector load, feeding one
        accumulator add pair) must outrank gather-fed mul pairings."""
        program, block, items, candidates, estimator = fir_setup
        muls = [o.opid for o in block.ops if o.kind is OpKind.MUL]
        chained = next(
            c for c in candidates
            if c.lanes == (muls[0], muls[1])
        )
        unchained = next(
            c for c in candidates
            if c.lanes == (muls[0], muls[3])
        )
        assert estimator.benefit(chained, candidates, items) > \
            estimator.benefit(unchained, candidates, items)

    def test_accumulator_adds_profit(self, fir_setup):
        """The vacc += vmul pattern: add pairs score above threshold."""
        program, block, items, candidates, estimator = fir_setup
        adds = _by_lanes(candidates, program, OpKind.ADD)
        assert adds
        adjacent = [
            c for c in adds
            if abs(c.left[0] - c.right[0]) == 6  # neighbouring unroll lanes
        ]
        for candidate in adjacent[:2]:
            assert estimator.benefit(candidate, candidates, items) \
                >= DEFAULT_MIN_BENEFIT


class TestThresholdCalibration:
    """Facts DEFAULT_MIN_BENEFIT relies on (see extraction.py)."""

    def test_isolated_gather_pair_below_threshold(self):
        """Strided loads with scalar-only consumers never pay off."""
        from repro.ir import ProgramBuilder, loop_index

        b = ProgramBuilder("gather")
        x = b.input_array("x", (32,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (16,))
        i = loop_index("i")
        with b.loop("i", 8):
            with b.block("body"):
                even = b.load(x, i * 4)
                odd = b.load(x, i * 4 + 2)
                b.store(y, i * 2, b.mul(even, b.const(0.5)))
                b.store(y, i * 2 + 1, b.mul(odd, b.const(0.25)))
        program = b.build()
        block = program.blocks["body"]
        deps = build_dependence_graph(block)
        items = initial_items(block)
        candidates = extract_candidates(
            program, items, deps, get_target("xentium")
        )
        estimator = BenefitEstimator(program, block)
        from repro.slp import memory_lane_stride

        gathers = [
            c for c in candidates
            if c.kind is OpKind.LOAD
            and memory_lane_stride(program, c.lanes) not in (1, -1)
        ]
        assert gathers
        # Without the chain widening along (the muls here have unequal
        # constants only in value, they can still pair) the gather
        # alone must not clear the bar.
        isolated = [
            estimator.benefit(c, [c], items) for c in gathers
        ]
        assert all(score < DEFAULT_MIN_BENEFIT for score in isolated)

    def test_vector_load_pair_above_threshold(self, fir_setup):
        program, block, items, candidates, estimator = fir_setup
        from repro.slp import memory_lane_stride

        vector_loads = [
            c for c in candidates
            if c.kind is OpKind.LOAD
            and memory_lane_stride(program, c.lanes) == 1
        ]
        assert vector_loads
        for candidate in vector_loads:
            assert estimator.benefit(candidate, candidates, items) \
                >= DEFAULT_MIN_BENEFIT


class TestInvariantOperands:
    def test_conv_kernel_splat_is_cheap(self, small_conv):
        """ker loads are loop-invariant: mul pairs using them pay no
        per-iteration pack cost."""
        block = small_conv.blocks["body"]
        deps = build_dependence_graph(block)
        items = initial_items(block)
        target = get_target("xentium")
        candidates = extract_candidates(small_conv, items, deps, target)
        estimator = BenefitEstimator(small_conv, block)
        muls = [c for c in candidates if c.kind is OpKind.MUL]
        assert muls
        best = max(
            estimator.benefit(c, candidates, items) for c in muls
        )
        assert best >= DEFAULT_MIN_BENEFIT


class TestHalfReuseBreaking:
    def test_widening_past_consumers_is_penalized(self, small_fir):
        """A quad whose halves feed existing pair consumers scores
        below a quad whose consumers can widen along with it."""
        block = small_fir.blocks["body"]
        deps = build_dependence_graph(block)
        from repro.targets import vex

        target = vex(4)
        loads = [o.opid for o in block.ops
                 if o.kind is OpKind.LOAD and o.array == "x"]
        muls = [o.opid for o in block.ops if o.kind is OpKind.MUL]
        # State A: mul pairs exist as items -> widening loads breaks them.
        items_with_mul_pairs = [
            (loads[0], loads[1]), (loads[2], loads[3]),
            (muls[0], muls[1]), (muls[2], muls[3]),
        ]
        cands_a = extract_candidates(
            small_fir, items_with_mul_pairs, deps, target
        )
        estimator = BenefitEstimator(small_fir, block)
        quad_a = next(c for c in cands_a if c.kind is OpKind.LOAD)
        score_breaking = estimator.benefit(quad_a, cands_a, items_with_mul_pairs)
        # State B: matching mul quad candidate exists too.
        items_b = [
            (loads[0], loads[1]), (loads[2], loads[3]),
            (muls[0], muls[1]), (muls[2], muls[3]),
        ]
        cands_b = cands_a  # same candidate pool contains the mul quad
        mul_quad = next(c for c in cands_b if c.kind is OpKind.MUL)
        assert mul_quad.size == 4
        score_chained = estimator.benefit(quad_a, cands_b, items_b)
        # With the mul quad in the pool the load quad gains a vector
        # consumer; without one it pays the broken-half penalty.
        assert score_chained >= score_breaking


# ----------------------------------------------------------------------
# The indexed consumer pools against the linear scan they replace.

def _scan_consumers(program, lanes, item_lanes, candidate_lanes):
    """Reference: every (item or candidate, weight) consuming ``lanes``,
    found by scanning each pool member's operand tuples."""
    found = []
    for pool, weight in ((item_lanes, 1.0), (candidate_lanes, 0.75)):
        for other in pool:
            if other == lanes:
                continue
            arity = len(program.op(other[0]).operands)
            for pos in range(arity):
                producers = tuple(program.op(o).operands[pos] for o in other)
                if producers == lanes:
                    found.append((other, weight))
    return found


class _ScanPools:
    """The pools as every score built them before indexing: fresh sets
    per call (excluding the scored candidate) and consumer lookups by
    linear scan.  Everything else in the score is shared code."""

    def __init__(self, program, candidate, candidates, items):
        self.items = set(items)
        self.candidates = {c.lanes for c in candidates if c is not candidate}
        self.consumers = self
        self._program = program

    def get(self, lanes, default=()):
        return _scan_consumers(
            self._program, lanes, self.items, self.candidates
        ) or default


def _extract_both(context, target, constraint_db):
    """Joint and decoupled extraction stats plus their group partitions."""
    program, model = context.program, context.model
    joint_spec = context.fresh_spec()
    joint = wlo_slp_optimize(program, joint_spec, model, target, constraint_db)
    decoupled_spec = context.fresh_spec()
    tabu_wlo(program, decoupled_spec, model, target, constraint_db)
    decoupled = SelectionStats()
    groups = {
        name: extract_groups_decoupled(
            program, block, decoupled_spec, target, decoupled
        )
        for name, block in program.blocks.items()
    }
    partition = {
        name: [group.lanes for group in group_set]
        for name, group_set in {**joint.groups, **groups}.items()
    }
    return joint.selection, decoupled, partition


@pytest.mark.parametrize("target_name", PAPER_TARGETS)
@pytest.mark.parametrize("kernel", sorted(kernel_catalog()))
def test_indexed_benefit_matches_linear_scan(
    shipped_contexts, monkeypatch, kernel, target_name
):
    """Every score of both extraction front ends equals the scan's, so
    the selections, and hence every SelectionStats field, agree."""
    context = shipped_contexts[kernel]
    target = get_target(target_name)
    indexed = _extract_both(context, target, -30.0)

    indexed_score = BenefitEstimator.benefit
    scored = 0

    def scan_score(self, candidate, candidates, items, pools=None):
        nonlocal scored
        reference = indexed_score(
            self, candidate, candidates, items,
            _ScanPools(self.program, candidate, candidates, items),
        )
        assert indexed_score(self, candidate, candidates, items, pools) \
            == reference
        assert indexed_score(self, candidate, candidates, items) == reference
        scored += 1
        return reference

    monkeypatch.setattr(BenefitEstimator, "benefit", scan_score)
    scanned = _extract_both(context, target, -30.0)
    assert scanned == indexed
    joint, decoupled, _partition = indexed
    assert scored == joint.benefit_evaluations + decoupled.benefit_evaluations
    assert scored > 0
