"""Tabu-search WLO (the WLO-First engine) tests."""

import random

import pytest

from repro.errors import WLOError
from repro.experiments import PAPER_TARGETS
from repro.kernels import kernel_catalog
from repro.targets import get_target
from repro.wlo import TabuConfig, tabu_wlo, wl_relative_cost
from repro.wlo.cost import WlRelativeCost


class TestTabu:
    def test_constraint_always_satisfied(self, fir_context):
        target = get_target("xentium")
        for constraint in (-15.0, -45.0, -62.0):
            spec = fir_context.fresh_spec()
            tabu_wlo(fir_context.program, spec, fir_context.model,
                     target, constraint)
            assert not fir_context.model.violates(spec, constraint)

    def test_improves_over_start(self, fir_context):
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        start_cost = wl_relative_cost(fir_context.program, spec, target)
        result = tabu_wlo(fir_context.program, spec, fir_context.model,
                          target, -25.0)
        assert result.best_cost < start_cost
        assert result.best_cost == pytest.approx(
            wl_relative_cost(fir_context.program, spec, target)
        )

    def test_loose_constraint_narrows_everything(self, fir_context):
        """At -10 dB on a 2-width target the uniform 16-bit solution is
        feasible and strictly cheapest: Tabu must find it."""
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        tabu_wlo(fir_context.program, spec, fir_context.model, target, -10.0)
        wls = {spec.wl(root) for root in fir_context.slotmap.roots}
        assert wls == {16}

    def test_strict_constraint_keeps_width(self, fir_context):
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        tabu_wlo(fir_context.program, spec, fir_context.model, target, -90.0)
        wls = [spec.wl(root) for root in fir_context.slotmap.roots]
        assert 32 in wls  # something had to stay wide

    def test_infeasible_raises(self, fir_context):
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        with pytest.raises(WLOError, match="infeasible"):
            tabu_wlo(fir_context.program, spec, fir_context.model,
                     target, -400.0)

    def test_supported_wls_only(self, fir_context):
        target = get_target("vex-4")
        spec = fir_context.fresh_spec()
        tabu_wlo(fir_context.program, spec, fir_context.model, target, -30.0)
        for root in fir_context.slotmap.roots:
            assert spec.wl(root) in target.supported_wls

    def test_deterministic(self, fir_context):
        target = get_target("xentium")
        spec_a = fir_context.fresh_spec()
        spec_b = fir_context.fresh_spec()
        tabu_wlo(fir_context.program, spec_a, fir_context.model, target, -45.0)
        tabu_wlo(fir_context.program, spec_b, fir_context.model, target, -45.0)
        assert (spec_a.wl_vector() == spec_b.wl_vector()).all()

    def test_respects_iteration_budget(self, fir_context):
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        result = tabu_wlo(
            fir_context.program, spec, fir_context.model, target, -45.0,
            TabuConfig(max_iterations=5),
        )
        assert result.iterations <= 5

    def test_patience_pins_stall_termination(self, fir_context):
        """Regression pin for the patience/stall logic: termination
        depends only on best-cost improvements (no other per-iteration
        state), so patience changes *only* how far the search coasts
        past its last improvement — the move trajectory, improvement
        count and best solution are identical, and each extra unit of
        patience buys exactly one extra non-improving iteration before
        the stall break."""
        target = get_target("xentium")

        def run(patience: int):
            spec = fir_context.fresh_spec()
            return tabu_wlo(
                fir_context.program, spec, fir_context.model, target, -45.0,
                TabuConfig(max_iterations=10_000, patience=patience),
            )

        eager, patient = run(2), run(30)
        # Both stop on stall, far inside the iteration budget.
        assert eager.iterations < 10_000 and patient.iterations < 10_000
        assert patient.iterations - eager.iterations == 30 - 2
        assert eager.improved_moves == patient.improved_moves
        assert eager.best_cost == patient.best_cost
        assert eager.best_assignment == patient.best_assignment


class TestCostModel:
    def test_cost_scales_with_wl(self, fir_context):
        target = get_target("xentium")
        spec = fir_context.fresh_spec()
        wide = wl_relative_cost(fir_context.program, spec, target)
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 16)
        half = wl_relative_cost(fir_context.program, spec, target)
        assert half == pytest.approx(wide / 2.0)

    def test_cost_weights_by_executions(self, fir_context):
        """Narrowing a hot-loop op saves more than a cold-block op."""
        target = get_target("xentium")
        program = fir_context.program
        from repro.ir import OpKind

        body_mul = next(
            o for o in program.blocks["body"].ops if o.kind is OpKind.MUL
        )
        reduce_add = next(
            o for o in program.blocks["reduce"].ops if o.kind is OpKind.ADD
        )
        spec = fir_context.fresh_spec()
        base = wl_relative_cost(program, spec, target)
        spec.set_wl(body_mul.opid, 16)
        hot_saving = base - wl_relative_cost(program, spec, target)
        spec = fir_context.fresh_spec()
        spec.set_wl(reduce_add.opid, 16)
        cold_saving = base - wl_relative_cost(program, spec, target)
        assert hot_saving > cold_saving

    def test_unsupported_wl_charged_at_next_wider(self, fir_context):
        target = get_target("xentium")  # supports 16, 32
        spec = fir_context.fresh_spec()
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 24)  # not supported: implemented as 32
        cost24 = wl_relative_cost(fir_context.program, spec, target)
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 32)
        cost32 = wl_relative_cost(fir_context.program, spec, target)
        assert cost24 == pytest.approx(cost32)


def _walk_cost(program, spec, target):
    """Reference: the full block walk, re-deriving each op's width."""
    from repro.wlo.cost import _COSTING_KINDS

    supported = sorted(target.supported_wls)
    total = 0.0
    for block in program.blocks.values():
        weight = float(block.executions)
        for op in block.ops:
            if op.kind not in _COSTING_KINDS:
                continue
            wl = spec.wl(op.opid)
            effective = next((w for w in supported if w >= wl), supported[-1])
            total += weight * (effective / target.scalar_wl)
    return total


@pytest.mark.parametrize("target_name", PAPER_TARGETS)
@pytest.mark.parametrize("kernel", sorted(kernel_catalog()))
def test_precomputed_cost_is_bit_identical(
    shipped_contexts, kernel, target_name
):
    context = shipped_contexts[kernel]
    target = get_target(target_name)
    cost_of = WlRelativeCost(context.program, target)
    rng = random.Random(17)
    spec = context.fresh_spec()
    roots = context.slotmap.roots
    for _step in range(30):
        assert cost_of(spec) == _walk_cost(context.program, spec, target)
        assert wl_relative_cost(context.program, spec, target) \
            == cost_of(spec)
        spec.set_wl(rng.choice(roots), rng.randint(1, 40))
