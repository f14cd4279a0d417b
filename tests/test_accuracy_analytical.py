"""The central validation: analytical EVALACC vs bit-accurate truth."""

import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accuracy import (
    AccuracyModel,
    SimulationAccuracyEvaluator,
    build_accuracy_model,
    enumerate_sites,
    quant_noise_moments,
)
from repro.accuracy.sites import SiteKind
from repro.fixedpoint import NO_NARROW, QuantMode, SlotMap
from repro.ir import OpKind
from repro.kernels import kernel_catalog


def _uniform(context, wl):
    spec = context.fresh_spec()
    for root in context.slotmap.roots:
        spec.set_wl(root, wl)
    return spec


class TestAnalyticalVsSimulated:
    """The flows trust the model; these tests are why they may."""

    @pytest.mark.parametrize("wl", [24, 16, 12, 10])
    def test_fir_tracks_simulation(self, fir_context, wl):
        spec = _uniform(fir_context, wl)
        analytical = fir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=1.5)

    @pytest.mark.parametrize("wl", [24, 20, 16])
    def test_iir_tracks_simulation(self, iir_context, wl):
        spec = _uniform(iir_context, wl)
        analytical = iir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            iir_context.program, n_stimuli=3, discard=64
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=3.0)

    @pytest.mark.parametrize("wl", [24, 16, 10])
    def test_conv_tracks_simulation(self, conv_context, wl):
        spec = _uniform(conv_context, wl)
        analytical = conv_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            conv_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=1.5)

    def test_mixed_spec_tracks_simulation(self, fir_context):
        """Non-uniform specs (the ones WLO produces) must track too."""
        spec = _uniform(fir_context, 32)
        rng = np.random.default_rng(9)
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, int(rng.choice([12, 16, 24, 32])))
        analytical = fir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=2.0)


class TestModelProperties:
    def test_monotone_in_wl(self, fir_context):
        """More bits never hurt."""
        powers = [
            fir_context.model.noise_power(_uniform(fir_context, wl))
            for wl in (8, 12, 16, 20, 24, 28, 32)
        ]
        assert powers == sorted(powers, reverse=True)

    def test_edge_narrowing_adds_noise(self, fir_context):
        from repro.ir import OpKind

        spec = _uniform(fir_context, 32)
        base = fir_context.model.noise_power(spec)
        for op in fir_context.program.all_ops():
            if op.kind is OpKind.MUL:
                spec.set_edge_wl(op.opid, 0, 16)
                spec.set_edge_wl(op.opid, 1, 16)
        assert fir_context.model.noise_power(spec) > base

    def test_rounding_mode_shrinks_bias(self, small_fir):
        trunc = build_accuracy_model(
            small_fir, quant_mode=QuantMode.TRUNCATE
        )
        rnd = build_accuracy_model(small_fir, quant_mode=QuantMode.ROUND)
        slotmap = trunc.slotmap
        from repro.fixedpoint import FixedPointSpec, analyze_ranges, assign_iwls

        spec = FixedPointSpec(slotmap)
        assign_iwls(spec, analyze_ranges(small_fir, slotmap))
        for root in slotmap.roots:
            spec.set_wl(root, 12)
        assert rnd.noise_power(spec) < trunc.noise_power(spec)

    def test_violates_is_threshold(self, fir_context):
        spec = _uniform(fir_context, 16)
        level = fir_context.model.noise_db(spec)
        assert fir_context.model.violates(spec, level - 1.0)
        assert not fir_context.model.violates(spec, level + 1.0)

    def test_coeff_error_term_contributes(self, fir_context):
        from repro.accuracy import AccuracyModel

        with_coeff = fir_context.model
        without = AccuracyModel(
            fir_context.program, fir_context.slotmap, with_coeff.gains,
            include_coeff_error=False,
        )
        spec = _uniform(fir_context, 10)
        assert with_coeff.noise_power(spec) > without.noise_power(spec)

    def test_breakdown_sums_to_variance_part(self, fir_context):
        spec = _uniform(fir_context, 16)
        contributions = fir_context.model.breakdown(spec)
        assert contributions, "expected active sites at 16 bits"
        assert all(value >= 0 for _name, value in contributions)
        # breakdown is sorted descending
        values = [v for _n, v in contributions]
        assert values == sorted(values, reverse=True)

    def test_eval_count_increments(self, fir_context):
        spec = _uniform(fir_context, 16)
        before = fir_context.model.eval_count
        fir_context.model.noise_power(spec)
        assert fir_context.model.eval_count == before + 1


class TestSites:
    def test_fir_site_inventory(self, small_fir):
        slotmap = SlotMap(small_fir)
        sites = enumerate_sites(small_fir, slotmap)
        kinds = {}
        for site in sites:
            kinds[site.kind] = kinds.get(site.kind, 0) + 1
        n_muls = sum(
            1 for o in small_fir.all_ops() if o.kind.value == "mul"
        )
        assert kinds[SiteKind.MUL_OUT] == n_muls
        assert kinds[SiteKind.MUL_EDGE] == 2 * n_muls
        assert kinds[SiteKind.INPUT] == 1  # one input array

    def test_tied_edges_have_no_align_site(self, tiny_program):
        """acc = acc + v: the acc operand is format-tied to the add."""
        slotmap = SlotMap(tiny_program)
        sites = enumerate_sites(tiny_program, slotmap)
        from repro.ir import OpKind

        add = next(o for o in tiny_program.all_ops() if o.kind is OpKind.ADD)
        readvar_pos = [
            pos for pos, producer in enumerate(add.operands)
            if tiny_program.op(producer).kind is OpKind.READVAR
        ]
        align_positions = {
            site.pos for site in sites
            if site.kind is SiteKind.ALIGN and site.opid == add.opid
        }
        for pos in readvar_pos:
            assert pos not in align_positions


class TestMoments:
    def test_truncation_moments_match_empirical(self, rng):
        f_from, f_to = 20, 8
        mean, var = quant_noise_moments(f_from, f_to, QuantMode.TRUNCATE)
        samples = rng.integers(-(2 ** 30), 2 ** 30, size=20000)
        errors = ((samples >> (f_from - f_to)) * 2.0 ** -f_to
                  - samples * 2.0 ** -f_from)
        assert errors.mean() == pytest.approx(mean, rel=0.05)
        assert errors.var() == pytest.approx(var, rel=0.05)

    def test_rounding_moments_match_empirical(self, rng):
        f_from, f_to = 20, 8
        mean, var = quant_noise_moments(f_from, f_to, QuantMode.ROUND)
        samples = rng.integers(-(2 ** 30), 2 ** 30, size=20000)
        shift = f_from - f_to
        rounded = (samples + (1 << (shift - 1))) >> shift
        errors = rounded * 2.0 ** -f_to - samples * 2.0 ** -f_from
        assert errors.mean() == pytest.approx(mean, abs=var ** 0.5 / 50)
        assert errors.var() == pytest.approx(var, rel=0.05)

    def test_no_discard_no_noise(self):
        assert quant_noise_moments(8, 8, QuantMode.TRUNCATE) == (0.0, 0.0)
        assert quant_noise_moments(8, 16, QuantMode.TRUNCATE) == (0.0, 0.0)


# ----------------------------------------------------------------------
# History independence: every call equals a cold model's first call.

SHIPPED_KERNELS = sorted(kernel_catalog())


def _twin(model, **modes):
    """A new, cold model over the same gains."""
    return AccuracyModel(
        model.program, model.slotmap, model.gains,
        quant_mode=modes.get("quant_mode", model.quant_mode),
        input_mode=modes.get("input_mode", model.input_mode),
    )


def _mul_ops(context):
    return [
        op.opid for op in context.program.all_ops() if op.kind is OpKind.MUL
    ]


#: One spec mutation (indices are taken modulo the kernel's roots/MULs)
#: or a journal/ownership move of the trajectory.
_STEP = st.one_of(
    st.tuples(st.just("wl"), st.integers(0, 999), st.integers(1, 32)),
    st.tuples(st.just("iwl"), st.integers(0, 999), st.integers(-4, 12)),
    st.tuples(st.just("fwl"), st.integers(0, 999), st.integers(-4, 30)),
    st.tuples(
        st.just("edge"), st.integers(0, 999), st.integers(0, 1),
        st.sampled_from([4, 8, 12, 16, 24, NO_NARROW]),
    ),
    st.sampled_from([("save",), ("revert",), ("clone",), ("switch",)]),
)


class TestHistoryIndependence:
    """``noise_power`` depends on the spec's current state alone.

    Tabu and the joint flow evaluate long save/mutate/revert
    trajectories and alternate specs on one model, and ``repro serve``
    jobs share one model across threads: nothing a model keeps between
    calls may leak one state into another's value.  The budget follows
    the active Hypothesis profile; CI reruns this class under the
    larger ``thorough`` profile (``tests/conftest.py``).
    """

    @pytest.mark.parametrize("kernel", SHIPPED_KERNELS)
    @settings(deadline=None)
    @given(
        quant_mode=st.sampled_from(list(QuantMode)),
        input_mode=st.sampled_from(list(QuantMode)),
        steps=st.lists(_STEP, max_size=12),
    )
    def test_trajectory_matches_fresh_model(
        self, shipped_contexts, kernel, quant_mode, input_mode, steps
    ):
        context = shipped_contexts[kernel]
        model = _twin(context.model, quant_mode=quant_mode,
                      input_mode=input_mode)
        roots = context.slotmap.roots
        muls = _mul_ops(context)
        # Two specs share the model, as tabu and the joint flow do.
        specs = [context.fresh_spec(), context.fresh_spec()]
        tokens: list[list[int]] = [[], []]
        active = 0

        def check() -> None:
            spec = specs[active]
            before = model.eval_count
            got = model.noise_power(spec)
            assert model.eval_count == before + 1
            assert got == _twin(model).noise_power(spec)

        check()
        for step in steps:
            spec = specs[active]
            move = step[0]
            if move == "wl":
                spec.set_wl(roots[step[1] % len(roots)], step[2])
            elif move == "iwl":
                spec.set_iwl(roots[step[1] % len(roots)], step[2])
            elif move == "fwl":
                spec.set_fwl(roots[step[1] % len(roots)], step[2])
            elif move == "edge":
                if muls:
                    spec.set_edge_wl(muls[step[1] % len(muls)], step[2], step[3])
            elif move == "save":
                tokens[active].append(spec.save())
            elif move == "revert":
                if tokens[active]:
                    spec.revert(tokens[active].pop())
            elif move == "clone":
                specs[active] = spec.clone()
                tokens[active] = []
            else:
                active = 1 - active
            check()

    def test_threads_sharing_a_model_match_sequential(self, conv_context):
        """``repro serve`` jobs share one model through the pass cache."""
        rng = random.Random(2017)
        roots = conv_context.slotmap.roots
        trajectories = []
        for _thread in range(4):
            spec = conv_context.fresh_spec()
            trajectory = []
            for _step in range(100):
                spec.set_wl(rng.choice(roots), rng.choice([8, 12, 16, 24, 32]))
                trajectory.append(spec.clone())
            trajectories.append(trajectory)
        expected = [
            [_twin(conv_context.model).noise_power(s) for s in trajectory]
            for trajectory in trajectories
        ]
        start = threading.Barrier(len(trajectories))

        def evaluate(shared, trajectory):
            start.wait()
            return [shared.noise_power(spec) for spec in trajectory]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads densely
        try:
            with ThreadPoolExecutor(len(trajectories)) as pool:
                for _round in range(8):  # a race shows in some rounds
                    shared = _twin(conv_context.model)
                    results = list(pool.map(
                        evaluate, [shared] * len(trajectories), trajectories
                    ))
                    assert results == expected
                    assert shared.eval_count == sum(map(len, trajectories))
        finally:
            sys.setswitchinterval(interval)

    def test_pickled_model_evaluates_identically(self, conv_context):
        model = _twin(conv_context.model)
        spec = conv_context.fresh_spec()
        rng = random.Random(9)
        roots = conv_context.slotmap.roots
        model.noise_power(spec)  # pickle a model that has evaluated
        twin = pickle.loads(pickle.dumps(model))
        for _step in range(40):
            spec.set_wl(rng.choice(roots), rng.choice([8, 12, 16, 24, 32]))
            assert twin.noise_power(spec) == model.noise_power(spec)
        assert twin.eval_count == model.eval_count  # the count travels
