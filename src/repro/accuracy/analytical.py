"""Closed-form accuracy evaluation (the paper's ``EVALACC``).

Given the spec-independent site gains (``repro.accuracy.adjoint``) the
output noise power is a closed-form function of the fixed-point
specification:

``P(spec) = sum_i var_i(spec) * K2_i  +  (sum_i mean_i(spec) * K1_i)^2
            + dc(spec)' C dc(spec)``

Evaluation is vectorized numpy over the site tables, recomputed in
full on every call.  The tables are small (24 to 45 sites on the
shipped kernels), so a call is about 40 numpy dispatches and costs
100-135 µs whatever the kernel size (2-vCPU Xeon, Python 3.11,
numpy 2.4).  That is cheap enough for the O(candidates^2) accuracy
conflict detection of the paper's Fig. 1c, as ID.Fix's generated
noise expression was for the original, but it is the largest single
cost of the joint search (ROADMAP item C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accuracy.adjoint import NoiseGains, extract_gains
from repro.accuracy.sites import Site, SiteKind, enumerate_sites
from repro.fixedpoint.quantize import QuantMode, quantize_value
from repro.fixedpoint.spec import NO_NARROW, FixedPointSpec, SlotMap
from repro.ir.program import Program
from repro.utils import power_to_db

__all__ = ["AccuracyModel", "build_accuracy_model"]


@dataclass(frozen=True)
class _SiteTables:
    """Numpy-packed site data, grouped by evaluation formula."""

    # ALIGN-class: from producer format to consumer node format.
    al_from: np.ndarray
    al_to: np.ndarray
    al_k2: np.ndarray
    al_k1: np.ndarray
    # MUL operand edges (lane narrowing).
    me_op: np.ndarray
    me_pos: np.ndarray
    me_prod: np.ndarray
    me_k2: np.ndarray
    me_k1: np.ndarray
    # MUL outputs.
    mo_op: np.ndarray
    mo_a: np.ndarray
    mo_b: np.ndarray
    mo_k2: np.ndarray
    mo_k1: np.ndarray
    # INPUT conversions.
    in_to: np.ndarray
    in_k2: np.ndarray
    in_k1: np.ndarray


def _pack_sites(sites: list[Site], gains: NoiseGains) -> _SiteTables:
    def select(kind: SiteKind) -> list[Site]:
        return [s for s in sites if s.kind is kind]

    def arrays(items: list[Site], *getters):
        return [
            np.array([g(s) for s in items], dtype=np.int64) for g in getters
        ]

    def gain_arrays(items: list[Site]) -> tuple[np.ndarray, np.ndarray]:
        k2 = np.array([gains.gain(s.gain_key)[0] for s in items])
        k1 = np.array([gains.gain(s.gain_key)[1] for s in items])
        return k2, k1

    align = select(SiteKind.ALIGN)
    medge = select(SiteKind.MUL_EDGE)
    mout = select(SiteKind.MUL_OUT)
    inputs = select(SiteKind.INPUT)

    al_from, al_to = arrays(align, lambda s: s.from_slot, lambda s: s.to_slot)
    al_k2, al_k1 = gain_arrays(align)
    me_op, me_pos, me_prod = arrays(
        medge, lambda s: s.opid, lambda s: s.pos, lambda s: s.from_slot
    )
    me_k2, me_k1 = gain_arrays(medge)
    mo_op, = arrays(mout, lambda s: s.opid)
    mo_k2, mo_k1 = gain_arrays(mout)
    in_to, = arrays(inputs, lambda s: s.to_slot)
    in_k2, in_k1 = gain_arrays(inputs)
    return _SiteTables(
        al_from, al_to, al_k2, al_k1,
        me_op, me_pos, me_prod, me_k2, me_k1,
        mo_op, np.zeros(0), np.zeros(0), mo_k2, mo_k1,
        in_to, in_k2, in_k1,
    )


def _moments(
    f_from: np.ndarray, f_to: np.ndarray, mode: QuantMode
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized quantization moments; inactive sites yield zeros."""
    active = f_from > f_to
    q_to = np.where(active, np.ldexp(1.0, -f_to), 0.0)
    q_from = np.where(active, np.ldexp(1.0, -f_from), 0.0)
    var = (q_to * q_to - q_from * q_from) / 12.0
    if mode is QuantMode.ROUND:
        mean = q_from / 2.0
    else:
        mean = -(q_to - q_from) / 2.0
    return np.where(active, mean, 0.0), var


class AccuracyModel:
    """Fast analytical evaluator of output quantization-noise power."""

    def __init__(
        self,
        program: Program,
        slotmap: SlotMap,
        gains: NoiseGains,
        quant_mode: QuantMode = QuantMode.TRUNCATE,
        input_mode: QuantMode = QuantMode.TRUNCATE,
        const_mode: QuantMode = QuantMode.ROUND,
        include_coeff_error: bool = True,
    ) -> None:
        self.program = program
        self.slotmap = slotmap
        self.gains = gains
        self.quant_mode = quant_mode
        self.input_mode = input_mode
        self.const_mode = const_mode
        self.include_coeff_error = include_coeff_error
        self.sites = enumerate_sites(program, slotmap)
        self._tables = _pack_sites(self.sites, gains)
        self._coeff_slots = np.array(
            [entry.slot for entry in gains.coeff_entries], dtype=np.int64
        )
        self._coeff_values = np.array(
            [entry.value for entry in gains.coeff_entries], dtype=np.float64
        )
        self._coeff_cache: dict[tuple, float] = {}
        self.eval_count = 0

    # ------------------------------------------------------------------
    def noise_power(self, spec: FixedPointSpec) -> float:
        """Output noise power of ``spec`` (linear, not dB)."""
        self.eval_count += 1
        t = self._tables
        fwl = spec.fwl_vector()
        iwl = spec.iwl_vector()
        edge = spec.edge_wl_matrix()

        var_total = 0.0
        mean_total = 0.0

        if t.al_from.size:
            mean, var = _moments(fwl[t.al_from], fwl[t.al_to], self.quant_mode)
            var_total += float(np.dot(var, t.al_k2))
            mean_total += float(np.dot(mean, t.al_k1))

        if t.me_op.size:
            f_prod = fwl[t.me_prod]
            budget = edge[t.me_op, t.me_pos]
            f_cons = np.where(
                budget >= NO_NARROW,
                f_prod,
                np.minimum(f_prod, budget - iwl[t.me_prod]),
            )
            mean, var = _moments(f_prod, f_cons, self.quant_mode)
            var_total += float(np.dot(var, t.me_k2))
            mean_total += float(np.dot(mean, t.me_k1))

        if t.mo_op.size:
            f_from = self._mul_product_fwl(t.mo_op, fwl, iwl, edge)
            mean, var = _moments(f_from, fwl[t.mo_op], self.quant_mode)
            var_total += float(np.dot(var, t.mo_k2))
            mean_total += float(np.dot(mean, t.mo_k1))

        if t.in_to.size:
            q = np.ldexp(1.0, -fwl[t.in_to])
            var = q * q / 12.0
            var_total += float(np.dot(var, t.in_k2))
            if self.input_mode is QuantMode.TRUNCATE:
                mean_total += float(np.dot(-q / 2.0, t.in_k1))

        power = var_total + mean_total * mean_total
        if self.include_coeff_error and self._coeff_slots.size:
            power += self._coeff_power(fwl)
        return power

    def _mul_product_fwl(
        self,
        mul_ops: np.ndarray,
        fwl: np.ndarray,
        iwl: np.ndarray,
        edge: np.ndarray,
    ) -> np.ndarray:
        """Exact-product fractional bits per multiply node."""
        total = np.zeros(mul_ops.size, dtype=np.int64)
        for pos in (0, 1):
            producers = self._mul_producers[:, pos]
            f_prod = fwl[producers]
            budget = edge[mul_ops, pos]
            f_cons = np.where(
                budget >= NO_NARROW,
                f_prod,
                np.minimum(f_prod, budget - iwl[producers]),
            )
            total = total + f_cons
        return total

    @property
    def _mul_producers(self) -> np.ndarray:
        cached = getattr(self, "_mul_producers_cache", None)
        if cached is None:
            cached = np.array(
                [
                    self.program.op(int(opid)).operands
                    for opid in self._tables.mo_op
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            self._mul_producers_cache = cached
        return cached

    def _coeff_power(self, fwl: np.ndarray) -> float:
        key = tuple(int(f) for f in fwl[self._coeff_slots])
        found = self._coeff_cache.get(key)
        if found is None:
            residues = np.array([
                quantize_value(v, f, self.const_mode) - v
                for v, f in zip(self._coeff_values, key)
            ])
            found = float(residues @ self.gains.coeff_cov @ residues)
            self._coeff_cache[key] = found
        return found

    # ------------------------------------------------------------------
    def noise_db(self, spec: FixedPointSpec) -> float:
        """Output noise power in dB."""
        return power_to_db(self.noise_power(spec))

    def violates(self, spec: FixedPointSpec, constraint_db: float) -> bool:
        """True when ``spec`` exceeds the allowed noise power."""
        return self.noise_db(spec) > constraint_db

    def breakdown(self, spec: FixedPointSpec) -> list[tuple[str, float]]:
        """Per-site variance contributions, for diagnostics and tests."""
        contributions: list[tuple[str, float]] = []
        fwl = spec.fwl_vector()
        iwl = spec.iwl_vector()
        edge = spec.edge_wl_matrix()
        for site in self.sites:
            k2, _k1 = self.gains.gain(site.gain_key)
            f_from, f_to = self._site_precisions(site, fwl, iwl, edge)
            if f_from <= f_to:
                continue
            q_to = 2.0 ** -float(f_to)
            q_from = 0.0 if f_from > 10 ** 6 else 2.0 ** -float(f_from)
            var = (q_to * q_to - q_from * q_from) / 12.0
            contributions.append((site.describe(self.slotmap), var * k2))
        contributions.sort(key=lambda item: -item[1])
        return contributions

    def _site_precisions(self, site: Site, fwl, iwl, edge) -> tuple[int, int]:
        if site.kind is SiteKind.ALIGN:
            return int(fwl[site.from_slot]), int(fwl[site.to_slot])
        if site.kind is SiteKind.MUL_EDGE:
            f_prod = int(fwl[site.from_slot])
            budget = int(edge[site.opid, site.pos])
            if budget >= NO_NARROW:
                return f_prod, f_prod
            return f_prod, min(f_prod, budget - int(iwl[site.from_slot]))
        if site.kind is SiteKind.MUL_OUT:
            op = self.program.op(site.opid)
            total = 0
            for pos, producer in enumerate(op.operands):
                f_prod = int(fwl[producer])
                budget = int(edge[site.opid, pos])
                if budget >= NO_NARROW:
                    total += f_prod
                else:
                    total += min(f_prod, budget - int(iwl[producer]))
            return total, int(fwl[site.opid])
        # INPUT
        return 10 ** 7, int(fwl[site.to_slot])


def build_accuracy_model(
    program: Program,
    slotmap: SlotMap | None = None,
    n_ref_outputs: int = 4,
    seed: int = 90210,
    **kwargs,
) -> AccuracyModel:
    """Extract gains and build an :class:`AccuracyModel` in one call."""
    slotmap = slotmap or SlotMap(program)
    gains = extract_gains(program, slotmap, n_ref_outputs=n_ref_outputs,
                          seed=seed)
    return AccuracyModel(program, slotmap, gains, **kwargs)
