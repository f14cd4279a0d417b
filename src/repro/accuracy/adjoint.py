"""Noise-gain extraction by reverse-mode differentiation.

The analytical accuracy model needs, for every quantization site, the
gain with which the site's error reaches the program output:
``K2 = sum_d h[d]^2`` (incoherent, white part) and ``K1 = sum_d h[d]``
(coherent, bias part), where ``h`` is the impulse response from the
site to the output.

These are extracted *once per program*: run the float interpreter with
a recorded :class:`~repro.ir.interp.ExecutionTrace`, then back-propagate
adjoints from a few steady-state output instances.  Because each
executed instance of a site injects an independent error realization,
``K2`` is the sum of squared per-instance adjoints, while values that
are quantized once and reused (array cells, compile-time constants)
accumulate their adjoints coherently through the trace's def-use links
— reverse mode gets all of this right with no special cases.

For constants/coefficients the error is deterministic, not white, so
instead of moments we extract the sensitivity covariance
``C[i][j] = E_o[g_i g_j]`` over reference outputs; the evaluator then
adds the exact deterministic power ``dc' C dc`` for the current
coefficient quantization residues ``dc``.

This is the first-order (Taylor/perturbation) model of the accuracy
literature the paper builds on; for linear kernels it is exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AccuracyError
from repro.fixedpoint.spec import SlotMap
from repro.ir.interp import ExecutionTrace, Interpreter
from repro.ir.optypes import OpKind
from repro.ir.program import Program

__all__ = ["CoeffEntry", "NoiseGains", "extract_gains"]


@dataclass(frozen=True)
class CoeffEntry:
    """One deterministic (constant) value tracked for sensitivity."""

    slot: int
    value: float
    label: str


@dataclass
class NoiseGains:
    """Per-site noise gains to the program output."""

    node_k2: dict[int, float] = field(default_factory=dict)
    node_k1: dict[int, float] = field(default_factory=dict)
    edge_k2: dict[tuple[int, int], float] = field(default_factory=dict)
    edge_k1: dict[tuple[int, int], float] = field(default_factory=dict)
    input_k2: dict[str, float] = field(default_factory=dict)
    input_k1: dict[str, float] = field(default_factory=dict)
    coeff_entries: list[CoeffEntry] = field(default_factory=list)
    coeff_cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    n_ref_outputs: int = 0

    def gain(self, gain_key: tuple) -> tuple[float, float]:
        """(K2, K1) for a site's ``gain_key``."""
        kind = gain_key[0]
        if kind == "node":
            return (self.node_k2.get(gain_key[1], 0.0),
                    self.node_k1.get(gain_key[1], 0.0))
        if kind == "edge":
            key = (gain_key[1], gain_key[2])
            return self.edge_k2.get(key, 0.0), self.edge_k1.get(key, 0.0)
        if kind == "input":
            return (self.input_k2.get(gain_key[1], 0.0),
                    self.input_k1.get(gain_key[1], 0.0))
        raise AccuracyError(f"unknown gain key {gain_key!r}")


def _random_inputs(program: Program, rng: np.random.Generator) -> dict[str, np.ndarray]:
    inputs = {}
    for decl in program.input_arrays():
        lo, hi = decl.value_range  # type: ignore[misc]
        inputs[decl.name] = rng.uniform(lo, hi, size=decl.shape)
    return inputs


def _backpropagate(trace: ExecutionTrace, ref: int) -> np.ndarray:
    """Adjoint of every instance w.r.t. the value of instance ``ref``."""
    # A flat C double buffer: Python-speed indexing at 8 bytes a value.
    adj = array("d", bytes(8 * trace.n_instances))
    adj[ref] = 1.0
    operands = trace.operands
    partials = trace.partials
    for i in range(ref, -1, -1):
        a = adj[i]
        if a == 0.0:
            continue
        for j, p in zip(operands[i], partials[i]):
            adj[j] += a * p
    return np.frombuffer(adj, dtype=np.float64)


def extract_gains(
    program: Program,
    slotmap: SlotMap | None = None,
    n_ref_outputs: int = 4,
    seed: int = 90210,
) -> NoiseGains:
    """Extract noise gains for ``program``.

    ``n_ref_outputs`` steady-state output instances (the last ones
    produced) are back-propagated and the per-site gains averaged; for
    time-invariant kernels they agree, and averaging suppresses edge
    effects of finite analysis length.
    """
    slotmap = slotmap or SlotMap(program)
    rng = np.random.default_rng(seed)
    trace = ExecutionTrace()
    interpreter = Interpreter(program)
    interpreter.run(_random_inputs(program, rng), trace=trace)

    if not trace.output_instances:
        raise AccuracyError(
            f"program {program.name!r} produced no output stores"
        )
    refs = trace.output_instances[-n_ref_outputs:]

    # Map pseudo static ids back to their unique creating instance.
    pseudo_inst: dict[int, int] = {}
    for inst, static in enumerate(trace.static):
        if static >= trace.first_pseudo_id:
            pseudo_inst[static] = inst

    coeff_entries, coeff_cells = _collect_coeff_entries(
        program, slotmap, trace, pseudo_inst
    )
    input_cells = _collect_input_cells(program, trace, pseudo_inst)

    const_ops = [
        op.opid for op in program.all_ops() if op.kind is OpKind.CONST
    ]
    const_instances: dict[int, list[int]] = {opid: [] for opid in const_ops}
    for inst, static in enumerate(trace.static):
        if static in const_instances:
            const_instances[static].append(inst)

    gains = NoiseGains(n_ref_outputs=len(refs))
    n_coeff = len(coeff_entries)
    cov = np.zeros((n_coeff, n_coeff), dtype=np.float64)

    node_k2: dict[int, float] = {}
    node_k1: dict[int, float] = {}
    edge_k2: dict[tuple[int, int], float] = {}
    edge_k1: dict[tuple[int, int], float] = {}
    input_k2: dict[str, float] = {}
    input_k1: dict[str, float] = {}

    for ref in refs:
        adj = _backpropagate(trace, ref)
        _accumulate_instance_gains(
            trace, adj, ref, node_k2, node_k1, edge_k2, edge_k1
        )
        for name, cells in input_cells.items():
            cell_adj = adj[cells]
            input_k2[name] = input_k2.get(name, 0.0) + float(
                np.dot(cell_adj, cell_adj)
            )
            input_k1[name] = input_k1.get(name, 0.0) + float(cell_adj.sum())
        g = np.zeros(n_coeff, dtype=np.float64)
        for idx, cell in enumerate(coeff_cells):
            if isinstance(cell, int):  # static CONST op: coherent sum
                g[idx] = _coherent_static_adjoint(
                    const_instances[cell], adj, ref
                )
            else:  # pseudo instance id of a coefficient array cell
                g[idx] = adj[cell[1]]
        cov += np.outer(g, g)

    scale = 1.0 / len(refs)
    gains.node_k2 = {k: v * scale for k, v in node_k2.items()}
    gains.node_k1 = {k: v * scale for k, v in node_k1.items()}
    gains.edge_k2 = {k: v * scale for k, v in edge_k2.items()}
    gains.edge_k1 = {k: v * scale for k, v in edge_k1.items()}
    gains.input_k2 = {k: v * scale for k, v in input_k2.items()}
    gains.input_k1 = {k: v * scale for k, v in input_k1.items()}
    gains.coeff_entries = coeff_entries
    gains.coeff_cov = cov * scale
    # Coherent CONST gains were already folded into coeff_cov; drop the
    # spurious per-instance const aggregates (constants are not white
    # noise sources).
    for opid in const_ops:
        gains.node_k2.pop(opid, None)
        gains.node_k1.pop(opid, None)
    return gains


def _accumulate_instance_gains(
    trace: ExecutionTrace,
    adj: np.ndarray,
    ref: int,
    node_k2: dict[int, float],
    node_k1: dict[int, float],
    edge_k2: dict[tuple[int, int], float],
    edge_k1: dict[tuple[int, int], float],
) -> None:
    static = trace.static
    operands = trace.operands
    partials = trace.partials
    first_pseudo = trace.first_pseudo_id
    for i in np.flatnonzero(adj[:ref + 1]):
        a = adj[i]
        s = static[i]
        if s < 0 or s >= first_pseudo:
            continue
        node_k2[s] = node_k2.get(s, 0.0) + a * a
        node_k1[s] = node_k1.get(s, 0.0) + a
        parts = partials[i]
        if not parts:
            continue
        for pos in range(len(parts)):
            g = a * parts[pos]
            key = (s, pos)
            edge_k2[key] = edge_k2.get(key, 0.0) + g * g
            edge_k1[key] = edge_k1.get(key, 0.0) + g


def _coherent_static_adjoint(
    instances: list[int], adj: np.ndarray, ref: int
) -> float:
    """Coherent adjoint sum over a static op's ``instances`` (ascending)."""
    total = 0.0
    for i in instances:
        if i > ref:
            break
        if adj[i] != 0.0:
            total += adj[i]
    return total


def _collect_coeff_entries(
    program: Program,
    slotmap: SlotMap,
    trace: ExecutionTrace,
    pseudo_inst: dict[int, int],
) -> tuple[list[CoeffEntry], list]:
    """Deterministic values to track: coeff cells, CONSTs, var inits.

    Returns parallel lists of entries and of "where to read the
    adjoint": either ``("cell", instance_id)`` for one-time pseudo
    sources or the static opid (int) for CONST ops whose instances must
    be summed coherently.
    """
    entries: list[CoeffEntry] = []
    cells: list = []
    for decl in program.coeff_arrays():
        slot = slotmap.slot_of_symbol(decl.name)
        assert decl.values is not None
        for flat, value in enumerate(decl.values.flat):
            pseudo = trace.cell_sources.get((decl.name, flat))
            if pseudo is None:
                continue  # cell never read
            entries.append(CoeffEntry(slot, float(value), f"{decl.name}[{flat}]"))
            cells.append(("cell", pseudo_inst[pseudo]))
    for op in program.all_ops():
        if op.kind is OpKind.CONST:
            entries.append(CoeffEntry(op.opid, float(op.value), f"%{op.opid}"))  # type: ignore[arg-type]
            cells.append(op.opid)
    for var in program.variables.values():
        if var.init != 0.0:
            pseudo = trace.cell_sources.get(("$" + var.name, 0))
            if pseudo is None:
                continue
            slot = slotmap.slot_of_symbol(var.name)
            entries.append(CoeffEntry(slot, var.init, f"${var.name}"))
            cells.append(("cell", pseudo_inst[pseudo]))
    return entries, cells


def _collect_input_cells(
    program: Program,
    trace: ExecutionTrace,
    pseudo_inst: dict[int, int],
) -> dict[str, np.ndarray]:
    """Instance ids of every input array cell's pseudo source."""
    result: dict[str, np.ndarray] = {}
    for decl in program.input_arrays():
        ids = [
            pseudo_inst[pseudo]
            for (name, _flat), pseudo in trace.cell_sources.items()
            if name == decl.name
        ]
        result[decl.name] = np.array(sorted(ids), dtype=np.int64)
    return result
