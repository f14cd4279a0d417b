"""Spans around calls into each layer's public functions.

The traced run installs wrappers from here, in the benchmark's own
process: nothing under ``src/`` changes.  A span records its name,
parent, start and end; a layer's self time is its span minus the time
its child spans cover.  Spans stay in memory and are written out once,
when the traced unit ends.

Pool workers forked after :func:`install` inherit the wrappers.  Each
worker ships the aggregates of the cell it just evaluated back with
that cell's result (:class:`TracedCellResult`), and the coordinator
folds them in as the results stream past.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import repro.experiments  # noqa: F401  (loads every module to patch)
import repro.pipeline  # noqa: F401
from repro.experiments.backends import (
    CellResult,
    available_execution_backends,
    get_execution_backend,
)
from repro.experiments.engine import wlo_stats_numbers
from repro.pipeline.cache import global_pass_cache
from repro.wlo.registry import (
    available_wlo_engines,
    get_wlo_engine,
    register_wlo_engine,
)

#: (span name, module, attribute path) of every wrapped public call.
#: ``codegen.lower`` covers all three lowerings.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("analysis.range", "repro.fixedpoint.range_analysis", "analyze_ranges"),
    ("analysis.adjoint", "repro.accuracy.adjoint", "extract_gains"),
    ("analysis.model_build", "repro.accuracy.analytical",
     "AccuracyModel.__init__"),
    ("accuracy.noise", "repro.accuracy.analytical",
     "AccuracyModel.noise_power"),
    ("wlo.joint", "repro.wlo.slp_aware", "wlo_slp_optimize"),
    ("wlo.tabu", "repro.wlo.tabu", "tabu_wlo"),
    ("slp.select", "repro.slp.extraction", "select_groups"),
    ("slp.benefit", "repro.slp.benefit", "BenefitEstimator.benefit"),
    ("slp.extract", "repro.slp.extraction", "extract_groups_decoupled"),
    ("codegen.lower", "repro.codegen.scalar", "lower_scalar_program"),
    ("codegen.lower", "repro.codegen.simd", "lower_simd_program"),
    ("codegen.lower", "repro.codegen.floatgen", "lower_float_program"),
    ("scheduler.schedule", "repro.scheduler.cycles", "program_cycles"),
    ("sim.fixed", "repro.fixedpoint.fxpbatch",
     "BatchFixedPointInterpreter.run"),
    ("sim.oracle", "repro.ir.batch", "OracleBatchInterpreter.run"),
    ("sim.float", "repro.ir.batch", "BatchInterpreter.run"),
    ("cache.store", "repro.experiments.cache", "SweepCache.store"),
    ("cache.load", "repro.experiments.cache", "SweepCache.load"),
    ("dispatch.cell", "repro.experiments.backends", "evaluate_request"),
)


class Tracer:
    """In-memory spans, per-name aggregates and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[list] = []
        self.next_id = 1
        #: name -> [calls, inclusive seconds, self seconds]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.spans.append((span_id, parent, name, start, end))
            entry = self.agg[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]

    def calls(self, name: str) -> int:
        return self.agg[name][0] if name in self.agg else 0

    def take(self) -> dict:
        """Aggregates and counters gathered so far, then reset (workers)."""
        taken = {
            "agg": {name: list(entry) for name, entry in self.agg.items()},
            "counters": dict(self.counters),
        }
        self.agg.clear()
        self.counters.clear()
        self.spans.clear()
        return taken

    def merge(self, taken: dict) -> None:
        for name, (calls, total, own) in taken["agg"].items():
            entry = self.agg[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in taken["counters"].items():
            self.counters[name] += value
        self.counters["trace.worker_cells"] += 1

    def write(self, path: str) -> None:
        """Write every span, then the merged aggregates, as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({
                "agg": self.agg, "counters": self.counters,
            }) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module global bound to ``original``
    (``from x import f`` copies the binding) at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def _span_name(name: str, args) -> str | None:
    """Per-call span name; ``None`` runs the call without a span."""
    if name == "sim.fixed":
        return f"sim.fixed.{args[0].tier}"
    if name == "sim.float" and type(args[0]).__name__ != "BatchInterpreter":
        return None  # the oracle's float pass, already under sim.oracle
    return name


def _after(tracer: Tracer, name: str, result, before: int) -> None:
    """Counts taken at the boundary where the work happens."""
    counters = tracer.counters
    if name == "wlo.tabu":
        iterations, evaluations, _ = wlo_stats_numbers(result)
        counters["wlo.tabu_iterations"] += iterations
        counters["wlo.evaluations"] += evaluations
    elif name == "wlo.joint":
        counters["wlo.evaluations"] += wlo_stats_numbers(result)[1]
    elif name == "slp.select":
        counters["slp.benefit_calls_in_select"] += (
            tracer.calls("slp.benefit") - before
        )
    elif name == "cache.load" and result is not None:
        counters["cache.hits"] += 1


#: Spans whose result or children feed a counter in :func:`_after`.
_COUNTED = frozenset({"wlo.tabu", "wlo.joint", "slp.select", "cache.load"})


def _wrap(tracer: Tracer, name: str, fn):
    counted = name in _COUNTED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _span_name(name, args)
        if span is None:
            return fn(*args, **kwargs)
        if not counted:
            return tracer.call(span, fn, args, kwargs)
        before = tracer.calls("slp.benefit")
        result = tracer.call(span, fn, args, kwargs)
        _after(tracer, name, result, before)
        return result

    return wrapper


def _wrap_dispatch(tracer: Tracer, fn):
    """The per-cell worker entry: pass-cache counts around the cell,
    and, inside a pool worker, the cell's aggregates shipped back."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cache = global_pass_cache()
        hits = sum(cache.hits.values())
        misses = sum(cache.misses.values())
        result = tracer.call("dispatch.cell", fn, args, kwargs)
        tracer.counters["pipeline.pass_cache_hits"] += (
            sum(cache.hits.values()) - hits
        )
        tracer.counters["pipeline.passes_computed"] += (
            sum(cache.misses.values()) - misses
        )
        if os.getpid() == tracer.pid:
            return result
        fields = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
        }
        return TracedCellResult(**fields, layers=tracer.take())

    return wrapper


def _collect_from_backends(tracer: Tracer) -> None:
    """Fold worker aggregates in as each backend's results stream by."""
    for name in available_execution_backends():
        backend = get_execution_backend(name)
        original = backend.evaluate

        def evaluate(*args, _original=original, **kwargs):
            for result in _original(*args, **kwargs):
                layers = getattr(result, "layers", None)
                if layers:
                    tracer.merge(layers)
                yield result

        backend.evaluate = evaluate


@dataclasses.dataclass(frozen=True)
class TracedCellResult(CellResult):
    """A worker's cell result carrying the aggregates of its spans."""

    layers: dict = dataclasses.field(default_factory=dict)


def install() -> Tracer:
    """Wrap every call in :data:`SPANS`; returns the process tracer."""
    tracer = Tracer()
    for name, module_name, path in SPANS:
        owner, attr, original = _resolve(module_name, path)
        if name == "dispatch.cell":
            wrapper = _wrap_dispatch(tracer, original)
        else:
            wrapper = _wrap(tracer, name, original)
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            _replace_everywhere(original, wrapper)
            for engine in available_wlo_engines():
                if get_wlo_engine(engine) is original:
                    register_wlo_engine(engine, wrapper, overwrite=True)
    _collect_from_backends(tracer)
    return tracer

