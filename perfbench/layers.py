"""Per-layer metrics of a traced unit, from its :class:`tracing.Tracer`.

Seconds are self time (a span minus its child spans), except the two
WLO engines (``wlo.joint_s``, ``wlo.tabu_s``), which count the whole
engine call with its children; ``wlo.*_self_s`` give their self time.
The traced unit covers set-up and the warm cache re-resolve as well as
the timed run (``trace.timed_wall_s``).
"""

from __future__ import annotations


def layer_metrics(tracer, summary: dict, ops: list[dict], jobs: int) -> dict:
    agg = tracer.agg
    counters = tracer.counters

    def calls(name: str) -> int:
        return agg[name][0] if name in agg else 0

    def total(name: str) -> float:
        return agg[name][1] if name in agg else 0.0

    def own(name: str) -> float:
        return agg[name][2] if name in agg else 0.0

    computed = counters.get("pipeline.passes_computed", 0)
    hits = counters.get("pipeline.pass_cache_hits", 0)
    rounds = calls("slp.select")
    wall = summary["wall_s"]
    cells = calls("dispatch.cell")
    # The warm re-resolve answers every cell from disk, so every
    # evaluation beyond one per planned cell is a retry.
    cell_ops = [op for op in ops if "dispatch_failed" in op]
    return {
        "pipeline.passes_computed": computed,
        "pipeline.pass_cache_hits": hits,
        "pipeline.pass_hit_ratio": (
            hits / (hits + computed) if computed + hits else 0.0
        ),
        "analysis.range_s": own("analysis.range"),
        "analysis.adjoint_s": own("analysis.adjoint"),
        "analysis.model_build_s": own("analysis.model_build"),
        "accuracy.noise_evals": calls("accuracy.noise"),
        "accuracy.noise_s": own("accuracy.noise"),
        "wlo.joint_s": total("wlo.joint"),
        "wlo.joint_self_s": own("wlo.joint"),
        "wlo.tabu_s": total("wlo.tabu"),
        "wlo.tabu_self_s": own("wlo.tabu"),
        "wlo.tabu_iterations": counters.get("wlo.tabu_iterations", 0),
        "wlo.evaluations": counters.get("wlo.evaluations", 0),
        "slp.select_s": own("slp.select"),
        "slp.rounds": rounds,
        "slp.benefit_calls": calls("slp.benefit"),
        "slp.benefit_calls_per_round": (
            counters.get("slp.benefit_calls_in_select", 0) / rounds
            if rounds else 0.0
        ),
        "slp.benefit_s": own("slp.benefit"),
        "slp.extract_s": own("slp.extract"),
        "codegen.lower_s": own("codegen.lower"),
        "scheduler.schedule_s": own("scheduler.schedule"),
        "sim.fixed_runs": calls("sim.fixed.int64") + calls("sim.fixed.object"),
        "sim.fixed_s.int64": own("sim.fixed.int64"),
        "sim.fixed_s.object": own("sim.fixed.object"),
        "sim.oracle_s": own("sim.oracle"),
        "sim.float_s": own("sim.float"),
        "dispatch.cells": cells,
        "dispatch.self_s": own("dispatch.cell"),
        "dispatch.first_outcome_s": summary["first_outcome_s"] or 0.0,
        "dispatch.worker_busy_share": (
            total("dispatch.cell") / (jobs * wall) if cells and wall else 0.0
        ),
        "dispatch.retries": max(0, cells - len(cell_ops)),
        "dispatch.failed": sum(op["dispatch_failed"] for op in cell_ops),
        "cache.stores": calls("cache.store"),
        "cache.store_ms": 1000.0 * total("cache.store"),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.load_ms": 1000.0 * total("cache.load"),
        "trace.timed_wall_s": wall,
        "trace.spans": sum(entry[0] for entry in agg.values()),
        "trace.worker_cells": counters.get("trace.worker_cells", 0),
    }
