"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fig4-conv --seed 0 --seconds 30 --trace 0

Workloads (each unit runs in a fresh process with a fresh cache
directory; at most two worker processes run at once):

* ``fig4-conv`` — a cold serial sweep of ``conv`` on two paper targets
  over the 7-point paper grid (14 cells).  The joint ``wlo-slp``
  search, the accuracy model and the SLP benefit scan do the work.
* ``sweep-dense`` — a cold sweep of ``fir`` + ``iir`` × 4 targets ×
  the 28-point dense grid (224 cells) through the default parallel
  dispatcher with two workers: dispatch, per-worker analysis prefixes,
  tabu WLO and cache writes do the work.
* ``validate-oracle`` — ``repro validate --oracle`` on all three
  kernels with the analysis contexts built during set-up: the
  fixed-point batch and ``bigfloat`` oracle simulations do the work.

The seed picks the ``fig4-conv`` target pair, the ``sweep-dense``
submission order and the ``validate-oracle`` stimulus seed; seed 0
reproduces the frozen references in ``references.json`` exactly, and
every seed is checked against them (see ``refcheck.py``).

``--seconds`` sets how much work a run measures (``UNITS_AT_30_S``,
scaled in proportion).  The amount depends only on ``--seconds``,
never on the host's speed, so two commits always measure the same
work.

Times are divided by the host factor measured next to them (fixed
Python + numpy loops, ``probe.py``): they read as seconds on the
reference host, which cancels most of the host's own speed drift.  Raw
seconds and host factors go to standard error.

The last line of standard output is the JSON result.  ``--trace 1``
runs one unit untraced and the same unit traced, and reports the
per-layer metrics (``layers.py``) instead of the end-to-end ones.
Each run keeps its units' raw results in ``.perfbench_work/runs/`` and
a traced run its spans in ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import stats  # noqa: E402

#: Units a 30-second run measures: one cold ``fig4-conv`` sweep and one
#: ``sweep-dense`` sweep (each 15 to 30 s on a 2-vCPU Xeon, depending on
#: how fast the host runs at the time) and three processes of one
#: validation table each (5 to 8 s a table).  More processes of less
#: work each average out per-process luck.
UNITS_AT_30_S = {"fig4-conv": 1, "sweep-dense": 1, "validate-oracle": 3}

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

UNIT_TIMEOUT_S = 170.0

WORK = ROOT / ".perfbench_work"


def planned_units(workload: str, seconds: int) -> int:
    """Units for a run of ``seconds``: the 30-second count scaled in
    proportion, at least one."""
    return max(1, round(UNITS_AT_30_S[workload] * seconds / 30))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(WORK / "default-cache"),
    )
    return env


def run_unit(workload: str, seed: int, workdir: Path, *,
             setup_only: bool = False, trace: bool = False) -> dict:
    """Start one unit process, wait for it, return its parsed result."""
    command = [
        sys.executable, str(HERE / "unit.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    host = probe.host_factor()
    command += ["--spawned-at", repr(time.monotonic())]
    # Own session, so a timeout can stop the unit's pool workers too.
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} unit ran past {UNIT_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir / "cache", ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload} unit exited {child.returncode}:\n{stderr[-4000:]}"
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    # Set-up is scaled by the host factors just before and after it.
    result["setup_host"] = statistics.fmean([host, result["setup_host"]])
    return result


def count_ops(ops: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)``: an op fails when it raised, produced no
    outcome, or differs from its reference."""
    return len(ops), sum(1 for op in ops if op["errors"])


def scaled(seconds: float, host: float) -> float:
    """Seconds on the reference host (``probe.py``)."""
    return seconds / host


def end_to_end(units: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics of an untraced run."""
    ops = [op for unit in units for op in unit["ops"]]
    latencies = [
        scaled(op["latency_s"], op["host"])
        for op in ops if op["latency_s"] is not None
    ]
    walls = [scaled(u["summary"]["wall_s"], u["summary"]["host"])
             for u in units]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "throughput_per_s": (len(ops) / math.fsum(walls), "1/s"),
        # The lower median: a sample, never the mean of two samples
        # that may sit on either side of a gap between latency modes.
        "latency_p50_ms": (1000.0 * statistics.median_low(latencies), "ms"),
        "peak_rss_mb": (max(unit["peak_rss_mb"] for unit in units), "MB"),
    }


def diagnostics(workload: str, units: list[dict], ops: list[dict]) -> str:
    """One human-readable line: raw timings, host factors, and the
    descriptive figures that are not bounded metrics."""
    raw = [unit["summary"]["wall_s"] for unit in units]
    hosts = [unit["summary"]["host"] for unit in units]
    latencies = [
        scaled(op["latency_s"], op["host"])
        for op in ops if op["latency_s"] is not None
    ]
    parts = [
        f"{workload}: raw unit wall s {[round(w, 3) for w in raw]}",
        f"host factor {[round(h, 3) for h in hosts]}",
    ]
    tail = stats.tail_in_one_mode(latencies)
    if tail is not None:
        parts.append(f"latency p{tail[0]:.1f} {1000.0 * tail[1]:.1f} ms "
                     f"of {len(latencies)}")
    speedups = [op["speedup"] for op in ops if op["speedup"] is not None]
    if speedups:
        parts.append(f"slp_speedup_geomean {stats.geomean(speedups):.6f}")
    share = stats.failed_share(*count_ops(ops))
    parts.append(f"failed_share {share:.4f}")
    return "; ".join(parts)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the planned units (with ``trace``: one unit untraced, then
    the same unit traced) and return the run's JSON result."""
    units_planned = planned_units(workload, seconds)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    host_before = probe.probe_ms()
    try:
        units = [
            run_unit(workload, seed, workdir)
            for _ in range(1 if trace else units_planned)
        ]
        traced = None
        if trace:
            traced = run_unit(workload, seed, workdir, trace=True)
        setup_units = list(units)
        while not trace and len(setup_units) < SETUP_SAMPLES:
            setup_units.append(
                run_unit(workload, seed, workdir, setup_only=True)
            )
        for trace_file in workdir.glob("trace-*.jsonl"):
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_file.replace(WORK / "traces" / f"{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host_after = probe.probe_ms()
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    (WORK / "runs" / f"{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"units": units, "setup_units": setup_units,
                    "traced": traced, "host_probe_ms": [host_before, host_after]})
    )

    ops = [op for unit in units for op in unit["ops"]]
    checked = ops + (traced["ops"] if traced is not None else [])
    for error in [e for op in checked for e in op["errors"]][:20]:
        print(f"MISMATCH {error}", file=sys.stderr)
    print(diagnostics(workload, units, ops), file=sys.stderr)
    print(f"host probe ms before {host_before:.3f} after {host_after:.3f}",
          file=sys.stderr)
    attempted, failed = count_ops(checked)
    if traced is not None:
        metrics = layer_metrics(units[0], traced, host_before, host_after)
    else:
        setups = [scaled(u["setup_s"], u["setup_host"])
                  for u in setup_units]
        metrics = end_to_end(units, setups)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def layer_metrics(untraced: dict, traced: dict, before: float,
                  after: float) -> dict:
    def wall(unit: dict) -> float:
        return scaled(unit["summary"]["wall_s"], unit["summary"]["host"])

    metrics = {
        name: (value, unit_of(name))
        for name, value in traced["layers"].items()
    }
    metrics["host.probe_ms"] = (statistics.fmean([before, after]), "ms")
    metrics["trace.overhead_share"] = (
        wall(traced) / wall(untraced) - 1.0, "share"
    )
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_per_round"):
        return "calls/round"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "share"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=UNITS_AT_30_S)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}: nothing to measure",
              file=sys.stderr)
        return 2
    # Byte-compile once, so no measured set-up pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (RuntimeError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
