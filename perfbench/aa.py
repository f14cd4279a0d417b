"""A/A check: two sets of runs of the same checkout, alternating order.

    python3 perfbench/aa.py --runs 5 --workloads fig4-conv,validate-oracle

Run pair ``i`` gives set A seed ``2i + 1`` and set B seed ``2i + 2``,
and runs set A first when ``i`` is even, set B first otherwise.  For
every end-to-end metric on every workload it prints each set's median
and quartiles, the spread (quartile distance over the median) of all
runs pooled, and the gap between the two sets' medians, both as
shares, against the metric's bound in ``BENCHMARK.json``.  Exits 1 when
a gap, or a pooled spread other than ``setup_s``'s, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs differ")
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload: str, sets: dict[str, list[dict]]) -> bool:
    steady = True
    print(f"\n{workload}")
    print(f"  {'metric':18s} {'A median [Q1, Q3]':>34s} "
          f"{'B median [Q1, Q3]':>34s} {'spread':>7s} {'gap':>7s} "
          f"{'bound':>6s}")
    for metric in BENCHMARK["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {side: [run[name] for run in sets[side]] for side in sets}
        cells = []
        for side in ("A", "B"):
            q1, q2, q3 = stats.quartiles(values[side])
            cells.append(f"{q2:12.5g} [{q1:9.5g}, {q3:9.5g}]")
        spread = stats.iqr_share(values["A"] + values["B"])
        median_a = statistics.median(values["A"])
        gap = (statistics.median(values["B"]) - median_a) / median_a
        worse = gap if metric["better"] == "lower" else -gap
        ok = worse <= bound and (name == "setup_s" or spread <= bound)
        steady = steady and ok
        print(f"  {name:18s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{spread:7.3f} {gap:+7.3f} {bound:6.2f}"
              f"{'' if ok else '  OUTSIDE BOUND'}")
    return steady


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (default 5)")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; choose from {names}")
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = 2 * i + (1 if side == "A" else 2)
                sets[side].append(one_run(workload, seed, args.seconds))
        steady = report(workload, sets) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
