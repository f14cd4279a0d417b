"""Copy the reference outputs the benchmark checks against into
``perfbench/references.json``.

The benchmark never reads ``benchmarks/results/`` itself: the tier-1
suite rewrites those files, so a drifting result could otherwise move
its own reference.  Run this only to re-freeze deliberately::

    python3 perfbench/freeze_references.py
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "references.json"

#: Kernels whose Fig. 4 rows the sweep workloads are checked against.
FIG4_KERNELS = ("fir", "iir", "conv")


def main() -> None:
    results = ROOT / "benchmarks" / "results"
    fig4 = json.loads((results / "fig4.json").read_text())
    rows = [row for row in fig4["rows"] if row["kernel"] in FIG4_KERNELS]
    with open(results / "model_validation.csv", newline="") as handle:
        validation = [
            {
                "kernel": row["kernel"],
                "word_length": int(row["word_length"]),
                "analytical_db": float(row["analytical_db"]),
                "measured_db": float(row["measured_db"]),
                "difference_db": float(row["difference_db"]),
                "sim_tier": row["sim_tier"],
            }
            for row in csv.DictReader(handle)
        ]
    # One row per line keeps the frozen file reviewable in diffs.
    sections = []
    for name, items in (("fig4", rows), ("validation", validation)):
        body = ",\n".join("  " + json.dumps(item) for item in items)
        sections.append(f' "{name}": [\n{body}\n ]')
    OUT.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"{OUT}: {len(rows)} fig4 rows, {len(validation)} validation rows")


if __name__ == "__main__":
    main()
