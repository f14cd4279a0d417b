"""Output checks against the frozen references in ``references.json``.

Every op (a sweep cell or a validation row) is checked on its own; a
check returns the list of its mismatches, empty when the op is right.
No repository import: ops arrive as plain dicts.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Fig. 4 columns a cell must reproduce exactly (speedups are the
#: 3-decimal values the frozen rows hold).
FIG4_COLUMNS = (
    "scalar_cycles", "wlo_first_speedup", "wlo_slp_speedup",
    "wlo_first_groups", "wlo_slp_groups",
)

#: Validation columns that do not depend on the stimulus seed.
SEED_FREE_COLUMNS = ("analytical_db", "sim_tier")

#: Columns the default stimulus seed reproduces exactly.
DEFAULT_SEED_COLUMNS = (
    "analytical_db", "measured_db", "difference_db", "sim_tier",
)

#: Two values rounded to 0.01 dB independently may differ by one step.
ROUNDED_DB_TOLERANCE = 0.0101

ROUNDING_LIMITED = "rounding-limited"


def load_references(path: Path = REFERENCES) -> dict:
    data = json.loads(Path(path).read_text())
    return {
        "fig4": {
            (row["kernel"], row["target"], float(row["constraint_db"])): row
            for row in data["fig4"]
        },
        "validation": {
            (row["kernel"], int(row["word_length"])): row
            for row in data["validation"]
        },
    }


def check_cell(references: dict, cell: dict) -> list[str]:
    """A sweep cell: equal to its frozen Fig. 4 row where one exists,
    otherwise (dense grid points) within its noise constraint."""
    key = (cell["kernel"], cell["target"], float(cell["constraint_db"]))
    where = f"{key[0]}:{key[1]} @ {key[2]:g} dB"
    frozen = references["fig4"].get(key)
    if frozen is None:
        if cell["wlo_slp_noise_db"] > cell["constraint_db"]:
            return [
                f"{where}: wlo_slp_noise_db {cell['wlo_slp_noise_db']} "
                f"exceeds the constraint"
            ]
        return []
    return [
        f"{where}: {column} {cell[column]!r} != reference {frozen[column]!r}"
        for column in FIG4_COLUMNS
        if cell[column] != frozen[column]
    ]


def check_validation_row(
    references: dict, row: dict, default_seed: bool
) -> list[str]:
    """A ``repro validate --oracle`` row.

    Analytical noise and the simulation tier never depend on the
    stimuli; the default stimulus seed reproduces the frozen measured
    columns too.  On every seed, ``difference_db`` must be analytical
    minus measured and the oracle must agree with the measurement
    except on rows flagged rounding-limited.
    """
    key = (row["kernel"], int(row["word_length"]))
    where = f"{key[0]} wl={key[1]}"
    frozen = references["validation"].get(key)
    if frozen is None:
        return [f"{where}: no reference row"]
    columns = DEFAULT_SEED_COLUMNS if default_seed else SEED_FREE_COLUMNS
    errors = [
        f"{where}: {column} {row[column]!r} != reference {frozen[column]!r}"
        for column in columns
        if row[column] != frozen[column]
    ]
    expected = row["analytical_db"] - row["measured_db"]
    if abs(row["difference_db"] - expected) > ROUNDED_DB_TOLERANCE:
        errors.append(
            f"{where}: difference_db {row['difference_db']} is not "
            f"analytical - measured ({expected:.2f})"
        )
    if (
        row["note"] != ROUNDING_LIMITED
        and abs(row["oracle_db"] - row["measured_db"]) > ROUNDED_DB_TOLERANCE
    ):
        errors.append(
            f"{where}: oracle_db {row['oracle_db']} disagrees with "
            f"measured_db {row['measured_db']}"
        )
    return errors


def missing_validation_rows(references: dict, rows: list[dict]) -> list[str]:
    """Frozen rows a validation table did not produce."""
    seen = {(row["kernel"], int(row["word_length"])) for row in rows}
    return [
        f"{kernel} wl={wl}: row missing"
        for kernel, wl in references["validation"]
        if (kernel, wl) not in seen
    ]
