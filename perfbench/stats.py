"""Order statistics and accounting shared by the benchmark harness.

Pure functions over plain lists: no repository import, no clock.  The
harness tests (``test_perfbench_harness.py``) pin each rule here.
"""

from __future__ import annotations

import math
import re
import statistics

#: Metric names: a letter or digit first, then up to 63 more letters,
#: digits, ``_``, ``.`` or ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Units: 1 to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Two neighbouring sorted latencies more than this factor apart
#: belong to different latency modes.
MODE_GAP = 2.0


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_NAME.fullmatch(unit) is not None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` cuts."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: list[float]) -> float:
    """Quartile distance as a share of the median: a run set's spread."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it, as ``(percentile, value)``; ``None`` when the sample is
    too small (``n <= TAIL_BEYOND``).

    With ``n`` sorted samples the value at 0-based rank
    ``n - TAIL_BEYOND - 1`` has exactly ``TAIL_BEYOND`` samples above
    it; its percentile is the share of samples at or below it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / n, ordered[rank]


def latency_modes(values: list[float]) -> list[list[float]]:
    """Split sorted latencies where neighbours differ by > ``MODE_GAP``x."""
    ordered = sorted(values)
    modes: list[list[float]] = []
    for value in ordered:
        if modes and value <= modes[-1][-1] * MODE_GAP:
            modes[-1].append(value)
        else:
            modes.append([value])
    return modes


def tail_in_one_mode(values: list[float]) -> tuple[float, float] | None:
    """:func:`tail_percentile`, but only where the tail value, the
    ``TAIL_BEYOND`` samples above it and ``TAIL_BEYOND`` samples below
    it all fall in one latency mode; ``None`` otherwise."""
    found = tail_percentile(values)
    if found is None:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < TAIL_BEYOND:
        return None
    window = ordered[rank - TAIL_BEYOND:]
    if len(latency_modes(window)) != 1:
        return None
    return found


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def failed_share(attempted: int, failed: int) -> float:
    """Ops that failed or differ from their reference, over attempted."""
    if attempted < 1:
        raise ValueError("no op attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted
