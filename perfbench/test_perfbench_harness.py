"""Tests of the benchmark harness's own logic; no workload runs.

    python3 -m pytest -q perfbench/test_perfbench_harness.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The "at least 10 samples beyond" percentile rule.


def test_tail_needs_more_than_ten_samples():
    assert stats.tail_percentile([float(i) for i in range(10)]) is None
    percentile, value = stats.tail_percentile([float(i) for i in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100.0 / 11)


@pytest.mark.parametrize("n", [11, 20, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(i) for i in range(n)][::-1]
    percentile, value = stats.tail_percentile(values)
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_reported_only_inside_one_mode():
    fast = [0.02 + 0.0001 * i for i in range(60)]
    slow = [1.0 + 0.01 * i for i in range(15)]
    # 15 slow samples: the tail sits 4 samples into the slow mode, so
    # its lower window reaches back into the fast mode.
    assert stats.tail_in_one_mode(fast + slow) is None
    slow = [1.0 + 0.01 * i for i in range(40)]
    percentile, value = stats.tail_in_one_mode(fast + slow)
    assert value == pytest.approx(1.29)
    assert stats.tail_in_one_mode(fast) == stats.tail_percentile(fast)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.quartiles(values) == (10.5, 12.0, 13.5)
    assert stats.iqr_share(values) == pytest.approx(3.0 / 12.0)


# ----------------------------------------------------------------------
# failed_share accounting.


def _op(errors=(), latency=1.0):
    return {"latency_s": latency, "host": 1.0, "speedup": None,
            "errors": list(errors)}


def test_failed_share_counts_each_failing_op_once():
    ops = [_op(), _op(["a", "b"]), _op(), _op(["missing"], latency=None)]
    attempted, failed = run.count_ops(ops)
    assert (attempted, failed) == (4, 2)
    assert stats.failed_share(attempted, failed) == 0.5
    assert stats.failed_share(*run.count_ops([_op()])) == 0.0


def test_failed_share_rejects_impossible_counts():
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(3, 4)


def test_missing_validation_rows_are_failed_ops():
    references = refcheck.load_references()
    missing = refcheck.missing_validation_rows(references, [])
    assert len(missing) == len(references["validation"])


# ----------------------------------------------------------------------
# Reference checks: a perturbed reference row is counted as failed.


def _cell(row, noise=-80.0):
    return dict(row, wlo_slp_noise_db=noise)


def test_cell_equal_to_reference_passes_and_perturbed_fails():
    references = refcheck.load_references()
    key = ("conv", "vex-4", -25.0)
    cell = _cell(references["fig4"][key])
    assert refcheck.check_cell(references, cell) == []
    for column, delta in (("scalar_cycles", 1), ("wlo_slp_speedup", 0.001),
                          ("wlo_slp_groups", 1)):
        perturbed = copy.deepcopy(references)
        perturbed["fig4"][key][column] += delta
        errors = refcheck.check_cell(perturbed, cell)
        assert len(errors) == 1 and column in errors[0]


def test_dense_point_must_meet_its_constraint():
    references = refcheck.load_references()
    row = dict(references["fig4"][("fir", "xentium", -5.0)],
               constraint_db=-7.5)
    assert refcheck.check_cell(references, _cell(row, noise=-7.6)) == []
    assert refcheck.check_cell(references, _cell(row, noise=-7.4))


def _validation_row(frozen, **changes):
    row = dict(frozen, oracle_db=frozen["measured_db"],
               ref_rounding_db=-300.0, note="")
    row.update(changes)
    return row


def test_validation_row_checks():
    references = refcheck.load_references()
    frozen = references["validation"][("iir", 24)]
    assert refcheck.check_validation_row(
        references, _validation_row(frozen), default_seed=True) == []
    perturbed = copy.deepcopy(references)
    perturbed["validation"][("iir", 24)]["measured_db"] += 0.01
    assert refcheck.check_validation_row(
        perturbed, _validation_row(frozen), default_seed=True)
    # Other seeds only pin the stimulus-free columns ...
    assert refcheck.check_validation_row(
        perturbed, _validation_row(frozen), default_seed=False) == []
    # ... and the oracle, unless the row is rounding-limited.
    off = _validation_row(frozen, oracle_db=frozen["measured_db"] + 0.5)
    assert refcheck.check_validation_row(references, off, default_seed=False)
    off["note"] = refcheck.ROUNDING_LIMITED
    assert refcheck.check_validation_row(
        references, off, default_seed=False) == []


# ----------------------------------------------------------------------
# Metric names and units.


@pytest.mark.parametrize("name", ["_x", "a b", "x" * 65, "", "é", "a/b"])
def test_bad_metric_names_rejected(name):
    assert not stats.valid_metric_name(name)


def test_declared_metrics_use_the_charset():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [metric["name"] for metric in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert stats.valid_metric_name(metric["name"]), metric
        assert stats.valid_unit(metric["unit"]), metric
    for workload in BENCHMARK["workloads"]:
        assert stats.valid_metric_name(workload["name"])


def test_reported_metrics_are_the_declared_ones():
    units = [{
        "peak_rss_mb": 100.0,
        "summary": {"wall_s": 2.0, "host": 1.0, "first_outcome_s": 1.0},
        "ops": [_op(), _op()],
    }]
    reported = run.end_to_end(units, [1.0, 2.0, 3.0])
    assert sorted(reported) == sorted(
        m["name"] for m in BENCHMARK["end_to_end"]
    )
    assert all(value > 0 for value, _ in reported.values())
    traced = dict(units[0], layers=layers.layer_metrics(
        tracing.Tracer(), units[0]["summary"], units[0]["ops"], 1,
    ))
    per_layer = run.layer_metrics(units[0], traced, 5.0, 5.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in per_layer.items()} == declared


# ----------------------------------------------------------------------
# Spans: self time is the span minus its children.


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner, (), {}) + sum(range(20000))

    tracer.call("outer", outer, (), {})
    tracer.call("inner", inner, (), {})
    calls, total, own = tracer.agg["outer"]
    assert calls == 1
    assert tracer.agg["inner"][0] == 2
    assert own < total
    nested_inner = tracer.spans[0][4] - tracer.spans[0][3]
    assert own == pytest.approx(total - nested_inner)
    parents = {span[0]: span[1] for span in tracer.spans}
    assert parents[tracer.spans[0][0]] == tracer.spans[1][0]
