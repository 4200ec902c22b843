"""The summary that scripts/bench_pairs.py writes into BENCH json files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 9.0, 12.0, 15.0, 9.5]
    lower = bench_pairs.summarize(_pairs(parent, change, "latency_ms"), {"latency_ms": "lower"})
    higher = bench_pairs.summarize(_pairs(parent, change, "ops"), {"ops": "higher"})
    assert (lower["latency_ms"]["wins"], lower["latency_ms"]["losses"]) == (3, 1)
    assert (higher["ops"]["wins"], higher["ops"]["losses"]) == (1, 3)
    assert lower["latency_ms"]["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert lower["latency_ms"]["change"]["median"] == 9.5
    assert lower["latency_ms"]["change_vs_parent"] == pytest.approx(-2.5 / 12.0)
    assert lower["latency_ms"]["pairs"] == 5


def test_gain_rule_needs_nine_tenths_of_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    clear = [p - 1.0 for p in parent]
    close = [p - 0.3 for p in parent]  # wins every pair, gap inside the IQR
    eight = clear[:8] + [p + 1.0 for p in parent[8:]]
    rule = {"t": "lower"}
    assert bench_pairs.summarize(_pairs(parent, clear, "t"), rule)["t"]["gain_rule_met"]
    assert not bench_pairs.summarize(_pairs(parent, close, "t"), rule)["t"]["gain_rule_met"]
    assert not bench_pairs.summarize(_pairs(parent, eight, "t"), rule)["t"]["gain_rule_met"]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("701-703,9") == [701, 702, 703, 9]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("")
