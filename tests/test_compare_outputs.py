"""The field-by-field diff that scripts/compare_outputs.py prints."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _report(slack=-1e-3, holds=True, **details):
    return {
        "name": "weyl",
        "lhs": 1.0,
        "rhs": 2.0,
        "slack": slack,
        "holds": holds,
        "status": "pass" if holds else "fail",
        "details": {"p": 2.0, **details},
    }


def _corpus(**instances):
    return {"run_trial": instances}


def test_equal_bits_are_identical_and_nan_equals_nan():
    same = compare_outputs.difference
    assert same(_report(kappa=math.nan), _report(kappa=math.nan)) is None
    assert same([1, "a", None, math.inf], [1, "a", None, math.inf]) is None
    assert same(0.0, -0.0) == "status"  # the sign bit differs, and no float moved
    assert same(1.0, 1.0 + 2**-52) == pytest.approx(2**-52, rel=1e-6)


@pytest.mark.parametrize(
    "parent, change",
    [
        (True, False),
        ("pass", "fail"),
        (3, 4),  # counts and ranks are discrete
        (1.0, math.nan),
        ("nan", 0.5),  # not applicable against a number, as to_json_dict encodes it
        (1.0, 1),
        ([1.0, 2.0], [1.0]),
        ({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}),  # details in another key order
        (1.0, compare_outputs.MISSING),
    ],
)
def test_anything_but_a_finite_float_move_is_a_status_change(parent, change):
    assert compare_outputs.difference(parent, change) == "status"


def test_nested_floats_report_their_largest_relative_move():
    parent = _report(slack=1.0, lower=[4.0, 8.0])
    change = _report(slack=1.0 + 1e-15, lower=[4.0, 8.0 * (1 + 3e-15)])
    assert compare_outputs.difference(parent, change) == pytest.approx(3e-15, rel=1e-3)
    change["details"]["rank"] = 2
    assert compare_outputs.difference(parent, change) == "status"


def test_compare_gives_each_field_one_verdict():
    parent = _corpus(t0=_report(), t1=_report(), t2=_report())
    change = _corpus(
        t0=_report(),
        t1=_report(slack=-1e-3 * (1 + 1e-12)),
        t2=_report(slack=-1e-3 * (1 + 4e-12), holds=False),
    )
    fields = compare_outputs.compare(parent, change)
    assert list(fields) == [f"run_trial.{k}" for k in _report()]
    assert fields["run_trial.lhs"]["verdict"] == "identical"
    assert fields["run_trial.details"]["verdict"] == "identical"
    slack = fields["run_trial.slack"]
    assert slack["verdict"] == "moved"
    assert slack["max_rel_move"] == pytest.approx(4e-12, rel=1e-3)
    assert slack["at"] == "t2"
    for field in ("holds", "status"):
        assert fields[f"run_trial.{field}"]["verdict"] == "status changed"
        assert fields[f"run_trial.{field}"]["changed"] == ["t2"]


def test_an_instance_or_field_on_one_side_only_changes_status():
    parent = _corpus(t0=_report(), t1=_report())
    change = {**_corpus(t0={**_report(), "extra": 1}), "gallery": {"g0": {"notes": ""}}}
    fields = compare_outputs.compare(parent, change)
    assert fields["run_trial.name"]["changed"] == ["t1"]
    assert fields["run_trial.extra"]["changed"] == ["t0"]
    assert fields["gallery.notes"]["changed"] == ["g0"]


def test_summary_lines():
    fields = compare_outputs.compare(
        _corpus(**{f"t{i}": _report() for i in range(7)}),
        _corpus(t0=_report(slack=-2e-3), **{f"t{i}": _report(holds=False) for i in range(1, 7)}),
    )
    line = compare_outputs.summary_line
    assert line("run_trial.lhs", fields["run_trial.lhs"]) == "run_trial.lhs: identical"
    assert line("run_trial.slack", fields["run_trial.slack"]) == (
        "run_trial.slack: moved (largest relative move 0.5 at t0)"
    )
    assert line("run_trial.holds", fields["run_trial.holds"]) == (
        "run_trial.holds: status changed in 6: t1; t2; t3; t4; t5 and 1 more"
    )


def test_edge_section_runs_every_call_and_repeats(tmp_path):
    # The edge corpus on this tree: every call ends in an exit code, none
    # raises, and a second run in another directory records the same corpus.
    first = compare_outputs.edge_section(tmp_path / "first")
    assert len(first) > 400
    codes = {instance: record["exit_code"] for instance, record in first.items()}
    assert set(codes.values()) <= {0, 1, 2, 3}, codes
    assert compare_outputs.edge_section(tmp_path / "second") == first
    assert not any("/" + tmp_path.name in instance for instance in first)
    for record in first.values():
        assert (record["error_line"] is None) == (record["exit_code"] in (0, 1))
        assert all(category != "QuasiNormWarning" for category, _ in record["warnings"])
    one = first["verify block_intdim <tmp>/scalar_1x1.mtx"]
    assert one["exit_code"] == 0
    assert one["stdout"]["status"] == "not-applicable"
    # A non-Hermitian input has no intrinsic dimension at any scale.
    tiny = first["compute <tmp>/gaussian_5x5_times_1e-13.mtx -q intdim -p 1.5"]
    assert tiny["exit_code"] == 3
    # An empty file is rejected as it is read, by every call.
    empty = [record for instance, record in first.items() if "/empty_0x3.mtx" in instance]
    assert len(empty) == len(compare_outputs.edge_argvs("x.mtx"))
    for record in empty:
        assert record["exit_code"] == 2
        assert record["error_line"].endswith("matrix dimensions must be positive, got (0, 3)")
