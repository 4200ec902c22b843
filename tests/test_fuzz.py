"""Fuzz harness: determinism, reproduction, aggregation, failure capture."""

import json
import math

import numpy as np
import pytest

from srlab import fuzz
from srlab import matrices as mat
from srlab.checks import CHECKS, CheckReport, encode_json
from srlab.fuzz import (
    FuzzConfig,
    reproduce_check,
    resolve_parallelism,
    run_fuzz,
    run_trial,
    trial_inputs,
)


def small_config(**overrides):
    base = dict(trials=30, seed=11, dims_max=8, parallelism=1)
    base.update(overrides)
    return FuzzConfig(**base)


def test_config_normalization():
    cfg = FuzzConfig(
        trials=5,
        seed=1,
        distributions=("rank1_psd", "gaussian", "gaussian"),
        checks=("check_weyl", "deletion"),
    )
    assert cfg.distributions == ("gaussian", "rank1_psd")
    assert cfg.checks == ("weyl", "deletion")


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0, seed=1)
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=1, distributions=("nope",))
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=1, p_grid=())
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, seed=1, checks=("bogus",))


def test_trial_inputs_deterministic():
    cfg = small_config()
    x1 = trial_inputs(cfg.seed, 3, cfg)
    x2 = trial_inputs(cfg.seed, 3, cfg)
    for key, value in x1.items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == x2[key].tobytes()
        else:
            assert value == x2[key]


def test_trials_differ():
    cfg = small_config()
    a = trial_inputs(cfg.seed, 0, cfg)["A_gen"]
    b = trial_inputs(cfg.seed, 1, cfg)["A_gen"]
    assert a.shape != b.shape or not np.array_equal(a, b)


def test_run_fuzz_no_failures_and_consistent_counts():
    report = run_fuzz(small_config(trials=60))
    assert report.failure_count == 0
    for name, agg in report.checks.items():
        assert agg["pass_count"] <= agg["applicable_count"]
        assert agg["pass_count"] == agg["applicable_count"]  # established inequalities
        if agg["applicable_count"]:
            assert agg["min_slack"] is not None
            assert agg["argmin_instance_seed"]["seed"] == 11


def test_parallelism_does_not_change_results():
    cfg1 = small_config(trials=150, parallelism=1)
    cfg3 = small_config(trials=150, parallelism=3)
    d1 = run_fuzz(cfg1).to_json_dict()
    d3 = run_fuzz(cfg3).to_json_dict()
    d1.pop("wall_time")
    d3.pop("wall_time")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d3, sort_keys=True)


def test_reproduce_check_matches_recorded_slack():
    cfg = small_config(trials=8)
    for trial in (0, 5):
        for result in run_trial(cfg.seed, trial, cfg):
            again = reproduce_check(cfg, trial, result.check, result.variant, result.p)
            if math.isnan(result.report.slack):
                assert math.isnan(again.slack)
            else:
                assert abs(again.slack - result.report.slack) <= 1e-14
                assert again.slack == result.report.slack  # bit identical


def test_argmin_instance_regenerates():
    cfg = small_config(trials=40)
    report = run_fuzz(cfg)
    for name, agg in report.checks.items():
        arg = agg["argmin_instance_seed"]
        if arg is None:
            continue
        again = reproduce_check(cfg, arg["trial"], name, arg["variant"], arg["p"])
        assert abs(again.slack - agg["min_slack"]) <= 1e-14


def test_encode_json_of_a_fuzz_payload_is_unchanged(monkeypatch):
    def always_fails(a, b, tol=None):
        return CheckReport("weyl", 1.0, math.inf, -1.0, False, True, {"pair": (0.5, math.nan)})

    monkeypatch.setattr(fuzz, "check_weyl", always_fails)
    cfg = FuzzConfig(trials=1, seed=11, checks=("weyl",), parallelism=1)
    payload = run_fuzz(cfg).to_json_dict()
    payload.pop("wall_time")
    assert json.dumps(encode_json(payload), sort_keys=True) == (
        '{"checks": {"weyl": {"applicable_count": 1, "argmin_instance_seed": {"p": null, '
        '"seed": 11, "trial": 0, "variant": null}, "min_slack": -1.0, "pass_count": 0}}, '
        '"config": {"checks": ["weyl"], "dims_max": 20, "distributions": ["gaussian", '
        '"orthogonal_projector", "prescribed_spectrum", "psd_gram", "rank1_psd"], "p_grid": '
        '[1.0, 1.5, 2.0, 3.0, 10.0, "inf"], "seed": 11, "trials": 1}, "failures": [{"check": '
        '"weyl", "p": null, "report": {"details": {"pair": [0.5, "nan"]}, "holds": false, '
        '"lhs": 1.0, "name": "weyl", "preconditions_met": true, "rhs": "inf", "slack": -1.0, '
        '"status": "fail"}, "seed": 11, "trial": 0, "variant": null}], "kind": "fuzz_report", '
        '"schema": 1}'
    )


def test_failures_are_captured_with_seeds(monkeypatch):
    def always_fails(a, b, tol=None):
        return CheckReport(
            name="weyl",
            lhs=1.0,
            rhs=0.0,
            slack=-1.0,
            holds=False,
            preconditions_met=True,
            details={},
        )

    monkeypatch.setattr(fuzz, "check_weyl", always_fails)
    report = run_fuzz(small_config(trials=4, checks=("weyl",)))
    assert report.failure_count == 4
    first = report.failures[0]
    assert first["check"] == "weyl"
    assert first["seed"] == 11
    assert first["trial"] == 0
    assert first["report"]["holds"] is False


def test_subset_of_checks_runs_only_those():
    report = run_fuzz(small_config(checks=("cross_product", "deletion")))
    assert set(report.checks) == {"cross_product", "deletion"}


def test_env_var_overrides_parallelism(monkeypatch):
    monkeypatch.setenv("SRLAB_THREADS", "3")
    assert resolve_parallelism(1) == 3
    monkeypatch.setenv("SRLAB_THREADS", "0")
    assert resolve_parallelism(5) >= 1
    monkeypatch.delenv("SRLAB_THREADS")
    assert resolve_parallelism(2) == 2


def test_report_json_is_schema_one():
    payload = run_fuzz(small_config(trials=3)).to_json_dict()
    assert payload["schema"] == 1
    assert payload["kind"] == "fuzz_report"
    assert payload["config"]["trials"] == 3
    assert "parallelism" not in payload["config"]
    text = json.dumps(payload)
    assert "Infinity" not in text  # inf encodes as a string


def test_complex_and_real_fields_both_sampled():
    cfg = small_config(trials=20)
    fields = {trial_inputs(cfg.seed, i, cfg)["field"] for i in range(20)}
    assert fields == {"real", "complex"}


def test_all_checks_reach_applicability():
    report = run_fuzz(small_config(trials=80))
    for name in CHECKS:
        assert report.checks[name]["applicable_count"] > 0, name


def test_projector_distribution_hits_equality_cases():
    # rank-equality instances make the cross-product slack collapse to ~0
    cfg = FuzzConfig(
        trials=6,
        seed=2,
        dims_max=8,
        distributions=("orthogonal_projector",),
        checks=("cross_product",),
        parallelism=1,
    )
    report = run_fuzz(cfg)
    assert report.failure_count == 0
    agg = report.checks["cross_product"]
    assert agg["applicable_count"] > 0
    assert abs(agg["min_slack"]) <= 1e-10


def _report_dicts(results):
    return [(r.check, r.variant, r.p, r.report.to_json_dict()) for r in results]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_trial_scope_does_not_change_reports(seed):
    cfg = FuzzConfig(trials=1, seed=seed, parallelism=1)
    for trial in range(25):
        scoped = run_trial(seed, trial, cfg)
        unscoped = fuzz._run_checks(trial_inputs(seed, trial, cfg), cfg)
        assert json.dumps(_report_dicts(scoped)) == json.dumps(_report_dicts(unscoped))


def _scope_active():
    a = np.diag([2.0, 1.0])
    return mat.hermitian_part_eigenvalues(a) is mat.hermitian_part_eigenvalues(a)


def test_no_scope_after_run_trial():
    cfg = small_config()
    assert not _scope_active()
    run_trial(cfg.seed, 0, cfg)
    assert not _scope_active()


def test_no_scope_after_run_trial_raises(monkeypatch):
    seen = []

    def broken(a, b, tol=mat.DEFAULT_TOL):
        seen.append(_scope_active())
        raise RuntimeError("check failed")

    monkeypatch.setattr(fuzz, "check_weyl", broken)
    cfg = small_config()
    with pytest.raises(RuntimeError):
        run_trial(cfg.seed, 0, cfg)
    assert seen == [True]
    assert not _scope_active()
