"""Fuzz harness: determinism, reproduction, aggregation, failure capture."""

import hashlib
import inspect
import json
import math
import os
import re

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
    # The remaining field checks, each by its message.
    for overrides, message in [
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"dims_max": 0}, "dims_max must be >= 1, got 0"),
        ({"parallelism": -1}, "parallelism must be >= 0, got -1"),
        ({"distributions": ()}, "distributions must be nonempty"),
        ({"checks": ()}, "checks must be nonempty"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FuzzConfig(**{"trials": 1, "seed": 1, **overrides})


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


# (seed, trial, m, n, field, split_k, drop_col, A_gen shape, k_prod, k1, k2, sha256 of the
# bytes of A11, A22 and B_prod). The comment above each names the kinds of A_gen, A_psd and B_psd.
_PINNED_TRIALS = [
    # gaussian, gaussian, projector
    (7, 0, 7, 16, "real", 4, 8, (7, 16), 9, 11, 13,
     "5cc0c8ac973622ffe6e260e13643b71401b22cd53e33de93c7df285fa95aa1da"),
    # spectrum, gaussian, gram
    (7, 2, 8, 13, "complex", 5, 12, (8, 13), 5, 5, 9,
     "20c115dc2d0bea3fdb41631d61d8119470216f2480303681e60eb6788a8ebbb1"),
    # gram, gram, gram
    (7, 5, 10, 13, "real", 8, 3, (13, 13), 3, 1, 14,
     "66fe74e869ec1d1e4164de8210974ead55d3db202eb521888118ec368d1b3e62"),
    # rank-1, gaussian, projector
    (7, 6, 9, 2, "real", 1, 0, (2, 2), 2, 19, 5,
     "4eae4b7218a66c5b005c38de54fea0ebebb5fdd96b97815b9e57c9479c02c3d7"),
    # projector, gram, rank-1
    (7, 22, 1, 9, "complex", 8, 1, (9, 9), 14, 15, 2,
     "e1941e4297be86a5e8f0e52758cb7443c698b64cd6f1f779ccd546521e830cb0"),
    # rank-1, gram, spectrum
    (42, 0, 10, 19, "complex", 13, 6, (19, 19), 15, 17, 1,
     "407d482574aa7aff15db19d4e342f7f84179fd23a252f380a25d0d431ff170d3"),
    # gaussian, projector, spectrum
    (42, 1, 2, 10, "real", 9, 5, (2, 10), 14, 19, 8,
     "2ff75ede691a76aa874b88662cd1593988be5f731a3d033f31e8daa4268cae1d"),
    # rank-1, gram, gaussian
    (42, 4, 20, 1, "complex", 0, 0, (1, 1), 10, 16, 14,
     "ca3ad53e19a800579037688035e99ed79ae3edf9a857d5309116dc1e716f4354"),
    # spectrum, spectrum, projector
    (42, 6, 19, 13, "complex", 7, 2, (19, 13), 16, 2, 7,
     "0388394ccf93461aad73c4ef3c8380ce1729d18620a40639662a6893722f80c0"),
    # gaussian, gram, gram
    (42, 7, 13, 1, "real", 0, 0, (13, 1), 19, 16, 5,
     "795703216851467bba9ec009a96ebac99157159b7632759775fee156389425c6"),
]


@pytest.mark.parametrize("pinned", _PINNED_TRIALS, ids=lambda t: f"{t[0]}-{t[1]}")
def test_trial_draw_order_is_pinned(pinned):
    """Recorded trials replay only while every draw keeps its place in the stream.

    A11, A22 and B_prod come from ``standard_normal`` alone, so their bytes do
    not depend on the BLAS; they are drawn last, so they pin every draw
    before them. A new draw must come after these, at the end of
    :func:`srlab.fuzz.trial_inputs`.
    """
    seed, trial, m, n, field, split_k, drop_col, gen_shape, k_prod, k1, k2, digest = pinned
    x = trial_inputs(seed, trial, FuzzConfig(trials=1, seed=seed))
    assert (x["m"], x["n"], x["field"]) == (m, n, field)
    assert (x["split_k"], x["drop_col"]) == (split_k, drop_col)
    shapes = {key: value.shape for key, value in x.items() if isinstance(value, np.ndarray)}
    square = (n, n)
    assert shapes == {
        "A_gen": gen_shape,
        "A_psd": square,
        "B_psd": square,
        "B_rank1": square,
        "A_nonsing": square,
        "B_prod": (n, k_prod),
        "E_gen": gen_shape,
        "E_psd": square,
        "A11": (k1, k1),
        "A22": (k2, k2),
    }
    h = hashlib.sha256()
    for key in ("A11", "A22", "B_prod"):
        h.update(x[key].tobytes())
    assert h.hexdigest() == digest


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


def test_a_pool_is_built_only_for_several_workers_and_chunks(monkeypatch):
    """One worker, or one chunk, runs in this process: a pool's start-up costs
    more than a short campaign. Several of each get a pool of that many workers."""
    import concurrent.futures

    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(fuzz, "CHUNK_SIZE", 2)
    reports = []
    for trials, parallelism, pools in [(5, 1, []), (2, 2, []), (5, 2, [2]), (2, 1, [])]:
        built.clear()
        payload = run_fuzz(small_config(trials=trials, parallelism=parallelism)).to_json_dict()
        assert built == pools, (trials, parallelism)
        payload.pop("wall_time")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[2] and reports[1] == reports[3]


def test_numpy_integer_config_echoes_python_ints():
    cfg = FuzzConfig(trials=np.int64(3), seed=np.uint32(5), dims_max=np.int64(6), parallelism=1)
    payload = run_fuzz(cfg).to_json_dict()
    json.dumps(payload)
    echo = payload["config"]
    assert [(type(echo[k]), echo[k]) for k in ("trials", "seed", "dims_max")] == [
        (int, 3), (int, 5), (int, 6)
    ]


def test_reproduce_check_matches_recorded_slack(monkeypatch):
    def not_this_one(*args, **kwargs):
        raise AssertionError("reproduce_check ran another check")

    cfg = small_config(trials=8)
    for trial in (0, 5):
        for result in run_trial(cfg.seed, trial, cfg):
            # Only the named check runs: every other check function raises.
            with monkeypatch.context() as mp:
                for function in FUZZ_CHECK_FUNCTIONS:
                    if function.split("_", 1)[1] != result.check:
                        mp.setattr(fuzz, function, not_this_one)
                again = reproduce_check(cfg, trial, result.check, result.variant, result.p)
            if math.isnan(result.report.slack):
                assert math.isnan(again.slack)
            else:
                assert abs(again.slack - result.report.slack) <= 1e-14
                assert again.slack == result.report.slack  # bit identical
            assert json.dumps(encode_json(again.to_json_dict())) == json.dumps(
                encode_json(result.report.to_json_dict())
            )
    # An instance that the trial does not hold is an error.
    cfg = small_config(checks=("weyl", "perturbation", "block_intdim"))
    for trial, target in [
        (0, ("deletion", None, None)),  # not among cfg.checks
        (0, ("perturbation", "general", 4.0)),  # p not in the grid
        (0, ("perturbation", "general", None)),
        (0, ("perturbation", "other", 2.0)),
        (0, ("weyl", None, 2.0)),  # a scalar check has no p
    ]:
        check, variant, p = target
        message = f"no instance of {check} (variant={variant}, p={p}) in trial {trial}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reproduce_check(cfg, trial, *target)
    # At n < 2 there is no block split: block_intdim's own report says so.
    tiny = next(i for i in range(cfg.trials) if trial_inputs(cfg.seed, i, cfg)["n"] < 2)
    [recorded] = [r.report for r in run_trial(cfg.seed, tiny, cfg) if r.check == "block_intdim"]
    again = reproduce_check(cfg, tiny, "block_intdim", None, None)
    assert again.details == {"reason": "requires at least 2 rows and columns"}
    assert json.dumps(encode_json(again.to_json_dict())) == json.dumps(
        encode_json(recorded.to_json_dict())
    )


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


def test_resolve_parallelism_reads_no_env_var(monkeypatch):
    monkeypatch.setenv("SRLAB_THREADS", "3")
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    assert resolve_parallelism(0) == usable
    assert resolve_parallelism(1) == 1
    assert resolve_parallelism(2) == 2


def test_resolve_parallelism_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert resolve_parallelism(0) == 2
    assert resolve_parallelism(3) == 3
    # Without an affinity mask the CPU count is used.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_parallelism(0) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_parallelism(0) == 1


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


def _moved_reports(transformed, moves) -> list:
    """Metamorphic test (Chen, Cheung and Yiu, 1998) over seed-7 trials 0-99: every
    ``_CALLS`` row on a trial's inputs ``x``, then on each ``(label, y)`` that
    ``transformed(trial, x)`` yields, each in its own trial scope. Returns
    ``(trial, label, check, variant, p, fields)`` for each report whose
    ``moves(before, after, label)`` lists fields."""
    seed = 7
    cfg = FuzzConfig(trials=1, seed=seed, parallelism=1)
    moved = []
    for trial in range(100):
        x = trial_inputs(seed, trial, cfg)
        with mat.trial_scope():
            base = [fuzz._row_reports(x, row, cfg.p_grid) for row in fuzz._CALLS]
        for label, y in transformed(trial, x):
            with mat.trial_scope():
                for row, (ps, reports) in zip(fuzz._CALLS, base):
                    again = fuzz._row_reports(y, row, cfg.p_grid)[1]
                    for p, before, after in zip(ps, reports, again, strict=True):
                        if fields := moves(before, after, label):
                            moved.append((trial, label, *row[:2], p, fields))
    return moved


def _shape_moved(before: CheckReport, after: CheckReport) -> bool:
    """Whether the status, the reason or the detail keys differ."""
    shape = (before.status, before.details.get("reason"), list(before.details))
    return shape != (after.status, after.details.get("reason"), list(after.details))


def _value_pairs(before: CheckReport, after: CheckReport) -> list:
    """``(name, before's value, after's value)`` of each side and each detail."""
    sides = ("lhs", "rhs", "slack")
    pairs = [(side, getattr(before, side), getattr(after, side)) for side in sides]
    return pairs + [(key, v, after.details[key]) for key, v in before.details.items()]


# Even, so 2^(j/2) is exact. The window stops at 2^±150: a tridiagonal whose norm is
# below about 2^-406 is rescaled inside LAPACK's ?sterf by a factor that is not a
# power of two, and cross_product's A*A of a 2^-200 input gets there.
_SCALE_EXPONENTS = (-150, -100, -40, 40, 100, 150)


def _scales_by(before, after, j: int) -> bool:
    """``after`` is ``before``, or a float exactly 2^(kj) times it for k in {0, 1/2, 1, 2}."""
    if isinstance(before, list):
        return len(before) == len(after) and all(
            _scales_by(x, y, j) for x, y in zip(before, after)
        )
    if not isinstance(before, float):
        return type(before) is type(after) and before == after
    if math.isnan(before):
        return math.isnan(after)
    return any(after == before * 2.0 ** (k * j) for k in (0.0, 0.5, 1.0, 2.0))


def _scale_moves(before: CheckReport, after: CheckReport, j: int) -> list[str]:
    """The fields of ``after`` that do not follow from ``before`` under scaling by 2^j."""
    if _shape_moved(before, after):
        return ["status, reason or detail keys"]
    return [key for key, v, w in _value_pairs(before, after) if not _scales_by(v, w, j)]


def test_reports_are_invariant_under_power_of_two_scaling():
    """Scaling every matrix input of a trial by 2^j moves no report. sr_p, intdim,
    ranks, classifications and verdicts are ratios of norms, so each keeps its
    status, reason and detail keys, and each float is bit-identical or exactly
    2^(kj) times its value."""

    def scaled(trial, x):
        for j in _SCALE_EXPONENTS:
            yield j, {k: v * 2.0**j if isinstance(v, np.ndarray) else v for k, v in x.items()}

    moved = _moved_reports(scaled, _scale_moves)
    assert not moved, f"{len(moved)} reports moved, first {moved[:5]}"


# How far a float of a report may move under an exact invariance that is not a
# scaling, as a multiple of max(|value|, scale), where scale is max(|lhs|, |rhs|)
# over the finite sides, the scale of the verdict's own tolerance. On seed-7
# trials 0-999 with one BLAS thread, the largest moves under the complex embedding
# were 7.6e-14 (product_kappa), 1.8e-14 (cross_product) and under 1e-14 elsewhere;
# under unitary conjugation 8.7e-14 (product_kappa), 3.3e-14 (cross_product),
# 1.3e-14 (perturbation), 1.2e-14 (cholesky_intdim) and under 6e-15 elsewhere.
# Each bound is at least 10 times the larger of its two, and stands until a
# report carries its own rounding allowance.
_INVARIANCE_RTOL = {
    "weyl": 1e-13,
    "intdim_subadditive": 1e-13,
    "sum_subadditivity_proot": 1e-13,
    "rank1_addition": 1e-13,
    "product_kappa": 1e-11,
    "cross_product": 1e-12,
    "perturbation": 1e-12,
    "block_diag_sr": 1e-13,
    "block_intdim": 1e-13,
    "cholesky_intdim": 1e-12,
    "deletion": 1e-13,
}
# Details that describe a factor, not the matrix: a pivoted Cholesky factor
# depends on the basis, so conjugation may change its pivots and its trace.
_BASIS_DETAILS = {("cholesky_intdim", "permutation"), ("cholesky_intdim", "factor_trace_ratio")}


def _bounded_moves(before: CheckReport, after: CheckReport, label=None) -> list[str]:
    """The fields of ``after`` that move from ``before`` by more than the check's
    :data:`_INVARIANCE_RTOL`; every field that is not a float must be equal."""
    if _shape_moved(before, after):
        return ["status, reason or detail keys"]
    scale = max((abs(v) for v in (before.lhs, before.rhs) if math.isfinite(v)), default=0.0)
    bound = _INVARIANCE_RTOL[before.name]
    moved = []
    for key, v, w in _value_pairs(before, after):
        if (before.name, key) in _BASIS_DETAILS:
            continue
        if not isinstance(v, float) or not math.isfinite(v):
            same = type(v) is type(w) and (v == w or v != v and w != w)
        else:
            same = isinstance(w, float) and abs(w - v) <= bound * max(abs(v), abs(w), scale)
        if not same:
            moved.append(key)
    return moved


def test_reports_are_invariant_under_complex_embedding():
    """Each matrix input of a real trial, cast to complex128, moves no report
    beyond :data:`_INVARIANCE_RTOL`: a real matrix has the same singular values,
    eigenvalues, ranks and classes as a complex one."""

    def embedded(trial, x):
        if x["field"] == "real":
            cast = {k: v.astype(np.complex128) for k, v in x.items() if isinstance(v, np.ndarray)}
            yield "complex", {**x, **cast}

    moved = _moved_reports(embedded, _bounded_moves)
    assert not moved, f"{len(moved)} reports moved, first {moved[:5]}"


def _conjugated(trial: int, x: dict) -> dict:
    """The trial's inputs under unitaries that keep each check's structure.

    The n x n inputs become V*XV, and ``B_prod`` V*X, with V block-diagonal at
    ``split_k`` so that ``block_intdim``'s blocks are conjugated, not mixed.
    ``A11`` and ``A22`` each take their own unitary. ``A_gen`` and ``E_gen``
    become U X, on the left only, since ``deletion`` drops a column; where
    ``A_gen`` is Hermitian, whose PSD details need a Hermitian input, they
    become D*XD for a diagonal unitary D, which also commutes with dropping a
    column. The unitaries are of the trial's field and come from their own
    seeded stream."""
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(trial, 1)))
    field, n, k = x["field"], x["n"], x["split_k"]

    def haar(size):
        return mat.haar_unitary(rng, size, field)

    v = haar(n) if k == 0 else np.block(
        [[haar(k), np.zeros((k, n - k))], [np.zeros((n - k, k)), haar(n - k)]]
    )
    y = {s: v.conj().T @ x[s] @ v for s in ("A_psd", "B_psd", "B_rank1", "A_nonsing", "E_psd")}
    y["B_prod"] = v.conj().T @ x["B_prod"]
    for s in ("A11", "A22"):
        w = haar(len(x[s]))
        y[s] = w.conj().T @ x[s] @ w
    a_gen = x["A_gen"]
    if a_gen.shape[0] == a_gen.shape[1] and mat.is_hermitian(a_gen):
        d = np.diagonal(haar(len(a_gen)))
        d = d / np.abs(d)
        y["A_gen"], y["E_gen"] = (d.conj()[:, None] * x[s] * d for s in ("A_gen", "E_gen"))
    else:
        u = haar(len(a_gen))
        y["A_gen"], y["E_gen"] = u @ a_gen, u @ x["E_gen"]
    return {**x, **y}


def test_reports_are_invariant_under_unitary_conjugation():
    """Unitaries that respect each check's structure (:func:`_conjugated`) move no
    report beyond :data:`_INVARIANCE_RTOL`, except the basis-dependent details of
    a pivoted Cholesky factor."""
    moved = _moved_reports(lambda trial, x: [("unitary", _conjugated(trial, x))], _bounded_moves)
    assert not moved, f"{len(moved)} reports moved, first {moved[:5]}"


def _scope_active():
    a = np.diag([2.0, 1.0])
    return mat.hermitian_part_eigenvalues(a) is mat.hermitian_part_eigenvalues(a)


def test_no_scope_after_run_trial():
    cfg = small_config()
    assert not _scope_active()
    run_trial(cfg.seed, 0, cfg)
    assert not _scope_active()


# Every check function run_trial calls, as srlab.fuzz names it.
FUZZ_CHECK_FUNCTIONS = (
    "check_weyl",
    "check_intdim_subadditive",
    "grid_sum_subadditivity_proot",
    "grid_rank1_addition",
    "grid_product_kappa",
    "grid_cross_product",
    "grid_perturbation",
    "check_block_diag_sr",
    "check_block_intdim",
    "check_cholesky_intdim",
    "check_deletion",
)


def test_fuzz_check_functions_are_all_listed():
    imported = {name for name in vars(fuzz) if name.startswith(("check_", "grid_"))}
    assert imported == set(FUZZ_CHECK_FUNCTIONS)


def test_calls_rows_name_check_functions_and_trial_inputs():
    # Python checks no string of a row at import, so a mistyped row shows here.
    slots = set(trial_inputs(0, 0, small_config()))
    for check, variant, function, row_slots in fuzz._CALLS:
        assert function in FUZZ_CHECK_FUNCTIONS
        assert function.split("_", 1)[1] == check
        takes_grid = "p_grid" in inspect.signature(getattr(fuzz, function)).parameters
        assert function.startswith("grid_") == takes_grid, function
        assert set(row_slots) <= slots, function
    assert {row[2] for row in fuzz._CALLS} == set(FUZZ_CHECK_FUNCTIONS)
    assert list(dict.fromkeys(row[0] for row in fuzz._CALLS)) == list(CHECKS)


@pytest.mark.parametrize("function", FUZZ_CHECK_FUNCTIONS)
def test_no_scope_after_run_trial_raises(monkeypatch, function):
    # Replacing the module attribute reaches run_trial only if each check
    # function is looked up when its call runs.
    seen = []

    def broken(*args, **kwargs):
        seen.append(_scope_active())
        raise RuntimeError("check failed")

    monkeypatch.setattr(fuzz, function, broken)
    cfg = small_config()
    with pytest.raises(RuntimeError, match="check failed"):
        run_trial(cfg.seed, 0, cfg)
    assert seen == [True]
    assert not _scope_active()


def _fold_of_trial_reports(cfg):
    """Aggregates and failures as a fold of ``run_trial``'s reports.

    Per check: the applicable and passing counts, the least slack and where
    it was first reached.
    """
    aggregates = {name: [0, 0, None, None] for name in cfg.checks}
    failures = []
    for trial in range(cfg.trials):
        for result in run_trial(cfg.seed, trial, cfg):
            report = result.report
            if not report.preconditions_met:
                continue
            agg = aggregates[result.check]
            agg[0] += 1
            if report.holds:
                agg[1] += 1
            else:
                failures.append((result.check, result.variant, result.p, trial))
            if agg[2] is None or report.slack < agg[2]:
                agg[2] = report.slack
                agg[3] = {"seed": cfg.seed, "trial": trial, "variant": result.variant, "p": result.p}
    return aggregates, failures


@pytest.mark.parametrize(
    "seed, overrides",
    [
        (0, {}),
        (7, {}),
        (42, {}),
        (7, {"checks": ("product_kappa", "perturbation", "weyl", "block_intdim")}),
        (42, {"p_grid": (0.5, 1.0, 2.0, math.inf)}),
    ],
)
def test_run_chunk_folds_like_trial_reports(seed, overrides):
    # p = 0.5 is not applicable to any grid check, and inf not to the two
    # that need a finite p, so that grid marks single points not applicable.
    cfg = FuzzConfig(trials=40, seed=seed, parallelism=1, **overrides)
    aggregates, failures = fuzz._run_chunk(cfg, 0, cfg.trials)
    expected, expected_failures = _fold_of_trial_reports(cfg)
    got = {
        name: [agg.applicable, agg.passed, agg.min_slack, agg.argmin]
        for name, agg in aggregates.items()
    }
    assert got == expected
    assert [(f["check"], f["variant"], f["p"], f["trial"]) for f in failures] == expected_failures


def test_campaign_argmin_is_the_first_trial_of_least_slack():
    # deletion's slack is an exact 0 in many trials, in more than one chunk:
    # merging chunks keeps the earliest of the tied trials, as folding does.
    cfg = FuzzConfig(trials=2 * fuzz.CHUNK_SIZE + 10, seed=42, checks=("deletion",), parallelism=1)
    got = run_fuzz(cfg).checks["deletion"]
    slacks = [
        (r.report.slack, trial)
        for trial in range(cfg.trials)
        for r in run_trial(cfg.seed, trial, cfg)
        if r.report.preconditions_met
    ]
    least = min(slack for slack, _ in slacks)
    tied = [trial for slack, trial in slacks if slack == least]
    assert tied[-1] >= fuzz.CHUNK_SIZE > tied[0]
    assert got["min_slack"] == least
    assert got["argmin_instance_seed"]["trial"] == tied[0]


def test_a_failing_grid_point_is_recorded_as_reproduced(monkeypatch):
    from srlab import checks

    cfg = FuzzConfig(trials=3, seed=5, parallelism=1)
    target = ("perturbation", "general", 3.0)
    trial = 1
    [chosen] = [
        r.report for r in run_trial(cfg.seed, trial, cfg) if (r.check, r.variant, r.p) == target
    ]
    assert chosen.holds is True
    real = checks._verdict

    def fail_chosen(lhs, rhs, margins):
        slack, holds = real(lhs, rhs, margins)
        return slack, holds and not (lhs == chosen.lhs and rhs == chosen.rhs)

    monkeypatch.setattr(checks, "_verdict", fail_chosen)
    report = run_fuzz(cfg)
    assert report.failure_count == 1
    [failure] = report.failures
    assert (failure["check"], failure["variant"], failure["p"], failure["trial"]) == (*target, trial)
    assert failure["report"] == reproduce_check(cfg, trial, *target).to_json_dict()
    assert failure["report"]["holds"] is False
    agg = report.checks["perturbation"]
    assert agg["pass_count"] == agg["applicable_count"] - 1


def test_a_grid_replacement_returning_plain_reports_is_folded(monkeypatch):
    def always_fails(a, p_grid, tol=None):
        return [CheckReport("cross_product", 1.0, 0.0, -1.0, False, True, {"p": p}) for p in p_grid]

    monkeypatch.setattr(fuzz, "grid_cross_product", always_fails)
    cfg = small_config(trials=3, checks=("cross_product",))
    report = run_fuzz(cfg)
    grid = len(cfg.p_grid)
    assert report.failure_count == 3 * grid
    assert report.checks["cross_product"]["applicable_count"] == 3 * grid
    assert report.checks["cross_product"]["pass_count"] == 0
    assert [f["p"] for f in report.failures[:grid]] == list(cfg.p_grid)
