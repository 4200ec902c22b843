"""Per-checker behavior: equality cases, random instances, precondition
handling, and report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.checks import (
    CHECKS,
    CheckReport,
    canonical_check_name,
    check_block_diag_sr,
    check_block_intdim,
    check_cholesky_intdim,
    check_cross_product,
    check_deletion,
    check_intdim_subadditive,
    check_perturbation,
    check_product_kappa,
    check_rank1_addition,
    check_sum_subadditivity_proot,
    check_weyl,
    encode_json,
    grid_cross_product,
)
from srlab.matrices import gaussian_matrix, haar_unitary, projector_matrix, rank1_psd_matrix
from srlab.ranks import p_stable_rank
from srlab.schatten import INF

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_dims = st.integers(min_value=2, max_value=8)
fields = st.sampled_from(["real", "complex"])


def psd(rng, n, field="real"):
    x = gaussian_matrix(rng, n + 1, n, field)
    return (x.conj().T @ x + (x.conj().T @ x).conj().T) / 2


def assert_tolerance_invariant(report):
    scale = max(
        [1.0]
        + [abs(v) for v in (report.lhs, report.rhs) if math.isfinite(v)]
    )
    assert report.holds == (report.slack >= -1e-10 * scale)


# ---------------------------------------------------------------------------
# weyl


def test_weyl_identity_pair_tight():
    r = check_weyl(np.eye(3), np.eye(3))
    assert r.holds
    assert r.details["slack_sum_bound"] == pytest.approx(0.0, abs=1e-12)


def test_weyl_zero_b_equalities():
    r = check_weyl(np.diag([2.0, 1.0]), np.zeros((2, 2)))
    assert r.holds
    assert r.details["slack_sum_bound"] == pytest.approx(0.0, abs=1e-12)
    assert r.details["slack_base_bound"] == pytest.approx(0.0, abs=1e-12)


@given(seed=seeds, n=small_dims, field=fields)
def test_weyl_random_psd(seed, n, field):
    rng = np.random.default_rng(seed)
    r = check_weyl(psd(rng, n, field), psd(rng, n, field))
    assert r.holds
    assert_tolerance_invariant(r)


def test_weyl_not_applicable_on_indefinite():
    r = check_weyl(np.diag([1.0, -1.0]), np.eye(2))
    assert r.status == "not-applicable"
    assert r.holds is None


# ---------------------------------------------------------------------------
# intdim subadditive


def test_intdim_subadditive_identity():
    r = check_intdim_subadditive(np.eye(4), np.eye(4))
    assert r.holds
    assert r.lhs == pytest.approx(4.0)
    assert r.rhs == pytest.approx(8.0)


def test_intdim_subadditive_orthogonal_blocks_tight():
    a = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    b = np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
    r = check_intdim_subadditive(a, b)
    assert r.holds
    assert r.slack == pytest.approx(0.0, abs=1e-12)


@given(seed=seeds, n=small_dims)
def test_intdim_subadditive_random(seed, n):
    rng = np.random.default_rng(seed)
    r = check_intdim_subadditive(psd(rng, n), psd(rng, n))
    assert r.holds


def test_intdim_subadditive_requires_nonzero():
    r = check_intdim_subadditive(np.zeros((2, 2)), np.eye(2))
    assert r.status == "not-applicable"


# ---------------------------------------------------------------------------
# sum subadditivity of the p-th root


def test_sum_subadditivity_equal_summands():
    rng = np.random.default_rng(0)
    a = psd(rng, 5)
    for p in (1.0, 2.0, 3.0):
        r = check_sum_subadditivity_proot(a, a, p)
        # sr_p(2A) = sr_p(A), so the slack is exactly one p-th root
        assert r.holds
        assert r.lhs == pytest.approx(r.details["proot_a"], rel=1e-12)


def test_sum_subadditivity_orthogonal_projections():
    r = check_sum_subadditivity_proot(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2.0)
    assert r.lhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert r.rhs == pytest.approx(2.0, rel=1e-12)


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, 3.0]))
def test_sum_subadditivity_random(seed, n, p):
    rng = np.random.default_rng(seed)
    r = check_sum_subadditivity_proot(psd(rng, n), psd(rng, n), p)
    assert r.holds


def test_sum_subadditivity_rejects_indefinite_and_bad_p():
    assert check_sum_subadditivity_proot(np.diag([1.0, -1.0]), np.eye(2), 2.0).holds is None
    assert check_sum_subadditivity_proot(np.eye(2), np.eye(2), INF).holds is None
    assert check_sum_subadditivity_proot(np.eye(2), np.eye(2), 0.5).holds is None


# ---------------------------------------------------------------------------
# rank-1 addition


def test_rank1_addition_zero_base_tight():
    b = np.diag([3.0, 0.0, 0.0])
    r = check_rank1_addition(np.zeros((3, 3)), b, 2.0)
    assert r.holds
    assert r.lhs == pytest.approx(1.0, rel=1e-12)
    assert r.slack == pytest.approx(0.0, abs=1e-12)


def test_rank1_addition_large_drop_is_one_sided():
    # intdim can drop by much more than 1; the bound only limits increase
    a = np.diag([0.0, 1.0, 1.0, 1.0, 1.0])
    b = np.diag([3.0, 0.0, 0.0, 0.0, 0.0])
    r = check_rank1_addition(a, b, 1.0)
    assert r.holds
    assert r.lhs == pytest.approx(-5.0 / 3.0, rel=1e-12)
    drop = r.details["proot_a"] - r.details["proot_sum"]
    assert drop > 1.0


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, 10.0, INF]))
def test_rank1_addition_random(seed, n, p):
    rng = np.random.default_rng(seed)
    r = check_rank1_addition(psd(rng, n), rank1_psd_matrix(rng, n), p)
    assert r.holds


def test_rank1_addition_rejects_higher_rank():
    r = check_rank1_addition(np.eye(3), np.diag([1.0, 1.0, 0.0]), 2.0)
    assert r.status == "not-applicable"
    assert r.details["rank_b"] == 2


# ---------------------------------------------------------------------------
# product with condition number


def test_product_kappa_unitary_collapses_to_equality():
    rng = np.random.default_rng(4)
    u = haar_unitary(rng, 5)
    b = gaussian_matrix(rng, 5, 3)
    r = check_product_kappa(u, b, 2.0)
    assert r.holds
    assert r.details["kappa2"] == pytest.approx(1.0, rel=1e-12)
    assert r.details["slack_upper"] == pytest.approx(0.0, abs=1e-10)
    assert r.details["slack_lower"] == pytest.approx(0.0, abs=1e-10)


def test_product_kappa_scaled_identity_equality():
    b = np.diag([2.0, 1.0, 0.5])
    r = check_product_kappa(3.0 * np.eye(3), b, 2.0)
    assert r.holds
    assert r.slack == pytest.approx(0.0, abs=1e-12)


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, 3.0]))
def test_product_kappa_random(seed, n, p):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, n, n) + 3 * np.eye(n)
    b = gaussian_matrix(rng, n, int(rng.integers(1, 7)))
    r = check_product_kappa(a, b, p)
    if r.preconditions_met:
        assert r.holds


def test_product_kappa_rejects_singular_and_infinite_p():
    singular = np.diag([1.0, 0.0])
    assert check_product_kappa(singular, np.eye(2), 2.0).holds is None
    assert check_product_kappa(np.eye(2), np.eye(2), INF).holds is None
    with pytest.raises(ValueError):
        check_product_kappa(np.eye(2), np.eye(3), 2.0)


# ---------------------------------------------------------------------------
# cross product


def test_cross_product_projector_equality():
    rng = np.random.default_rng(6)
    a = projector_matrix(rng, 6, 3)
    r = check_cross_product(a, 2.0)
    assert r.holds
    assert r.lhs == pytest.approx(3.0, rel=1e-10)
    assert r.rhs == pytest.approx(3.0, rel=1e-10)


def test_cross_product_strict_gap_frozen_values():
    # diag(1, 0.5 I_2): sr = 1 + 2 * 0.25, gram sr = 1 + 2 * 0.0625
    a = np.diag([1.0, 0.5, 0.5])
    r = check_cross_product(a, 2.0)
    assert r.holds
    assert r.details["sr_p_a"] == pytest.approx(1.5, rel=1e-12)
    assert r.details["sr_p_gram_left"] == pytest.approx(1.125, rel=1e-12)


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_cross_product_random(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    for p in (1.0, 2.0, INF):
        r = check_cross_product(a, p)
        assert r.holds
        assert r.details["identity_abs_err"] <= 1e-10 * max(1.0, r.details["sr_p_a"])


def test_cross_product_identity_matches_library_value():
    rng = np.random.default_rng(12)
    a = gaussian_matrix(rng, 5, 4)
    r = check_cross_product(a, 1.5)
    assert r.details["sr_2p_a"] == pytest.approx(p_stable_rank(a, 3.0).value, rel=1e-12)


# ---------------------------------------------------------------------------
# perturbation bounds


def test_perturbation_zero_e_collapses():
    a = np.diag([2.0, 1.0])
    r = check_perturbation(a, np.zeros((2, 2)), 2.0)
    assert r.holds
    assert r.details["epsilon"] == 0.0
    assert r.details["gen_lower"] == pytest.approx(r.details["actual_proot"], rel=1e-12)
    assert r.details["gen_upper"] == pytest.approx(r.details["actual_proot"], rel=1e-12)


def test_perturbation_scaled_psd_slack_formula():
    # E = alpha A keeps sr_p fixed; the PSD lower-bound slack is
    # (1 - 1/(1+alpha)) * srp(A)^(1/p)
    rng = np.random.default_rng(8)
    a = psd(rng, 5)
    alpha = 0.5
    r = check_perturbation(a, alpha * a, 2.0)
    assert r.holds
    assert r.details["psd_pair"] is True
    x = r.details["base_proot"]
    assert r.details["actual_proot"] == pytest.approx(x, rel=1e-12)
    expected_slack = (1.0 - 1.0 / (1.0 + alpha)) * x
    assert r.details["actual_proot"] - r.details["psd_lower"] == pytest.approx(
        expected_slack, rel=1e-10
    )


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, INF]))
def test_perturbation_random_psd_pair(seed, n, p):
    rng = np.random.default_rng(seed)
    a = psd(rng, n)
    e = psd(rng, n)
    e = e * (0.1 * np.linalg.norm(a, 2) / np.linalg.norm(e, 2))
    r = check_perturbation(a, e, p)
    assert r.holds
    assert r.details["psd_pair"] is True
    # the PSD bounds are at least as tight as the general ones
    assert r.details["psd_lower"] >= r.details["gen_lower"] - 1e-12
    assert r.details["psd_upper"] <= r.details["gen_upper"] + 1e-12


def test_perturbation_rejects_large_eps_and_zero_a():
    a = np.eye(2)
    assert check_perturbation(a, 2.0 * a, 2.0).holds is None
    assert check_perturbation(np.zeros((2, 2)), a, 2.0).holds is None


# ---------------------------------------------------------------------------
# block diagonal stable rank


def test_block_diag_identical_blocks():
    r = check_block_diag_sr(np.eye(3), np.eye(3))
    assert r.holds
    assert r.lhs == pytest.approx(6.0, rel=1e-12)
    assert r.details["slack_upper"] == pytest.approx(0.0, abs=1e-10)


def test_block_diag_frozen_example():
    r = check_block_diag_sr(np.eye(2), np.diag([3.0]))
    assert r.holds
    assert r.lhs == pytest.approx(11.0 / 9.0, rel=1e-12)
    assert r.details["lower_bound"] == pytest.approx(1.0, rel=1e-12)
    assert r.details["upper_bound"] == pytest.approx(3.0, rel=1e-12)


@given(seed=seeds, field=fields)
def test_block_diag_random(seed, field):
    rng = np.random.default_rng(seed)
    a11 = gaussian_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), field)
    a22 = gaussian_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), field)
    r = check_block_diag_sr(a11, a22)
    assert r.holds


# ---------------------------------------------------------------------------
# block intdim


def test_block_intdim_identity_tight():
    r = check_block_intdim(np.eye(6), 2)
    assert r.holds
    assert r.slack == pytest.approx(0.0, abs=1e-12)


@given(seed=seeds, n=st.integers(min_value=2, max_value=8))
def test_block_intdim_random_gram(seed, n):
    rng = np.random.default_rng(seed)
    r = check_block_intdim(psd(rng, n), n // 2 or 1)
    assert r.holds


def test_block_intdim_guards():
    assert check_block_intdim(np.diag([1.0, -1.0]), 1).holds is None
    with pytest.raises(ValueError):
        check_block_intdim(np.eye(3), 3)


# ---------------------------------------------------------------------------
# deletion


def test_deletion_zero_column_keeps_sr():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    r = check_deletion(a, 1)
    assert r.holds
    assert r.details["sr_a"] == pytest.approx(r.details["sr_deleted"], rel=1e-12)


def test_deletion_can_increase_stable_rank():
    a = np.diag([1.0, 1.0, 1.0, 1.0, 2.0])
    r = check_deletion(a, 4)
    assert r.holds  # the rank clause
    assert r.details["sr_a"] == pytest.approx(2.0, rel=1e-12)
    assert r.details["sr_deleted"] == pytest.approx(4.0, rel=1e-12)
    assert r.details["sr_increased"] is True


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_deletion_rank_clause_random(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    r = check_deletion(a, int(rng.integers(0, n)))
    if r.preconditions_met:
        assert r.holds


def test_deletion_guards():
    assert check_deletion(np.ones((3, 1)), 0).holds is None
    with pytest.raises(ValueError):
        check_deletion(np.eye(3), 5)


# ---------------------------------------------------------------------------
# pivoted Cholesky intdim


def test_cholesky_identity():
    r = check_cholesky_intdim(np.eye(4))
    assert r.holds
    assert r.lhs == pytest.approx(4.0, rel=1e-12)
    assert r.rhs == pytest.approx(4.0, rel=1e-12)
    assert r.details["factor_intdim"] == pytest.approx(4.0, rel=1e-12)


def test_cholesky_diagonal_frozen_values():
    # A = diag(1, a^2 I_4): intdim(A) = 1 + 4 a^2, L = diag(1, a I_4) has
    # intdim(L) = 1 + 4 a
    alpha = 0.25
    a = np.diag([1.0] + [alpha**2] * 4)
    r = check_cholesky_intdim(a)
    assert r.holds
    assert r.lhs == pytest.approx(1.0 + 4 * alpha**2, rel=1e-12)
    assert r.rhs == pytest.approx(1.0 + 4 * alpha**2, rel=1e-12)  # sr(L) = intdim(A)
    assert r.details["factor_intdim"] == pytest.approx(1.0 + 4 * alpha, rel=1e-12)


@given(seed=seeds, n=small_dims, field=fields)
def test_cholesky_random_gram(seed, n, field):
    rng = np.random.default_rng(seed)
    r = check_cholesky_intdim(psd(rng, n, field))
    assert r.holds
    assert r.details["chol_rank"] == n


def test_cholesky_truncates_projector():
    rng = np.random.default_rng(5)
    a = projector_matrix(rng, 6, 2)
    r = check_cholesky_intdim(a)
    assert r.holds
    assert r.details["chol_rank"] == 2


def test_cholesky_not_applicable_indefinite():
    assert check_cholesky_intdim(np.diag([1.0, -1.0])).holds is None


# ---------------------------------------------------------------------------
# report plumbing


def collect_sample_reports():
    rng = np.random.default_rng(17)
    a = psd(rng, 4)
    b = psd(rng, 4)
    return [
        check_weyl(a, b),
        check_weyl(np.diag([1.0, -1.0]), np.eye(2)),
        check_cross_product(gaussian_matrix(rng, 3, 5), 2.0),
        check_product_kappa(np.eye(3), np.eye(3), 2.0),
        check_cholesky_intdim(a),
        check_perturbation(a, 0.2 * b, INF),
    ]


def test_report_json_round_trip_lossless():
    for report in collect_sample_reports():
        encoded = json.dumps(report.to_json_dict())
        back = CheckReport.from_json_dict(json.loads(encoded))
        assert back.name == report.name
        for attr in ("lhs", "rhs", "slack"):
            x, y = getattr(report, attr), getattr(back, attr)
            assert (math.isnan(x) and math.isnan(y)) or x == y
        assert back.holds == report.holds
        assert back.preconditions_met == report.preconditions_met
        for key, value in report.details.items():
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(back.details[key])
            else:
                assert back.details[key] == value


def test_check_report_is_an_immutable_record():
    report = check_weyl(np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))
    assert report == CheckReport(
        name="weyl",
        lhs=2.5,
        rhs=3.0,
        slack=0.5,
        holds=True,
        preconditions_met=True,
        details=report.details,
    )
    assert report.status == "pass"
    with pytest.raises(AttributeError):
        report.slack = -1.0
    failed = CheckReport("weyl", 1.0, 0.0, -1.0, False, True, {})
    assert failed.status == "fail"
    assert check_weyl(np.diag([1.0, -1.0]), np.eye(2)).status == "not-applicable"
    assert CheckReport.from_json_dict(report.to_json_dict()) == report


def test_encode_json_of_verify_payloads_is_unchanged():
    passed = check_weyl(np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))
    na = check_weyl(np.diag([1.0, -1.0]), np.eye(2))
    encoded = [
        json.dumps(encode_json({"schema": 1, "kind": "verify", **r.to_json_dict()}), sort_keys=True)
        for r in (passed, na)
    ]
    assert encoded == [
        '{"details": {"lam1_a": 2.0, "lam1_sum": 3.0, "lamn_b": 0.5, "slack_base_bound": 0.5, '
        '"slack_sum_bound": 0.5}, "holds": true, "kind": "verify", "lhs": 2.5, "name": "weyl", '
        '"preconditions_met": true, "rhs": 3.0, "schema": 1, "slack": 0.5, "status": "pass"}',
        '{"details": {"reason": "A is not positive semi-definite"}, "holds": null, '
        '"kind": "verify", "lhs": "nan", "name": "weyl", "preconditions_met": false, '
        '"rhs": "nan", "schema": 1, "slack": "nan", "status": "not-applicable"}',
    ]
    # A report nested in a payload encodes as its JSON dict, not as the
    # list its tuple base would give; plain tuples still become lists.
    assert encode_json({"r": passed, "t": (1.0, INF)}) == {
        "r": passed.to_json_dict(),
        "t": [1.0, "inf"],
    }


def test_tolerance_policy_uniform():
    for report in collect_sample_reports():
        if report.preconditions_met:
            assert_tolerance_invariant(report)


def test_registry_consistency():
    assert canonical_check_name("check_weyl") == "weyl"
    assert canonical_check_name("deletion") == "deletion"
    with pytest.raises(ValueError):
        canonical_check_name("nope")


def test_grid_matches_single_calls():
    rng = np.random.default_rng(21)
    a = gaussian_matrix(rng, 5, 4)
    grid = (1.0, 2.0, INF)
    for p, report in zip(grid, grid_cross_product(a, grid)):
        single = check_cross_product(a, p)
        assert report.slack == single.slack
        assert report.lhs == single.lhs
