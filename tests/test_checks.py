"""Per-checker behavior: equality cases, random instances, precondition
handling, and report serialization."""

import json
import math
import re
from inspect import signature

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import srlab.checks
from srlab import gallery
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
    grid_perturbation,
    grid_product_kappa,
    grid_rank1_addition,
    grid_sum_subadditivity_proot,
)
from srlab.matrices import (
    DecompositionError,
    gaussian_matrix,
    haar_unitary,
    hermitian_eigenvalues,
    is_hermitian,
    is_psd,
    pivoted_cholesky,
    projector_matrix,
    rank1_psd_matrix,
    sigma,
)
from srlab.ranks import intrinsic_dimension, numerical_rank, p_stable_rank, stable_rank
from srlab.schatten import schatten_norm

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
    assert check_sum_subadditivity_proot(np.eye(2), np.eye(2), math.inf).holds is None
    assert check_sum_subadditivity_proot(np.eye(2), np.eye(2), 0.5).holds is None


# ---------------------------------------------------------------------------
# rank-1 addition


def test_rank1_addition_zero_base_tight():
    b = np.diag([3.0, 0.0, 0.0])
    r = check_rank1_addition(np.zeros((3, 3)), b, 2.0)
    assert r.holds
    assert r.lhs == pytest.approx(1.0, rel=1e-12)
    assert r.slack == pytest.approx(0.0, abs=1e-12)


def test_rank1_addition_zero_base_at_p_inf():
    # sr_inf(0)^(1/inf) is 0: the p = inf limit 1 holds only for a positive sr.
    r = check_rank1_addition(np.zeros((3, 3)), np.diag([3.0, 0.0, 0.0]), math.inf)
    assert r.details["proot_a"] == 0.0
    assert r.lhs == 1.0


def test_rank1_addition_large_drop_is_one_sided():
    # intdim can drop by much more than 1; the bound only limits increase
    a = np.diag([0.0, 1.0, 1.0, 1.0, 1.0])
    b = np.diag([3.0, 0.0, 0.0, 0.0, 0.0])
    r = check_rank1_addition(a, b, 1.0)
    assert r.holds
    assert r.lhs == pytest.approx(-5.0 / 3.0, rel=1e-12)
    drop = r.details["proot_a"] - r.details["proot_sum"]
    assert drop > 1.0


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, 10.0, math.inf]))
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
    assert check_product_kappa(np.eye(2), np.eye(2), math.inf).holds is None
    # B's rows must match A's order: otherwise not applicable, as for weyl.
    unequal = check_product_kappa(np.eye(2), np.eye(3), 2.0)
    assert unequal.status == "not-applicable"
    assert unequal.details["reason"] == "requires B with as many rows as A"


def test_product_kappa_overflowing_power_saturates():
    # kappa^400 = 10^400 exceeds float64: the upper bound is inf and the
    # lower one 0, not an OverflowError.
    a = np.diag([10.0, 1.0])
    [r] = grid_product_kappa(a, np.eye(2), [400.0])
    assert r.status == "pass"
    assert r.details["upper_bound"] == math.inf
    assert r.details["lower_bound"] == 0.0
    assert r.slack == 1.0
    # Below the overflow kappa^p keeps the bits of the plain power.
    assert check_product_kappa(a, np.eye(2), 300.0).details["upper_bound"] == 10.0**300 * 2.0
    # With B = 0 the upper bound is 0, not the nan of inf * 0.
    r = check_product_kappa(np.diag([1.0, 1e-9]), np.zeros((2, 2)), 400.0)
    assert r.status == "pass"
    assert r.details["upper_bound"] == 0.0
    assert r.details["lower_bound"] == 0.0


@pytest.mark.parametrize("name", ["sum_subadditivity_proot", "product_kappa"])
def test_finite_p_checks_name_p_inf_in_their_reason(name):
    r = CHECKS[name](np.eye(2), np.eye(2), p=math.inf)
    assert r.status == "not-applicable"
    assert r.details == {"reason": "requires finite p >= 1, got p=inf", "p": math.inf}


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
    for p in (1.0, 2.0, math.inf):
        r = check_cross_product(a, p)
        assert r.holds
        assert r.details["identity_abs_err"] <= 1e-10 * max(1.0, r.details["sr_p_a"])


def test_cross_product_identity_matches_library_value():
    rng = np.random.default_rng(12)
    a = gaussian_matrix(rng, 5, 4)
    r = check_cross_product(a, 1.5)
    assert r.details["sr_2p_a"] == pytest.approx(p_stable_rank(a, 3.0), rel=1e-12)


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


@given(seed=seeds, n=small_dims, p=st.sampled_from([1.0, 2.0, math.inf]))
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


def _proot_of_srp(a, p: float) -> float:
    return p_stable_rank(a, p) ** (1.0 / p)


def test_perturbation_takes_every_spectrum_from_sigma():
    """On a complex rank-1 A that is Hermitian only within the threshold,
    eps and both p-roots are those of sigma, bit for bit, PSD or not."""
    from srlab.matrices import is_hermitian, sigma

    rng = np.random.default_rng(23)
    near = 0
    for _ in range(40):
        a = rank1_psd_matrix(rng, 6, "complex")
        near += not np.array_equal(a, a.conj().T)
        assert is_hermitian(a)
        for e in (0.3 * rank1_psd_matrix(rng, 6, "complex"), 0.05 * gaussian_matrix(rng, 6, 6)):
            e = e * (0.5 * sigma(a)[0] / sigma(e)[0])
            for p in (1.0, 2.0, 3.0):
                r = check_perturbation(a, e, p)
                assert r.details["epsilon"] == sigma(e)[0] / sigma(a)[0]
                assert r.details["base_proot"] == _proot_of_srp(a, p)
                assert r.details["actual_proot"] == _proot_of_srp(a + e, p)
    assert near > 0


@pytest.mark.parametrize(
    "noise, decompositions",
    [(0.0, ["eigvalsh"] * 3), (1e-14, ["svd", "eigvalsh", "eigvalsh", "svd"])],
)
def test_perturbation_decomposition_count(noise, decompositions, lapack_calls):
    """What one check costs in a trial scope, as ``srlab verify`` runs it.

    An exactly symmetric A: sigma(A), sigma(E) and sigma(A + E) are each one
    eigvalsh, and the PSD pair reuses them. An A that is Hermitian only within
    the threshold: sigma(A) and sigma(A + E) are SVDs, so the PSD pair needs
    its own eigvalsh of A's Hermitian part.
    """
    from srlab.matrices import trial_scope

    rng = np.random.default_rng(31)
    a = psd(rng, 30)
    a = a + noise * rng.standard_normal(a.shape)
    assert np.array_equal(a, a.T) == (noise == 0.0)
    with trial_scope():
        report = check_perturbation(a, 0.1 * np.eye(30), 2.0)
    assert report.holds and report.details["psd_pair"]
    assert [name for name, _ in lapack_calls] == decompositions


@pytest.mark.parametrize(
    "check, unscoped, scoped",
    [
        ("intdim_subadditive", 3, 2),
        ("block_intdim", 3, 3),
        ("cholesky_intdim", 1, 1),
        ("deletion", 2, 1),
    ],
)
def test_intdim_reads_the_gate_eigenvalues(check, unscoped, scoped, lapack_calls):
    """Outside a trial scope an intrinsic dimension of a classified operand reads
    the classifier's eigenvalues, so the operand is decomposed once; the report
    is the in-scope one bit for bit."""
    from srlab.matrices import trial_scope

    x = np.random.default_rng(3).standard_normal((5, 5))
    g = x.T @ x
    args = (g, g) if check == "intdim_subadditive" else (g,)
    report = CHECKS[check](*args)
    assert [name for name, _ in lapack_calls].count("eigvalsh") == unscoped
    lapack_calls.clear()
    with trial_scope():
        in_scope = CHECKS[check](*args)
    assert [name for name, _ in lapack_calls].count("eigvalsh") == scoped
    assert report.status == "pass"
    assert json.dumps(report.to_json_dict()) == json.dumps(in_scope.to_json_dict())


def test_psd_gated_proots_match_p_stable_rank_on_exact_hermitian_input():
    """On exactly Hermitian, rank-deficient PSD inputs, every p-root of
    sum_subadditivity_proot and rank1_addition equals srp^(1/p) bit for bit."""
    rng = np.random.default_rng(29)
    for _ in range(30):
        for field in ("real", "complex"):
            n = int(rng.integers(3, 9))
            x = gaussian_matrix(rng, n - 2, n, field)
            a = x.conj().T @ x
            a = a / 2 + a.conj().T / 2
            b = psd(rng, n, field)
            v = gaussian_matrix(rng, n, 1, field)
            c = v @ v.conj().T
            c = c / 2 + c.conj().T / 2
            for m in (a, b, c):
                assert np.array_equal(m, m.conj().T)
            for p in (1.0, 1.5, 2.0, 3.0):
                r = check_sum_subadditivity_proot(a, b, p)
                assert r.details["proot_a"] == _proot_of_srp(a, p)
                assert r.details["proot_b"] == _proot_of_srp(b, p)
                assert r.lhs == _proot_of_srp(a + b, p)
                r = check_rank1_addition(a, c, p)
                assert r.details["proot_a"] == _proot_of_srp(a, p)
                assert r.details["proot_sum"] == _proot_of_srp(a + c, p)


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
    # k = n leaves an empty block A22: the split is rejected as such.
    with pytest.raises(ValueError, match=r"^block split k must satisfy 1 <= k < n, got k=3, n=3$"):
        check_block_intdim(np.eye(3), 3)
    with pytest.raises(ValueError, match=r"^block split k must satisfy 1 <= k < n, got k=0, n=4$"):
        check_block_intdim(np.eye(4), 0)
    assert check_block_intdim(np.eye(3), 2).details["intdim_a22"] == 1.0


# ---------------------------------------------------------------------------
# deletion


def test_deletion_zero_column_keeps_sr():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    r = check_deletion(a, 1)
    assert r.holds
    assert r.details["sr_a"] == pytest.approx(r.details["sr_deleted"], rel=1e-12)


def test_deletion_of_a_zero_column_is_no_increase():
    # [I_2 | 0] and I_2 have the same singular values, so equal stable ranks.
    r = check_deletion(np.hstack([np.eye(2), np.zeros((2, 1))]), 2)
    assert r.details["sr_a"] == r.details["sr_deleted"] == 2.0
    assert r.details["sr_increased"] is False


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


def test_cholesky_zero_matrix_has_an_empty_factor():
    r = check_cholesky_intdim(np.zeros((4, 4)))
    assert r.status == "pass"
    assert r.details["chol_rank"] == 0
    assert r.details["factor_stable_rank"] == 0.0
    assert (r.lhs, r.rhs) == (0.0, 0.0)


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


def test_cholesky_rejects_a_factor_that_does_not_reproduce_the_input(monkeypatch):
    def wrong_factor(a):
        n = a.shape[0]
        return 2 * np.eye(n), np.arange(n), n

    monkeypatch.setattr(srlab.checks, "pivoted_cholesky", wrong_factor)
    # L L* - I = 3 I, of Frobenius norm 3 sqrt(3).
    with pytest.raises(DecompositionError, match=r"residual 5\.196e\+00 too large"):
        check_cholesky_intdim(np.eye(3))


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
        check_perturbation(a, 0.2 * b, math.inf),
    ]


def _encoded_float(x: float):
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def test_report_json_round_trip_lossless():
    """Through a JSON text, non-finite floats become the sentinels "nan",
    "inf" and "-inf", and finite floats come back unchanged."""
    for report in collect_sample_reports():
        encoded = json.loads(json.dumps(report.to_json_dict()))
        assert encoded["name"] == report.name
        for attr in ("lhs", "rhs", "slack"):
            assert encoded[attr] == _encoded_float(getattr(report, attr))
        assert encoded["holds"] == report.holds
        assert encoded["preconditions_met"] == report.preconditions_met
        assert encoded["status"] == report.status
        for key, value in report.details.items():
            if isinstance(value, float):
                assert encoded["details"][key] == _encoded_float(value)
            elif isinstance(value, (bool, int, str)):
                assert encoded["details"][key] == value
    assert encode_json([math.nan, math.inf, -math.inf, 0.1, -2.5e-300]) == [
        "nan", "inf", "-inf", 0.1, -2.5e-300
    ]


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
    # One applicable point of each grid check, details in key order, and the
    # perturbation check with and without its PSD pair. Diagonal inputs at
    # p = 1 (and kappa2^p = 2^2), so no value depends on how pow rounds.
    # Then block_diag_sr (its two named clauses in order), cholesky_intdim on
    # a full-rank factor (two clauses) and deletion (integer sides).
    d = np.diag
    grid_points = [
        check_sum_subadditivity_proot(d([2.0, 1.0]), d([1.0, 0.5]), 1.0),
        check_rank1_addition(d([2.0, 1.0]), d([1.0, 0.0]), 1.0),
        check_product_kappa(d([2.0, 1.0]), d([1.0, 0.5]), 2.0),
        check_cross_product(d([2.0, 1.0]), 1.0),
        check_perturbation(d([2.0, 1.0]), d([0.5, 0.5]), 1.0),
        check_perturbation(d([2.0, 1.0]), d([0.5, -0.5]), 1.0),
        check_block_diag_sr(d([2.0, 1.0]), d([1.0])),
        check_cholesky_intdim(d([4.0, 1.0])),
        check_deletion(d([2.0, 1.0]), 1),
    ]
    assert [
        json.dumps(encode_json({"schema": 1, "kind": "verify", **r.to_json_dict()}))
        for r in grid_points
    ] == [
        '{"schema": 1, "kind": "verify", "name": "sum_subadditivity_proot", "lhs": 1.5, '
        '"rhs": 3.0, "slack": 1.5, "holds": true, "preconditions_met": true, '
        '"status": "pass", "details": {"p": 1.0, "proot_a": 1.5, "proot_b": 1.5}}',
        '{"schema": 1, "kind": "verify", "name": "rank1_addition", '
        '"lhs": -0.16666666666666674, "rhs": 1.0, "slack": 1.1666666666666667, '
        '"holds": true, "preconditions_met": true, "status": "pass", "details": {"p": 1.0, '
        '"proot_a": 1.5, "proot_sum": 1.3333333333333333}}',
        '{"schema": 1, "kind": "verify", "name": "product_kappa", "lhs": 1.0625, '
        '"rhs": 5.0, "slack": 0.75, "holds": true, "preconditions_met": true, '
        '"status": "pass", "details": {"p": 2.0, "kappa2": 2.0, "sr_p_b": 1.25, '
        '"lower_bound": 0.3125, "upper_bound": 5.0, "slack_upper": 3.9375, '
        '"slack_lower": 0.75}}',
        '{"schema": 1, "kind": "verify", "name": "cross_product", "lhs": 1.25, "rhs": 1.5, '
        '"slack": -0.0, "holds": true, "preconditions_met": true, "status": "pass", '
        '"details": {"p": 1.0, "sr_p_a": 1.5, "sr_p_gram_left": 1.25, '
        '"sr_p_gram_right": 1.25, "sr_2p_a": 1.25, "identity_abs_err": 0.0}}',
        '{"schema": 1, "kind": "verify", "name": "perturbation", "lhs": 1.6, '
        '"rhs": 2.6666666666666665, "slack": 0.3999999999999999, "holds": true, '
        '"preconditions_met": true, "status": "pass", "details": {"p": 1.0, '
        '"epsilon": 0.25, "rank_e": 2, "base_proot": 1.5, "actual_proot": 1.6, '
        '"gen_lower": 0.8, "gen_upper": 2.6666666666666665, "psd_pair": true, '
        '"psd_lower": 1.2, "psd_upper": 2.0}}',
        '{"schema": 1, "kind": "verify", "name": "perturbation", "lhs": 1.2, '
        '"rhs": 2.6666666666666665, "slack": 0.3999999999999999, "holds": true, '
        '"preconditions_met": true, "status": "pass", "details": {"p": 1.0, '
        '"epsilon": 0.25, "rank_e": 2, "base_proot": 1.5, "actual_proot": 1.2, '
        '"gen_lower": 0.8, "gen_upper": 2.6666666666666665, "psd_pair": false}}',
        '{"schema": 1, "kind": "verify", "name": "block_diag_sr", "lhs": 1.5, "rhs": 2.25, '
        '"slack": 0.5, "holds": true, "preconditions_met": true, "status": "pass", '
        '"details": {"sr_a11": 1.25, "sr_a22": 1.0, "lower_bound": 1.0, "upper_bound": 2.25, '
        '"slack_lower": 0.5, "slack_upper": 0.75}}',
        '{"schema": 1, "kind": "verify", "name": "cholesky_intdim", "lhs": 1.25, "rhs": 1.25, '
        '"slack": 0.0, "holds": true, "preconditions_met": true, "status": "pass", '
        '"details": {"factor_stable_rank": 1.25, "chol_rank": 2, "residual": 0.0, '
        '"permutation": [0, 1], "factor_trace_ratio": 1.5, "factor_intdim": 1.5}}',
        '{"schema": 1, "kind": "verify", "name": "deletion", "lhs": 1.0, "rhs": 2.0, '
        '"slack": 1.0, "holds": true, "preconditions_met": true, "status": "pass", '
        '"details": {"drop_col": 1, "rank_a": 2, "rank_deleted": 1, "sr_a": 1.25, '
        '"sr_deleted": 1.0, "sr_increased": false, "intdim_a": 1.5}}',
    ]
    # A report's JSON dict nested in a payload is kept as it is; tuples become lists.
    assert encode_json({"r": passed.to_json_dict(), "t": (1.0, math.inf)}) == {
        "r": passed.to_json_dict(),
        "t": [1.0, "inf"],
    }


def test_tolerance_policy_uniform():
    for report in collect_sample_reports():
        if report.preconditions_met:
            assert_tolerance_invariant(report)


def test_finish_derives_margins_from_clauses():
    clauses = [
        (1.0, 3.0, False, None),  # inequality: margin 2.0
        (2.5, 2.0, True, "identity"),  # identity: margin -0.5
        (0.0, 4.0, False, "upper"),  # margin 4.0
    ]
    details = {"p": 2.0}
    r = srlab.checks._finish("demo", clauses, details)
    assert (r.lhs, r.rhs) == (1.0, 3.0)  # the first clause's sides
    assert r.slack == -0.5  # the least margin
    assert r.holds is False
    assert r.details is details
    assert r.details == {"p": 2.0, "slack_identity": -0.5, "slack_upper": 4.0}
    assert list(r.details) == ["p", "slack_identity", "slack_upper"]
    r = srlab.checks._finish("demo", clauses[::2], {}, headline=1)
    assert (r.lhs, r.rhs, r.slack) == (0.0, 4.0, 2.0)


def test_finish_tolerates_rounding_relative_to_the_finite_sides():
    def holds(*clauses, headline=0):
        clauses = [(lhs, rhs, False, None) for lhs, rhs in clauses]
        return srlab.checks._finish("demo", clauses, {}, headline).holds

    assert holds((1.0 + 1e-12, 1.0)) is True
    assert holds((1.0 + 1e-9, 1.0)) is False
    # An infinite side stays out of the scale, so an infinite excess fails.
    assert holds((math.inf, 1.0)) is False
    # The scale is the larger finite side of the headline clause, lhs or rhs.
    assert holds((-1.0, 0.0), (1.0, 1.0 - 1e-12)) is True
    assert holds((0.0, 1.0), (1.0, 1.0 - 1e-12)) is True
    assert holds((0.0, 0.0), (1.0, 1.0 - 1e-12)) is False


def test_registry_consistency():
    assert canonical_check_name("check_weyl") == "weyl"
    assert canonical_check_name("deletion") == "deletion"
    with pytest.raises(ValueError):
        canonical_check_name("nope")


# A check's unmet precondition: (check, inputs, keyword arguments, and the
# not-applicable reason, or the ValueError that the check raises).
_RECT = np.ones((2, 3))
_EYE = np.eye(2)
_INDEFINITE = np.diag([1.0, -1.0])
_VECTOR = np.ones(3)
_UNEQUAL = "requires two square matrices of equal size"


def _not_2d(name, shape):
    return ValueError(f"{name} requires a 2-D matrix, got {shape}")


PRECONDITION_CASES = {
    "weyl_not_square": ("weyl", (_RECT, _RECT), {}, _UNEQUAL),
    "weyl_b_not_psd": ("weyl", (_EYE, _INDEFINITE), {}, "B is not positive semi-definite"),
    "intdim_subadditive_not_square": ("intdim_subadditive", (_RECT, _RECT), {}, _UNEQUAL),
    "intdim_subadditive_not_psd": (
        "intdim_subadditive", (_EYE, _INDEFINITE), {}, "B is not positive semi-definite"
    ),
    "block_intdim_not_square": ("block_intdim", (_RECT,), {"k": 1}, "requires a square matrix"),
    "block_intdim_1x5": (
        "block_intdim", (np.ones((1, 5)),), {"k": 1}, "requires a square matrix"
    ),
    "block_intdim_1x1": (
        "block_intdim", (np.ones((1, 1)),), {"k": 1}, "requires at least 2 rows and columns"
    ),
    "cholesky_intdim_not_square": ("cholesky_intdim", (_RECT,), {}, "requires a square matrix"),
    "sum_subadditivity_proot_not_square": ("sum_subadditivity_proot", (_RECT, _RECT), {}, _UNEQUAL),
    "sum_subadditivity_proot_zero": (
        "sum_subadditivity_proot", (np.zeros((2, 2)), _EYE), {}, "A is the zero matrix"
    ),
    "rank1_addition_not_square": ("rank1_addition", (_RECT, _RECT), {}, _UNEQUAL),
    "rank1_addition_not_psd": (
        "rank1_addition", (_EYE, _INDEFINITE), {}, "B is not positive semi-definite"
    ),
    "product_kappa_a_not_square": ("product_kappa", (_RECT, _RECT.T), {}, "requires square A"),
    "product_kappa_b_rows": (
        "product_kappa", (np.eye(5), np.eye(3)), {}, "requires B with as many rows as A"
    ),
    "product_kappa_b_vector": (
        "product_kappa", (_EYE, np.ones(2)), {}, _not_2d("product_kappa", (2,))
    ),
    "perturbation_unequal_shapes": (
        "perturbation", (_EYE, _RECT), {}, "requires matrices of equal shape"
    ),
    "block_diag_sr_vector": (
        "block_diag_sr", (_VECTOR, _EYE), {}, _not_2d("block_diag_sr", (3,))
    ),
    "deletion_vector": ("deletion", (_VECTOR,), {"drop_col": 0}, _not_2d("deletion", (3,))),
    "cross_product_vector": ("cross_product", (_VECTOR,), {}, _not_2d("cross_product", (3,))),
}


@pytest.mark.parametrize("case", sorted(PRECONDITION_CASES))
def test_unmet_preconditions(case):
    name, inputs, kwargs, expected = PRECONDITION_CASES[case]
    check = CHECKS[name]
    grid_check = getattr(srlab.checks, f"grid_{name}", None)
    if grid_check is not None:
        kwargs = {**kwargs, "p": 2.0}
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
            check(*inputs, **kwargs)
        return
    report = check(*inputs, **kwargs)
    assert report.status == "not-applicable"
    assert report.details["reason"] == expected
    if grid_check is not None:
        grid = (0.5, 1.0, 2.0, math.inf)
        reports = list(grid_check(*inputs, grid))
        assert len(reports) == len(grid)
        assert all(r.status == "not-applicable" for r in reports)
        assert all(r.details["reason"] == expected for r in reports)


# Each PSD-gated check: its matrix slots, its other arguments, and whether
# it requires nonzero operands.
_PSD_GATED = {
    "weyl": ("AB", {}, False),
    "intdim_subadditive": ("AB", {}, True),
    "sum_subadditivity_proot": ("AB", {"p": 2.0}, True),
    "rank1_addition": ("AB", {"p": 2.0}, False),
    "block_intdim": ("A", {"k": 1}, False),
    "cholesky_intdim": ("A", {}, False),
}


@pytest.mark.parametrize("name", sorted(_PSD_GATED))
def test_psd_gate_names_the_failing_slot(name):
    slots, kwargs, nonzero = _PSD_GATED[name]
    check = CHECKS[name]
    good = np.diag([1.0, 0.0])  # PSD, nonzero and of rank 1: every gated check applies
    assert check(*[good] * len(slots), **kwargs).preconditions_met
    failing = {"not positive semi-definite": _INDEFINITE}
    if nonzero:
        failing["the zero matrix"] = np.zeros((2, 2))
    for slot in slots:
        for what, bad in failing.items():
            inputs = [bad if s == slot else good for s in slots]
            assert check(*inputs, **kwargs).details["reason"] == f"{slot} is {what}"
    if len(slots) == 2:
        # The first test to fail is the reason: slot A before slot B, and
        # the zero test on every operand before the PSD test on any.
        reason = check(_INDEFINITE, _INDEFINITE, **kwargs).details["reason"]
        assert reason == "A is not positive semi-definite"
        reason = check(_INDEFINITE, np.zeros((2, 2)), **kwargs).details["reason"]
        assert reason == ("B is the zero matrix" if nonzero else "A is not positive semi-definite")


# Each function of a matrix that is not a check, with its arguments after the matrix.
_MATRIX_FUNCTIONS = [
    (stable_rank, ()),
    (p_stable_rank, (1.5,)),
    (numerical_rank, ()),
    (intrinsic_dimension, ()),
    (schatten_norm, (2.0,)),
    (sigma, ()),
    (is_hermitian, ()),
    (is_psd, ()),
    (hermitian_eigenvalues, ()),
    (pivoted_cholesky, ()),
    (gallery.congruence_maximizer, ()),
]


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3,), "sparse"])
def test_empty_inputs_raise_naming_the_shape_or_are_not_applicable(shape):
    # Input that is not a dense, nonempty 2-D array is a usage error that
    # names the check and the shape, in every matrix argument: never an
    # IndexError, a ZeroDivisionError, a verdict on no entries, or a
    # not-applicable report.
    if shape == "sparse":
        import scipy.sparse

        a, shape = scipy.sparse.identity(3, format="csr"), (3, 3)
    else:
        a = np.zeros(shape)
    for name, check in CHECKS.items():
        slots = sum(p.default is p.empty for p in signature(check).parameters.values())
        for slot in range(slots):
            args = [np.eye(3)] * slots
            args[slot] = a
            with pytest.raises(ValueError) as exc:
                check(*args)
            message = str(exc.value)
            assert message.startswith(name + " ") and str(shape) in message, (name, message)
    if shape == (3, 3):
        return
    # Every other function of a matrix raises too, naming the shape.
    for f, args in _MATRIX_FUNCTIONS:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            f(a, *args)


def test_grid_matches_single_calls():
    rng = np.random.default_rng(21)
    a = gaussian_matrix(rng, 5, 4)
    grid = (1.0, 2.0, math.inf)
    for p, report in zip(grid, grid_cross_product(a, grid)):
        single = check_cross_product(a, p)
        assert report.slack == single.slack
        assert report.lhs == single.lhs


def _grid_cases(rng):
    a = psd(rng, 4, "complex")
    e = psd(rng, 4, "complex")
    e *= 0.3 * np.linalg.norm(a, 2) / np.linalg.norm(e, 2)
    g = gaussian_matrix(rng, 4, 6)
    return {
        "sum_subadditivity_proot": (grid_sum_subadditivity_proot, check_sum_subadditivity_proot, (a, e)),
        "rank1_addition": (grid_rank1_addition, check_rank1_addition, (a, rank1_psd_matrix(rng, 4))),
        "product_kappa": (grid_product_kappa, check_product_kappa, (haar_unitary(rng, 4) * 2.0, g)),
        "cross_product": (grid_cross_product, check_cross_product, (g,)),
        "perturbation": (grid_perturbation, check_perturbation, (a, e)),
        "perturbation_zero": (grid_perturbation, check_perturbation, (np.zeros((3, 3)), np.eye(3))),
    }


@pytest.mark.parametrize("case", sorted(_grid_cases(np.random.default_rng(0))))
def test_grid_columns_and_reports_match_single_calls(case):
    # Points that are not applicable sit between applicable ones, so the
    # reports must keep every point in grid order.
    grid_check, single_check, inputs = _grid_cases(np.random.default_rng(3))[case]
    grid = (0.5, 1.0, 1.5, math.inf, 2.0, math.nan, 3.0)
    result = grid_check(*inputs, grid)
    assert len(result) == len(grid)
    singles = [single_check(*inputs, p) for p in grid]
    as_json = [json.dumps(r.to_json_dict()) for r in singles]
    assert [json.dumps(r.to_json_dict()) for r in result] == as_json
    assert [json.dumps(result[k].to_json_dict()) for k in range(-len(grid), 0)] == as_json
    assert [json.dumps(r.to_json_dict()) for r in result[1::2]] == as_json[1::2]
    with pytest.raises(IndexError):
        result[len(grid)]
