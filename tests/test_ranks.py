"""p-stable rank, stable rank, intrinsic dimension, numerical rank."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.matrices import (
    PreconditionError,
    gaussian_matrix,
    haar_unitary,
    prescribed_spectrum_matrix,
    projector_matrix,
    rank1_psd_matrix,
)
from srlab.ranks import (
    intrinsic_dimension,
    numerical_rank,
    p_stable_rank,
    srp_from_sigma,
    stable_rank,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_dims = st.integers(min_value=2, max_value=8)
fields = st.sampled_from(["real", "complex"])

FINITE_P = (1.0, 1.5, 2.0, 3.0, 10.0)


def direct_srp(values, p):
    """Independent oracle: normalized power sum via fsum."""
    top = max(values)
    if top == 0:
        return 0.0
    return math.fsum((float(v) / top) ** p for v in values)


def test_identity_has_full_p_stable_rank():
    for p in FINITE_P:
        assert p_stable_rank(np.eye(6), p) == pytest.approx(6.0, rel=1e-14)


def test_rank_one_matrix_has_rank_one():
    a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    for p in FINITE_P + (math.inf,):
        assert p_stable_rank(a, p) == pytest.approx(1.0, rel=1e-12)


def test_projector_p_stable_rank_equals_rank():
    rng = np.random.default_rng(9)
    a = projector_matrix(rng, 7, 3)
    for p in FINITE_P:
        assert p_stable_rank(a, p) == pytest.approx(3.0, rel=1e-12)


def test_spiked_identity_matches_formula_and_oracle():
    # diag(I_4, 2): 1 + (n-1)/alpha^2 at n=5, alpha=2 gives 2
    a = np.diag([1.0, 1.0, 1.0, 1.0, 2.0])
    expected = 1.0 + 4.0 / 4.0
    assert expected == direct_srp([1.0, 1.0, 1.0, 1.0, 2.0], 2)
    assert p_stable_rank(a, 2) == pytest.approx(expected, rel=1e-14)


def test_stable_rank_of_scaled_unitary():
    rng = np.random.default_rng(3)
    u = 2.5 * haar_unitary(rng, 6)
    assert stable_rank(u) == pytest.approx(6.0, rel=1e-12)


def test_stable_rank_geometric_series():
    n = 10
    sigma = 0.5 ** np.arange(n)
    a = np.diag(sigma)
    expected = (4.0 / 3.0) * (1.0 - 4.0 ** (-n))  # geometric series oracle
    assert expected == pytest.approx(direct_srp(sigma, 2), rel=1e-15)
    assert stable_rank(a) == pytest.approx(expected, rel=1e-13)
    assert stable_rank(a) <= 4.0 / 3.0


def test_zero_matrix_has_zero_rank_surrogates():
    z = np.zeros((3, 4))
    assert stable_rank(z) == 0.0
    for p in FINITE_P + (math.inf, 0.0):
        assert p_stable_rank(z, p) == 0.0
    assert intrinsic_dimension(np.zeros((3, 3))) == 0.0
    assert numerical_rank(z) == 0


def test_srp_from_sigma_inf_and_zero_spectrum():
    values = np.array([2.0, 1.0, 0.5])
    assert srp_from_sigma(values, math.inf) == 1.0
    assert srp_from_sigma(np.zeros(3), math.inf) == 0.0
    assert srp_from_sigma(np.zeros(3), 2.0) == 0.0
    assert srp_from_sigma(np.zeros(0), 2.0) == 0.0
    grid = np.array([math.inf, 2.0, math.inf])
    assert srp_from_sigma(values, grid).tolist() == [1.0, 1.3125, 1.0]
    assert srp_from_sigma(np.zeros(3), grid).tolist() == [0.0, 0.0, 0.0]
    assert srp_from_sigma(np.zeros(0), grid).tolist() == [0.0, 0.0, 0.0]
    assert srp_from_sigma(values, np.array([math.inf])).tolist() == [1.0]


def test_srp_from_sigma_array_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(8)
    grid = (1.0, 1.5, 2.0, 3.0, 10.0, 0.5, math.inf)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        values = np.sort(np.exp(rng.uniform(-20.0, 5.0, n)))[::-1]
        values[int(rng.integers(0, n)) :] *= float(rng.integers(0, 2))
        together = srp_from_sigma(values, np.array(grid)).tolist()
        assert together == [srp_from_sigma(values, p) for p in grid]


def test_quantities_are_plain_numbers_from_the_spectrum_path():
    """Each quantity is a float (numerical_rank an int), bit for bit the value
    of the spectrum path it is defined by, on dense and sparse, real and
    complex input."""
    import scipy.sparse

    from srlab.matrices import psd_eigenvalues, psd_intrinsic_dimension, sigma
    from srlab.ranks import numerical_rank_from_spectrum

    rng = np.random.default_rng(19)
    inputs = []
    for field in ("real", "complex"):
        dense = gaussian_matrix(rng, 5, 7, field)
        wide = gaussian_matrix(rng, 40, 90, field)
        wide[np.abs(wide) < 1.0] = 0.0
        inputs += [dense, scipy.sparse.coo_matrix(dense), scipy.sparse.csr_matrix(wide)]
    for a in inputs:
        s = sigma(a)
        assert type(stable_rank(a)) is float and stable_rank(a) == srp_from_sigma(s, 2.0)
        for p in (0.0, 0.5, 1.0, 3.0, math.inf):
            expected = float(numerical_rank_from_spectrum(s)) if p == 0.0 else srp_from_sigma(s, p)
            assert type(p_stable_rank(a, p)) is float and p_stable_rank(a, p) == expected
        assert p_stable_rank(a, 0.0, rtol=0.5) == float(numerical_rank_from_spectrum(s, 0.5))
        assert type(numerical_rank(a)) is int and numerical_rank(a) == numerical_rank_from_spectrum(s)
    for field in ("real", "complex"):
        x = gaussian_matrix(rng, 6, 6, field)
        for g in (x.conj().T @ x, np.zeros((3, 3))):
            w = psd_eigenvalues(g)
            assert type(intrinsic_dimension(g)) is float
            assert intrinsic_dimension(g) == psd_intrinsic_dimension(g, w)


def test_intdim_accepts_a_sparse_input():
    """A SciPy sparse input is densified, as sigma densifies one: the value
    is that of the dense copy bit for bit, and a nonfinite entry is refused."""
    import scipy.sparse

    rng = np.random.default_rng(21)
    for field in ("real", "complex"):
        x = gaussian_matrix(rng, 4, 6, field)
        x[np.abs(x) < 0.5] = 0.0
        g = x.conj().T @ x
        for sparse in (scipy.sparse.csr_matrix(g), scipy.sparse.coo_array(g)):
            assert intrinsic_dimension(sparse) == intrinsic_dimension(g)
    assert intrinsic_dimension(scipy.sparse.csr_matrix(np.eye(3))) == 3.0
    with pytest.raises(ValueError, match="finite"):
        intrinsic_dimension(scipy.sparse.csr_matrix(np.diag([1.0, np.inf])))
    with pytest.raises(ValueError, match=r"square matrix, got \(2, 3\)"):
        intrinsic_dimension(scipy.sparse.csr_matrix(np.ones((2, 3))))
    with pytest.raises(PreconditionError):
        intrinsic_dimension(scipy.sparse.csr_matrix(np.diag([1.0, -1.0])))


def test_intdim_scaled_identity():
    assert intrinsic_dimension(3.7 * np.eye(5)) == pytest.approx(5.0, rel=1e-14)


def test_intdim_rank_one():
    assert intrinsic_dimension(np.diag([2.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_intdim_spiked_identity():
    # diag(3, I_4): trace / lambda_max = 7/3 = 1 + (n-1)/beta at n=5, beta=3
    a = np.diag([3.0, 1.0, 1.0, 1.0, 1.0])
    assert intrinsic_dimension(a) == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-14)


def test_intdim_rejects_indefinite():
    with pytest.raises(PreconditionError) as err:
        intrinsic_dimension(np.diag([1.0, -1.0]))
    assert "lambda_min" in str(err.value)
    assert err.value.data["lambda_min"] == pytest.approx(-1.0)


def test_intdim_rejects_non_square():
    with pytest.raises(ValueError):
        intrinsic_dimension(np.zeros((2, 3)))


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(7)) == 7
    assert numerical_rank(np.diag([1.0, 1e-14]), rtol=1e-10) == 1
    assert numerical_rank(np.diag([1.0, 0.5, 0.0]), rtol=1e-10) == 2
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rtol=0.0)


def test_p_zero_counts_rank():
    a = np.diag([1.0, 0.5, 0.0])
    assert p_stable_rank(a, 0.0) == 2.0


def test_p_inf_is_one_for_nonzero():
    rng = np.random.default_rng(1)
    a = gaussian_matrix(rng, 4, 6)
    assert p_stable_rank(a, math.inf) == 1.0


@given(seed=seeds, n=small_dims, field=fields)
def test_range_and_monotonicity_in_p(seed, n, field):
    # 1 <= sr_p <= sr_q <= r for q <= p, r the construction rank
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    sigma = np.sort(rng.uniform(0.05, 1.0, r))[::-1]
    a = prescribed_spectrum_matrix(rng, n, n, sigma, field)
    values = [p_stable_rank(a, p) for p in FINITE_P]
    tol = 1e-10 * r
    assert all(v >= 1.0 - tol for v in values)
    assert all(v <= r + tol for v in values)
    for larger_p, smaller_p in zip(values[1:], values[:-1]):
        assert larger_p <= smaller_p + tol


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_unitary_and_scale_invariance(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    u = haar_unitary(rng, m, field)
    v = haar_unitary(rng, n, field)
    for p in (1.0, 2.0, 3.0):
        base = p_stable_rank(a, p)
        rotated = p_stable_rank(u @ a @ v, p)
        scaled = p_stable_rank(-2.5 * a, p)
        assert rotated == pytest.approx(base, rel=1e-10)
        assert scaled == pytest.approx(base, rel=1e-12)


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_cross_product_identities(seed, m, n, field):
    # sr_p(A*A) = sr_{2p}(A) = sr_p(AA*)
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    for p in (1.0, 2.0, 3.0):
        left = p_stable_rank(a.conj().T @ a, p)
        right = p_stable_rank(a @ a.conj().T, p)
        both = p_stable_rank(a, 2 * p)
        assert left == pytest.approx(both, rel=1e-10, abs=1e-10)
        assert right == pytest.approx(both, rel=1e-10, abs=1e-10)


@given(seed=seeds, n=small_dims)
def test_psd_square_root_identity(seed, n):
    # sr_p(A) = sr_{2p}(A^{1/2}) for PSD A
    rng = np.random.default_rng(seed)
    x = gaussian_matrix(rng, n + 2, n)
    a = x.T @ x
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    for p in (1.0, 2.0):
        assert p_stable_rank(root, 2 * p) == pytest.approx(
            p_stable_rank(a, p), rel=1e-10
        )


@given(seed=seeds, n=small_dims)
def test_intdim_consistency_with_stable_rank(seed, n):
    # intdim(A*A) = sr(A), and intdim agrees with sr_1 on PSD input
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, n, n)
    gram = a.T @ a
    assert intrinsic_dimension(gram) == pytest.approx(
        stable_rank(a), rel=1e-10
    )
    assert intrinsic_dimension(gram) == pytest.approx(
        p_stable_rank(gram, 1.0), rel=1e-10
    )


@given(seed=seeds, n=small_dims, field=fields)
def test_rank1_p_stable_rank_bounds(seed, n, field):
    rng = np.random.default_rng(seed)
    a = rank1_psd_matrix(rng, n, field)
    assert 0.0 <= p_stable_rank(a, 2.0) <= n


def test_intdim_agrees_with_the_check_path_on_near_hermitian_grams():
    from srlab.matrices import hermitian_part_eigenvalues, psd_intrinsic_dimension, psd_spectrum

    rng = np.random.default_rng(17)
    for _ in range(200):
        x = gaussian_matrix(rng, 6, 6)
        g = x @ x.T + 1e-13 * rng.standard_normal((6, 6))
        assert intrinsic_dimension(g) == psd_intrinsic_dimension(g)
        np.testing.assert_array_equal(psd_spectrum(g), hermitian_part_eigenvalues(g))
