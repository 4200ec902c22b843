"""Schatten norm values, monotonicity, and the norm inequality suite."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.matrices import gaussian_matrix, haar_unitary
from srlab.schatten import QuasiNormWarning, schatten_norm, schatten_norm_from_spectrum

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_dims = st.integers(min_value=1, max_value=8)
fields = st.sampled_from(["real", "complex"])

P_GRID = (1.0, 1.5, 2.0, 3.0, 10.0, math.inf)


def direct_norm(values, p):
    """Independent oracle: unnormalized power sum via fsum."""
    if math.isinf(p):
        return max(values)
    return math.fsum(float(v) ** p for v in values) ** (1.0 / p)


def test_frobenius_of_diag_3_4():
    assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, rel=1e-14)


def test_nuclear_norm_sums_singular_values():
    assert schatten_norm(np.diag([1.0, 2.0, 3.0]), 1) == pytest.approx(6.0, rel=1e-14)


def test_operator_norm_is_top_singular_value():
    assert schatten_norm(np.diag([1.0, 2.0, 3.0]), math.inf) == pytest.approx(3.0, rel=1e-14)
    # Two values tie with the top one: the power sum at inf is 2, the norm the top value.
    assert schatten_norm_from_spectrum(np.array([3.0, 3.0, 1.0]), math.inf) == 3.0


def test_from_spectrum_flat():
    assert schatten_norm_from_spectrum(np.ones(4), 3) == pytest.approx(
        4.0 ** (1.0 / 3.0), rel=1e-14
    )


def test_from_spectrum_rank_one():
    for p in P_GRID:
        assert schatten_norm_from_spectrum(np.array([7.0, 0.0, 0.0]), p) == pytest.approx(
            7.0, rel=1e-14
        )


def test_from_spectrum_matches_direct_power_sum():
    values = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    # oracle: sqrt(4 + 4) = sqrt(8)
    assert direct_norm(values, 2) == pytest.approx(math.sqrt(8.0), rel=1e-15)
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        assert schatten_norm_from_spectrum(values, p) == pytest.approx(
            direct_norm(values, p), rel=1e-13
        )


def test_zero_matrix_norm_is_zero():
    for p in P_GRID:
        assert schatten_norm(np.zeros((3, 2)), p) == 0.0
        assert schatten_norm_from_spectrum(np.zeros(3), p) == 0.0
        assert schatten_norm_from_spectrum(np.zeros(0), p) == 0.0


def test_overflow_safe_evaluation():
    value = schatten_norm_from_spectrum(np.array([1e200, 1e-200]), 10)
    assert math.isfinite(value)
    assert value == pytest.approx(1e200, rel=1e-12)


def test_quasi_norm_warns():
    with pytest.warns(QuasiNormWarning):
        schatten_norm(np.eye(2), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuasiNormWarning)
        for p in (1.0, 2.0, math.inf):
            schatten_norm(np.eye(2), p)


def test_quasi_norm_warning_names_the_callers_line():
    for norm, a in ((schatten_norm, np.eye(2)), (schatten_norm_from_spectrum, np.ones(2))):
        with pytest.warns(QuasiNormWarning) as record:
            norm(a, 0.5)
        assert [w.filename for w in record] == [__file__], norm.__name__


def test_p_zero_rejected_with_pointer():
    with pytest.raises(ValueError, match="numerical_rank"):
        schatten_norm(np.eye(2), 0)


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), -1)
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), float("nan"))


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_monotone_nonincreasing_in_p(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    norms = [schatten_norm(a, p) for p in P_GRID]
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi * (1 + 1e-12)


def test_operator_le_frobenius_le_nuclear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = gaussian_matrix(rng, 6, 5)
        n_inf = schatten_norm(a, math.inf)
        n_2 = schatten_norm(a, 2)
        n_1 = schatten_norm(a, 1)
        assert n_inf <= n_2 * (1 + 1e-12) and n_2 <= n_1 * (1 + 1e-12)


@given(seed=seeds, n=small_dims, field=fields)
def test_rank_bound(seed, n, field):
    # ||A||_p <= r^(1/p) ||A||_2 with r the construction rank
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    sigma = np.sort(rng.uniform(0.1, 2.0, r))[::-1]
    from srlab.matrices import prescribed_spectrum_matrix

    a = prescribed_spectrum_matrix(rng, n, n, sigma, field)
    two = schatten_norm(a, math.inf)
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        assert schatten_norm(a, p) <= r ** (1.0 / p) * two * (1 + 1e-12)


@given(seed=seeds, field=fields)
def test_submultiplicative(seed, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, 5, 4, field)
    b = gaussian_matrix(rng, 4, 6, field)
    for p in (1.0, 2.0, 3.0, math.inf):
        assert schatten_norm(a @ b, p) <= schatten_norm(a, p) * schatten_norm(b, p) * (
            1 + 1e-10
        )


@given(seed=seeds, field=fields)
def test_strong_submultiplicative(seed, field):
    # ||CAB||_p <= sigma_1(C) sigma_1(B) ||A||_p
    rng = np.random.default_rng(seed)
    c = gaussian_matrix(rng, 6, 5, field)
    a = gaussian_matrix(rng, 5, 4, field)
    b = gaussian_matrix(rng, 4, 3, field)
    sc = schatten_norm(c, math.inf)
    sb = schatten_norm(b, math.inf)
    for p in (1.0, 1.5, 2.0, 3.0, 10.0, math.inf):
        assert schatten_norm(c @ a @ b, p) <= sc * sb * schatten_norm(a, p) * (1 + 1e-10)


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_unitary_invariance(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    q1 = haar_unitary(rng, m, field)
    q2 = haar_unitary(rng, n, field)
    for p in P_GRID:
        na = schatten_norm(a, p)
        nr = schatten_norm(q1 @ a @ q2.conj().T, p)
        assert nr == pytest.approx(na, rel=1e-10, abs=1e-12)


def test_array_exponents_bit_equal_to_inline_power_sum():
    from srlab.fuzz import DEFAULT_P_GRID
    from srlab.schatten import normalized_power_sum

    exponents = np.array(DEFAULT_P_GRID + (0.5,))
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        v = np.sort(np.exp(rng.uniform(-12.0, 0.0, n)))[::-1] * np.exp(rng.uniform(-30, 30))
        sums = normalized_power_sum(v, exponents)
        assert sums.shape == exponents.shape
        for p, got in zip(exponents, sums):
            assert got == np.sum((v / v[0]) ** p)


def test_array_exponents_zero_spectrum():
    from srlab.schatten import normalized_power_sum

    assert normalized_power_sum(np.zeros(4), np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


def test_saturating_power_keeps_the_bits_of_a_finite_power():
    from srlab.schatten import _saturating_power

    rng = np.random.default_rng(5)
    for x, y in zip(rng.uniform(0.0, 1e3, 500).tolist(), rng.uniform(0.0, 100.0, 500).tolist()):
        assert _saturating_power(x, y) == x**y
    for alpha in (1e154, -1e154, 3.7e-160):
        assert _saturating_power(alpha, 2) == alpha**2
    assert _saturating_power(1e200, 2) == _saturating_power(-1e200, 2) == math.inf
    assert _saturating_power(10.0, 400.0) == math.inf


def test_small_p_norm_is_inf_only_where_it_overflows():
    g = np.random.default_rng(0).standard_normal((20, 20))
    with pytest.warns(QuasiNormWarning):
        assert schatten_norm(g, 0.001) == math.inf
    # The root 20^250 overflows, but times 1e-30 the norm is about 1.8e295.
    with pytest.warns(QuasiNormWarning):
        norm = schatten_norm_from_spectrum(np.full(20, 1e-30), 0.004)
    assert norm == pytest.approx(math.exp(math.log(1e-30) + math.log(20.0) / 0.004), rel=1e-11)
    with pytest.warns(QuasiNormWarning):
        assert schatten_norm_from_spectrum(np.full(20, 1e-6), 0.004) == math.inf
