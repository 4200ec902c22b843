"""Substrate tests: decompositions, classification, sampling."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab import matrices
from srlab.matrices import (
    DecompositionError,
    PreconditionError,
    SampleSpec,
    Spectrum,
    Tolerances,
    as_matrix,
    conj_transpose,
    gaussian_matrix,
    haar_unitary,
    hermitian_eigenvalues,
    is_hermitian,
    is_psd,
    matmul,
    pivoted_cholesky,
    prescribed_spectrum_matrix,
    sample,
    scalar_field,
    singular_values,
    trace,
    two_norm,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_dims = st.integers(min_value=1, max_value=8)
fields = st.sampled_from(["real", "complex"])


def test_as_matrix_validates():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    assert scalar_field(as_matrix([[1j]])) == "complex"


def test_singular_values_diagonal():
    s = singular_values(np.diag([3.0, 4.0]))
    assert np.allclose(s.values, [4.0, 3.0])
    assert s.kind == "singular"
    assert s.source_dims == (2, 2)


def test_singular_values_zero_matrix():
    s = singular_values(np.zeros((2, 3)))
    assert np.array_equal(s.values, [0.0, 0.0])


def test_singular_values_identity_plus_spike():
    # oracle for a diagonal matrix: absolute diagonal entries, sorted
    diag = [1.0, 1.0, 1.0, 1.0, 2.0]
    expected = np.sort(np.abs(diag))[::-1]
    s = singular_values(np.diag(diag))
    assert np.allclose(s.values, expected, rtol=1e-14)
    assert np.array_equal(expected, [2.0, 1.0, 1.0, 1.0, 1.0])


def test_hermitian_eigenvalues_examples():
    s = hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(s.values, [3.0, 2.0, 1.0])
    assert np.allclose(hermitian_eigenvalues(np.eye(4)).values, np.ones(4))


def test_rank1_gram_eigenvalues_trace_oracle():
    # the sole nonzero eigenvalue of v v* is ||v||^2
    v = np.array([1.0, 2.0])
    a = np.outer(v, v)
    assert float(np.trace(a)) == 5.0
    s = hermitian_eigenvalues(a)
    assert np.allclose(s.values, [5.0, 0.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_asymmetric():
    with pytest.raises(PreconditionError) as err:
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert "asymmetry" in str(err.value)
    assert err.value.data["max_asymmetry"] == pytest.approx(1.0)


def test_is_hermitian_basic():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # Boolean input: the asymmetry is taken in floating point.
    assert not is_hermitian(np.array([[True, False], [True, True]]))
    assert is_hermitian(np.array([[True, False], [False, True]]))
    # Unsigned input: 0 - 1 would wrap around to 255.
    assert matrices.hermitian_asymmetry(np.array([[0, 1], [0, 0]], dtype=np.uint8)) == 1.0
    with pytest.raises(ValueError):
        is_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, 0.0)])
def test_is_hermitian_rejects_non_finite_entries(bad):
    # inf - inf is nan, so an exactly symmetric input with an infinite
    # entry is not Hermitian within any tolerance; nor is one with a nan.
    for i, j in [(0, 0), (0, 2), (1, 2)]:
        a = np.eye(3, dtype=np.result_type(type(bad), np.float64))
        a[i, j] = a[j, i] = bad
        assert not is_hermitian(a), (bad, i, j)


@given(seed=seeds, n=small_dims, field=fields)
def test_symmetrization_is_hermitian(seed, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, n, n, field)
    assert is_hermitian(a + a.conj().T)


def test_is_psd_basic():
    assert is_psd(np.eye(4))
    assert not is_psd(np.diag([1.0, -1.0]))


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_gram_matrices_are_psd(seed, m, n, field):
    rng = np.random.default_rng(seed)
    x = gaussian_matrix(rng, m, n, field)
    assert is_psd(x.conj().T @ x)


def test_two_norm_trace_matmul():
    assert two_norm(np.diag([1.0, 7.0])) == pytest.approx(7.0)
    assert trace(np.eye(5)) == 5.0
    assert trace(np.array([[1j]])) == 1j
    a = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(matmul(a, np.eye(3)), a)
    assert np.array_equal(conj_transpose(a), a.T)
    with pytest.raises(ValueError):
        matmul(a, np.eye(2))


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_unitary_invariance_of_singular_values(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    u = haar_unitary(rng, m, field)
    v = haar_unitary(rng, n, field)
    s0 = singular_values(a).values
    s1 = singular_values(u @ a @ v).values
    assert np.allclose(s1, s0, rtol=1e-10, atol=1e-10 * max(1.0, s0[0]))


@given(seed=seeds, n=small_dims, field=fields)
def test_psd_eigenvalues_match_singular_values(seed, n, field):
    rng = np.random.default_rng(seed)
    x = gaussian_matrix(rng, n + 1, n, field)
    a = x.conj().T @ x
    ev = hermitian_eigenvalues(a).values
    sv = singular_values(a).values
    assert np.allclose(ev, sv, rtol=1e-10, atol=1e-10 * max(1.0, sv[0]))


@given(seed=seeds, n=small_dims)
def test_weyl_monotonicity_of_top_eigenvalue(seed, n):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, n, n)
    b = gaussian_matrix(rng, n, n)
    a = a @ a.T
    b = b @ b.T
    la = hermitian_eigenvalues(a).values
    lb = hermitian_eigenvalues(b).values
    lab = hermitian_eigenvalues(a + b).values
    tol = 1e-10 * max(1.0, lab[0])
    assert lab[0] >= la[0] + lb[-1] - tol
    assert la[0] + lb[-1] >= la[0] - tol


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(11)
    for field in ("real", "complex"):
        q = haar_unitary(rng, 6, field)
        assert np.allclose(q.conj().T @ q, np.eye(6), atol=1e-12)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]), "singular", (2, 2))  # increasing
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, -0.5]), "singular", (2, 2))  # negative singular
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0]), "singular", (2, 2))  # wrong length
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.0]), "hermitian_eigen", (2, 3))


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_spectral=0.0)
    with pytest.raises(ValueError):
        Tolerances(psd_negativity=1.5)


# ---------------------------------------------------------------------------
# Sampling


def test_prescribed_spectrum_round_trip():
    spec = SampleSpec(
        kind="prescribed_spectrum", dims=(5, 5), spectrum=(2.0, 1.0, 1.0, 1.0, 1.0), seed=7
    )
    a = sample(spec)
    s = singular_values(a).values
    assert np.allclose(s, [2.0, 1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_rank1_sample_has_rank_one():
    a = sample(SampleSpec(kind="rank1_psd", dims=(6, 6), seed=3))
    s = singular_values(a).values
    assert s[0] > 0
    assert np.all(s[1:] <= 1e-12 * s[0])


def test_projector_trace_equals_rank():
    a = sample(SampleSpec(kind="orthogonal_projector", dims=(7, 7), rank=3, seed=5))
    assert trace(a) == pytest.approx(3.0, abs=1e-10)
    assert is_psd(a)


def test_sample_determinism_bit_identical():
    spec = SampleSpec(kind="gaussian", dims=(4, 6), seed=123, scalar_field="complex")
    a = sample(spec)
    b = sample(spec)
    assert a.tobytes() == b.tobytes()


def test_psd_gram_sample_is_psd():
    a = sample(SampleSpec(kind="psd_gram", dims=(9, 4), seed=2))
    assert a.shape == (4, 4)
    assert is_psd(a)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(kind="nope", dims=(2, 2))
    with pytest.raises(ValueError):
        SampleSpec(kind="prescribed_spectrum", dims=(2, 2), spectrum=(1.0, 2.0))
    with pytest.raises(ValueError):
        SampleSpec(kind="prescribed_spectrum", dims=(2, 2), spectrum=(1.0, 2.0, 3.0)[::-1])
    with pytest.raises(ValueError):
        SampleSpec(kind="orthogonal_projector", dims=(3, 3), rank=4)
    with pytest.raises(ValueError):
        SampleSpec(kind="rank1_psd", dims=(2, 3))
    with pytest.raises(ValueError):
        SampleSpec(kind="gaussian", dims=(0, 3))


@given(seed=seeds)
def test_sampled_spectra_are_sorted_nonnegative(seed):
    rng = np.random.default_rng(seed)
    kind = ["gaussian", "psd_gram", "rank1_psd", "orthogonal_projector"][seed % 4]
    spec = SampleSpec(kind=kind, dims=(5, 5), rank=2, seed=seed)
    s = singular_values(sample(spec)).values
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


# ---------------------------------------------------------------------------
# Pivoted Cholesky


needs_bundled_pstrf = pytest.mark.skipif(
    matrices.pstrf_provider()[0] != "openblas",
    reason="numpy bundles no ILP64 OpenBLAS ?pstrf here",
)


def _force_scipy_pstrf(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(matrices, "pstrf_provider", lambda: ("scipy", matrices._scipy_pstrf))


@pytest.fixture(params=[pytest.param("openblas", marks=needs_bundled_pstrf), "scipy"])
def pstrf(request, monkeypatch):
    """Route :func:`pivoted_cholesky` through one ``?pstrf`` provider."""
    if request.param == "scipy":
        _force_scipy_pstrf(monkeypatch)
    return request.param


def test_pivoted_cholesky_reconstructs(pstrf):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5))
    a = x.T @ x
    L, perm, rank = pivoted_cholesky(a)
    assert rank == 5
    assert np.allclose(a[np.ix_(perm, perm)], L @ L.T, atol=1e-10)


def test_pivoted_cholesky_truncates_low_rank(pstrf):
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    a = q @ q.T
    L, perm, rank = pivoted_cholesky(a)
    assert rank == 2
    assert np.allclose(a[np.ix_(perm, perm)], L @ L.conj().T, atol=1e-10)


def test_pivoted_cholesky_complex(pstrf):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    a = x.conj().T @ x
    L, perm, rank = pivoted_cholesky(a)
    assert rank == 4
    assert np.allclose(a[np.ix_(perm, perm)], L @ L.conj().T, atol=1e-10)


def test_pivoted_cholesky_breaks_down_on_indefinite(pstrf):
    with pytest.raises(DecompositionError):
        pivoted_cholesky(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 2)])
def test_pivoted_cholesky_rejects_non_finite_entries(pstrf, bad, where):
    # Both providers, and either triangle, although ?pstrf reads only the lower.
    for dtype in (np.float64, np.complex128):
        a = np.eye(3, dtype=dtype)
        a[where] = bad
        with pytest.raises(DecompositionError, match="finite entries"):
            pivoted_cholesky(a)


def test_pivoted_cholesky_breaks_down_on_a_late_negative_pivot(pstrf):
    # Every diagonal entry is positive: the first two pivots (1, then 0.5)
    # go through, and the Schur complement left is 1 - 2^2 = -3.
    a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(DecompositionError, match="negative pivot -3"):
        pivoted_cholesky(a)
    with pytest.raises(DecompositionError, match="negative pivot -3"):
        pivoted_cholesky(a.astype(np.complex128))


def _factor_with(provider: str, a: np.ndarray):
    with pytest.MonkeyPatch.context() as mp:
        if provider == "scipy":
            _force_scipy_pstrf(mp)
        return pivoted_cholesky(a)


def _random_psd(rng, n, field):
    rank = int(rng.integers(1, n + 1))
    x = gaussian_matrix(rng, n, rank, field)
    g = x @ x.conj().T / rank
    return (g + g.conj().T) / 2, rank


@needs_bundled_pstrf
def test_pstrf_providers_agree():
    rng = np.random.default_rng(29)
    fields = ("real", "complex")
    cases = [_random_psd(rng, int(rng.integers(1, 21)), fields[i % 2]) for i in range(200)]
    big = gaussian_matrix(rng, 300, 120)
    cases.append((big @ big.T, 120))
    assert sum(rank < len(a) for a, rank in cases) > 100
    for a, rank in cases:
        bound = 1e-12 * np.linalg.norm(a)
        for provider in ("openblas", "scipy"):
            L, perm, r = _factor_with(provider, a)
            assert r == rank, (provider, a.shape)
            assert sorted(perm.tolist()) == list(range(len(a)))
            assert np.linalg.norm(a[np.ix_(perm, perm)] - L @ L.conj().T) <= bound, provider


def _loop_pivoted_cholesky(a, tol=Tolerances()):
    """The Python elimination loop that ``?pstrf`` replaced, as a reference."""
    n = a.shape[0]
    w = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    perm = np.arange(n)
    threshold = tol.psd_negativity * max(float(np.trace(w).real), 0.0) / n
    for i in range(n):
        d = np.real(np.diagonal(w))
        j = i + int(np.argmax(d[i:]))
        pivot = d[j]  # a scalar: d is a view of the diagonal the swaps move
        if pivot <= threshold:
            return perm, i
        w[:, [i, j]] = w[:, [j, i]]
        w[[i, j], :] = w[[j, i], :]
        perm[[i, j]] = perm[[j, i]]
        w[i, i] = np.sqrt(pivot)
        w[i + 1 :, i] /= w[i, i]
        w[i + 1 :, i + 1 :] -= np.outer(w[i + 1 :, i], np.conj(w[i + 1 :, i]))
    return perm, n


def test_pivoted_cholesky_pivots_like_the_elimination_loop(pstrf):
    rng = np.random.default_rng(31)
    for i in range(100):
        a, _ = _random_psd(rng, int(rng.integers(1, 13)), ("real", "complex")[i % 2])
        _, perm, rank = pivoted_cholesky(a)
        loop_perm, loop_rank = _loop_pivoted_cholesky(a)
        assert rank == loop_rank
        assert perm[:rank].tolist() == loop_perm[:rank].tolist()


@needs_bundled_pstrf
def test_run_trial_loads_no_scipy():
    code = (
        "import sys\n"
        "import srlab.fuzz as f\n"
        "cfg = f.FuzzConfig(trials=1, seed=0, parallelism=1)\n"
        "reports = {r.check: r.report for r in f.run_trial(0, 0, cfg)}\n"
        "assert reports['cholesky_intdim'].status == 'pass', reports['cholesky_intdim']\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_trial_scope_memoizes_read_only_results():
    from srlab.matrices import psd_eigenvalues, sigma, sigma_and_psd, trial_scope

    a = gaussian_matrix(np.random.default_rng(5), 4, 4)
    g = a.T @ a
    with trial_scope():
        s1 = sigma(a)
        assert sigma(a.copy()) is s1  # keyed by contents, not identity
        assert not s1.flags.writeable
        w = psd_eigenvalues(g)
        assert psd_eigenvalues(g.copy()) is w
        assert not w.flags.writeable
        sig, psd = sigma_and_psd(g)
        assert psd and not sig.flags.writeable
        assert sigma(a.astype(np.complex128)) is not s1  # dtype is part of the key
    assert sigma(a) is not sigma(a)
    np.testing.assert_array_equal(sigma(a), s1)


def test_trial_scope_keeps_one_copy_of_each_input():
    from srlab import matrices as mat

    a = gaussian_matrix(np.random.default_rng(6), 4, 5)
    g = a @ a.T
    with mat.trial_scope():
        mat.sigma(a)
        for ask in (mat.sigma_and_psd, mat.sigma, mat.is_hermitian, mat.psd_eigenvalues):
            ask(g.copy())
        # The scope keys each distinct input's bytes once, not once per kind.
        assert len(mat._SCOPE.get()) == 2


def test_classifier_family_matches_spectra():
    from srlab.matrices import hermitian_part_eigenvalues, psd_eigenvalues, sigma_and_psd

    rng = np.random.default_rng(8)
    x = gaussian_matrix(rng, 5, 5, "complex")
    g = x.conj().T @ x
    assert psd_eigenvalues(g) is not None
    assert psd_eigenvalues(-g) is None
    assert psd_eigenvalues(x) is None
    assert psd_eigenvalues(np.zeros((2, 3))) is None
    sig, psd = sigma_and_psd(-g)
    assert not psd
    np.testing.assert_allclose(sig, singular_values(g).values, rtol=1e-12)
    np.testing.assert_allclose(
        hermitian_part_eigenvalues(g), hermitian_eigenvalues(g).values, rtol=1e-12
    )


# ---------------------------------------------------------------------------
# Routing of singular values: exactly Hermitian -> eigvalsh, wide -> SVD of a.T


def _hermitian(rng, n, field):
    x = gaussian_matrix(rng, n, n, field)
    return x + x.conj().T  # exactly Hermitian: each pair sums the same two numbers


def _hermitian_psd(rng, n, field, rank=None):
    x = gaussian_matrix(rng, n, n if rank is None else rank, field)
    y = x @ x.conj().T
    return y + y.conj().T


def test_sigma_routes_to_cheapest_exact_call(lapack_calls):
    from srlab.matrices import sigma

    rng = np.random.default_rng(11)
    h = _hermitian(rng, 4, "complex")
    near = h.copy()
    near[0, 1] += 1e-15
    sigma(h)
    sigma(near)
    sigma(gaussian_matrix(rng, 2, 5))
    sigma(gaussian_matrix(rng, 5, 2))
    assert lapack_calls == [
        ("eigvalsh", (4, 4)),
        ("svd", (4, 4)),  # Hermitian within tolerance only: still the SVD
        ("svd", (5, 2)),  # the wide input, transposed
        ("svd", (5, 2)),
    ]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sigma_is_bit_identical_under_transpose(field):
    from srlab.matrices import sigma

    rng = np.random.default_rng(12)
    for m in range(1, 21):
        for n in range(1, 21):
            if m != n:
                a = gaussian_matrix(rng, m, n, field)
                np.testing.assert_array_equal(sigma(a), sigma(a.T))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sigma_of_exact_hermitian_matches_sigma_and_psd(field):
    from srlab.matrices import sigma, sigma_and_psd

    rng = np.random.default_rng(13)
    for n in range(1, 16):
        h = _hermitian(rng, n, field)
        g = _hermitian_psd(rng, n, field)
        for x in (h, g, -g):  # indefinite, PSD and NSD
            np.testing.assert_array_equal(sigma(x), sigma_and_psd(x)[0])


def test_sigma_shares_the_eigendecomposition_in_scope(lapack_calls):
    from srlab.matrices import hermitian_part_eigenvalues, sigma, trial_scope

    h = _hermitian(np.random.default_rng(14), 6, "complex")
    with trial_scope():
        s = sigma(h)
        w = hermitian_part_eigenvalues(h)
    assert lapack_calls == [("eigvalsh", (6, 6))]
    np.testing.assert_array_equal(s, np.sort(np.abs(w))[::-1])


def _assert_sigma_accurate(a):
    from srlab.matrices import sigma

    expected = np.linalg.svd(a, compute_uv=False)
    got = sigma(a)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * expected[0]), (a.shape, got, expected)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sigma_accuracy_against_plain_svd(field):
    rng = np.random.default_rng(15)
    for size in range(1, 41):
        other = int(rng.integers(1, 41))
        _assert_sigma_accurate(gaussian_matrix(rng, size, other, field))
        _assert_sigma_accurate(gaussian_matrix(rng, other, size, field))
        _assert_sigma_accurate(_hermitian(rng, size, field))
        _assert_sigma_accurate(_hermitian_psd(rng, size, field))
        _assert_sigma_accurate(_hermitian_psd(rng, size, field, rank=max(1, size // 3)))
    for n in (1, 2, 7, 40):
        _assert_sigma_accurate(gaussian_matrix(rng, 1, n, field))
        _assert_sigma_accurate(gaussian_matrix(rng, n, 1, field))


def test_sigma_accuracy_on_zero_matrices():
    from srlab.matrices import sigma

    for shape in [(1, 1), (3, 3), (2, 5), (5, 2)]:
        np.testing.assert_array_equal(sigma(np.zeros(shape)), np.zeros(min(shape)))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("scale", [1.0, 1.5e308])
def test_sigma_accuracy_on_rank_deficient_projectors(field, scale):
    from srlab.matrices import projector_matrix
    from srlab.ranks import numerical_rank, stable_rank

    rng = np.random.default_rng(16)
    for n, r in [(6, 3), (12, 1), (20, 13)]:
        p = projector_matrix(rng, n, r, field) * scale
        _assert_sigma_accurate(p)
        assert numerical_rank(p) == r
        assert stable_rank(p).value == pytest.approx(r, rel=1e-12)


def test_hermitian_part_does_not_overflow_near_the_float_maximum():
    from srlab.matrices import hermitian_part_eigenvalues

    a = np.array([[0.0, 1.7e308], [1.6e308, 0.0]])
    np.testing.assert_allclose(hermitian_part_eigenvalues(a), [1.65e308, -1.65e308], rtol=1e-15)


# ---------------------------------------------------------------------------
# The certified Gram-eigenvalue route for large rectangular inputs


def _svd_route(a):
    """What ``sigma`` computes on the SVD route: the fallback of the Gram route."""
    m, n = a.shape
    return np.maximum(np.linalg.svd(a.T if m < n else a, compute_uv=False), 0.0)


def _within_contract(got, exact, rounding=1e-12):
    """Each value within SIGMA_RTOL of ``exact``, plus ``exact``'s own rounding."""
    from srlab.matrices import SIGMA_RTOL

    return bool(np.all(np.abs(got - exact) <= SIGMA_RTOL * exact + rounding * exact[0]))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(32, 64), (64, 32), (40, 200), (150, 50)])
def test_sigma_takes_the_gram_route_above_the_crossover(lapack_calls, shape, field):
    from srlab.matrices import sigma

    a = gaussian_matrix(np.random.default_rng(21), *shape, field)
    s = sigma(a)
    k = min(shape)
    assert lapack_calls == [("eigvalsh", (k, k))]
    assert not s.flags.writeable
    assert s.shape == (k,) and np.all(np.diff(s) <= 0)
    assert _within_contract(s, _svd_route(a))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gram_route_meets_the_contract(lapack_calls, field):
    from srlab.matrices import sigma

    rng = np.random.default_rng(22)
    for _ in range(8):
        k = int(rng.integers(32, 81))
        big = int(rng.integers(2 * k, 5 * k + 1))
        shape = (k, big) if rng.integers(2) else (big, k)
        exact = np.geomspace(1.0, float(rng.uniform(0.05, 1.0)), k)
        scale = 10.0 ** rng.uniform(-5, 5)
        cases = [
            (gaussian_matrix(rng, *shape, field), None),
            (prescribed_spectrum_matrix(rng, *shape, exact, field) * scale, exact * scale),
        ]
        for a, expected in cases:
            lapack_calls.clear()
            s = sigma(a)
            assert lapack_calls == [("eigvalsh", (k, k))], shape
            assert _within_contract(s, _svd_route(a) if expected is None else expected), shape


@pytest.mark.parametrize("shape", [(40, 100), (40, 101), (101, 40)])
def test_gram_route_reads_other_dtypes_as_their_float64_cast(lapack_calls, shape):
    from srlab.matrices import sigma

    rng = np.random.default_rng(26)
    gauss = gaussian_matrix(rng, *shape, "complex")
    inputs = [
        rng.integers(0, 2, shape),  # a 0/1 adjacency matrix
        rng.integers(-1000, 1001, shape),
        rng.integers(0, 7, shape).astype(np.uint8),
        rng.integers(0, 2, shape).astype(bool),
        gauss.real.astype(np.float32),
        gauss.astype(np.complex64),
    ]
    for a in inputs:
        before = a.copy()
        cast = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
        lapack_calls.clear()
        s = sigma(a)
        assert lapack_calls == [("eigvalsh", (40, 40))], a.dtype
        np.testing.assert_array_equal(s, sigma(cast))
        assert s.dtype == np.float64 and np.all(np.isfinite(s))
        assert _within_contract(s, _svd_route(cast)), a.dtype
        np.testing.assert_array_equal(a, before)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gram_route_falls_back_to_the_svd_bit_for_bit(lapack_calls, field):
    from srlab.matrices import sigma

    rng = np.random.default_rng(23)
    k, big = 40, 120
    rank_deficient = gaussian_matrix(rng, k, k // 2, field) @ gaussian_matrix(rng, k // 2, big, field)
    ill_conditioned = prescribed_spectrum_matrix(rng, k, big, np.geomspace(1.0, 1e-6, k), field)
    for a in (rank_deficient, ill_conditioned, rank_deficient.T, ill_conditioned.T):
        lapack_calls.clear()
        s = sigma(a)
        assert lapack_calls == [("eigvalsh", (k, k)), ("svd", (big, k))]
        np.testing.assert_array_equal(s, _svd_route(a))
        assert not s.flags.writeable


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gram_route_is_exactly_scale_equivariant(lapack_calls, field):
    from srlab.matrices import sigma

    a = gaussian_matrix(np.random.default_rng(24), 40, 100, field)
    base = sigma(a)
    for j in (-1000, -500, 500, 1000):
        s = sigma(a * 2.0**j)
        assert np.all(np.isfinite(s))
        np.testing.assert_array_equal(s, base * 2.0**j)
    for c in (1e-200, 1e200):  # the unscaled Gram would underflow or overflow
        np.testing.assert_allclose(sigma(a * c), base * c, rtol=1e-14)
    assert [name for name, _ in lapack_calls] == ["eigvalsh"] * 7


def test_gram_route_on_the_zero_matrix(lapack_calls):
    from srlab.matrices import sigma
    from srlab.ranks import numerical_rank, stable_rank

    for shape in [(40, 100), (100, 40)]:
        lapack_calls.clear()
        z = np.zeros(shape)
        s = sigma(z)
        np.testing.assert_array_equal(s, np.zeros(40))
        assert not s.flags.writeable
        assert lapack_calls == [("eigvalsh", (40, 40)), ("svd", (100, 40))]
        assert numerical_rank(z) == 0 and stable_rank(z).value == 0.0


def test_shapes_below_the_crossover_keep_the_svd(lapack_calls):
    from srlab.matrices import sigma

    rng = np.random.default_rng(25)
    # Just below GRAM_MIN_SIDE = 32 and GRAM_MIN_ASPECT = 2, then square and thin.
    shapes = [(31, 200), (200, 31), (40, 79), (79, 40), (60, 60), (5, 500)]
    for shape in shapes:
        sigma(gaussian_matrix(rng, *shape))
    assert lapack_calls == [("svd", (max(s), min(s))) for s in shapes]
