"""Substrate tests: decompositions, classification, sampling."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab import matrices
from srlab.matrices import (
    PSD_NEGATIVITY_RTOL,
    DecompositionError,
    PreconditionError,
    as_matrix,
    gaussian_matrix,
    haar_unitary,
    hermitian_eigenvalues,
    is_hermitian,
    is_psd,
    pivoted_cholesky,
    prescribed_spectrum_matrix,
    projector_matrix,
    psd_gram_matrix,
    rank1_psd_matrix,
    sigma,
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
    assert as_matrix([[1j]]).dtype == np.complex128


def test_singular_values_diagonal():
    s = sigma(np.diag([3.0, 4.0]))
    assert np.allclose(s, [4.0, 3.0])
    assert s.shape == (2,) and not s.flags.writeable


def test_singular_values_zero_matrix():
    s = sigma(np.zeros((2, 3)))
    assert np.array_equal(s, [0.0, 0.0])


def test_singular_values_identity_plus_spike():
    # oracle for a diagonal matrix: absolute diagonal entries, sorted
    diag = [1.0, 1.0, 1.0, 1.0, 2.0]
    expected = np.sort(np.abs(diag))[::-1]
    s = sigma(np.diag(diag))
    assert np.allclose(s, expected, rtol=1e-14)
    assert np.array_equal(expected, [2.0, 1.0, 1.0, 1.0, 1.0])


def test_hermitian_eigenvalues_examples():
    s = hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])
    assert s.shape == (3,) and not s.flags.writeable
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))


def test_rank1_gram_eigenvalues_trace_oracle():
    # the sole nonzero eigenvalue of v v* is ||v||^2
    v = np.array([1.0, 2.0])
    a = np.outer(v, v)
    assert float(np.trace(a)) == 5.0
    s = hermitian_eigenvalues(a)
    assert np.allclose(s, [5.0, 0.0], atol=1e-12)


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


def test_every_exported_name_resolves_once():
    import srlab

    assert len(set(srlab.__all__)) == len(srlab.__all__)
    for name in srlab.__all__:
        getattr(srlab, name)


@given(seed=seeds, m=small_dims, n=small_dims, field=fields)
def test_unitary_invariance_of_singular_values(seed, m, n, field):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, m, n, field)
    u = haar_unitary(rng, m, field)
    v = haar_unitary(rng, n, field)
    s0 = sigma(a)
    s1 = sigma(u @ a @ v)
    assert np.allclose(s1, s0, rtol=1e-10, atol=1e-10 * max(1.0, s0[0]))


@given(seed=seeds, n=small_dims, field=fields)
def test_psd_eigenvalues_match_singular_values(seed, n, field):
    rng = np.random.default_rng(seed)
    x = gaussian_matrix(rng, n + 1, n, field)
    a = x.conj().T @ x
    ev = hermitian_eigenvalues(a)
    sv = sigma(a)
    assert np.allclose(ev, sv, rtol=1e-10, atol=1e-10 * max(1.0, sv[0]))


@given(seed=seeds, n=small_dims)
def test_weyl_monotonicity_of_top_eigenvalue(seed, n):
    rng = np.random.default_rng(seed)
    a = gaussian_matrix(rng, n, n)
    b = gaussian_matrix(rng, n, n)
    a = a @ a.T
    b = b @ b.T
    la = hermitian_eigenvalues(a)
    lb = hermitian_eigenvalues(b)
    lab = hermitian_eigenvalues(a + b)
    tol = 1e-10 * max(1.0, lab[0])
    assert lab[0] >= la[0] + lb[-1] - tol
    assert la[0] + lb[-1] >= la[0] - tol


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(11)
    for field in ("real", "complex"):
        q = haar_unitary(rng, 6, field)
        assert np.allclose(q.conj().T @ q, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# Sampling


def test_prescribed_spectrum_round_trip():
    rng = np.random.default_rng(7)
    a = prescribed_spectrum_matrix(rng, 5, 5, (2.0, 1.0, 1.0, 1.0, 1.0))
    s = sigma(a)
    assert np.allclose(s, [2.0, 1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_rank1_sample_has_rank_one():
    a = rank1_psd_matrix(np.random.default_rng(3), 6)
    s = sigma(a)
    assert s[0] > 0
    assert np.all(s[1:] <= 1e-12 * s[0])


def test_projector_trace_equals_rank():
    a = projector_matrix(np.random.default_rng(5), 7, 3)
    assert np.trace(a).real == pytest.approx(3.0, abs=1e-10)
    assert is_psd(a)


def test_sample_determinism_bit_identical():
    a = gaussian_matrix(np.random.default_rng(123), 4, 6, "complex")
    b = gaussian_matrix(np.random.default_rng(123), 4, 6, "complex")
    assert a.tobytes() == b.tobytes()


def test_psd_gram_sample_is_psd():
    a = psd_gram_matrix(np.random.default_rng(2), 9, 4)
    assert a.shape == (4, 4)
    assert is_psd(a)


@given(seed=seeds)
def test_sampled_spectra_are_sorted_nonnegative(seed):
    build, args = [
        (gaussian_matrix, (5, 5)),
        (psd_gram_matrix, (5, 5)),
        (rank1_psd_matrix, (5,)),
        (projector_matrix, (5, 2)),
    ][seed % 4]
    a = build(np.random.default_rng(seed), *args)
    s = sigma(a)
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


def _loop_pivoted_cholesky(a):
    """The Python elimination loop that ``?pstrf`` replaced, as a reference."""
    n = a.shape[0]
    w = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    perm = np.arange(n)
    threshold = PSD_NEGATIVITY_RTOL * max(float(np.trace(w).real), 0.0) / n
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


def test_sigma_crossover_script_starts():
    # The script imports the private _certified_gram_sigma; --help fails if that import breaks.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "sigma_crossover.py"), "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert out.returncode == 0, out.stderr


def test_trial_scope_memoizes_read_only_results():
    from srlab.matrices import psd_eigenvalues, sigma, trial_scope

    a = gaussian_matrix(np.random.default_rng(5), 4, 4)
    g = a.T @ a
    with trial_scope():
        s1 = sigma(a)
        assert sigma(a.copy()) is s1  # keyed by contents, not identity
        assert not s1.flags.writeable
        w = psd_eigenvalues(g)
        assert psd_eigenvalues(g.copy()) is w
        assert not w.flags.writeable
        assert not sigma(g).flags.writeable
        assert sigma(a.astype(np.complex128)) is not s1  # dtype is part of the key
    assert sigma(a) is not sigma(a)
    np.testing.assert_array_equal(sigma(a), s1)


def test_trial_scope_keeps_one_copy_of_each_input():
    from srlab import fuzz
    from srlab import matrices as mat

    a = gaussian_matrix(np.random.default_rng(6), 4, 5)
    g = a @ a.T
    with mat.trial_scope():
        mat.sigma(a)
        for ask in (mat.sigma, mat.is_hermitian, mat.psd_eigenvalues):
            ask(g.copy())
        # The scope keys each distinct input's bytes once, not once per kind.
        assert len(mat._SCOPE.get()) == 2
    cfg = fuzz.FuzzConfig(trials=1, seed=6)
    with mat.trial_scope():
        fuzz._run_checks(fuzz.trial_inputs(cfg.seed, 0, cfg), cfg)
        # A PSD answer is read from the class and the eigenvalues, never cached apart.
        kinds = {kind for results in mat._SCOPE.get().values() for kind in results}
    assert kinds <= {"hermitian", "eigvalsh", "sigma"}, kinds


def test_classifier_family_matches_spectra():
    from srlab.matrices import hermitian_part_eigenvalues, psd_eigenvalues

    rng = np.random.default_rng(8)
    x = gaussian_matrix(rng, 5, 5, "complex")
    g = x.conj().T @ x
    assert psd_eigenvalues(g) is not None
    assert psd_eigenvalues(-g) is None
    assert psd_eigenvalues(x) is None
    assert psd_eigenvalues(np.zeros((2, 3))) is None
    np.testing.assert_allclose(sigma(-g), sigma(g), rtol=1e-12)
    np.testing.assert_allclose(
        hermitian_part_eigenvalues(g), hermitian_eigenvalues(g), rtol=1e-12
    )


def _near_threshold(threshold: str, factor: float, scale: float) -> np.ndarray:
    """A 4 x 4 input at ``factor`` times the Hermitian or the PSD threshold.

    "hermitian": a positive diagonal of largest entry ``scale`` with one
    off-diagonal entry ``factor * 1e-12 * scale``, its asymmetry. "psd": an
    exactly symmetric matrix with eigenvalues ``scale`` down to
    ``-factor * 1e-10 * scale``.
    """
    if threshold == "hermitian":
        a = np.diag([1.0, 0.75, 0.5, 0.25]) * scale
        a[0, 1] = factor * 1e-12 * scale
        return a
    q = haar_unitary(np.random.default_rng(17), 4)
    a = (q * (scale * np.array([1.0, 0.5, 0.25, -factor * 1e-10]))) @ q.T
    return (a + a.T) / 2


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**-40, 4.0, 1e6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("threshold", ["hermitian", "psd"])
def test_classification_thresholds_are_fixed(threshold, factor, scale):
    """Hermitian within 1e-12 * max|A|, PSD down to lambda_min = -1e-10 * lambda_max,
    at any scale: no threshold has an absolute floor."""
    from contextlib import nullcontext

    from srlab.checks import check_weyl
    from srlab.gallery import congruence_maximizer
    from srlab.matrices import psd_eigenvalues, trial_scope
    from srlab.ranks import intrinsic_dimension

    a = _near_threshold(threshold, factor, scale)
    hermitian = threshold == "psd" or factor < 1.0
    psd = factor < 1.0
    for scope in (nullcontext, trial_scope):
        with scope():
            assert is_hermitian(a) is hermitian
            assert is_psd(a) is psd
            assert (psd_eigenvalues(a) is not None) is psd
            if hermitian:
                hermitian_eigenvalues(a)
            else:
                with pytest.raises(PreconditionError) as raised:
                    hermitian_eigenvalues(a)
                assert "max_asymmetry" in raised.value.data
            if psd:
                intrinsic_dimension(a)
            else:
                with pytest.raises(PreconditionError) as raised:
                    intrinsic_dimension(a)
                assert ("lambda_min" if hermitian else "max_asymmetry") in raised.value.data
            assert check_weyl(a, np.eye(4)).preconditions_met is psd
            # The gallery's congruences take the classifier's verdict.
            if psd:
                congruence_maximizer(a)
            else:
                with pytest.raises(PreconditionError):
                    congruence_maximizer(a)


def test_every_psd_verdict_agrees_at_the_threshold():
    """Every route that needs a PSD input gives the classifier's verdict, on
    inputs whose lambda_min lies within 2e-5 relative of -1e-10 * lambda_max,
    where two eigensolvers can round to opposite sides of the threshold."""
    from srlab.checks import check_weyl
    from srlab.gallery import congruence_maximizer
    from srlab.matrices import psd_eigenvalues
    from srlab.ranks import intrinsic_dimension

    def accepts(f, a):
        try:
            f(a)
        except PreconditionError:
            return False
        return True

    rng = np.random.default_rng(35)
    verdicts = []
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        q = haar_unitary(rng, n, str(rng.choice(["real", "complex"])))
        k = int(rng.integers(-20, 21))
        lam = np.concatenate(
            ([1.0], np.sort(rng.uniform(0.1, 1.0, n - 2))[::-1], [-1e-10 * (1 + k * 1e-6)])
        )
        m = (q * lam) @ q.conj().T
        a = (m + m.conj().T) / 2
        psd = is_psd(a)
        verdicts.append(psd)
        assert (psd_eigenvalues(a) is not None) is psd
        assert accepts(intrinsic_dimension, a) is psd
        assert check_weyl(a, np.eye(n)).preconditions_met is psd
        assert accepts(congruence_maximizer, a) is psd
    # The inputs straddle the threshold.
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("scale", [1e-13, 1e-200, 2.0**-600, 1.0, 1e200])
def test_a_non_hermitian_input_is_rejected_at_every_scale(scale):
    from srlab.ranks import intrinsic_dimension

    g = np.random.default_rng(0).standard_normal((5, 5)) * scale
    assert not is_hermitian(g)
    assert not is_psd(g)
    with pytest.raises(PreconditionError) as raised:
        intrinsic_dimension(g)
    assert "max_asymmetry" in raised.value.data


# A power of two scales a tie exactly, so it stays a tie below scale 1.
def test_hermitian_threshold_includes_an_exact_tie():
    for scale in (1.0, 2.0**-40):
        a = np.array([[1.0, 1e-12], [0.0, 1.0]]) * scale
        assert matrices.hermitian_asymmetry(a) == matrices._asymmetry_bound(a) == 1e-12 * scale
        assert is_hermitian(a)


def test_psd_threshold_includes_an_exact_tie():
    for scale in (1.0, 2.0**-40):
        a = np.diag([1.0, -PSD_NEGATIVITY_RTOL]) * scale
        assert matrices.hermitian_part_eigenvalues(a)[-1] == -PSD_NEGATIVITY_RTOL * scale
        assert is_psd(a)


def test_gram_unscaled_window_edges():
    """The window is [2^-200, 2^200): its lower edge is inside, its upper one outside."""
    edge = 2.0**matrices.GRAM_UNSCALED_EXP
    assert matrices._gram_exponent(np.array([1 / edge])) == 0
    assert matrices._gram_exponent(np.array([edge])) == matrices.GRAM_UNSCALED_EXP + 1


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
def test_sigma_of_exact_hermitian_matches_sigma_from_eigenvalues(field):
    from srlab.matrices import hermitian_part_eigenvalues, sigma, sigma_from_eigenvalues

    rng = np.random.default_rng(13)
    for n in range(1, 16):
        h = _hermitian(rng, n, field)
        g = _hermitian_psd(rng, n, field)
        for x in (h, g, -g):  # indefinite, PSD and NSD
            np.testing.assert_array_equal(
                sigma(x), sigma_from_eigenvalues(hermitian_part_eigenvalues(x))
            )


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


def test_sigma_raises_decomposition_error_when_the_svd_fails():
    with pytest.raises(DecompositionError, match="SVD did not converge"):
        sigma(np.array([[1.0, np.nan], [2.0, 3.0], [4.0, 5.0]]))


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
        assert stable_rank(p) == pytest.approx(r, rel=1e-12)


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


def _cast(a):
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


# Gram route, Gram route on the transpose, a square input (the SVD, or
# eigvalsh once symmetrized) and a wide one below GRAM_MIN_SIDE (the SVD on a.T).
@pytest.mark.parametrize("shape", [(40, 100), (40, 101), (101, 40), (6, 6), (5, 20)])
def test_gram_route_reads_other_dtypes_as_their_float64_cast(lapack_calls, shape):
    """Every route computes an input of another dtype as its float64 or
    complex128 cast, bit for bit, and leaves the input as it was."""
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
        gauss.real.astype(np.float16),
    ]
    if shape[0] == shape[1]:
        inputs += [a + a.conj().T for a in inputs]  # exactly Hermitian
    for a in inputs:
        before = a.copy()
        lapack_calls.clear()
        s = sigma(a)
        route = list(lapack_calls)
        lapack_calls.clear()
        np.testing.assert_array_equal(s, sigma(_cast(a)))
        assert route == lapack_calls, a.dtype
        if min(shape) >= matrices.GRAM_MIN_SIDE:
            assert route == [("eigvalsh", (40, 40))], a.dtype
        assert s.dtype == np.float64 and np.all(np.isfinite(s))
        assert _within_contract(s, _svd_route(_cast(a))), a.dtype
        np.testing.assert_array_equal(a, before)
    if shape[0] == shape[1]:
        _assert_psd_functions_read_the_cast(rng, shape[0])


def _assert_psd_functions_read_the_cast(rng, n):
    from srlab.matrices import hermitian_part_eigenvalues, psd_eigenvalues
    from srlab.ranks import intrinsic_dimension

    x = rng.integers(0, 3, (n, n))
    gram = x @ x.T  # entries at most 4n, exact in uint8 and float16
    z = x + 1j * rng.integers(-2, 3, (n, n))
    inputs = [
        gram,
        gram.astype(np.uint8),
        np.ones((n, n), dtype=bool),
        gram.astype(np.float16),
        gram.astype(np.float32),
        (z @ z.conj().T).astype(np.complex64),
    ]
    for a in inputs:
        before = a.copy()
        cast = _cast(a)
        for f in (hermitian_part_eigenvalues, psd_eigenvalues):
            w = f(a)
            np.testing.assert_array_equal(w, f(cast))
            assert w.dtype == np.float64, (f.__name__, a.dtype)
        for got, want in zip(pivoted_cholesky(a), pivoted_cholesky(cast)):
            np.testing.assert_array_equal(got, want)
            assert np.asarray(got).dtype in (np.int64, cast.dtype), a.dtype
        assert intrinsic_dimension(a) == intrinsic_dimension(cast), a.dtype
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
    # max |a| lies in [2, 4), so the Gram is formed unscaled up to j = 198 and down
    # to j = -201 (GRAM_UNSCALED_EXP = 200), and from a scaled copy beyond.
    exponents = (-1000, -500, -300, -201, -200, -199, -150, 150, 199, 200, 201, 300, 500, 1000)
    for j in exponents:
        s = sigma(a * 2.0**j)
        assert np.all(np.isfinite(s))
        np.testing.assert_array_equal(s, base * 2.0**j)
    for c in (1e-200, 1e200):  # the unscaled Gram would underflow or overflow
        np.testing.assert_allclose(sigma(a * c), base * c, rtol=1e-14)
    assert [name for name, _ in lapack_calls] == ["eigvalsh"] * (1 + len(exponents) + 2)


def test_large_inputs_are_decomposed_without_full_size_copies(lapack_calls):
    """The Gram route reads a wide float64 or complex128 input as it is, and
    an exactly symmetric input is its own symmetric part: no call allocates
    a quarter of its input's bytes."""
    import tracemalloc

    from srlab.matrices import hermitian_part_eigenvalues, psd_gram_matrix, sigma
    from srlab.ranks import intrinsic_dimension

    rng = np.random.default_rng(31)
    psd = psd_gram_matrix(rng, 600, 500)
    assert matrices._exactly_hermitian(psd)
    cases = [
        (sigma, gaussian_matrix(rng, m, 2000, field), m)
        for m in (200, 400)
        for field in ("real", "complex")
    ]
    cases += [(f, psd, 500) for f in (sigma, hermitian_part_eigenvalues, intrinsic_dimension)]
    for f, a, k in cases:
        f(a)  # the first call may allocate once for a whole process
        lapack_calls.clear()
        tracemalloc.start()
        try:
            f(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4, (f.__name__, a.shape, a.dtype, peak)
        assert lapack_calls == [("eigvalsh", (k, k))]


def test_exactly_hermitian_input_is_its_own_hermitian_part():
    from srlab.matrices import hermitian_part_eigenvalues

    rng = np.random.default_rng(32)
    for field in ("real", "complex"):
        for n in rng.integers(1, 65, size=20):
            x = gaussian_matrix(rng, n, n, field)
            a = x + x.conj().T  # exactly Hermitian
            # Reference: the Hermitian part formed as the halved sum, with no shortcut.
            reference = np.linalg.eigvalsh(a / 2 + a.conj().T / 2)[::-1]
            assert hermitian_part_eigenvalues(a).tobytes() == reference.tobytes(), (field, n)


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
        assert numerical_rank(z) == 0 and stable_rank(z) == 0.0


def test_shapes_below_the_crossover_keep_the_svd(lapack_calls):
    from srlab.matrices import sigma

    rng = np.random.default_rng(25)
    # Just below GRAM_MIN_SIDE = 32 and GRAM_MIN_ASPECT = 2, then square and thin.
    shapes = [(31, 200), (200, 31), (40, 79), (79, 40), (60, 60), (5, 500)]
    for shape in shapes:
        sigma(gaussian_matrix(rng, *shape))
    assert lapack_calls == [("svd", (max(s), min(s))) for s in shapes]


def test_exactly_hermitian_test_runs_once_and_builds_no_copy(monkeypatch, lapack_calls):
    """A complex exactly Hermitian input is compared a few rows at a time,
    once per call, and decomposed with no full-size temporary."""
    import tracemalloc

    from srlab.gallery import congruence_maximizer
    from srlab.matrices import (
        hermitian_part_eigenvalues,
        psd_eigenvalues,
        psd_gram_matrix,
        sigma,
    )
    from srlab.ranks import intrinsic_dimension

    g = psd_gram_matrix(np.random.default_rng(33), 600, 500, "complex")
    assert g.nbytes == 4_000_000
    calls = []
    exactly_hermitian = matrices._exactly_hermitian
    monkeypatch.setattr(
        matrices, "_exactly_hermitian", lambda a: calls.append(a.shape) or exactly_hermitian(a)
    )
    functions = (sigma, hermitian_part_eigenvalues, psd_eigenvalues, hermitian_eigenvalues,
                 intrinsic_dimension, is_psd)
    for f in functions:
        calls.clear()
        f(g)
        assert calls == [(500, 500)], f.__name__
    for f in (sigma, hermitian_part_eigenvalues):
        lapack_calls.clear()
        tracemalloc.start()
        try:
            f(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (f.__name__, peak)
        assert lapack_calls == [("eigvalsh", (500, 500))]
    # Outside a scope, the PSD precondition and the value share one eigvalsh,
    # and a congruence takes the classifier's eigvalsh, then one eigh.
    for f, routines in ((intrinsic_dimension, ["eigvalsh"]),
                        (congruence_maximizer, ["eigvalsh", "eigh"])):
        lapack_calls.clear()
        f(g)
        assert lapack_calls == [(r, (500, 500)) for r in routines], f.__name__


# ---------------------------------------------------------------------------
# SciPy sparse input: the Gram route with a sparse Gram product


def _sparse(rng, shape, nnz, field="real"):
    import scipy.sparse

    m, n = shape
    flat = rng.choice(m * n, size=nnz, replace=False)
    data = gaussian_matrix(rng, 1, nnz, field)[0]
    return scipy.sparse.coo_matrix((data, (flat // n, flat % n)), shape=shape)


def _with_duplicate(a, i, value):
    """``a`` with one more entry ``value`` at the coordinate of its entry ``i``."""
    import scipy.sparse

    coords = (np.append(a.row, a.row[i]), np.append(a.col, a.col[i]))
    return scipy.sparse.coo_matrix((np.append(a.data, value), coords), shape=a.shape)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sparse_gram_route_agrees_with_the_dense_one(lapack_calls, field):
    from srlab.matrices import SIGMA_RTOL, sigma
    from srlab.ranks import numerical_rank

    wide = _sparse(np.random.default_rng(40), (64, 4096), 16_000, field)
    for a in (wide, wide.T):
        dense = a.toarray()
        lapack_calls.clear()
        s = sigma(a)
        assert lapack_calls == [("eigvalsh", (64, 64))]
        assert not s.flags.writeable and s.shape == (64,) and np.all(np.diff(s) <= 0)
        assert _within_contract(s, _svd_route(dense))
        d = sigma(dense)
        assert np.all(np.abs(s - d) <= 2 * SIGMA_RTOL * d)
        assert numerical_rank(a) == 64


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sparse_gram_route_is_exactly_scale_equivariant(lapack_calls, field):
    from srlab.matrices import sigma

    a = _sparse(np.random.default_rng(41), (40, 1000), 4000, field).tocsr()
    base = sigma(a)
    for j in (-300, -150, 150, 300):
        np.testing.assert_array_equal(sigma(a * 2.0**j), base * 2.0**j)
    assert lapack_calls == [("eigvalsh", (40, 40))] * 5


def test_sparse_input_off_the_gram_route_is_densified_bit_for_bit():
    """A sparse input that does not take the sparse Gram route gets the bits
    of its densified form, as the MatrixMarket reader densifies it."""
    import scipy.sparse

    from srlab.matrices import sigma

    rng = np.random.default_rng(42)
    x = _sparse(rng, (50, 50), 600)
    symmetric = scipy.sparse.coo_matrix(x + x.T)
    dup = _with_duplicate(_sparse(rng, (20, 60), 300), 0, 0.5)
    cases = [
        x,  # square
        symmetric,  # square, exactly symmetric: the eigenvalue route
        _sparse(rng, (31, 400), 2000),  # k < 32
        _sparse(rng, (40, 79), 800, "complex"),  # aspect < 2
        dup,  # a duplicate entry, summed
        scipy.sparse.coo_matrix((40, 100)),  # all zero: the certificate fails
        _sparse(rng, (40, 100), 0),
        scipy.sparse.coo_matrix(np.ones((64, 2)) @ np.ones((2, 256))),  # rank 2: it fails too
    ]
    for a in cases:
        np.testing.assert_array_equal(sigma(a), sigma(a.toarray()))
    assert np.count_nonzero(dup.toarray()) == dup.nnz - 1
    with pytest.raises(ValueError, match=r"sigma requires a 2-D matrix, got \(5,\)"):
        sigma(scipy.sparse.coo_array(np.ones(5)))


def test_sparse_input_to_a_dense_only_function_names_the_need():
    import scipy.sparse

    a = scipy.sparse.csr_array(np.eye(3))
    for f in (is_hermitian, is_psd, hermitian_eigenvalues, pivoted_cholesky):
        with pytest.raises(ValueError, match=rf"{f.__name__} requires a dense matrix, got \(3, 3\)"):
            f(a)


def test_failed_sparse_certificate_goes_straight_to_the_svd(lapack_calls):
    """A sparse input whose Gram certificate fails runs one eigvalsh and
    then the SVD of its densified wide side, with no second Gram."""
    import scipy.sparse

    from srlab.matrices import sigma

    rng = np.random.default_rng(46)
    d = gaussian_matrix(rng, 64, 20) @ gaussian_matrix(rng, 20, 256)
    s = sigma(scipy.sparse.coo_matrix(d))
    assert lapack_calls == [("eigvalsh", (64, 64)), ("svd", (256, 64))]
    np.testing.assert_array_equal(s, np.linalg.svd(d.T, compute_uv=False))


def test_sparse_gram_route_sums_duplicate_entries():
    import scipy.sparse

    from srlab.matrices import sigma

    dup = _with_duplicate(_sparse(np.random.default_rng(43), (40, 200), 2000), 3, 0.25)
    summed = scipy.sparse.coo_matrix(dup.toarray())
    np.testing.assert_array_equal(sigma(dup), sigma(summed))
    assert _within_contract(sigma(dup), _svd_route(dup.toarray()))


def test_sparse_gram_route_on_a_large_input(lapack_calls):
    """500 x 50,000 with 100k nonzeros: one eigvalsh, no SVD, and a memory
    peak far below the 200 MB of the dense input."""
    import tracemalloc

    from srlab.matrices import sigma

    a = _sparse(np.random.default_rng(44), (500, 50_000), 100_000)
    tracemalloc.start()
    try:
        s = sigma(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak
    assert lapack_calls == [("eigvalsh", (500, 500))]
    assert s.shape == (500,) and s[-1] > 0


def test_sparse_input_reaches_every_singular_value_quantity():
    from srlab.ranks import numerical_rank, p_stable_rank, stable_rank
    from srlab.schatten import schatten_norm

    a = _sparse(np.random.default_rng(45), (48, 300), 3000)
    d = a.toarray()
    exact = _svd_route(d)
    assert numerical_rank(a) == 48
    assert stable_rank(a) == pytest.approx(np.sum(exact**2) / exact[0] ** 2, rel=1e-7)
    srp = np.sum((exact / exact[0]) ** 1.5)
    assert p_stable_rank(a, 1.5) == pytest.approx(srp, rel=1e-7)
    for p in (3.0, np.inf):
        assert schatten_norm(a, p) == pytest.approx(schatten_norm(d, p), rel=1e-7)
    assert sigma(a)[0] == pytest.approx(exact[0], rel=1e-8)
