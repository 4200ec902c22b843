"""Dense matrix substrate: validated arrays, spectral decompositions,
Hermitian/PSD classification, pivoted Cholesky, and seeded random sampling.

A "matrix" throughout the package is a plain 2-D numpy array of float64 or
complex128 entries, validated and frozen by :func:`as_matrix`. Every function
here is pure and all returned arrays are read-only, so values can be shared
freely across threads. Sampling is a deterministic function of the seed.

Singular values come from the cheapest LAPACK route for the input. An
exactly Hermitian input (``a == a*`` entrywise, not within a tolerance)
takes the absolute values of its eigenvalues, sorted descending, from the
same ``eigvalsh`` that :func:`hermitian_part_eigenvalues` runs. A
rectangular input whose smaller side k is at least :data:`GRAM_MIN_SIDE`
and whose larger side is at least :data:`GRAM_MIN_ASPECT` times k takes the
square roots of the eigenvalues of its k x k Gram matrix, scaled by an
exact power of two, when an a posteriori bound certifies every value to a
relative error of at most :data:`SIGMA_RTOL` (1e-8). The bound's Gram
rounding term is proven; its eigensolver term assumes LAPACK's backward
error is at most ``k^2 u ||G||_2``. With that, ``||A||_2``
and the Schatten norms are within 1e-8, ``sr_p`` within about 2p * 1e-8 and
``sr_p^(1/p)`` within about 2e-8, and the numerical rank is exact unless
some ``s_j / s_1`` lies within that error of ``rtol``; the README derives
these bounds. When the bound fails, the input falls back to the SVD. Any
other wide input (fewer rows than columns) runs the SVD on its transpose,
which has the same singular values. Every other input runs the SVD as it
comes.

Inside a :func:`trial_scope` the classification and decomposition family
(:func:`is_hermitian`, :func:`hermitian_part_eigenvalues`, :func:`sigma`,
:func:`singular_values`, :func:`psd_eigenvalues`, :func:`sigma_and_psd`)
remembers each result by the input's kind, shape, dtype and bytes, so a
matrix that several checks share is decomposed once, and the singular
values of an exactly Hermitian matrix share its eigendecomposition.
Outside a scope nothing is cached.

:func:`pivoted_cholesky` is one call of LAPACK's ``?pstrf``. Where numpy
bundles an ILP64 OpenBLAS that exports the LAPACKE routine, it is called
through :mod:`ctypes` and SciPy is not imported; elsewhere it comes from
:mod:`scipy.linalg.lapack`. :func:`pstrf_provider` says which.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Matrix = np.ndarray

SCALAR_FIELDS = ("real", "complex")
SAMPLE_KINDS = (
    "gaussian",
    "psd_gram",
    "prescribed_spectrum",
    "rank1_psd",
    "orthogonal_projector",
)
SPECTRUM_KINDS = ("singular", "hermitian_eigen")


class DecompositionError(RuntimeError):
    """An eigenvalue or singular value routine failed to converge."""


class PreconditionError(ValueError):
    """An operation was invoked on input that violates its contract.

    The offending quantities (for example ``lambda_min`` or
    ``max_asymmetry``) are attached in :attr:`data`.
    """

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds for spectral comparisons and PSD classification."""

    rel_spectral: float = 1e-10
    hermitian_asym: float = 1e-12
    psd_negativity: float = 1e-10

    def __post_init__(self):
        for name in ("rel_spectral", "hermitian_asym", "psd_negativity"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()

# The Gram-eigenvalue route for singular values (see _certified_gram_sigma)
# certifies each value to this relative error, and serves inputs whose
# smaller side is at least GRAM_MIN_SIDE and whose larger side is at least
# GRAM_MIN_ASPECT times the smaller one: the crossover of a timing sweep
# against the SVD (README, "Singular values").
SIGMA_RTOL = 1e-8
GRAM_MIN_SIDE = 32
GRAM_MIN_ASPECT = 2


def as_matrix(entries) -> Matrix:
    """Validate array-like input as a dense matrix and freeze it.

    Returns a C-contiguous 2-D array of float64 or complex128 with positive
    dimensions and all entries finite. The result is marked read-only. It is
    always a copy, so the caller's array and its flags are left as they are.
    """
    return _freeze_fresh(np.array(entries, order="C"))


def _freeze_fresh(a: np.ndarray) -> Matrix:
    """:func:`as_matrix` for an array nothing else holds: frozen in place.

    Copies only where ``a`` is not C-contiguous or not float64/complex128.
    """
    a = np.asarray(a, order="C")
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    target = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(target, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must all be finite")
    a.setflags(write=False)
    return a


def scalar_field(a: Matrix) -> str:
    return "complex" if np.iscomplexobj(a) else "real"


@dataclass(frozen=True)
class Spectrum:
    """A descending sequence of singular values or Hermitian eigenvalues.

    ``kind`` is "singular" (values nonnegative, length min of the source
    dims) or "hermitian_eigen" (real values, length equal to the square
    source dimension).
    """

    values: np.ndarray
    kind: str
    source_dims: tuple[int, int]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("spectrum values must be a 1-D sequence")
        if self.kind not in SPECTRUM_KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        m, n = self.source_dims
        expected = min(m, n) if self.kind == "singular" else m
        if self.kind == "hermitian_eigen" and m != n:
            raise ValueError("hermitian_eigen spectra require square source dims")
        if len(v) != expected:
            raise ValueError(
                f"spectrum length {len(v)} does not match source dims {self.source_dims}"
            )
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum values must be sorted non-increasing")
        if self.kind == "singular" and len(v) and v[-1] < 0:
            raise ValueError("singular values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "source_dims", (int(m), int(n)))


def _require_2d(a, op: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{op} requires a 2-D matrix, got shape {a.shape}")
    return a


def _require_square(a, op: str) -> np.ndarray:
    a = _require_2d(a, op)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{op} requires a square matrix, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# Classification and decomposition, shared within a trial scope

_SCOPE: ContextVar[dict | None] = ContextVar("srlab_trial_scope", default=None)
_MISSING = object()


@contextmanager
def trial_scope():
    """Share classification and decomposition results within the block.

    Results are keyed by the input's ``(shape, dtype, bytes)`` and then by
    kind, so the scope holds one copy of each distinct input however many
    kinds it is asked for. They are dropped when the block exits, also when
    it raises. The cache lives in a context variable, so each thread or
    task sees only its own scope.
    """
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _memo(kind, a: np.ndarray, compute):
    cache = _SCOPE.get()
    if cache is None:
        return compute(a)
    results = cache.setdefault((a.shape, a.dtype, a.tobytes()), {})
    value = results.get(kind, _MISSING)
    if value is _MISSING:
        value = results[kind] = compute(a)
    return value


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _hermitize(a: np.ndarray) -> np.ndarray:
    # Halve before adding, so entries near the float64 maximum do not overflow.
    return a / 2 + a.conj().T / 2


def singular_values(a: Matrix) -> Spectrum:
    """Descending singular values via LAPACK, clamped at zero.

    An exactly Hermitian input (``a == a*`` entrywise) takes them as the
    sorted absolute eigenvalues from ``eigvalsh``. A rectangular input of
    at least :data:`GRAM_MIN_SIDE` by :data:`GRAM_MIN_ASPECT` times that
    takes them from the eigenvalues of its small Gram matrix when each is
    certified to a relative error of :data:`SIGMA_RTOL`, and otherwise from
    the SVD. Any other wide input runs the SVD on ``a.T``, and any other
    input the SVD on ``a``. The eigenvalue and SVD routes are accurate to
    rounding relative to sigma_1. Raises :class:`DecompositionError` if the
    iteration fails to converge.
    """
    a = _require_2d(a, "singular_values")
    return Spectrum(sigma(a), "singular", a.shape)


def sigma(a: Matrix) -> np.ndarray:
    """:func:`singular_values` as a bare read-only array."""
    a = _require_2d(a, "sigma")
    return _memo("sigma", a, _sigma)


def _sigma(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m == n and _exactly_hermitian(a):
        return _sigma_from_eigenvalues(hermitian_part_eigenvalues(a))
    k = min(m, n)
    if (
        k >= GRAM_MIN_SIDE
        and max(m, n) >= GRAM_MIN_ASPECT * k
        and np.can_cast(a.dtype, np.complex128)
    ):
        s = _certified_gram_sigma(a)
        if s is not None:
            return s
    try:
        s = np.linalg.svd(a.T if m < n else a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    return _frozen(np.maximum(s, 0.0))


def _certified_gram_sigma(a: np.ndarray) -> np.ndarray | None:
    """Singular values from the eigenvalues of the small Gram matrix, or None.

    The input, in float64 or complex128 whatever its dtype, is scaled by an
    exact power of two, ``B = 2^-e A`` with ``2^(e-1) <= max |Re b|, |Im b|
    < 2^e``, so ``sigma(2^j A)`` is ``2^j sigma(A)`` bit for bit and the
    Gram ``G = B B*`` (on the smaller side) neither overflows nor
    underflows. The computed eigenvalues are exact for ``G + E``, and
    ``delta`` bounds ``||E||_2`` as the sum of two terms. The first is
    proven: the computed
    Gram differs from ``G`` by at most ``gamma_N ||B||_F^2`` in norm
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.5), and by ``sqrt(2) gamma_2N ||B||_F^2`` for complex entries,
    whose real and imaginary parts are real inner products of length 2N.
    The second is assumed: LAPACK documents the symmetric eigensolver's
    backward error only as ``p(k) u ||G||_2`` with an unspecified, modestly
    growing ``p(k)``; this takes ``p(k) = k^2``, the order of the Householder
    tridiagonal reduction's normwise bound (Higham, section 19.3). The
    computed eigenvalues are exact for a matrix of 2-norm ``max |lam|``, so
    that term is at most ``k^2 u max |lam| / (1 - k^2 u)``. By Weyl's
    inequality each computed eigenvalue is then within ``delta`` of
    ``sigma_i(B)^2``, so ``sqrt`` of it is within ``delta / (lam - delta)``
    of ``sigma_i(B)``, relatively. Returns None unless that bound, plus the
    rounding of the square root, is at most :data:`SIGMA_RTOL` for every
    value; the caller then runs the SVD. Scaled entries below 2^-1022 round,
    by at most 2^-1075 each, which is far inside ``delta >= N u / 4``.
    """
    m, n = a.shape
    k, big = min(m, n), max(m, n)
    # Wide, in float64 or complex128 (the same bytes for a and a.T), and a
    # fresh copy that the scaling below may overwrite.
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    b = np.array(a.T if m > n else a, dtype=dtype, order="C")
    parts = b.view(np.float64)  # real and imaginary parts side by side
    _, e = math.frexp(max(float(parts.max()), -float(parts.min())))
    np.ldexp(parts, -e, out=parts)
    gram = b @ b.conj().T
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:
        return None
    u = np.finfo(np.float64).eps / 2
    complex_entries = np.iscomplexobj(b)
    inner = 2 * big if complex_entries else big
    gamma = inner * u / (1 - inner * u) * (math.sqrt(2) if complex_entries else 1.0)
    # trace(G) has relative error at most gamma + k u: its terms are nonnegative.
    fro2 = float(np.trace(gram).real) / (1 - gamma - k * u)
    solver = k * k * u
    lam_min, lam_norm = float(lam[0]), max(float(lam[-1]), -float(lam[0]))
    delta = gamma * fro2 + solver * lam_norm / (1 - solver)
    if not (lam_min > delta and delta <= (SIGMA_RTOL - 2 * u) * (lam_min - delta)):
        return None
    return _frozen(np.ldexp(np.sqrt(lam[::-1]), e))


def _exactly_hermitian(a: np.ndarray) -> bool:
    """``a == a*`` entrywise for square ``a``; one corner pair rejects most inputs."""
    if a.item(-1, 0) != a.item(0, -1).conjugate():
        return False
    return bool((a == a.conj().T).all())


def _sigma_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix from its eigenvalues."""
    return _frozen(np.sort(np.abs(w))[::-1])


def hermitian_asymmetry(a: Matrix) -> float:
    """max |A - A*| over all entries; bool and unsigned input are taken as float64."""
    a = _require_square(a, "hermitian_asymmetry")
    if a.dtype.kind in "bu":  # bool cannot subtract, and unsigned wraps around
        a = a.astype(np.float64)
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermitian(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """max |A - A*| within ``tol.hermitian_asym * max(1, max |A|)``.

    False for any input with a nan or infinite entry.
    """
    a = _require_square(a, "is_hermitian")
    kind = ("hermitian", tol.hermitian_asym)
    return _memo(kind, a, lambda a: _is_hermitian(a, tol))


def _is_hermitian(a: np.ndarray, tol: Tolerances) -> bool:
    if _exactly_hermitian(a):
        # The asymmetry is 0, or nan where inf - inf meets an infinite entry.
        return bool(np.isfinite(a).all())
    return hermitian_asymmetry(a) <= _asymmetry_bound(a, tol)


def _asymmetry_bound(a: np.ndarray, tol: Tolerances) -> float:
    return tol.hermitian_asym * max(1.0, float(np.max(np.abs(a))))


def hermitian_part_eigenvalues(a: Matrix) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part (A + A*) / 2, read-only.

    Raises :class:`DecompositionError` if the iteration fails to converge.
    """
    a = _require_square(a, "hermitian_part_eigenvalues")
    return _memo("eigvalsh", a, _hermitian_part_eigenvalues)


def _hermitian_part_eigenvalues(a: np.ndarray) -> np.ndarray:
    try:
        w = np.linalg.eigvalsh(_hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition did not converge: {exc}") from exc
    return _frozen(w[::-1].copy())


def _psd_within(w: np.ndarray, tol: Tolerances) -> bool:
    """Descending eigenvalues ``w`` clear the relative negativity floor."""
    return bool(w[-1] >= -tol.psd_negativity * max(1.0, float(w[0])))


def psd_eigenvalues(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Descending eigenvalues if ``a`` is square Hermitian PSD within tol, else None."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    kind = ("psd", tol.hermitian_asym, tol.psd_negativity)
    return _memo(kind, a, lambda a: _psd_eigenvalues(a, tol))


def _psd_eigenvalues(a: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    if not is_hermitian(a, tol):
        return None
    w = hermitian_part_eigenvalues(a)
    return w if _psd_within(w, tol) else None


def sigma_and_psd(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """(descending singular values, PSD flag) from one decomposition.

    Hermitian inputs go through the eigenvalue route (singular values are
    the absolute eigenvalues), all others through the SVD.
    """
    a = _require_2d(a, "sigma_and_psd")
    kind = ("sigma_psd", tol.hermitian_asym, tol.psd_negativity)
    return _memo(kind, a, lambda a: _sigma_and_psd(a, tol))


def _sigma_and_psd(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, bool]:
    if a.shape[0] == a.shape[1] and is_hermitian(a, tol):
        w = hermitian_part_eigenvalues(a)
        return _sigma_from_eigenvalues(w), _psd_within(w, tol)
    return sigma(a), False


def psd_intrinsic_dimension(a: Matrix, w: np.ndarray | None = None) -> float:
    """trace / lambda_max for input the caller has already established PSD.

    ``w``, the descending eigenvalues of ``a`` where the caller holds them,
    saves a second decomposition outside a trial scope. Returns 0.0 when the
    largest eigenvalue is not positive.
    """
    lam_max = float((hermitian_part_eigenvalues(a) if w is None else w)[0])
    if lam_max <= 0.0:
        return 0.0
    return float(np.trace(a).real) / lam_max


def hermitian_eigenvalues(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Descending real eigenvalues of a Hermitian matrix.

    The values are those of :func:`hermitian_part_eigenvalues`, so they
    agree with every check that classifies through :func:`is_hermitian`.
    Raises :class:`PreconditionError` (carrying ``max_asymmetry``) if the
    input is not Hermitian within ``tol.hermitian_asym``.
    """
    a = _require_square(a, "hermitian_eigenvalues")
    if not is_hermitian(a, tol):
        asym = hermitian_asymmetry(a)
        bound = _asymmetry_bound(a, tol)
        raise PreconditionError(
            f"matrix is not Hermitian: max asymmetry {asym:.6e} exceeds {bound:.6e}",
            max_asymmetry=asym,
        )
    return Spectrum(hermitian_part_eigenvalues(a), "hermitian_eigen", a.shape)


def is_psd(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Hermitian with smallest eigenvalue above the relative negativity floor."""
    a = _require_square(a, "is_psd")
    return psd_eigenvalues(a, tol) is not None


def two_norm(a: Matrix) -> float:
    """Largest singular value."""
    return float(singular_values(a).values[0])


def trace(a: Matrix):
    a = _require_square(a, "trace")
    t = np.trace(a)
    return complex(t) if np.iscomplexobj(a) else float(t)


def conj_transpose(a: Matrix) -> Matrix:
    return np.conj(np.asarray(a)).T


def matmul(a: Matrix, b: Matrix) -> Matrix:
    a = _require_2d(a, "matmul")
    b = _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    return a @ b


def pivoted_cholesky(
    a: Matrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, int]:
    """Diagonally pivoted Cholesky factorization of a PSD matrix, by LAPACK ``?pstrf``.

    Returns ``(L, perm, rank)`` with ``a[perm][:, perm] ~= L @ L*`` and ``L``
    of shape ``(n, rank)``, lower trapezoidal with a positive diagonal. Only
    the lower triangle of ``a`` is read. Each step pivots on the largest
    remaining diagonal entry of the Schur complement; the factorization
    stops once that entry is at most ``psd_negativity * trace(a) / n``.
    Raises :class:`DecompositionError` if the largest diagonal entry of the
    Schur complement left after ``rank`` steps is below
    ``-psd_negativity * max(1, trace(a))`` (indefinite input), if ``a`` has
    a nan or infinite entry, or if LAPACK reports an error.
    :func:`pstrf_provider` says which LAPACK runs.
    """
    a = _require_square(a, "pivoted_cholesky")
    n = a.shape[0]
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    w = np.array(a, dtype=dtype, order="F")
    # Checked here, not left to LAPACK: OpenBLAS's LAPACKE rejects a nan in
    # the lower triangle, while SciPy's ?pstrf factors it without complaint.
    if not np.isfinite(w).all():
        raise DecompositionError("pivoted Cholesky needs finite entries")
    total = max(float(w.trace().real), 0.0)
    _, pstrf = pstrf_provider()
    w, piv, rank, info = pstrf(w, tol.psd_negativity * total / n)
    if info < 0:
        raise DecompositionError(f"LAPACK ?pstrf rejected argument {-info}")
    perm = piv - 1
    w[_above_diagonal(n)] = 0
    L = w[:, :rank]
    if rank < n:
        rest = L[rank:]
        norms = np.add.reduce((rest * rest.conj()).real, axis=1)
        schur = a.diagonal().real[perm[rank:]] - norms
        pivot = float(schur.max())
        if pivot < -tol.psd_negativity * max(1.0, total):
            raise DecompositionError(f"pivoted Cholesky breakdown: negative pivot {pivot:.6e}")
    return L, perm, rank


@functools.lru_cache(maxsize=32)
def _above_diagonal(n: int) -> np.ndarray:
    """Read-only mask of the entries above the diagonal of an n x n array.

    Cached because ``np.tril`` builds this mask on every call, which on the
    small inputs of a fuzz trial costs about as much as the LAPACK call.
    """
    return _frozen(np.triu(np.ones((n, n), dtype=bool), 1))


# LAPACKE's matrix_layout value for column-major (Fortran) storage.
_LAPACK_COL_MAJOR = 102


@functools.cache
def pstrf_provider() -> tuple[str, Callable]:
    """``(name, routine)`` of the LAPACK ``?pstrf`` that :func:`pivoted_cholesky` calls.

    "openblas" is the ILP64 LAPACKE routine exported by the OpenBLAS that
    numpy bundles, called through :mod:`ctypes` with no SciPy import;
    "scipy" is :mod:`scipy.linalg.lapack`, taken where numpy bundles no
    such library. ``routine(w, tol)`` factors the lower triangle of the
    Fortran-ordered float64 or complex128 square ``w``, which it may
    overwrite, and returns ``(factor, piv, rank, info)`` with 1-based int64
    pivots, as LAPACK does.
    """
    routines = _bundled_pstrf()
    if routines is None:
        return "scipy", _scipy_pstrf

    def openblas_pstrf(w: np.ndarray, tol: float):
        routine = routines.get(w.dtype)
        n = w.shape[0]
        if routine is None or w.shape != (n, n) or not (w.flags.f_contiguous and w.flags.writeable):
            raise ValueError(
                "?pstrf needs a writeable Fortran-ordered square float64 or complex128 array"
            )
        piv = np.empty(n, dtype=np.int64)
        rank = ctypes.c_int64()
        info = routine(
            _LAPACK_COL_MAJOR, b"L", n, w.ctypes.data, n, piv.ctypes.data, ctypes.byref(rank), tol
        )
        return w, piv, rank.value, info

    return "openblas", openblas_pstrf


def _bundled_pstrf() -> dict | None:
    """LAPACKE ``dpstrf`` and ``zpstrf`` from numpy's bundled ILP64 OpenBLAS, by dtype.

    None where numpy bundles no such library (a numpy built against a
    system BLAS, say). Opening the library numpy has already loaded maps
    nothing new.
    """
    package = Path(np.__file__).parent
    libraries = [
        *sorted(package.parent.glob("numpy.libs/libscipy_openblas64_*")),
        *sorted(package.glob(".dylibs/libscipy_openblas64_*")),
    ]
    for path in libraries:
        try:
            lib = ctypes.CDLL(str(path))
            routines = [getattr(lib, f"scipy_LAPACKE_{t}pstrf64_") for t in "dz"]
        except (OSError, AttributeError):
            continue
        for routine in routines:
            # lapack_int LAPACKE_?pstrf(int layout, char uplo, lapack_int n, T *a,
            #     lapack_int lda, lapack_int *piv, lapack_int *rank, double tol)
            routine.argtypes = [
                ctypes.c_int,
                ctypes.c_char,
                ctypes.c_int64,
                ctypes.c_void_p,
                ctypes.c_int64,
                ctypes.c_void_p,
                ctypes.POINTER(ctypes.c_int64),
                ctypes.c_double,
            ]
            routine.restype = ctypes.c_int64
        return dict(zip((np.dtype(np.float64), np.dtype(np.complex128)), routines))
    return None


def _scipy_pstrf(w: np.ndarray, tol: float):
    from scipy.linalg import lapack

    routine = lapack.zpstrf if w.dtype == np.complex128 else lapack.dpstrf
    c, piv, rank, info = routine(w, tol=tol, lower=1, overwrite_a=1)
    return c, piv.astype(np.int64), rank, info


# ---------------------------------------------------------------------------
# Seeded sampling


@dataclass(frozen=True)
class SampleSpec:
    """Recipe for one deterministic random matrix draw."""

    kind: str
    dims: tuple[int, int]
    spectrum: tuple[float, ...] | None = None
    rank: int | None = None
    seed: int = 0
    scalar_field: str = "real"

    def __post_init__(self):
        if self.kind not in SAMPLE_KINDS:
            raise ValueError(f"unknown sample kind {self.kind!r}")
        if self.scalar_field not in SCALAR_FIELDS:
            raise ValueError(f"unknown scalar field {self.scalar_field!r}")
        m, n = self.dims
        if m < 1 or n < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.spectrum is not None:
            object.__setattr__(self, "spectrum", tuple(float(s) for s in self.spectrum))
        if self.kind == "prescribed_spectrum":
            s = self.spectrum
            if s is None or len(s) == 0:
                raise ValueError("prescribed_spectrum requires a nonempty spectrum")
            if len(s) > min(m, n):
                raise ValueError("spectrum longer than min(dims)")
            if any(x < 0 for x in s) or any(s[i] < s[i + 1] for i in range(len(s) - 1)):
                raise ValueError("spectrum must be nonnegative and sorted descending")
        if self.kind in ("rank1_psd", "orthogonal_projector") and m != n:
            raise ValueError(f"{self.kind} requires square dims, got {self.dims}")
        if self.kind == "orthogonal_projector":
            if self.rank is None or not 1 <= self.rank <= n:
                raise ValueError("orthogonal_projector requires 1 <= rank <= n")


def gaussian_matrix(rng: np.random.Generator, m: int, n: int, field: str = "real") -> np.ndarray:
    if field == "complex":
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return rng.standard_normal((m, n))


def haar_unitary(rng: np.random.Generator, n: int, field: str = "real") -> np.ndarray:
    """Haar-distributed orthogonal/unitary matrix via QR with a sign-fixed R."""
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n, field))
    d = np.diagonal(r)
    absd = np.abs(d)
    phase = np.where(absd == 0, 1.0, d / np.where(absd == 0, 1.0, absd))
    return q * phase


def psd_gram_matrix(rng: np.random.Generator, m: int, n: int, field: str = "real") -> np.ndarray:
    x = gaussian_matrix(rng, m, n, field)
    return _hermitize(x.conj().T @ x / n)


def prescribed_spectrum_matrix(
    rng: np.random.Generator, m: int, n: int, sigma, field: str = "real"
) -> np.ndarray:
    k = min(m, n)
    s = np.zeros(k)
    sigma = np.asarray(sigma, dtype=np.float64)
    s[: len(sigma)] = sigma
    u = haar_unitary(rng, m, field)
    v = haar_unitary(rng, n, field)
    return (u[:, :k] * s) @ v[:, :k].conj().T


def rank1_psd_matrix(rng: np.random.Generator, n: int, field: str = "real") -> np.ndarray:
    v = gaussian_matrix(rng, n, 1, field)[:, 0]
    return np.outer(v, v.conj())


def projector_matrix(rng: np.random.Generator, n: int, r: int, field: str = "real") -> np.ndarray:
    q, _ = np.linalg.qr(gaussian_matrix(rng, n, r, field))
    return _hermitize(q @ q.conj().T)


def draw_matrix(
    rng: np.random.Generator,
    kind: str,
    m: int,
    n: int,
    field: str = "real",
    spectrum=None,
    rank: int | None = None,
) -> np.ndarray:
    """One matrix of sample kind ``kind`` drawn from ``rng``.

    ``spectrum`` (the singular values of "prescribed_spectrum") and ``rank``
    (that of "orthogonal_projector") are used only by their kind; the
    "rank1_psd" and "orthogonal_projector" kinds are n x n.
    """
    if kind == "gaussian":
        return gaussian_matrix(rng, m, n, field)
    if kind == "psd_gram":
        return psd_gram_matrix(rng, m, n, field)
    if kind == "prescribed_spectrum":
        return prescribed_spectrum_matrix(rng, m, n, spectrum, field)
    if kind == "rank1_psd":
        return rank1_psd_matrix(rng, n, field)
    return projector_matrix(rng, n, rank, field)


def sample(spec: SampleSpec) -> Matrix:
    """Draw the matrix described by ``spec``; bit-identical for equal specs."""
    rng = np.random.default_rng(spec.seed)
    a = draw_matrix(rng, spec.kind, *spec.dims, spec.scalar_field, spec.spectrum, spec.rank)
    a.setflags(write=False)
    return a
