"""Matrix substrate: validated arrays, spectral decompositions,
Hermitian/PSD classification, pivoted Cholesky, and seeded random sampling.

A "matrix" throughout the package is a plain 2-D numpy array of float64 or
complex128 entries with positive dimensions, validated and frozen by
:func:`as_matrix`; every classification and decomposition reads any other
2-D array as its cast (:func:`_require_matrix`). Every function here is pure
and all returned arrays are read-only, so values can be shared freely across
threads. A sampling builder is a deterministic function of its generator;
:mod:`srlab.fuzz` decides which one each sample kind calls.
A spectrum is a plain descending 1-D array: :func:`sigma` returns the
singular values, and :func:`hermitian_eigenvalues` and :func:`psd_spectrum`
the classifier's eigenvalues of the Hermitian part.
:func:`sigma_from_eigenvalues` maps eigenvalues to singular values as
:func:`sigma` does for an exactly Hermitian input.

Singular values come from the cheapest LAPACK route for the input. An
exactly Hermitian input (``a == a*`` entrywise, not within a tolerance)
takes the absolute values of its eigenvalues, sorted descending, from the
same ``eigvalsh`` that :func:`hermitian_part_eigenvalues` runs. A
rectangular input whose smaller side k is at least :data:`GRAM_MIN_SIDE`
and whose larger side is at least :data:`GRAM_MIN_ASPECT` times k takes the
square roots of the eigenvalues of its k x k Gram matrix when an a
posteriori bound certifies every value to a relative error of at most
:data:`SIGMA_RTOL` (1e-8). The bound's Gram rounding term is proven; its
eigensolver term assumes LAPACK's backward error is at most
``k^2 u ||G||_2``. With that, ``||A||_2``
and the Schatten norms are within 1e-8, ``sr_p`` within about 2p * 1e-8 and
``sr_p^(1/p)`` within about 2e-8, and the numerical rank is exact unless
some ``s_j / s_1`` lies within that error of ``rtol``; the README derives
these bounds. When the bound fails, the input falls back to the SVD. Any
other wide input (fewer rows than columns) runs the SVD on its transpose,
which has the same singular values. Every other input runs the SVD as it
comes.

Where each path copies: an exactly Hermitian input is its own Hermitian
part, so ``eigvalsh`` gets the input as it is; only a square input that is
not exactly Hermitian gets a new array, ``A/2 + A*/2``. The exactness test
compares a real input with the view ``A.T`` and a complex one a few rows at
a time, and runs once per call. The Gram route forms its Gram from a view
of the input when the largest real or imaginary part of an entry lies in
``[2^-200, 2^200)`` (:data:`GRAM_UNSCALED_EXP`), and from a copy scaled by
an exact power of two outside it. Both keep ``sigma(2^j A)`` equal to
``2^j sigma(A)`` bit for bit. A complex Gram conjugates a few rows of its
input at a time. So O(1) inputs pay for no full-size temporary beyond
LAPACK's own workspace.

:func:`sigma` also takes a SciPy sparse matrix, as ``srlab compute``
reads a coordinate-format MatrixMarket file. One that qualifies for the
Gram route forms its k x k Gram with SciPy's sparse product, at a cost in
its nonzeros rather than in ``k N``, scaled on the same ``2^±200`` rule,
and runs the same ``eigvalsh`` and the same certificate. Its values may
differ from those of the densified input in the last bits, within the same
contract. One whose certificate fails is densified and runs the SVD, with
no second Gram. Any other sparse input is densified and takes the dense
routes, bit for bit. ``intrinsic_dimension`` densifies a sparse input the
same way (:func:`_densified`).
SciPy is never imported here: a sparse input is recognised only once
``scipy.sparse`` is loaded, and only where a dense one would not be 2-D.

Inside a :func:`trial_scope` the classification and decomposition family
remembers three kinds of result by the input's shape, dtype and bytes: the
Hermitian class, the eigenvalues of the Hermitian part, and the singular
values. So a matrix that several checks share is decomposed once, and the
singular values of an exactly Hermitian matrix share its eigendecomposition.
Outside a scope nothing is cached.

This module alone decides "Hermitian" and "PSD", on one fixed pair of
relative thresholds, :data:`HERMITIAN_ASYM_RTOL` and :data:`PSD_NEGATIVITY_RTOL`.
A square input is Hermitian when ``max |A - A*|`` is at most
``1e-12 * max |A|``, and PSD when it is also Hermitian with
``lambda_min >= -1e-10 * lambda_max`` for the eigenvalues of its
Hermitian part. Each threshold is relative to the input's own scale, with
no absolute floor, so a power-of-two scaling that neither overflows nor
underflows keeps every class.
:func:`is_psd`,
:func:`psd_eigenvalues`, :func:`hermitian_eigenvalues` and
:func:`psd_spectrum` (the precondition of ``intrinsic_dimension``) read
one private classifier; the gallery's congruences take their PSD decision
from :func:`psd_eigenvalues` too. No function here runs ``eigh``.
:func:`pivoted_cholesky` stops and flags a negative pivot on the same ``1e-10``.

:func:`pivoted_cholesky` is one call of LAPACK's ``?pstrf``. Where numpy
bundles an ILP64 OpenBLAS that exports the LAPACKE routine, it is called
through :mod:`ctypes` and SciPy is not imported; elsewhere it comes from
:mod:`scipy.linalg.lapack`. :func:`pstrf_provider` says which.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

Matrix = np.ndarray


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


# The relative thresholds of Hermitian and PSD classification, read by the
# classifier and by pivoted_cholesky.
HERMITIAN_ASYM_RTOL = 1e-12
PSD_NEGATIVITY_RTOL = 1e-10

# The Gram-eigenvalue route for singular values (see _certified_gram_sigma)
# certifies each value to this relative error, and serves inputs whose
# smaller side is at least GRAM_MIN_SIDE and whose larger side is at least
# GRAM_MIN_ASPECT times the smaller one: the crossover of a timing sweep
# against the SVD (README, "Singular values").
SIGMA_RTOL = 1e-8
GRAM_MIN_SIDE = 32
GRAM_MIN_ASPECT = 2

# The Gram route uses the input unscaled, with no copy, when its largest real
# or imaginary part lies in [2^-GRAM_UNSCALED_EXP, 2^GRAM_UNSCALED_EXP), and
# scales a copy by a power of two otherwise. LAPACK's ?syevd rescales by a
# factor that is not a power of two once the largest Gram entry leaves
# [2^-485, 2^485], and the Gram squares the scale. Inside [2^-200, 2^200) the
# Gram of 2^j A is 4^j times that of A bit for bit, so scaling commutes with
# eigvalsh. With a bound of 400, sigma(2^j A) == 2^j sigma(A) failed from
# |j| = 206-208 on, for Gaussian inputs with max |A| about 4.
GRAM_UNSCALED_EXP = 200
# A complex Gram conjugates this many rows of its input at a time.
_GRAM_CONJ_ROWS = 16
_MATRIX_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


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
    target = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(target, copy=False)
    _check_entries(a.shape, a)
    a.setflags(write=False)
    return a


def _check_entries(shape: tuple[int, int], entries: np.ndarray) -> None:
    """Raise ``ValueError`` unless both dimensions are positive and all entries finite."""
    if shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must all be finite")


def _require_matrix(a, op: str, square: bool = False) -> np.ndarray:
    """``a``, cast as :func:`as_matrix` casts unless float64 or complex128; a ``ValueError``
    naming ``op`` and the shape unless dense, 2-D, nonempty and square if ``square``."""
    d = np.asarray(a)
    if d.ndim != 2 or square and d.shape[0] != d.shape[1]:
        kind = "dense" if _is_sparse(a) and a.ndim == 2 else "square" if square else "2-D"
        raise ValueError(f"{op} requires a {kind} matrix, got {getattr(a, 'shape', d.shape)}")
    if 0 in d.shape:
        raise ValueError(f"{op} requires a nonempty matrix, got {d.shape}")
    if d.dtype not in _MATRIX_DTYPES:
        d = d.astype(np.complex128 if np.iscomplexobj(d) else np.float64)
    return d


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


def _memo(kind, a: np.ndarray, compute, *args):
    """``compute(a, *args)``, remembered by ``kind`` in the current scope."""
    cache = _SCOPE.get()
    if cache is None:
        return compute(a, *args)
    results = cache.setdefault((a.shape, a.dtype, a.tobytes()), {})
    value = results.get(kind, _MISSING)
    if value is _MISSING:
        value = results[kind] = compute(a, *args)
    return value


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _hermitize(a: np.ndarray, exact: bool | None = None) -> np.ndarray:
    """The Hermitian part of square ``a``; ``exact`` is :func:`_exactly_hermitian`
    of ``a`` where the caller has already tested it."""
    # An exactly Hermitian input is its own Hermitian part, so it is returned
    # as it is, with no copy. It differs from the halved sum below only in
    # the sign of a zero and where an entry lies below 2^-1021, whose halving
    # rounds.
    if _exactly_hermitian(a) if exact is None else exact:
        return a
    # Halve before adding, so entries near the float64 maximum do not overflow.
    return a / 2 + a.conj().T / 2


def _is_sparse(a) -> bool:
    """Whether ``a`` is a SciPy sparse matrix or array.

    Told from ``sys.modules``, so this never imports SciPy: no sparse input
    can exist before ``scipy.sparse`` is loaded.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def _densified(a) -> np.ndarray:
    """``a``, or a SciPy sparse ``a`` densified as :func:`sigma` densifies one
    it does not route: a nonfinite entry raises ``ValueError``."""
    return _freeze_fresh(a.toarray()) if _is_sparse(a) else a


def sigma(a: Matrix) -> np.ndarray:
    """Descending singular values via LAPACK, clamped at zero, read-only.

    An exactly Hermitian input (``a == a*`` entrywise) takes them as the
    sorted absolute eigenvalues from ``eigvalsh``. A rectangular input of
    at least :data:`GRAM_MIN_SIDE` by :data:`GRAM_MIN_ASPECT` times that
    takes them from the eigenvalues of its small Gram matrix when each is
    certified to a relative error of :data:`SIGMA_RTOL`, and otherwise from
    the SVD. Any other wide input runs the SVD on ``a.T``, and any other
    input the SVD on ``a``. The eigenvalue and SVD routes are accurate to
    rounding relative to sigma_1. Raises :class:`DecompositionError` if the
    iteration fails to converge.

    A SciPy sparse input that qualifies for the Gram route forms its Gram
    with a sparse product (:func:`_certified_sparse_gram_sigma`). Any other
    sparse input is densified as :func:`srlab.mmio.read_matrix` densifies
    a coordinate file (a nonfinite entry raises ``ValueError``), and takes
    the dense route; one whose certificate fails is densified the same way
    and runs the SVD.
    Sparse inputs are not remembered by a :func:`trial_scope`.
    """
    if not isinstance(a, np.ndarray) and _is_sparse(a) and a.ndim == 2:
        return _sparse_sigma(a)
    return _memo("sigma", _require_matrix(a, "sigma"), _sigma)


def _sigma(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m == n and _exactly_hermitian(a):
        return sigma_from_eigenvalues(_memo("eigvalsh", a, _hermitian_part_eigenvalues, True))
    if _gram_route_applies(m, n):
        s = _certified_gram_sigma(a)
        if s is not None:
            return s
    return _svd_sigma(a)


def _svd_sigma(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    try:
        s = np.linalg.svd(a.T if m < n else a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    return _frozen(np.maximum(s, 0.0))


def _gram_route_applies(m: int, n: int) -> bool:
    k = min(m, n)
    return k >= GRAM_MIN_SIDE and max(m, n) >= GRAM_MIN_ASPECT * k


def _sparse_sigma(a) -> np.ndarray:
    if not _gram_route_applies(*a.shape):
        return sigma(_densified(a))
    s = _certified_sparse_gram_sigma(a)
    return _svd_sigma(_densified(a)) if s is None else s


def _gram_exponent(parts: np.ndarray) -> int:
    """The ``e`` of the Gram route's ``2^-e`` scaling, 0 for no scaling.

    ``parts`` holds the real and imaginary parts of the entries. ``e`` is 0
    when the largest of them lies in ``[2^-200, 2^200)``
    (:data:`GRAM_UNSCALED_EXP`) or is 0, and otherwise has
    ``2^(e-1) <= max |parts| < 2^e``.
    """
    top = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    if 2.0**-GRAM_UNSCALED_EXP <= top < 2.0**GRAM_UNSCALED_EXP:
        return 0
    return math.frexp(top)[1]


def _certified_gram_sigma(a: np.ndarray) -> np.ndarray | None:
    """Singular values from the eigenvalues of the small Gram matrix, or None.

    The Gram ``G = B B*`` (on the smaller side) is formed from ``B = A``
    itself, a view of the input, when the largest real or imaginary part of
    an entry lies in ``[2^-200, 2^200)`` (:data:`GRAM_UNSCALED_EXP` says
    why). Outside that range ``B`` is a copy scaled by an exact power of
    two, ``2^-e A`` with ``2^(e-1) <= max |Re a|, |Im a| < 2^e``, so ``G``
    neither overflows nor underflows. Either way ``sigma(2^j A)`` is
    ``2^j sigma(A)`` bit for bit.
    :func:`_gram` forms ``G`` with no full-size temporary, complex or real,
    and :func:`_certified_gram_eigenvalues` certifies its eigenvalues.
    """
    m, n = a.shape
    # Wide (a.T has the same bytes) and contiguous, so the products run in BLAS.
    b = a.T if m > n else a
    if not (b.flags.c_contiguous or b.flags.f_contiguous):
        b = np.array(b, order="C")
    e = _gram_exponent(b.ravel(order="K").view(np.float64))
    if e:
        b = np.array(b, order="C")  # a copy to scale in place
        parts = b.view(np.float64)
        np.ldexp(parts, -e, out=parts)
    return _certified_gram_eigenvalues(_gram(b), b.shape[1], e)


def _certified_sparse_gram_sigma(a) -> np.ndarray | None:
    """:func:`_certified_gram_sigma` for a SciPy sparse ``a``.

    ``B`` is a CSR copy of the input on its wide side, with duplicate
    entries summed and the data cast to float64 or complex128, and scaled
    by ``2^-e`` on the same rule. ``G = B B*`` comes from SciPy's sparse
    product, which runs on one thread and costs time in the nonzeros, not
    in ``k N``. Its inner products are shorter than ``N`` and are summed in
    another order than BLAS sums them, so the certificate's bound holds as
    it stands, and the values may differ from the dense route's in the last
    bits.
    """
    m, n = a.shape
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    b = (a.T if m > n else a).tocsr(copy=True).astype(dtype, copy=False)
    b.sum_duplicates()
    parts = b.data.view(np.float64)
    e = _gram_exponent(parts)
    np.ldexp(parts, -e, out=parts)  # exact, and the data is already a copy
    gram = (b @ b.conj().T).toarray()
    return _certified_gram_eigenvalues(gram, b.shape[1], e)


def _certified_gram_eigenvalues(gram: np.ndarray, big: int, e: int) -> np.ndarray | None:
    """Descending ``2^e sqrt(lam)`` for the eigenvalues of ``gram`` when certified, else None.

    ``gram`` is the computed ``G = B B*`` of a wide ``B`` with ``big``
    columns, of which ``eigvalsh`` reads the lower triangle. The computed
    eigenvalues are exact for ``G + E``, and ``delta`` bounds ``||E||_2``
    as the sum of two terms. The first is proven: the computed Gram differs
    from ``G`` by at most ``gamma_N ||B||_F^2`` in norm (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 3.5), and by
    ``sqrt(2) gamma_2N ||B||_F^2`` for complex entries, whose real and
    imaginary parts are real inner products of length 2N; this holds for
    any order of summation and any shorter inner product. The second is
    assumed: LAPACK documents the symmetric eigensolver's backward error
    only as ``p(k) u ||G||_2`` with an unspecified, modestly growing
    ``p(k)``; this takes ``p(k) = k^2``, the order of the Householder
    tridiagonal reduction's normwise bound (Higham, section 19.3). The
    computed eigenvalues are exact for a matrix of 2-norm ``max |lam|``, so
    that term is at most ``k^2 u max |lam| / (1 - k^2 u)``. By Weyl's
    inequality each computed eigenvalue is then within ``delta`` of
    ``sigma_i(B)^2``, so ``sqrt`` of it is within ``delta / (lam - delta)``
    of ``sigma_i(B)``, relatively. Returns None unless that bound, plus the
    rounding of the square root, is at most :data:`SIGMA_RTOL` for every
    value; the caller then runs the SVD. Underflow stays far inside
    ``delta``: a scaled entry below 2^-1022 rounds by at most 2^-1075,
    against ``delta >= N u / 4``, and in an unscaled Gram a product below
    2^-1022 rounds by at most 2^-1075, against ``delta >= N u 2^-400``.
    """
    k = gram.shape[0]
    try:
        lam = np.linalg.eigvalsh(gram, UPLO="L")
    except np.linalg.LinAlgError:
        return None
    u = np.finfo(np.float64).eps / 2
    complex_entries = np.iscomplexobj(gram)
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


def _gram(b: np.ndarray) -> np.ndarray:
    """``b b*`` for a contiguous wide ``b``, with no temporary of its size.

    A complex ``b`` is conjugated :data:`_GRAM_CONJ_ROWS` rows at a time,
    and only the lower triangle, the one ``eigvalsh`` reads, is formed; the
    upper is left at zero. That also halves the multiplications.
    """
    if not np.iscomplexobj(b):
        return b @ b.T
    k = b.shape[0]
    gram = np.zeros((k, k), dtype=b.dtype)
    for i in range(0, k, _GRAM_CONJ_ROWS):
        rows = slice(i, i + _GRAM_CONJ_ROWS)
        np.matmul(b[i:], b[rows].conj().T, out=gram[i:, rows])
    return gram


def _exactly_hermitian(a: np.ndarray) -> bool:
    """``a == a*`` entrywise for square ``a``; one corner pair rejects most inputs.

    A real ``a`` is compared with the view ``a.T``, and a complex one
    :data:`_GRAM_CONJ_ROWS` rows at a time, so no temporary of its size is
    built beyond the comparison's own booleans.
    """
    if a.item(-1, 0) != a.item(0, -1).conjugate():
        return False
    if not np.iscomplexobj(a):
        return bool((a == a.T).all())
    for i in range(0, a.shape[0], _GRAM_CONJ_ROWS):
        rows = slice(i, i + _GRAM_CONJ_ROWS)
        if not (a[rows] == a[:, rows].conj().T).all():
            return False
    return True


def sigma_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix from its eigenvalues, read-only.

    The absolute values, sorted descending: the map :func:`sigma` applies to
    an exactly Hermitian input, so on one it gives the same bits.
    """
    return _frozen(np.sort(np.abs(w))[::-1])


def hermitian_asymmetry(a: Matrix) -> float:
    """max |A - A*| over all entries."""
    a = _require_matrix(a, "hermitian_asymmetry", square=True)
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermitian(a: Matrix) -> bool:
    """max |A - A*| within ``1e-12 * max |A|``.

    False for any input with a nan or infinite entry. Runs no decomposition.
    """
    a = _require_matrix(a, "is_hermitian", square=True)
    return _memo("hermitian", a, _hermitian_class) > 0


# _hermitian_class values: Hermitian within the threshold, and exactly so.
_NEAR, _EXACT = 1, 2


def _hermitian_class(a: np.ndarray) -> int:
    """:data:`_EXACT` if ``a == a*`` with finite entries, :data:`_NEAR` if
    :func:`is_hermitian` holds otherwise, and 0 if it does not."""
    if _exactly_hermitian(a):
        # The asymmetry is 0, or nan where inf - inf meets an infinite entry.
        return _EXACT if np.isfinite(a).all() else 0
    return _NEAR if hermitian_asymmetry(a) <= _asymmetry_bound(a) else 0


def _asymmetry_bound(a: np.ndarray) -> float:
    return HERMITIAN_ASYM_RTOL * float(np.max(np.abs(a)))


def _classify(a: np.ndarray) -> np.ndarray | None:
    """The classifier: for square ``a``, the descending eigenvalues of its
    Hermitian part if :func:`is_hermitian`, else None, from the scope's
    "hermitian" and "eigvalsh" entries; :func:`_exactly_hermitian` runs once.
    A PSD decision is :func:`_psd_within` of these eigenvalues."""
    cls = _memo("hermitian", a, _hermitian_class)
    return _memo("eigvalsh", a, _hermitian_part_eigenvalues, cls == _EXACT) if cls else None


def hermitian_part_eigenvalues(a: Matrix) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part (A + A*) / 2, read-only.

    Raises :class:`DecompositionError` if the iteration fails to converge.
    """
    a = _require_matrix(a, "hermitian_part_eigenvalues", square=True)
    return _memo("eigvalsh", a, _hermitian_part_eigenvalues)


def _hermitian_part_eigenvalues(a: np.ndarray, exact: bool | None = None) -> np.ndarray:
    try:
        w = np.linalg.eigvalsh(_hermitize(a, exact))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition did not converge: {exc}") from exc
    return _frozen(w[::-1].copy())


def _psd_within(w: np.ndarray) -> bool:
    """Descending eigenvalues ``w`` clear ``-1e-10 * lambda_max``."""
    return bool(w[-1] >= -PSD_NEGATIVITY_RTOL * float(w[0]))


def psd_eigenvalues(a: Matrix) -> np.ndarray | None:
    """Descending eigenvalues if matrix ``a`` is square Hermitian PSD (:func:`is_psd`), else None."""
    a = _require_matrix(a, "psd_eigenvalues")
    if a.shape[0] != a.shape[1]:
        return None
    w = _classify(a)
    return w if w is not None and _psd_within(w) else None


def psd_intrinsic_dimension(a: Matrix, w: np.ndarray | None = None) -> float:
    """trace / lambda_max for input the caller has already established PSD.

    ``w``, the descending eigenvalues of ``a`` where the caller holds them,
    saves a second decomposition outside a trial scope. Returns 0.0 when the
    largest eigenvalue is not positive.
    """
    a = _require_matrix(a, "psd_intrinsic_dimension", square=True)
    lam_max = float((hermitian_part_eigenvalues(a) if w is None else w)[0])
    if lam_max <= 0.0:
        return 0.0
    return float(np.trace(a).real) / lam_max


def hermitian_eigenvalues(a: Matrix) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian matrix, read-only.

    The values are those of :func:`hermitian_part_eigenvalues`, so they
    agree with every check that classifies through :func:`is_hermitian`.
    Raises :class:`PreconditionError` (carrying ``max_asymmetry``) if
    :func:`is_hermitian` rejects the input.
    """
    a = _require_matrix(a, "hermitian_eigenvalues", square=True)
    w = _classify(a)
    if w is None:
        asym = hermitian_asymmetry(a)
        raise PreconditionError(
            f"matrix is not Hermitian: max asymmetry {asym:.6e} exceeds {_asymmetry_bound(a):.6e}",
            max_asymmetry=asym,
        )
    return w


def is_psd(a: Matrix) -> bool:
    """Hermitian, with ``lambda_min >= -1e-10 * lambda_max``."""
    return psd_eigenvalues(_require_matrix(a, "is_psd", square=True)) is not None


def psd_spectrum(a: Matrix) -> np.ndarray:
    """:func:`hermitian_eigenvalues` of a Hermitian PSD matrix (:func:`is_psd`).

    Raises :class:`PreconditionError` carrying ``max_asymmetry`` if ``a`` is
    not Hermitian, and ``lambda_min`` if it is Hermitian but not PSD.
    """
    w = hermitian_eigenvalues(a)
    if not _psd_within(w):
        lam_min = float(w[-1])
        raise PreconditionError(
            f"matrix is not positive semi-definite: lambda_min = {lam_min:.6e}", lambda_min=lam_min
        )
    return w


def pivoted_cholesky(a: Matrix) -> tuple[np.ndarray, np.ndarray, int]:
    """Diagonally pivoted Cholesky factorization of a PSD matrix, by LAPACK ``?pstrf``.

    Returns ``(L, perm, rank)`` with ``a[perm][:, perm] ~= L @ L*`` and ``L``
    of shape ``(n, rank)``, lower trapezoidal with a positive diagonal. Only
    the lower triangle of ``a`` is read. Each step pivots on the largest
    remaining diagonal entry of the Schur complement; the factorization
    stops once that entry is at most ``1e-10 * trace(a) / n``. Raises
    :class:`DecompositionError` if the largest diagonal entry of the Schur
    complement left after ``rank`` steps is below
    ``-1e-10 * trace(a)`` (indefinite input), if ``a`` has
    a nan or infinite entry, or if LAPACK reports an error.
    :func:`pstrf_provider` says which LAPACK runs.
    """
    a = _require_matrix(a, "pivoted_cholesky", square=True)
    n = a.shape[0]
    w = np.array(a, order="F")
    # Checked here, not left to LAPACK: OpenBLAS's LAPACKE rejects a nan in
    # the lower triangle, while SciPy's ?pstrf factors it without complaint.
    if not np.isfinite(w).all():
        raise DecompositionError("pivoted Cholesky needs finite entries")
    total = max(float(w.trace().real), 0.0)
    _, pstrf = pstrf_provider()
    w, piv, rank, info = pstrf(w, PSD_NEGATIVITY_RTOL * total / n)
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
        if pivot < -PSD_NEGATIVITY_RTOL * total:
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
    such library. ``routine(w, stop)`` factors the lower triangle of the
    Fortran-ordered float64 or complex128 square ``w``, which it may
    overwrite, until the largest remaining pivot is at most ``stop``, and
    returns ``(factor, piv, rank, info)`` with 1-based int64 pivots, as
    LAPACK does.
    """
    routines = _bundled_pstrf()
    if routines is None:
        return "scipy", _scipy_pstrf

    def openblas_pstrf(w: np.ndarray, stop: float):
        routine = routines.get(w.dtype)
        n = w.shape[0]
        if routine is None or w.shape != (n, n) or not (w.flags.f_contiguous and w.flags.writeable):
            raise ValueError(
                "?pstrf needs a writeable Fortran-ordered square float64 or complex128 array"
            )
        piv = np.empty(n, dtype=np.int64)
        rank = ctypes.c_int64()
        info = routine(
            _LAPACK_COL_MAJOR, b"L", n, w.ctypes.data, n, piv.ctypes.data, ctypes.byref(rank), stop
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
        return dict(zip(_MATRIX_DTYPES, routines))
    return None


def _scipy_pstrf(w: np.ndarray, stop: float):
    from scipy.linalg import lapack

    routine = lapack.zpstrf if w.dtype == np.complex128 else lapack.dpstrf
    c, piv, rank, info = routine(w, tol=stop, lower=1, overwrite_a=1)
    return c, piv.astype(np.int64), rank, info


# ---------------------------------------------------------------------------
# Seeded sampling


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

