"""Spectral rank surrogates: p-stable rank, stable rank, intrinsic
dimension, and tolerance-based numerical rank.

All stable-rank values are computed from the normalized spectrum
(sigma_j / sigma_1) ** p rather than as a quotient of two separately
powered norms, which cancels sigma_1 exactly and cannot overflow.
:func:`srp_from_sigma` is the one map from singular values to sr_p; the
p-stable ranks here and every check in :mod:`srlab.checks` go through it.
The intrinsic dimension is the PSD classification and the trace ratio of
:mod:`srlab.matrices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    Matrix,
    PreconditionError,
    Spectrum,
    Tolerances,
    _psd_within,
    hermitian_eigenvalues,
    psd_intrinsic_dimension,
    singular_values,
)
from .schatten import normalized_power_sum, validate_exponent

DEFAULT_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RankResult:
    """A computed rank surrogate plus the spectrum it was derived from."""

    value: float
    p: float
    spectrum_used: Spectrum
    definition: str


def numerical_rank_from_spectrum(s, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Count spectrum entries exceeding rtol times the leading one."""
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol!r}")
    values = s.values if isinstance(s, Spectrum) else np.asarray(s, dtype=np.float64)
    if len(values) == 0 or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values > rtol * values[0]))


def numerical_rank(a: Matrix, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rtol * sigma_1``; 0 for the zero matrix."""
    return numerical_rank_from_spectrum(singular_values(a), rtol)


def srp_from_sigma(values: np.ndarray, p):
    """sr_p of descending singular values, for p > 0 or p = inf.

    0 for an empty or all-zero spectrum; otherwise 1 for p = inf and
    sum_j (sigma_j / sigma_1) ** p for finite p. ``p`` may also be a 1-D
    array of exponents, as in :func:`srlab.schatten.normalized_power_sum`;
    the result is then an array, each entry equal to the scalar-``p`` value,
    from one power-sum call over the finite exponents.
    """
    # np.ndim takes microseconds on a float or a list, so those are told apart first.
    scalar = isinstance(p, (int, float)) or not isinstance(p, (list, tuple)) and np.ndim(p) == 0
    if len(values) == 0 or values[0] <= 0.0:
        return 0.0 if scalar else np.zeros(len(p))
    if scalar:
        return 1.0 if math.isinf(p) else normalized_power_sum(values, p)
    exponents = np.asarray(p, dtype=np.float64)
    finite = np.isfinite(exponents)
    out = np.ones(len(exponents))
    out[finite] = normalized_power_sum(values, exponents[finite])
    return out


def p_stable_rank_from_spectrum(
    s: Spectrum, p, rtol: float = DEFAULT_RANK_RTOL
) -> RankResult:
    """p-stable rank evaluated from a precomputed singular spectrum."""
    p = validate_exponent(p)
    if s.kind != "singular":
        raise ValueError("p-stable ranks need a singular spectrum")
    value = float(numerical_rank_from_spectrum(s, rtol)) if p == 0.0 else srp_from_sigma(s.values, p)
    return RankResult(value=value, p=p, spectrum_used=s, definition="p_stable")


def p_stable_rank(a: Matrix, p, rtol: float = DEFAULT_RANK_RTOL) -> RankResult:
    """Ratio of the p-th powers of the Schatten p-norm and the two-norm.

    Equals sum_j (sigma_j / sigma_1) ** p for finite p > 0; 1 for p = inf
    on nonzero input; the numerical rank count for p = 0; and 0 for the
    zero matrix.
    """
    return p_stable_rank_from_spectrum(singular_values(a), p, rtol)


def stable_rank(a: Matrix) -> RankResult:
    """Squared Frobenius norm over squared two-norm (the p = 2 case)."""
    return replace(p_stable_rank(a, 2.0), definition="stable")


def intrinsic_dimension(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> RankResult:
    """trace / two-norm of a Hermitian PSD matrix.

    The trace is taken directly from the entries, so agreement with the
    p = 1 stable rank is a checkable property rather than a definition.
    Raises :class:`PreconditionError` carrying ``lambda_min`` on non-PSD
    input.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"intrinsic dimension requires a square matrix, got {a.shape}")
    eigs = hermitian_eigenvalues(a, tol)  # raises with max_asymmetry if not Hermitian
    if not _psd_within(eigs.values, tol):
        lam_min = float(eigs.values[-1])
        raise PreconditionError(
            f"matrix is not positive semi-definite: lambda_min = {lam_min:.6e}",
            lambda_min=lam_min,
        )
    value = psd_intrinsic_dimension(a, eigs.values)
    return RankResult(value=value, p=1.0, spectrum_used=eigs, definition="intrinsic_dimension")


__all__ = [
    "DEFAULT_RANK_RTOL",
    "RankResult",
    "numerical_rank",
    "numerical_rank_from_spectrum",
    "p_stable_rank",
    "p_stable_rank_from_spectrum",
    "srp_from_sigma",
    "stable_rank",
    "intrinsic_dimension",
]
