"""Spectral rank surrogates: p-stable rank, stable rank, intrinsic
dimension, and tolerance-based numerical rank.

All stable-rank values are computed from the normalized spectrum
(sigma_j / sigma_1) ** p rather than as a quotient of two separately
powered norms, which cancels sigma_1 exactly and cannot overflow.
:func:`srp_from_sigma` is the one map from singular values to sr_p; the
p-stable ranks here and every check in :mod:`srlab.checks` go through it.
It has one implementation: a scalar p is the one-point grid ``(p,)``.
The intrinsic dimension is the PSD classification and the trace ratio of
:mod:`srlab.matrices`. Each quantity is a plain number: a ``float``, or an
``int`` for :func:`numerical_rank`.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import (
    Matrix,
    _densified,
    _require_matrix,
    psd_intrinsic_dimension,
    psd_spectrum,
    sigma,
)
from .schatten import is_scalar_exponent, normalized_power_sum, validate_exponent

DEFAULT_RANK_RTOL = 1e-10


def numerical_rank_from_spectrum(s, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Count spectrum entries exceeding rtol times the leading one."""
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol!r}")
    values = np.asarray(s, dtype=np.float64)
    if len(values) == 0 or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values > rtol * values[0]))


def numerical_rank(a: Matrix, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rtol * sigma_1``; 0 for the zero matrix."""
    return numerical_rank_from_spectrum(sigma(a), rtol)


def srp_from_sigma(values: np.ndarray, p):
    """sr_p of descending singular values, for p > 0 or p = inf.

    sum_j (sigma_j / sigma_1) ** p for finite p, 1 for p = inf, and 0 for an
    empty or all-zero spectrum. ``p`` may also be a 1-D array of exponents;
    the result is then an array with one entry per exponent. A scalar ``p``
    is computed as the one-point grid ``(p,)`` and returned as a float, so
    both forms share one call of :func:`srlab.schatten.normalized_power_sum`.
    """
    scalar = is_scalar_exponent(p)
    ps = (p,) if scalar else p
    out = normalized_power_sum(values, ps)
    # The power sum at p = inf counts the entries equal to sigma_1; sr_inf is
    # 1 for any nonzero spectrum, and the zero spectrum's sum is already 0.
    for i, q in enumerate(ps):
        if q == math.inf and out[i]:
            out[i] = 1.0
    return float(out[0]) if scalar else out


def p_stable_rank(a: Matrix, p, rtol: float = DEFAULT_RANK_RTOL) -> float:
    """Ratio of the p-th powers of the Schatten p-norm and the two-norm.

    Equals sum_j (sigma_j / sigma_1) ** p for finite p > 0; 1 for p = inf
    on nonzero input; the numerical rank count at ``rtol`` for p = 0; and 0
    for the zero matrix.
    """
    p = validate_exponent(p)
    s = sigma(a)
    return float(numerical_rank_from_spectrum(s, rtol)) if p == 0.0 else srp_from_sigma(s, p)


def stable_rank(a: Matrix) -> float:
    """Squared Frobenius norm over squared two-norm (the p = 2 case)."""
    return srp_from_sigma(sigma(a), 2.0)


def intrinsic_dimension(a: Matrix) -> float:
    """trace / two-norm of a Hermitian PSD matrix.

    The trace is taken directly from the entries, so agreement with the
    p = 1 stable rank is a checkable property rather than a definition.
    Raises :class:`srlab.matrices.PreconditionError` carrying
    ``max_asymmetry`` or ``lambda_min`` on non-PSD input, from
    :func:`srlab.matrices.psd_spectrum`. A SciPy sparse input is densified.
    """
    a = _require_matrix(_densified(a), "intrinsic dimension", square=True)
    return psd_intrinsic_dimension(a, psd_spectrum(a))


__all__ = [
    "DEFAULT_RANK_RTOL",
    "numerical_rank",
    "numerical_rank_from_spectrum",
    "p_stable_rank",
    "srp_from_sigma",
    "stable_rank",
    "intrinsic_dimension",
]
