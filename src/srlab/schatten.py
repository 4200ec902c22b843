"""Overflow-safe Schatten p-norms for p in (0, inf].

The exponent is a plain float: ``math.inf`` is the operator norm, finite
p > 0 the usual p-norm of the singular value vector. Exponents in (0, 1)
are quasi-norms (the triangle inequality can fail) and trip a
:class:`QuasiNormWarning`. p = 0 is rejected here because it counts
nonzero singular values rather than measuring size; see
:func:`srlab.ranks.numerical_rank`. A norm is computed from a matrix or,
through :func:`schatten_norm_from_spectrum`, from the plain array of its
singular values that :func:`srlab.matrices.sigma` returns.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .matrices import Matrix, sigma


class QuasiNormWarning(UserWarning):
    """p in (0, 1) yields a quasi-norm; triangle-based reasoning is off."""


def validate_exponent(p) -> float:
    """Coerce and range-check a Schatten/stable-rank exponent (p >= 0)."""
    p = float(p)
    if math.isnan(p) or p < 0:
        raise ValueError(f"exponent must be nonnegative or inf, got {p!r}")
    return p


def is_scalar_exponent(p) -> bool:
    """Whether ``p`` is one exponent rather than a 1-D array of them."""
    # np.ndim takes microseconds on a float or a list, so those are told apart first.
    return isinstance(p, (int, float)) or not isinstance(p, (list, tuple)) and np.ndim(p) == 0


# For a scalar exponent numpy evaluates ``x ** 2.0`` as ``square(x)``,
# ``x ** 0.5`` as ``sqrt(x)`` and ``x ** -1.0`` as ``reciprocal(x)``, which
# can differ from ``power`` in the last bit. The array form computes these
# exponents' rows with the same ufuncs so that both forms agree bit for bit.
_SCALAR_POWER_SHORTCUTS = {-1.0: np.reciprocal, 0.5: np.sqrt, 2.0: np.square}


def normalized_power_sum(values: np.ndarray, p):
    """sum over j of (v_j / v_0) ** p for a descending nonnegative sequence.

    This is the overflow-safe core shared by the norms and the stable
    ranks: the leading value is factored out before powering, so huge or
    tiny spectra never overflow. Returns 0.0 for an all-zero sequence.

    ``p`` may also be a 1-D array of exponents; the result is then an
    array with one sum per exponent, each equal to the scalar-``p`` value.
    """
    top = float(values[0]) if len(values) else 0.0
    if is_scalar_exponent(p):
        if top == 0.0:
            return 0.0
        return float(np.add.reduce((values / top) ** p))
    column, shortcuts = _power_rows(tuple(p))
    if top == 0.0:
        return np.zeros(len(column))
    ratios = values / top
    powers = ratios**column
    for i, ufunc in shortcuts:
        ufunc(ratios, out=powers[i])
    return np.add.reduce(powers, axis=1)


@functools.lru_cache(maxsize=64)
def _power_rows(exponents: tuple) -> tuple[np.ndarray, tuple]:
    """The exponents as a read-only float64 column, and their shortcut rows.

    A shortcut row is ``(row, ufunc)`` for an exponent that numpy powers
    through a ufunc. A fuzz campaign passes the same grid in every call, so
    this is cached.
    """
    column = np.array(exponents, dtype=np.float64).reshape(-1, 1)
    column.setflags(write=False)
    shortcuts = tuple(
        (i, _SCALAR_POWER_SHORTCUTS[q])
        for i, q in enumerate(column[:, 0].tolist())
        if q in _SCALAR_POWER_SHORTCUTS
    )
    return column, shortcuts


def schatten_norm_from_spectrum(values, p) -> float:
    """Schatten p-norm evaluated from precomputed singular values.

    ``values`` is a descending nonnegative sequence, such as
    :func:`srlab.matrices.sigma` returns; one decomposition then serves many
    exponents.
    """
    p = validate_exponent(p)
    if p == 0.0:
        raise ValueError(
            "p = 0 counts nonzero singular values rather than measuring size; "
            "use srlab.ranks.numerical_rank"
        )
    values = np.asarray(values, dtype=np.float64)
    if p < 1.0:
        warnings.warn(
            f"p={p} gives a quasi-norm: the triangle inequality may fail",
            QuasiNormWarning,
            stacklevel=2,
        )
    top = float(values[0]) if len(values) else 0.0
    if top == 0.0:
        return 0.0
    if math.isinf(p):
        return top
    return top * normalized_power_sum(values, p) ** (1.0 / p)


def schatten_norm(a: Matrix, p) -> float:
    """Schatten p-norm of a matrix: the l_p norm of its singular values.

    p = 1 is the nuclear norm, p = 2 the Frobenius norm, p = inf the
    operator two-norm. Evaluation normalizes by the top singular value
    before powering, so large p cannot overflow.
    """
    return schatten_norm_from_spectrum(sigma(a), p)
