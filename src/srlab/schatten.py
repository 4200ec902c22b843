"""Overflow-safe Schatten p-norms for p in (0, inf].

The exponent is a plain float: ``math.inf`` is the operator norm, finite
p > 0 the usual p-norm of the singular value vector. Exponents in (0, 1)
are quasi-norms (the triangle inequality can fail) and trip a
:class:`QuasiNormWarning`. p = 0 is rejected here because it counts
nonzero singular values rather than measuring size; see
:func:`srlab.ranks.numerical_rank`. A norm is computed from a matrix or,
through :func:`schatten_norm_from_spectrum`, from the plain array of its
singular values that :func:`srlab.matrices.sigma` returns. At p far below 1
a norm can exceed float64 (the norm of n equal values v is n^(1/p) v); it
then reads inf, and only then. The norms and the p-stable ranks of
:mod:`srlab.ranks` share one power sum, :func:`normalized_power_sum`, over a
grid of exponents; a single exponent p is the one-point grid ``(p,)``.
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


# numpy powers an array by a scalar 2.0 or 0.5 with ``square`` or ``sqrt``,
# which can differ from ``power`` in the last bit. The grid powers these
# exponents' rows with the same ufuncs, so each sum keeps the bits of the
# inline scalar form ``np.sum((v / v[0]) ** p)``;
# ``test_array_exponents_bit_equal_to_inline_power_sum`` holds them. numpy's
# third such exponent, -1.0, has no entry: every exponent reaching the power
# sum has passed ``validate_exponent`` or ``checks._grid_exponents``, which
# reject a negative one.
_SCALAR_POWER_SHORTCUTS = {0.5: np.sqrt, 2.0: np.square}


def normalized_power_sum(values: np.ndarray, ps) -> np.ndarray:
    """sum over j of (v_j / v_0) ** p of a descending nonnegative sequence,
    as an array with one sum per exponent p in the 1-D sequence ``ps``.

    The one power sum behind the norms and the stable ranks: the leading
    value is factored out before powering, so huge or tiny spectra never
    overflow. A single exponent p is the one-point grid ``(p,)``. Each sum is
    0.0 for an empty or all-zero sequence; at p = inf it counts the entries
    equal to v_0.
    """
    column, shortcuts = _power_rows(tuple(ps))
    top = float(values[0]) if len(values) else 0.0
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
    return _schatten_norm(values, p)


def schatten_norm(a: Matrix, p) -> float:
    """Schatten p-norm of a matrix: the l_p norm of its singular values.

    p = 1 is the nuclear norm, p = 2 the Frobenius norm, p = inf the
    operator two-norm. Evaluation normalizes by the top singular value
    before powering, so large p cannot overflow.
    """
    return _schatten_norm(sigma(a), p)


def _schatten_norm(values, p) -> float:
    """The norm as top * (power sum) ** (1/p), with no case of its own for
    the zero spectrum or p = inf: a zero or empty spectrum has power sum 0
    and so norm 0, and at p = inf the power sum counts the c >= 1 entries
    tied with top, so the norm is top * c ** 0.0 = top."""
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
            stacklevel=3,  # the caller of the public norm function
        )
    top = float(values[0]) if len(values) else 0.0
    power_sum = float(normalized_power_sum(values, (p,))[0])
    root = _saturating_power(power_sum, 1.0 / p)
    if root == math.inf and top < 1.0:
        # The root overflows only at p far below 1, since power_sum <= n. The
        # norm may still be finite: top goes under the root, where top ** p
        # cannot underflow at such p.
        return _saturating_power(top**p * power_sum, 1.0 / p)
    return top * root


def _saturating_power(x: float, y: float) -> float:
    """``x ** y`` for Python floats with x >= 0 or y even, or inf where the
    result overflows float64.

    A finite result is the bits of ``x ** y``: the overflow is caught as the
    ``OverflowError`` that Python raises, not foreseen by a bound.
    """
    try:
        return x**y
    except OverflowError:
        return math.inf
