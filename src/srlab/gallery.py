"""Constructive families of matrices with analytic stable-rank and
intrinsic-dimension values, including every family that violates a
classical rank property.

Each builder returns a :class:`FamilyInstance` bundling the matrices, the
construction parameters, the predicted values, and (where the family is a
counterexample) an exact threshold predicate telling whether the parameters
cross into the violating regime. Threshold predicates are evaluated with
:mod:`fractions` so strict inequalities near the boundary are decided
exactly.

:data:`FAMILIES` maps each family's name to its builder. ``srlab gallery``
reads a builder's parameters from its signature: ``a`` comes from
``--input`` and every other parameter from the flag of the same name.

A builder's ``rotate_seed``, where it has one, conjugates the instance by
seeded random orthogonal matrices: diagonality is destroyed while every
predicted value is preserved (rotations are similarities wherever a
predicted quantity requires PSD input, and are shared across related
matrices so sums and products stay exact).

The congruence families build ``B*AB`` from a PSD ``A``. They take the PSD
decision from the one classifier, :func:`srlab.matrices.psd_eigenvalues`, so
they accept exactly the inputs that ``intrinsic_dimension`` accepts, and
their eigenvalues and eigenvectors from one ``eigh`` of the Hermitian part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .matrices import (
    Matrix,
    PreconditionError,
    _hermitize,
    _require_matrix,
    haar_unitary,
    prescribed_spectrum_matrix,
    projector_matrix,
    psd_eigenvalues,
    rank1_psd_matrix,
    trial_scope,
)
from .ranks import (
    DEFAULT_RANK_RTOL,
    intrinsic_dimension,
    numerical_rank,
    numerical_rank_from_spectrum,
    p_stable_rank,
    stable_rank,
)
from .schatten import _saturating_power, validate_exponent

GEOMETRIC_NOTE = (
    "sr equals the geometric series (1 - ratio^(2n)) / (1 - ratio^2); "
    "the simpler closed form (4/3)*(1 - 1/n) sometimes quoted for "
    "ratio = 1/2 is not the series value, though the bound sr <= 4/3 "
    "holds either way. rank_A predicts the numerical rank at rtol (1e-10 "
    "by default): the count of j < n with ratio^j > rtol, which is less "
    "than n once ratio^(n-1) drops to rtol."
)


@dataclass(frozen=True)
class FamilyInstance:
    """One parameterized example: matrices plus analytic predictions."""

    name: str
    matrices: dict[str, Matrix]
    params: dict
    predicted: dict[str, float]
    threshold_met: bool | None = None
    thresholds: dict[str, bool] = field(default_factory=dict)
    notes: str = ""


def evaluate(
    instance: FamilyInstance, rtol: float = DEFAULT_RANK_RTOL
) -> dict[str, dict[str, float]]:
    """Compute every predicted quantity and report relative errors.

    Predicted keys follow the convention ``<quantity>_<matrix key>`` with
    quantity one of sr, intdim, srp (uses ``params['p']``), or rank. The
    quantities are computed in one :func:`srlab.matrices.trial_scope`, so
    a matrix with several predicted quantities is decomposed once.
    """
    out = {}
    with trial_scope():
        for key, predicted in instance.predicted.items():
            quantity, _, mat_key = key.partition("_")
            a = instance.matrices[mat_key]
            if quantity == "sr":
                computed = stable_rank(a)
            elif quantity == "intdim":
                computed = intrinsic_dimension(a)
            elif quantity == "srp":
                computed = p_stable_rank(a, instance.params["p"], rtol)
            elif quantity == "rank":
                computed = float(numerical_rank(a, rtol))
            else:
                raise ValueError(f"unknown predicted quantity {key!r}")
            # A reported figure, not a threshold, so its floor of 1 stays.
            rel_err = abs(computed - predicted) / max(1.0, abs(predicted))
            out[key] = {"predicted": float(predicted), "computed": computed, "rel_err": rel_err}
    return out


def _freeze(matrices: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    for a in matrices.values():
        a.setflags(write=False)
    return matrices


def _diag(values) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=np.float64))


def _rotated(rotate_seed: int | None, *matrices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each matrix as ``q @ m @ q.T`` for one orthogonal ``q`` seeded by
    ``rotate_seed``, or unchanged when it is None."""
    if rotate_seed is None:
        return matrices
    q = haar_unitary(np.random.default_rng(rotate_seed), matrices[0].shape[0])
    return tuple(q @ m @ q.T for m in matrices)


def _finite(name: str, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _at_least(name: str, value, least):
    if _finite(name, value) < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _in_unit_interval(name: str, value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def _svd_rank(a: Matrix, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(a, s, vh, r)``: square ``a`` cast to float64 or complex128, its
    singular values and right singular vectors, and its rank at ``rtol``."""
    a = _require_matrix(a, "input", square=True)
    s, vh = np.linalg.svd(a)[1:]
    return a, s, vh, numerical_rank_from_spectrum(s, rtol)


def _multiplied(a: np.ndarray, vh: np.ndarray, d: np.ndarray) -> dict[str, np.ndarray]:
    """``A``, ``B = V diag(d)`` and ``AB``, frozen."""
    b = vh.conj().T * d
    return _freeze({"A": a.copy(), "B": b, "AB": a @ b})


def _psd_rank(a: Matrix, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(a, w, v, r)``: square ``a`` cast to float64 or complex128, the
    descending eigenvalues and eigenvectors of its Hermitian part, and its
    rank at ``rtol``. PSD is the classifier's decision (:func:`psd_eigenvalues`);
    ``w`` and ``v`` come from one ``eigh``."""
    a = _require_matrix(a, "input", square=True)
    if psd_eigenvalues(a) is None:
        raise PreconditionError("requires a positive semi-definite matrix")
    w, v = np.linalg.eigh(_hermitize(a))
    w = w[::-1].copy()
    return a, w, v[:, ::-1].copy(), numerical_rank_from_spectrum(w, rtol)


def _congruence(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> dict[str, np.ndarray]:
    """``A``, ``B = V diag(d) V*`` and ``B*AB``, frozen."""
    b = (v * d) @ v.conj().T
    return _freeze({"A": np.array(a), "B": b, "BAB": b.conj().T @ a @ b})


def geometric_decay(
    n: int, ratio: float, rotate_seed: int | None = None, rtol: float = DEFAULT_RANK_RTOL
) -> FamilyInstance:
    """Diagonal matrix with singular values ratio**j; rank_A is counted at rtol."""
    n = int(_at_least("n", n, 1))
    ratio = _in_unit_interval("ratio", float(ratio))
    values = ratio ** np.arange(n)
    a = _diag(values)
    if rotate_seed is not None:
        rng = np.random.default_rng(rotate_seed)
        a = haar_unitary(rng, n) @ a @ haar_unitary(rng, n).T
    sr = float(n) if ratio == 1.0 else (1.0 - ratio ** (2 * n)) / (1.0 - ratio**2)
    rank = numerical_rank_from_spectrum(values, rtol)
    return FamilyInstance(
        name="geometric_decay",
        matrices=_freeze({"A": a}),
        params={"n": n, "ratio": ratio},
        predicted={"sr_A": sr, "rank_A": float(rank)},
        notes=GEOMETRIC_NOTE,
    )


def deletion_family(
    n: int, alpha: float, rotate_seed: int | None = None, rtol: float = DEFAULT_RANK_RTOL
) -> FamilyInstance:
    """diag(I_{n-1}, alpha): deleting the trailing column (or row and
    column) raises the stable rank once alpha crosses sqrt((n-1)/(n-2)),
    and the intrinsic dimension once alpha crosses (n-1)/(n-2). rank_A is
    counted at rtol, so it is 1 once alpha reaches 1/rtol.
    """
    n = int(_at_least("n", n, 3))
    alpha = _at_least("alpha", float(alpha), 1)
    a = _diag([1.0] * (n - 1) + [alpha])
    a_hat_col = np.delete(a, n - 1, axis=1)
    a_hat_rowcol = np.eye(n - 1)
    if rotate_seed is not None:
        rng = np.random.default_rng(rotate_seed)
        q = haar_unitary(rng, n)
        a = q @ a @ q.T
        a_hat_col = haar_unitary(rng, n) @ a_hat_col @ haar_unitary(rng, n - 1).T
    thresholds = {
        "sr": Fraction(alpha) ** 2 > Fraction(n - 1, n - 2),
        "intdim": Fraction(alpha) > Fraction(n - 1, n - 2),
    }
    return FamilyInstance(
        name="deletion_family",
        matrices=_freeze({"A": a, "A_hat_col": a_hat_col, "A_hat_rowcol": a_hat_rowcol}),
        params={"n": n, "alpha": alpha},
        predicted={
            "sr_A": 1.0 + (n - 1) / _saturating_power(alpha, 2),
            "sr_A_hat_col": float(n - 1),
            "intdim_A": 1.0 + (n - 1) / alpha,
            "intdim_A_hat_rowcol": float(n - 1),
            "rank_A": float(numerical_rank_from_spectrum([alpha] + [1.0] * (n - 1), rtol)),
        },
        threshold_met=thresholds["sr"],
        thresholds=thresholds,
    )


def sum_violation_family(n: int, alpha: float, rotate_seed: int | None = None) -> FamilyInstance:
    """A = diag(alpha, 2I), B = diag(-alpha, -I): the stable rank of A+B
    exceeds sr(A) + sr(B) once alpha^2 crosses 5(n-1)/(n-3).
    """
    n = int(_at_least("n", n, 4))
    alpha = _finite("alpha", float(alpha))
    if abs(alpha) < 2.0:
        raise ValueError(f"|alpha| must be >= 2, got {alpha}")
    a = _diag([alpha] + [2.0] * (n - 1))
    b = _diag([-alpha] + [-1.0] * (n - 1))
    a, b = _rotated(rotate_seed, a, b)
    s = a + b
    thresholds = {"sr_sum": Fraction(alpha) ** 2 > Fraction(5 * (n - 1), n - 3)}
    return FamilyInstance(
        name="sum_violation_family",
        matrices=_freeze({"A": a, "B": b, "A_plus_B": s}),
        params={"n": n, "alpha": alpha},
        predicted={
            "sr_A": 1.0 + 4.0 * (n - 1) / _saturating_power(alpha, 2),
            "sr_B": 1.0 + (n - 1) / _saturating_power(alpha, 2),
            "sr_A_plus_B": float(n - 1),
        },
        threshold_met=thresholds["sr_sum"],
        thresholds=thresholds,
        notes="B is indefinite, so the PSD-only subadditivity bounds do not apply.",
    )


def rank1_drop_family(n: int, beta: float, rotate_seed: int | None = None) -> FamilyInstance:
    """Adding the rank-1 PSD matrix diag(beta, 0) to diag(0, I_{n-1})
    lowers the intrinsic dimension by more than one once beta crosses
    (n-1)/(n-3).
    """
    n = int(_at_least("n", n, 4))
    beta = _at_least("beta", float(beta), 1)
    a = _diag([0.0] + [1.0] * (n - 1))
    b = _diag([beta] + [0.0] * (n - 1))
    a, b = _rotated(rotate_seed, a, b)
    thresholds = {"intdim_drop": Fraction(beta) > Fraction(n - 1, n - 3)}
    return FamilyInstance(
        name="rank1_drop_family",
        matrices=_freeze({"A": a, "B": b, "A_plus_B": a + b}),
        params={"n": n, "beta": beta},
        predicted={
            "intdim_A": float(n - 1),
            "intdim_B": 1.0,
            "intdim_A_plus_B": 1.0 + (n - 1) / beta,
            "rank_B": 1.0,
        },
        threshold_met=thresholds["intdim_drop"],
        thresholds=thresholds,
    )


def product_violation_family(n: int, alpha: float, rotate_seed: int | None = None) -> FamilyInstance:
    """A = diag(I, alpha), B = diag(I, 1/alpha): AB = I has larger stable
    rank and intrinsic dimension than either factor whenever alpha > 1.
    """
    n = int(_at_least("n", n, 2))
    alpha = _at_least("alpha", float(alpha), 1)
    a = _diag([1.0] * (n - 1) + [alpha])
    b = _diag([1.0] * (n - 1) + [1.0 / alpha])
    a, b = _rotated(rotate_seed, a, b)
    # AB = I exactly; symmetrizing keeps the rotated product exactly
    # symmetric, so it is classified and decomposed like the other inputs.
    ab = _hermitize(a @ b)
    thresholds = {"product": Fraction(alpha) > 1}
    return FamilyInstance(
        name="product_violation_family",
        matrices=_freeze({"A": a, "B": b, "AB": ab}),
        params={"n": n, "alpha": alpha},
        predicted={
            "sr_A": 1.0 + (n - 1) / _saturating_power(alpha, 2),
            "sr_B": (n - 1) + 1.0 / _saturating_power(alpha, 2),
            "sr_AB": float(n),
            "intdim_A": 1.0 + (n - 1) / alpha,
            "intdim_B": (n - 1) + 1.0 / alpha,
            "intdim_AB": float(n),
        },
        threshold_met=thresholds["product"],
        thresholds=thresholds,
    )


def cross_gap_family(n: int, alpha: float, rotate_seed: int | None = None) -> FamilyInstance:
    """diag(1, alpha I): the Gram matrix A*A has strictly smaller stable
    rank and intrinsic dimension than A for alpha < 1.
    """
    n = int(_at_least("n", n, 2))
    alpha = _in_unit_interval("alpha", float(alpha))
    (a,) = _rotated(rotate_seed, _diag([1.0] + [alpha] * (n - 1)))
    gram = a.conj().T @ a
    thresholds = {"strict_gap": alpha < 1.0}
    return FamilyInstance(
        name="cross_gap_family",
        matrices=_freeze({"A": a, "AtA": gram}),
        params={"n": n, "alpha": alpha},
        predicted={
            "sr_A": 1.0 + (n - 1) * alpha**2,
            "sr_AtA": 1.0 + (n - 1) * alpha**4,
            "intdim_A": 1.0 + (n - 1) * alpha,
            "intdim_AtA": 1.0 + (n - 1) * alpha**2,
        },
        threshold_met=thresholds["strict_gap"],
        thresholds=thresholds,
    )


def maximizer_multiplier(a: Matrix, rtol: float = DEFAULT_RANK_RTOL) -> FamilyInstance:
    """Nonsingular B built from the SVD of A so that sr(AB) = rank(A)."""
    a, s, vh, r = _svd_rank(a, rtol)
    if r < 1:
        raise PreconditionError("requires a nonzero matrix", rank=r)
    n = len(s)
    d = np.ones(n)
    d[:r] = 1.0 / s[:r]
    return FamilyInstance(
        name="maximizer_multiplier",
        matrices=_multiplied(a, vh, d),
        params={"n": n, "r": r},
        predicted={"sr_AB": float(r), "rank_AB": float(r)},
    )


def minimizer_multiplier(
    a: Matrix, alpha: float, rtol: float = DEFAULT_RANK_RTOL
) -> FamilyInstance:
    """Nonsingular B shrinking all but the top singular value of AB by
    alpha, so that sr(AB) = 1 + (r-1) alpha^2 approaches 1 as alpha -> 0.
    """
    alpha = _in_unit_interval("alpha", float(alpha))
    a, s, vh, r = _svd_rank(a, rtol)
    if r < 2:
        raise PreconditionError(f"requires rank >= 2, got {r}", rank=r)
    n = len(s)
    d = np.ones(n)
    d[0] = 1.0 / s[0]
    d[1:r] = alpha / s[1:r]
    return FamilyInstance(
        name="minimizer_multiplier",
        matrices=_multiplied(a, vh, d),
        params={"n": n, "r": r, "alpha": alpha},
        predicted={"sr_AB": 1.0 + (r - 1) * alpha**2},
    )


def congruence_maximizer(a: Matrix, rtol: float = DEFAULT_RANK_RTOL) -> FamilyInstance:
    """Congruence B*AB with nonsingular B raising intdim to rank(A)."""
    a, w, v, r = _psd_rank(a, rtol)
    if r < 1:
        raise PreconditionError("requires a nonzero matrix", rank=r)
    n = len(w)
    d = np.ones(n)
    d[:r] = 1.0 / np.sqrt(w[:r])
    return FamilyInstance(
        name="congruence_maximizer",
        matrices=_congruence(a, v, d),
        params={"n": n, "r": r},
        predicted={"intdim_BAB": float(r)},
    )


def congruence_minimizer(
    a: Matrix, alpha: float, rtol: float = DEFAULT_RANK_RTOL
) -> FamilyInstance:
    """Congruence B*AB lowering intdim to 1 + (r-1) alpha, close to 1."""
    alpha = _in_unit_interval("alpha", float(alpha))
    a, w, v, r = _psd_rank(a, rtol)
    if r < 2:
        raise PreconditionError(f"requires rank >= 2, got {r}", rank=r)
    n = len(w)
    d = np.ones(n)
    d[0] = np.sqrt(1.0 / w[0])
    d[1:r] = np.sqrt(alpha / w[1:r])
    return FamilyInstance(
        name="congruence_minimizer",
        matrices=_congruence(a, v, d),
        params={"n": n, "r": r, "alpha": alpha},
        predicted={"intdim_BAB": 1.0 + (r - 1) * alpha},
    )


EQUALITY_KINDS = ("rank1", "scaled_unitary", "flat_spectrum", "projector")


def equality_cases(
    kind: str, n: int, p=2.0, rank: int | None = None, seed: int = 0
) -> FamilyInstance:
    """Instances where the p-stable rank equals the rank exactly.

    For kinds other than rank1 the exponent must be finite (at p = inf the
    p-stable rank of any nonzero matrix is 1). rank1 and scaled_unitary fix
    the rank (1 and n); a ``rank`` given for them must equal it.
    """
    if kind not in EQUALITY_KINDS:
        raise ValueError(f"unknown kind {kind!r}; known: {', '.join(EQUALITY_KINDS)}")
    n = int(_at_least("n", n, 1))
    p = validate_exponent(p)
    if kind != "rank1" and math.isinf(p):
        raise ValueError("sr_p equals the rank at p = inf only in the rank-1 case")
    fixed = {"rank1": 1, "scaled_unitary": n}.get(kind, rank)  # the rank a kind fixes
    if rank not in (None, fixed):
        raise ValueError(f"{kind} has rank {fixed}, got rank {rank}")
    rank = fixed
    if rank is None or not 1 <= rank <= n:
        raise ValueError(f"{kind} requires 1 <= rank <= n")
    rng = np.random.default_rng(seed)
    if kind == "rank1":
        a = rank1_psd_matrix(rng, n)
    elif kind == "scaled_unitary":
        a = 2.0 * haar_unitary(rng, n)
    elif kind == "flat_spectrum":
        a = prescribed_spectrum_matrix(rng, n, n, [1.5] * rank)
    else:
        a = projector_matrix(rng, n, rank)
    predicted = {"srp_A": float(rank), "rank_A": float(rank)}
    if kind == "projector":
        predicted["intdim_A"] = float(rank)
    return FamilyInstance(
        name="equality_cases",
        matrices=_freeze({"A": a}),
        params={"kind": kind, "n": n, "p": p, "rank": rank, "seed": int(seed)},
        predicted=predicted,
    )


# Every family by name, in the order the CLI lists them.
FAMILIES = {
    "geometric_decay": geometric_decay,
    "deletion_family": deletion_family,
    "sum_violation_family": sum_violation_family,
    "rank1_drop_family": rank1_drop_family,
    "product_violation_family": product_violation_family,
    "cross_gap_family": cross_gap_family,
    "maximizer_multiplier": maximizer_multiplier,
    "minimizer_multiplier": minimizer_multiplier,
    "congruence_maximizer": congruence_maximizer,
    "congruence_minimizer": congruence_minimizer,
    "equality_cases": equality_cases,
}
