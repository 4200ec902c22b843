"""One checker per matrix inequality, each returning a structured
:class:`CheckReport` with numeric slack.

Conventions shared by every checker:

* ``slack`` is the smallest signed margin over all clauses of the check
  (for an inequality lhs <= rhs the margin is rhs - lhs; for an equality
  it is minus the absolute deviation), so ``holds`` is simply
  ``slack >= -abs_tol`` with ``abs_tol = 1e-10 * max(1, |lhs|, |rhs|)``.
* Violated preconditions yield a not-applicable report
  (``preconditions_met=False``, ``holds=None``), never a failure.
* Two-sided bounds produce one report with per-side slacks in ``details``.

Exponent-dependent checks also come in ``grid_*`` form, which evaluates a
whole exponent grid with one power-sum call per spectrum; ``check_*`` is
the single-exponent special case. Every sr_p comes from
:func:`srlab.ranks.srp_from_sigma`, and every intrinsic dimension from
:func:`srlab.matrices.psd_intrinsic_dimension`. Every classification and
decomposition goes through the :mod:`srlab.matrices` family, so inside a
:func:`srlab.matrices.trial_scope` (one fuzz trial) each input is
decomposed once across all checks, not once per check.

:data:`CHECKS` maps each check's name to its ``check_*`` function, whose
signature is the whole description the CLI needs: the parameters without
defaults are its inputs. Which fuzz-trial inputs feed which check is
described in :mod:`srlab.fuzz`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    DecompositionError,
    Matrix,
    Tolerances,
    hermitian_part_eigenvalues,
    is_hermitian,
    pivoted_cholesky,
    psd_eigenvalues,
    psd_intrinsic_dimension,
    sigma,
    sigma_and_psd,
)
from .ranks import DEFAULT_RANK_RTOL, numerical_rank_from_spectrum, srp_from_sigma

# Not called here: perfbench's traced run counts power sums by wrapping
# this module attribute, so the name stays importable from srlab.checks.
from .schatten import normalized_power_sum  # noqa: F401

SLACK_RTOL = 1e-10

_NAN = float("nan")


class CheckReport(NamedTuple):
    """Outcome of one inequality check on concrete matrices (immutable)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool | None
    preconditions_met: bool
    details: dict

    @property
    def status(self) -> str:
        if not self.preconditions_met:
            return "not-applicable"
        return "pass" if self.holds else "fail"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": encode_json(self.lhs),
            "rhs": encode_json(self.rhs),
            "slack": encode_json(self.slack),
            "holds": self.holds,
            "preconditions_met": self.preconditions_met,
            "status": self.status,
            "details": encode_json(self.details),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CheckReport":
        return CheckReport(
            name=d["name"],
            lhs=_decode(d["lhs"]),
            rhs=_decode(d["rhs"]),
            slack=_decode(d["slack"]),
            holds=d["holds"],
            preconditions_met=d["preconditions_met"],
            details=_decode(d["details"]),
        )


def encode_json(v):
    """JSON-safe encoding: non-finite floats become sentinel strings.

    A :class:`CheckReport` becomes its :meth:`~CheckReport.to_json_dict`,
    not the list its tuple base would give.
    """
    if isinstance(v, dict):
        return {k: encode_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        if isinstance(v, CheckReport):
            return v.to_json_dict()
        return [encode_json(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return v


def _decode(v):
    if isinstance(v, dict):
        return {k: _decode(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_decode(x) for x in v]
    if v == "nan":
        return float("nan")
    if v == "inf":
        return float("inf")
    if v == "-inf":
        return float("-inf")
    return v


def _finish(name: str, lhs: float, rhs: float, margins, details: dict) -> CheckReport:
    """An applicable report; ``scale`` is max(1, |lhs|, |rhs|) over the finite sides."""
    lhs = float(lhs)
    rhs = float(rhs)
    slack = float(min(margins))
    scale = 1.0
    if scale < abs(lhs) < math.inf:
        scale = abs(lhs)
    if scale < abs(rhs) < math.inf:
        scale = abs(rhs)
    return CheckReport(name, lhs, rhs, slack, slack >= -SLACK_RTOL * scale, True, details)


def _not_applicable(name: str, reason: str, **details) -> CheckReport:
    details = {k: v for k, v in details.items() if v is not None}
    return CheckReport(name, _NAN, _NAN, _NAN, None, False, {"reason": reason, **details})


def _proot(x: float, p: float) -> float:
    """x ** (1/p) for x >= 0, with the p = inf limit (1 for positive x)."""
    if math.isinf(p):
        return 1.0 if x > 0 else 0.0
    return x ** (1.0 / p)


def _proot_grid(values: np.ndarray, ps: list[float]) -> list[float]:
    """srp(values)^(1/p) for every p in ``ps``, with one power-sum call."""
    return [_proot(x, p) for x, p in zip(srp_from_sigma(values, ps).tolist(), ps)]


def _psd_sigma(w: np.ndarray) -> np.ndarray:
    """Singular values of a PSD matrix from its descending eigenvalues."""
    return np.maximum(w, 0.0)


def _is_zero(a: np.ndarray) -> bool:
    return not np.asarray(a).any()


def _same_square(a: np.ndarray, b: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape == b.shape and a.shape[0] == a.shape[1]


# ---------------------------------------------------------------------------
# Exponent-independent checkers


def check_weyl(a: Matrix, b: Matrix, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """lam_1(A+B) >= lam_1(A) + lam_n(B) >= lam_1(A) for PSD A, B."""
    name = "weyl"
    a = np.asarray(a)
    b = np.asarray(b)
    if not _same_square(a, b):
        return _not_applicable(name, "requires two square matrices of equal size")
    wa = psd_eigenvalues(a, tol)
    if wa is None:
        return _not_applicable(name, "A is not positive semi-definite")
    wb = psd_eigenvalues(b, tol)
    if wb is None:
        return _not_applicable(name, "B is not positive semi-definite")
    top_sum = float(hermitian_part_eigenvalues(a + b)[0])
    base = float(wa[0])
    mid = base + float(wb[-1])
    margins = [top_sum - mid, mid - base]
    details = {
        "lam1_sum": top_sum,
        "lam1_a": base,
        "lamn_b": float(wb[-1]),
        "slack_sum_bound": margins[0],
        "slack_base_bound": margins[1],
    }
    return _finish(name, mid, top_sum, margins, details)


def check_intdim_subadditive(
    a: Matrix, b: Matrix, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """intdim(A+B) <= intdim(A) + intdim(B) for nonzero PSD A, B."""
    name = "intdim_subadditive"
    a = np.asarray(a)
    b = np.asarray(b)
    if not _same_square(a, b):
        return _not_applicable(name, "requires two square matrices of equal size")
    if _is_zero(a) or _is_zero(b):
        return _not_applicable(name, "requires nonzero matrices")
    if psd_eigenvalues(a, tol) is None or psd_eigenvalues(b, tol) is None:
        return _not_applicable(name, "requires positive semi-definite matrices")
    id_a = psd_intrinsic_dimension(a)
    id_b = psd_intrinsic_dimension(b)
    lhs = psd_intrinsic_dimension(a + b)
    rhs = id_a + id_b
    return _finish(name, lhs, rhs, [rhs - lhs], {"intdim_a": id_a, "intdim_b": id_b})


def check_block_diag_sr(
    a11: Matrix, a22: Matrix, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """min(sr(A11), sr(A22)) <= sr(diag(A11, A22)) <= sr(A11) + sr(A22)."""
    name = "block_diag_sr"
    a11 = np.asarray(a11)
    a22 = np.asarray(a22)
    if a11.ndim != 2 or a22.ndim != 2:
        raise ValueError("block_diag_sr requires two matrices")
    dtype = np.result_type(a11.dtype, a22.dtype, np.float64)
    m1, n1 = a11.shape
    m2, n2 = a22.shape
    block = np.zeros((m1 + m2, n1 + n2), dtype=dtype)
    block[:m1, :n1] = a11
    block[m1:, n1:] = a22
    sr11 = srp_from_sigma(sigma(a11), 2.0)
    sr22 = srp_from_sigma(sigma(a22), 2.0)
    sr_block = srp_from_sigma(sigma(block), 2.0)
    low = min(sr11, sr22)
    high = sr11 + sr22
    margins = [sr_block - low, high - sr_block]
    details = {
        "sr_a11": sr11,
        "sr_a22": sr22,
        "lower_bound": low,
        "upper_bound": high,
        "slack_lower": margins[0],
        "slack_upper": margins[1],
    }
    return _finish(name, sr_block, high, margins, details)


def check_block_intdim(a: Matrix, k: int, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """intdim(A) <= intdim(A11) + intdim(A22) for principal blocks of PSD A."""
    name = "block_intdim"
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return _not_applicable(name, "requires a square matrix")
    n = a.shape[0]
    k = int(k)
    if not 1 <= k < n:
        raise ValueError(f"block split k must satisfy 1 <= k < n, got k={k}, n={n}")
    if psd_eigenvalues(a, tol) is None:
        return _not_applicable(name, "requires a positive semi-definite matrix")
    id_full = psd_intrinsic_dimension(a)
    id_11 = psd_intrinsic_dimension(a[:k, :k])
    id_22 = psd_intrinsic_dimension(a[k:, k:])
    rhs = id_11 + id_22
    details = {"k": k, "intdim_a11": id_11, "intdim_a22": id_22}
    return _finish(name, id_full, rhs, [rhs - id_full], details)


def check_deletion(
    a: Matrix,
    drop_col: int,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> CheckReport:
    """rank(A with a column deleted) <= rank(A); stable ranks reported only.

    The rank clause must hold; the stable-rank comparison can go either
    way and is recorded in ``details`` without being asserted.
    """
    name = "deletion"
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("deletion requires a matrix")
    n = a.shape[1]
    if n < 2:
        return _not_applicable(name, "requires at least 2 columns")
    drop_col = int(drop_col)
    if not 0 <= drop_col < n:
        raise ValueError(f"drop_col must lie in [0, {n}), got {drop_col}")
    ahat = np.delete(a, drop_col, axis=1)
    sa = sigma(a)
    sh = sigma(ahat)
    rank_a = numerical_rank_from_spectrum(sa, rtol)
    rank_h = numerical_rank_from_spectrum(sh, rtol)
    sr_a = srp_from_sigma(sa, 2.0)
    sr_h = srp_from_sigma(sh, 2.0)
    details = {
        "drop_col": drop_col,
        "rank_a": rank_a,
        "rank_deleted": rank_h,
        "sr_a": sr_a,
        "sr_deleted": sr_h,
        "sr_increased": bool(sr_h > sr_a),
    }
    if psd_eigenvalues(a, tol) is not None:
        details["intdim_a"] = psd_intrinsic_dimension(a)
    return _finish(name, float(rank_h), float(rank_a), [float(rank_a - rank_h)], details)


def check_cholesky_intdim(a: Matrix, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """intdim(A) <= sr(L) for the pivoted Cholesky factor P*AP = LL*.

    The two quantities coincide analytically (trace(A) = ||L||_F^2 and
    ||A||_2 = ||L||_2^2), so the slack certifies the factorization as much
    as the inequality. The naive ratio trace(L)/||L||_2 is reported in
    ``details`` but not asserted; it is only a genuine intrinsic dimension
    when L is Hermitian PSD, in which case intdim(A) <= intdim(L) is
    asserted as well.
    """
    name = "cholesky_intdim"
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return _not_applicable(name, "requires a square matrix")
    if psd_eigenvalues(a, tol) is None:
        return _not_applicable(name, "requires a positive semi-definite matrix")
    L, perm, rank = pivoted_cholesky(a, tol)
    n = a.shape[0]
    permuted = a[np.ix_(perm, perm)]
    residual = float(np.linalg.norm(permuted - L @ L.conj().T))
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(a))):
        raise DecompositionError(
            f"pivoted Cholesky residual {residual:.3e} too large; input likely indefinite"
        )
    intdim_a = psd_intrinsic_dimension(a)
    sl = sigma(L) if rank > 0 else np.zeros(0)
    sr_l = srp_from_sigma(sl, 2.0)
    margins = [sr_l - intdim_a]
    details = {
        "factor_stable_rank": sr_l,
        "chol_rank": rank,
        "residual": residual,
        "permutation": [int(j) for j in perm],
    }
    if rank == n and len(sl) and sl[0] > 0.0:
        details["factor_trace_ratio"] = float(np.trace(L).real) / float(sl[0])
        if is_hermitian(L, tol):
            intdim_l = psd_intrinsic_dimension(L)
            details["factor_intdim"] = intdim_l
            margins.append(intdim_l - intdim_a)
    return _finish(name, intdim_a, sr_l, margins, details)


# ---------------------------------------------------------------------------
# Exponent-dependent checkers (grid form: one power-sum call per spectrum)


def _not_applicable_grid(name: str, reason: str, p_grid, **details) -> list[CheckReport]:
    return [_not_applicable(name, reason, p=float(p), **details) for p in p_grid]


def _grid_exponents(name: str, p_grid, finite: bool) -> tuple[list, list[float]]:
    """Per grid point a not-applicable report or the exponent, and the exponents.

    An exponent must be at least 1, and finite where ``finite`` is set.
    """
    need = "finite p" if finite else "p"
    checked = []
    for p in map(float, p_grid):
        if math.isnan(p) or p < 1.0 or (finite and math.isinf(p)):
            checked.append(_not_applicable(name, f"requires {need} >= 1, got p={p}", p=p))
        else:
            checked.append(p)
    return checked, [p for p in checked if not isinstance(p, CheckReport)]


def _grid_reports(checked: list, reports) -> list[CheckReport]:
    """Merge per-p results in grid order.

    ``checked`` holds, per grid point, either a not-applicable report or
    the validated exponent; ``reports`` yields one report per exponent.
    """
    reports = iter(reports)
    return [c if isinstance(c, CheckReport) else next(reports) for c in checked]


def grid_sum_subadditivity_proot(
    a: Matrix, b: Matrix, p_grid, tol: Tolerances = DEFAULT_TOL
) -> list[CheckReport]:
    """srp(A+B)^(1/p) <= srp(A)^(1/p) + srp(B)^(1/p) for nonzero PSD A, B."""
    name = "sum_subadditivity_proot"
    a = np.asarray(a)
    b = np.asarray(b)
    reason = None
    if not _same_square(a, b):
        reason = "requires two square matrices of equal size"
    elif _is_zero(a) or _is_zero(b):
        reason = "requires nonzero matrices"
    else:
        wa = psd_eigenvalues(a, tol)
        wb = psd_eigenvalues(b, tol)
        if wa is None or wb is None:
            reason = "requires positive semi-definite matrices"
    if reason is not None:
        return _not_applicable_grid(name, reason, p_grid)
    checked, ps = _grid_exponents(name, p_grid, finite=True)
    roots_a = _proot_grid(_psd_sigma(wa), ps)
    roots_b = _proot_grid(_psd_sigma(wb), ps)
    roots_sum = _proot_grid(_psd_sigma(hermitian_part_eigenvalues(a + b)), ps)

    def report(p, root_a, root_b, lhs):
        rhs = root_a + root_b
        details = {"p": p, "proot_a": root_a, "proot_b": root_b}
        return _finish(name, lhs, rhs, [rhs - lhs], details)

    return _grid_reports(checked, map(report, ps, roots_a, roots_b, roots_sum))


def check_sum_subadditivity_proot(
    a: Matrix, b: Matrix, p: float, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    return grid_sum_subadditivity_proot(a, b, [p], tol)[0]


def grid_rank1_addition(
    a: Matrix,
    b: Matrix,
    p_grid,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> list[CheckReport]:
    """srp(A+B)^(1/p) - srp(A)^(1/p) <= 1 for PSD A and rank-1 PSD B."""
    name = "rank1_addition"
    a = np.asarray(a)
    b = np.asarray(b)
    reason = None
    extra: dict = {}
    if not _same_square(a, b):
        reason = "requires two square matrices of equal size"
    else:
        wa = psd_eigenvalues(a, tol)
        wb = psd_eigenvalues(b, tol)
        if wa is None or wb is None:
            reason = "requires positive semi-definite matrices"
        else:
            rank_b = numerical_rank_from_spectrum(_psd_sigma(wb), rtol)
            if rank_b != 1:
                reason = f"requires rank(B) = 1, got {rank_b}"
                extra = {"rank_b": rank_b}
    if reason is not None:
        return _not_applicable_grid(name, reason, p_grid, **extra)
    checked, ps = _grid_exponents(name, p_grid, finite=False)
    roots_a = _proot_grid(_psd_sigma(wa), ps)
    roots_sum = _proot_grid(_psd_sigma(hermitian_part_eigenvalues(a + b)), ps)

    def report(p, root_a, root_sum):
        lhs = root_sum - root_a
        details = {"p": p, "proot_a": root_a, "proot_sum": root_sum}
        return _finish(name, lhs, 1.0, [1.0 - lhs], details)

    return _grid_reports(checked, map(report, ps, roots_a, roots_sum))


def check_rank1_addition(
    a: Matrix,
    b: Matrix,
    p: float,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> CheckReport:
    return grid_rank1_addition(a, b, [p], tol, rtol)[0]


def grid_product_kappa(
    a: Matrix,
    b: Matrix,
    p_grid,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> list[CheckReport]:
    """srp(B) / kappa2(A)^p <= srp(AB) <= kappa2(A)^p * srp(B), A nonsingular."""
    name = "product_kappa"
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return _not_applicable_grid(name, "requires square A", p_grid)
    if b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    sa = sigma(a)
    if numerical_rank_from_spectrum(sa, rtol) != a.shape[0]:
        return _not_applicable_grid(name, "A is numerically singular", p_grid)
    kappa = float(sa[0] / sa[-1])
    checked, ps = _grid_exponents(name, p_grid, finite=True)
    srps_b = srp_from_sigma(sigma(b), ps).tolist()
    srps_ab = srp_from_sigma(sigma(a @ b), ps).tolist()

    def report(p, srp_b, srp_ab):
        kappa_p = kappa**p
        upper = kappa_p * srp_b if srp_b > 0 else 0.0
        lower = srp_b / kappa_p
        margins = [upper - srp_ab, srp_ab - lower]
        details = {
            "p": p,
            "kappa2": kappa,
            "sr_p_b": srp_b,
            "lower_bound": lower,
            "upper_bound": upper,
            "slack_upper": margins[0],
            "slack_lower": margins[1],
        }
        return _finish(name, srp_ab, upper, margins, details)

    return _grid_reports(checked, map(report, ps, srps_b, srps_ab))


def check_product_kappa(
    a: Matrix,
    b: Matrix,
    p: float,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> CheckReport:
    return grid_product_kappa(a, b, [p], tol, rtol)[0]


def grid_cross_product(
    a: Matrix, p_grid, tol: Tolerances = DEFAULT_TOL
) -> list[CheckReport]:
    """srp(A*A) <= srp(A), srp(AA*) <= srp(A), and srp(A*A) = sr_{2p}(A)."""
    name = "cross_product"
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"cross_product requires a matrix, got shape {a.shape}")
    checked, ps = _grid_exponents(name, p_grid, finite=False)
    two_ps = [math.inf if math.isinf(p) else 2.0 * p for p in ps]
    srps_a = srp_from_sigma(sigma(a), ps + two_ps).tolist()
    srps_left = srp_from_sigma(sigma(a.conj().T @ a), ps).tolist()
    srps_right = srp_from_sigma(sigma(a @ a.conj().T), ps).tolist()

    def report(p, srp_a, sr_2p_a, gram_left, gram_right):
        ident_left = -abs(gram_left - sr_2p_a)
        ident_right = -abs(gram_right - sr_2p_a)
        margins = [srp_a - gram_left, srp_a - gram_right, ident_left, ident_right]
        details = {
            "p": p,
            "sr_p_a": srp_a,
            "sr_p_gram_left": gram_left,
            "sr_p_gram_right": gram_right,
            "sr_2p_a": sr_2p_a,
            "identity_abs_err": max(-ident_left, -ident_right),
        }
        return _finish(name, gram_left, srp_a, margins, details)

    k = len(ps)
    reports = map(report, ps, srps_a[:k], srps_a[k:], srps_left, srps_right)
    return _grid_reports(checked, reports)


def check_cross_product(a: Matrix, p: float, tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    return grid_cross_product(a, [p], tol)[0]


def grid_perturbation(
    a: Matrix,
    e: Matrix,
    p_grid,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> list[CheckReport]:
    """Two-sided conditioning bounds for srp(A+E)^(1/p) when eps < 1.

    With eps = ||E||_2 / ||A||_2 and r = rank(E):

        (srp(A)^(1/p) - r^(1/p) eps) / (1+eps) <= srp(A+E)^(1/p)
            <= (srp(A)^(1/p) + r^(1/p) eps) / (1-eps)

    When A and E are both PSD, the sharper pair

        srp(A)^(1/p) / (1+eps) <= srp(A+E)^(1/p) <= srp(A)^(1/p) + r^(1/p) eps

    is verified as well.
    """
    name = "perturbation"
    a = np.asarray(a)
    e = np.asarray(e)
    if a.shape != e.shape or a.ndim != 2:
        return _not_applicable_grid(name, "requires matrices of equal shape", p_grid)
    sig_a, psd_a = sigma_and_psd(a, tol)
    norm_a = float(sig_a[0])
    if norm_a == 0.0:
        return _not_applicable_grid(name, "A is the zero matrix", p_grid)
    sig_e, psd_e = sigma_and_psd(e, tol)
    eps = float(sig_e[0]) / norm_a
    if eps >= 1.0:
        reason = f"requires eps < 1, got eps={eps:.6g}"
        return _not_applicable_grid(name, reason, p_grid, epsilon=eps)
    r = numerical_rank_from_spectrum(sig_e, rtol)
    sig_sum, _ = sigma_and_psd(a + e, tol)
    psd_pair = psd_a and psd_e
    checked, ps = _grid_exponents(name, p_grid, finite=False)
    base_roots = _proot_grid(sig_a, ps)
    actual_roots = _proot_grid(sig_sum, ps)

    def report(p, x, y):
        rp = _proot(float(r), p)
        gen_lower = (x - rp * eps) / (1.0 + eps)
        gen_upper = (x + rp * eps) / (1.0 - eps)
        margins = [y - gen_lower, gen_upper - y]
        details = {
            "p": p,
            "epsilon": eps,
            "rank_e": r,
            "base_proot": x,
            "actual_proot": y,
            "gen_lower": gen_lower,
            "gen_upper": gen_upper,
            "psd_pair": psd_pair,
        }
        if psd_pair:
            psd_lower = x / (1.0 + eps)
            psd_upper = x + rp * eps
            margins += [y - psd_lower, psd_upper - y]
            details.update(psd_lower=psd_lower, psd_upper=psd_upper)
        return _finish(name, y, gen_upper, margins, details)

    return _grid_reports(checked, map(report, ps, base_roots, actual_roots))


def check_perturbation(
    a: Matrix,
    e: Matrix,
    p: float,
    tol: Tolerances = DEFAULT_TOL,
    rtol: float = DEFAULT_RANK_RTOL,
) -> CheckReport:
    return grid_perturbation(a, e, [p], tol, rtol)[0]


# ---------------------------------------------------------------------------
# Registry

CHECKS = {
    "weyl": check_weyl,
    "intdim_subadditive": check_intdim_subadditive,
    "sum_subadditivity_proot": check_sum_subadditivity_proot,
    "rank1_addition": check_rank1_addition,
    "product_kappa": check_product_kappa,
    "cross_product": check_cross_product,
    "perturbation": check_perturbation,
    "block_diag_sr": check_block_diag_sr,
    "block_intdim": check_block_intdim,
    "cholesky_intdim": check_cholesky_intdim,
    "deletion": check_deletion,
}

def canonical_check_name(name: str) -> str:
    """Accept either "weyl" or "check_weyl" style identifiers."""
    short = name[6:] if name.startswith("check_") else name
    if short not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    return short
