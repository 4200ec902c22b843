"""One checker per matrix inequality, each returning a structured
:class:`CheckReport` with numeric slack.

Conventions shared by every checker:

* A check hands :func:`_finish` its clauses, plain tuples
  ``(lhs, rhs, identity, name)``: an inequality lhs <= rhs has margin
  rhs - lhs, an identity lhs = rhs has margin -abs(lhs - rhs), and a named
  clause's margin is also ``details["slack_" + name]``. ``slack`` is the
  least margin, so ``holds`` is simply ``slack >= -abs_tol`` with
  ``abs_tol = 1e-10 * max(|lhs|, |rhs|)`` over the finite sides; ``lhs`` and
  ``rhs`` are one clause's sides. The tolerance has no absolute floor, so a
  power-of-two scaling of the inputs that neither overflows nor underflows
  keeps every verdict. Only :func:`_finish` turns clauses into margins.
* Each check first reads each matrix argument through
  :func:`srlab.matrices._require_matrix`, so input that is not a dense,
  nonempty 2-D array is a ``ValueError`` naming the check and the shape.
* Violated preconditions, shape relations among them, yield a
  not-applicable report (``preconditions_met=False``, ``holds=None``),
  never a failure. Its reason reads ``requires ...`` for a shape relation
  and names the operand's ``srlab verify`` slot for a property of one
  operand (``B is not positive semi-definite``, ``A is the zero matrix``).
* Two-sided bounds produce one report with a named clause per side.

Exponent-dependent checks also come in ``grid_*`` form, which evaluates a
whole exponent grid in one pass, with one power-sum call per spectrum, into
a list of :class:`CheckReport`, one per grid point in grid order, with a
not-applicable report where a point's exponent is out of range. Every
applicable report is built by :func:`_finish` and every not-applicable one
by :func:`_not_applicable`, grid or not. ``check_*`` is the
single-exponent grid, indexed. Every sr_p comes from
:func:`srlab.ranks.srp_from_sigma`, and every intrinsic dimension from
:func:`srlab.matrices.psd_intrinsic_dimension`.

Singular values are taken one of two ways. A PSD-gated check evaluates
the inequality on the spectrum the classifier decided on: the eigenvalues
from :func:`srlab.matrices.psd_eigenvalues`, mapped through
:func:`srlab.matrices.sigma_from_eigenvalues` or handed to
:func:`srlab.matrices.psd_intrinsic_dimension`, so it runs no second
decomposition of a classified operand, in a trial scope or outside one.
Every other spectrum is :func:`srlab.matrices.sigma`. On an exactly
Hermitian input the two give the same bits. Every classification and
decomposition goes through the :mod:`srlab.matrices` family, so inside a
:func:`srlab.matrices.trial_scope` (one fuzz trial) each input is
decomposed once across all checks, not once per check.

:data:`CHECKS` maps each check's name to its ``check_*`` function, whose
signature is the whole description the CLI needs: the parameters without
defaults are its matrix inputs, and the others its flags. Which fuzz-trial
inputs feed which check is described in :mod:`srlab.fuzz`.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .matrices import (
    DecompositionError,
    Matrix,
    _require_matrix,
    hermitian_part_eigenvalues,
    is_hermitian,
    pivoted_cholesky,
    psd_eigenvalues,
    psd_intrinsic_dimension,
    sigma,
    sigma_from_eigenvalues,
)
from .ranks import DEFAULT_RANK_RTOL, numerical_rank_from_spectrum, srp_from_sigma
from .schatten import _saturating_power

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


def encode_json(v):
    """JSON-safe encoding: non-finite floats become sentinel strings."""
    if isinstance(v, dict):
        return {k: encode_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
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


def _verdict(lhs: float, rhs: float, margins) -> tuple[float, bool]:
    """The slack (least margin) and whether it is within ``SLACK_RTOL * scale``.

    ``scale`` is max(|lhs|, |rhs|) over the finite sides, 0 when neither is.
    """
    slack = float(min(margins))
    scale = 0.0
    if scale < abs(lhs) < math.inf:
        scale = abs(lhs)
    if scale < abs(rhs) < math.inf:
        scale = abs(rhs)
    return slack, slack >= -SLACK_RTOL * scale


def _finish(name: str, clauses, details: dict, headline: int = 0) -> CheckReport:
    """An applicable report on ``clauses`` (see the module docstring), its
    sides those of ``clauses[headline]``."""
    margins = []
    for lhs, rhs, identity, key in clauses:
        margin = -abs(lhs - rhs) if identity else rhs - lhs
        margins.append(margin)
        if key is not None:
            # Interned, so reports share their keys as they share literal ones.
            details[sys.intern("slack_" + key)] = margin
    lhs, rhs = float(clauses[headline][0]), float(clauses[headline][1])
    return CheckReport(name, lhs, rhs, *_verdict(lhs, rhs, margins), True, details)


def _not_applicable(name: str, reason: str, **details) -> CheckReport:
    details = {k: v for k, v in details.items() if v is not None}
    return CheckReport(name, _NAN, _NAN, _NAN, None, False, {"reason": reason, **details})


def _proot(x: float, p: float) -> float:
    """x ** (1/p) for x >= 0, with the p = inf limit (1 for positive x)."""
    if math.isinf(p):
        return 1.0 if x > 0 else 0.0
    return x ** (1.0 / p)


def _proot_grid(values: np.ndarray, ps) -> list[float]:
    """srp(values)^(1/p) for every p in ``ps``, with one power-sum call."""
    return [_proot(x, p) for x, p in zip(srp_from_sigma(values, ps).tolist(), ps)]


def _psd_gate(nonzero: bool = False, **slots: np.ndarray) -> str | list[np.ndarray]:
    """The operands' :func:`psd_eigenvalues` in slot order, or why a PSD-gated
    check is not applicable: the first test to fail of the shape relation (one
    square matrix, or two of equal size), no operand zero (where ``nonzero``)
    and each operand PSD. ``slots`` holds the operands by their ``srlab
    verify`` slot names (``A``, ``B``, ``E``)."""
    mats = tuple(slots.values())
    shape = mats[0].shape
    if shape[0] != shape[1] or mats[-1].shape != shape:  # one or two operands
        if len(mats) == 1:
            return "requires a square matrix"
        return "requires two square matrices of equal size"
    for slot, m in slots.items() if nonzero else ():
        if np.count_nonzero(m) == 0:  # a few times faster than ``not m.any()``
            return f"{slot} is the zero matrix"
    eigenvalues = []
    for slot, m in slots.items():
        if (w := psd_eigenvalues(m)) is None:
            return f"{slot} is not positive semi-definite"
        eigenvalues.append(w)
    return eigenvalues


# ---------------------------------------------------------------------------
# Exponent-independent checkers


def check_weyl(a: Matrix, b: Matrix) -> CheckReport:
    """lam_1(A+B) >= lam_1(A) + lam_n(B) >= lam_1(A) for PSD A, B."""
    name = "weyl"
    a, b = _require_matrix(a, name), _require_matrix(b, name)
    if isinstance(gate := _psd_gate(A=a, B=b), str):
        return _not_applicable(name, gate)
    wa, wb = gate
    top_sum = float(hermitian_part_eigenvalues(a + b)[0])
    base = float(wa[0])
    mid = base + float(wb[-1])
    clauses = [(mid, top_sum, False, "sum_bound"), (base, mid, False, "base_bound")]
    details = {"lam1_sum": top_sum, "lam1_a": base, "lamn_b": float(wb[-1])}
    return _finish(name, clauses, details)


def check_intdim_subadditive(a: Matrix, b: Matrix) -> CheckReport:
    """intdim(A+B) <= intdim(A) + intdim(B) for nonzero PSD A, B."""
    name = "intdim_subadditive"
    a, b = _require_matrix(a, name), _require_matrix(b, name)
    if isinstance(gate := _psd_gate(nonzero=True, A=a, B=b), str):
        return _not_applicable(name, gate)
    wa, wb = gate
    id_a = psd_intrinsic_dimension(a, wa)
    id_b = psd_intrinsic_dimension(b, wb)
    lhs = psd_intrinsic_dimension(a + b)
    rhs = id_a + id_b
    return _finish(name, [(lhs, rhs, False, None)], {"intdim_a": id_a, "intdim_b": id_b})


def check_block_diag_sr(a11: Matrix, a22: Matrix) -> CheckReport:
    """min(sr(A11), sr(A22)) <= sr(diag(A11, A22)) <= sr(A11) + sr(A22)."""
    name = "block_diag_sr"
    a11, a22 = _require_matrix(a11, name), _require_matrix(a22, name)
    m1, n1 = a11.shape
    m2, n2 = a22.shape
    block = np.zeros((m1 + m2, n1 + n2), dtype=np.result_type(a11, a22))
    block[:m1, :n1] = a11
    block[m1:, n1:] = a22
    sr11 = srp_from_sigma(sigma(a11), 2.0)
    sr22 = srp_from_sigma(sigma(a22), 2.0)
    sr_block = srp_from_sigma(sigma(block), 2.0)
    low = min(sr11, sr22)
    high = sr11 + sr22
    clauses = [(low, sr_block, False, "lower"), (sr_block, high, False, "upper")]
    details = {"sr_a11": sr11, "sr_a22": sr22, "lower_bound": low, "upper_bound": high}
    return _finish(name, clauses, details, headline=1)


def check_block_intdim(a: Matrix, k: int = 1) -> CheckReport:
    """intdim(A) <= intdim(A11) + intdim(A22) for principal blocks of PSD A."""
    name = "block_intdim"
    a = _require_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        return _not_applicable(name, "requires a square matrix")
    n = a.shape[0]
    if n < 2:
        return _not_applicable(name, "requires at least 2 rows and columns")
    k = int(k)
    if not 1 <= k < n:
        raise ValueError(f"block split k must satisfy 1 <= k < n, got k={k}, n={n}")
    if isinstance(gate := _psd_gate(A=a), str):
        return _not_applicable(name, gate)
    id_full = psd_intrinsic_dimension(a, gate[0])
    id_11 = psd_intrinsic_dimension(a[:k, :k])
    id_22 = psd_intrinsic_dimension(a[k:, k:])
    rhs = id_11 + id_22
    details = {"k": k, "intdim_a11": id_11, "intdim_a22": id_22}
    return _finish(name, [(id_full, rhs, False, None)], details)


def check_deletion(a: Matrix, drop_col: int = 0, rtol: float = DEFAULT_RANK_RTOL) -> CheckReport:
    """rank(A with a column deleted) <= rank(A); stable ranks reported only.

    The rank clause must hold; the stable-rank comparison can go either
    way and is recorded in ``details`` without being asserted.
    """
    name = "deletion"
    a = _require_matrix(a, name)
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
    if (w := psd_eigenvalues(a)) is not None:
        details["intdim_a"] = psd_intrinsic_dimension(a, w)
    return _finish(name, [(rank_h, rank_a, False, None)], details)


def check_cholesky_intdim(a: Matrix) -> CheckReport:
    """intdim(A) <= sr(L) for the pivoted Cholesky factor P*AP = LL*.

    The two quantities coincide analytically (trace(A) = ||L||_F^2 and
    ||A||_2 = ||L||_2^2), so the slack certifies the factorization as much
    as the inequality. The naive ratio trace(L)/||L||_2 is reported in
    ``details`` but not asserted; it is only a genuine intrinsic dimension
    when L is Hermitian PSD, in which case intdim(A) <= intdim(L) is
    asserted as well.
    """
    name = "cholesky_intdim"
    a = _require_matrix(a, name)
    if isinstance(gate := _psd_gate(A=a), str):
        return _not_applicable(name, gate)
    L, perm, rank = pivoted_cholesky(a)
    n = a.shape[0]
    permuted = a[np.ix_(perm, perm)]
    residual = float(np.linalg.norm(permuted - L @ L.conj().T))
    if residual > 1e-8 * float(np.linalg.norm(a)):
        raise DecompositionError(
            f"pivoted Cholesky residual {residual:.3e} too large; input likely indefinite"
        )
    intdim_a = psd_intrinsic_dimension(a, gate[0])
    sl = sigma(L) if rank > 0 else np.zeros(0)
    sr_l = srp_from_sigma(sl, 2.0)
    clauses = [(intdim_a, sr_l, False, None)]
    details = {
        "factor_stable_rank": sr_l,
        "chol_rank": rank,
        "residual": residual,
        "permutation": [int(j) for j in perm],
    }
    if rank == n and len(sl) and sl[0] > 0.0:
        details["factor_trace_ratio"] = float(np.trace(L).real) / float(sl[0])
        if is_hermitian(L):
            intdim_l = psd_intrinsic_dimension(L)
            details["factor_intdim"] = intdim_l
            clauses.append((intdim_a, intdim_l, False, None))
    return _finish(name, clauses, details)


# ---------------------------------------------------------------------------
# Exponent-dependent checkers (grid form: one report per grid point, one
# power-sum call per spectrum)


@functools.lru_cache(maxsize=64)
def _grid_exponents(p_grid: tuple, finite: bool) -> tuple[tuple, tuple, tuple]:
    """The grid as floats, per point None or why it is not applicable, and
    the valid exponents.

    An exponent must be at least 1, and finite where ``finite`` is set.
    """
    # A fuzz campaign passes the same grid to every check of every trial;
    # validating it in every call cost about 1.5% of a campaign trial.
    need = "finite p" if finite else "p"
    ps = tuple(float(p) for p in p_grid)
    reasons = tuple(
        f"requires {need} >= 1, got p={p}"
        if math.isnan(p) or p < 1.0 or (finite and math.isinf(p))
        else None
        for p in ps
    )
    return ps, reasons, tuple(p for p, reason in zip(ps, reasons) if reason is None)


def _grid(name: str, ps, reasons, rows) -> list[CheckReport]:
    """One report per point of the grid ``ps``, in grid order.

    ``reasons`` holds, per grid point, None or why the point is not
    applicable. ``rows`` yields the arguments of :func:`_finish` after the
    name, ``(clauses, details)`` or ``(clauses, details, headline)``, for
    each applicable point in grid order.
    """
    rows = iter(rows)
    return [
        _finish(name, *next(rows)) if reason is None else _not_applicable(name, reason, p=p)
        for p, reason in zip(ps, reasons)
    ]


def _not_applicable_grid(name: str, reason: str, p_grid, **extra) -> list[CheckReport]:
    return [_not_applicable(name, reason, p=float(p), **extra) for p in p_grid]


def grid_sum_subadditivity_proot(a: Matrix, b: Matrix, p_grid) -> list[CheckReport]:
    """srp(A+B)^(1/p) <= srp(A)^(1/p) + srp(B)^(1/p) for nonzero PSD A, B."""
    name = "sum_subadditivity_proot"
    a, b = _require_matrix(a, name), _require_matrix(b, name)
    if isinstance(gate := _psd_gate(nonzero=True, A=a, B=b), str):
        return _not_applicable_grid(name, gate, p_grid)
    wa, wb = gate
    ps, reasons, valid = _grid_exponents(tuple(p_grid), finite=True)
    roots_a = _proot_grid(sigma_from_eigenvalues(wa), valid)
    roots_b = _proot_grid(sigma_from_eigenvalues(wb), valid)
    roots_sum = _proot_grid(sigma_from_eigenvalues(hermitian_part_eigenvalues(a + b)), valid)

    def rows():
        for p, root_a, root_b, lhs in zip(valid, roots_a, roots_b, roots_sum):
            details = {"p": p, "proot_a": root_a, "proot_b": root_b}
            yield ((lhs, root_a + root_b, False, None),), details

    return _grid(name, ps, reasons, rows())


def check_sum_subadditivity_proot(a: Matrix, b: Matrix, p: float = 2.0) -> CheckReport:
    return grid_sum_subadditivity_proot(a, b, [p])[0]


def grid_rank1_addition(
    a: Matrix, b: Matrix, p_grid, rtol: float = DEFAULT_RANK_RTOL
) -> list[CheckReport]:
    """srp(A+B)^(1/p) - srp(A)^(1/p) <= 1 for PSD A and rank-1 PSD B."""
    name = "rank1_addition"
    a, b = _require_matrix(a, name), _require_matrix(b, name)
    if isinstance(gate := _psd_gate(A=a, B=b), str):
        return _not_applicable_grid(name, gate, p_grid)
    wa, wb = gate
    rank_b = numerical_rank_from_spectrum(sigma_from_eigenvalues(wb), rtol)
    if rank_b != 1:
        reason = f"requires rank(B) = 1, got {rank_b}"
        return _not_applicable_grid(name, reason, p_grid, rank_b=rank_b)
    ps, reasons, valid = _grid_exponents(tuple(p_grid), finite=False)
    roots_a = _proot_grid(sigma_from_eigenvalues(wa), valid)
    roots_sum = _proot_grid(sigma_from_eigenvalues(hermitian_part_eigenvalues(a + b)), valid)

    def rows():
        for p, root_a, root_sum in zip(valid, roots_a, roots_sum):
            details = {"p": p, "proot_a": root_a, "proot_sum": root_sum}
            yield ((root_sum - root_a, 1.0, False, None),), details

    return _grid(name, ps, reasons, rows())


def check_rank1_addition(
    a: Matrix, b: Matrix, p: float = 2.0, rtol: float = DEFAULT_RANK_RTOL
) -> CheckReport:
    return grid_rank1_addition(a, b, [p], rtol=rtol)[0]


def grid_product_kappa(
    a: Matrix, b: Matrix, p_grid, rtol: float = DEFAULT_RANK_RTOL
) -> list[CheckReport]:
    """srp(B) / kappa2(A)^p <= srp(AB) <= kappa2(A)^p * srp(B), A nonsingular;
    a kappa2(A)^p beyond float64 reads inf."""
    name = "product_kappa"
    a, b = _require_matrix(a, name), _require_matrix(b, name)
    if a.shape[0] != a.shape[1]:
        return _not_applicable_grid(name, "requires square A", p_grid)
    if b.shape[0] != a.shape[0]:
        return _not_applicable_grid(name, "requires B with as many rows as A", p_grid)
    sa = sigma(a)
    if numerical_rank_from_spectrum(sa, rtol) != a.shape[0]:
        return _not_applicable_grid(name, "A is numerically singular", p_grid)
    kappa = float(sa[0] / sa[-1])
    ps, reasons, valid = _grid_exponents(tuple(p_grid), finite=True)
    srps_b = srp_from_sigma(sigma(b), valid).tolist()
    srps_ab = srp_from_sigma(sigma(a @ b), valid).tolist()

    def rows():
        for p, srp_b, srp_ab in zip(valid, srps_b, srps_ab):
            kappa_p = _saturating_power(kappa, p)
            upper = kappa_p * srp_b if srp_b > 0 else 0.0
            lower = srp_b / kappa_p
            clauses = ((srp_ab, upper, False, "upper"), (lower, srp_ab, False, "lower"))
            details = {
                "p": p,
                "kappa2": kappa,
                "sr_p_b": srp_b,
                "lower_bound": lower,
                "upper_bound": upper,
            }
            yield clauses, details

    return _grid(name, ps, reasons, rows())


def check_product_kappa(
    a: Matrix, b: Matrix, p: float = 2.0, rtol: float = DEFAULT_RANK_RTOL
) -> CheckReport:
    return grid_product_kappa(a, b, [p], rtol=rtol)[0]


def grid_cross_product(a: Matrix, p_grid) -> list[CheckReport]:
    """srp(A*A) <= srp(A), srp(AA*) <= srp(A), and srp(A*A) = sr_{2p}(A)."""
    name = "cross_product"
    a = _require_matrix(a, name)
    ps, reasons, valid = _grid_exponents(tuple(p_grid), finite=False)
    two_ps = tuple(math.inf if math.isinf(p) else 2.0 * p for p in valid)
    srps_a = srp_from_sigma(sigma(a), valid + two_ps).tolist()
    srps_left = srp_from_sigma(sigma(a.conj().T @ a), valid).tolist()
    srps_right = srp_from_sigma(sigma(a @ a.conj().T), valid).tolist()
    k = len(valid)

    def rows():
        for p, srp_a, sr_2p_a, gram_left, gram_right in zip(
            valid, srps_a[:k], srps_a[k:], srps_left, srps_right
        ):
            clauses = [(gram_left, srp_a, False, None), (gram_right, srp_a, False, None)]
            clauses += [(gram_left, sr_2p_a, True, None), (gram_right, sr_2p_a, True, None)]
            details = {
                "p": p,
                "sr_p_a": srp_a,
                "sr_p_gram_left": gram_left,
                "sr_p_gram_right": gram_right,
                "sr_2p_a": sr_2p_a,
                "identity_abs_err": max(abs(gram_left - sr_2p_a), abs(gram_right - sr_2p_a)),
            }
            yield clauses, details

    return _grid(name, ps, reasons, rows())


def check_cross_product(a: Matrix, p: float = 2.0) -> CheckReport:
    return grid_cross_product(a, [p])[0]


def grid_perturbation(
    a: Matrix, e: Matrix, p_grid, rtol: float = DEFAULT_RANK_RTOL
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
    a, e = _require_matrix(a, name), _require_matrix(e, name)
    if a.shape != e.shape:
        return _not_applicable_grid(name, "requires matrices of equal shape", p_grid)
    sig_a = sigma(a)
    norm_a = float(sig_a[0])
    if norm_a == 0.0:
        return _not_applicable_grid(name, "A is the zero matrix", p_grid)
    sig_e = sigma(e)
    eps = float(sig_e[0]) / norm_a
    if eps >= 1.0:
        reason = f"requires eps < 1, got eps={eps:.6g}"
        return _not_applicable_grid(name, reason, p_grid, epsilon=eps)
    r = numerical_rank_from_spectrum(sig_e, rtol)
    psd_pair = not isinstance(_psd_gate(A=a, E=e), str)
    ps, reasons, valid = _grid_exponents(tuple(p_grid), finite=False)
    base_roots = _proot_grid(sig_a, valid)
    actual_roots = _proot_grid(sigma(a + e), valid)

    def rows():
        for p, x, y in zip(valid, base_roots, actual_roots):
            rp = _proot(float(r), p)
            gen_lower = (x - rp * eps) / (1.0 + eps)
            gen_upper = (x + rp * eps) / (1.0 - eps)
            clauses = [(gen_lower, y, False, None), (y, gen_upper, False, None)]
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
                clauses += [(psd_lower, y, False, None), (y, psd_upper, False, None)]
                details["psd_lower"] = psd_lower
                details["psd_upper"] = psd_upper
            yield clauses, details, 1

    return _grid(name, ps, reasons, rows())


def check_perturbation(
    a: Matrix, e: Matrix, p: float = 2.0, rtol: float = DEFAULT_RANK_RTOL
) -> CheckReport:
    return grid_perturbation(a, e, [p], rtol=rtol)[0]


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
