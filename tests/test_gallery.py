"""Family constructions: predicted formulas, thresholds, rotation, edges."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from srlab import gallery
from srlab.matrices import (
    SIGMA_RTOL,
    PreconditionError,
    gaussian_matrix,
    haar_unitary,
    is_psd,
    prescribed_spectrum_matrix,
)
from srlab.ranks import stable_rank


def assert_instance_accurate(instance, bound=1e-10):
    for key, entry in gallery.evaluate(instance).items():
        assert entry["rel_err"] <= bound, (instance.name, key, entry)


def test_geometric_decay_series_value():
    inst = gallery.geometric_decay(10, 0.5)
    expected = (4.0 / 3.0) * (1.0 - 4.0**-10)
    assert inst.predicted["sr_A"] == pytest.approx(expected, rel=1e-15)
    assert inst.predicted["sr_A"] <= 4.0 / 3.0
    assert_instance_accurate(inst)
    assert "(4/3)*(1 - 1/n)" in inst.notes


def test_geometric_decay_edges():
    assert gallery.geometric_decay(1, 0.5).predicted["sr_A"] == 1.0
    flat = gallery.geometric_decay(4, 1.0)
    assert flat.predicted["sr_A"] == 4.0
    assert_instance_accurate(flat)


def test_deletion_family_cited_params():
    inst = gallery.deletion_family(5, 2.0)
    assert inst.predicted == {
        "sr_A": 2.0,
        "sr_A_hat_col": 4.0,
        "intdim_A": 3.0,
        "intdim_A_hat_rowcol": 4.0,
        "rank_A": 5.0,
    }
    assert inst.threshold_met is True
    assert inst.thresholds == {"sr": True, "intdim": True}
    assert_instance_accurate(inst)


def test_deletion_family_threshold_sides():
    # sqrt(4/3) ~ 1.1547 and 4/3 ~ 1.3333 at n=5
    assert gallery.deletion_family(5, 1.1).thresholds == {"sr": False, "intdim": False}
    assert gallery.deletion_family(5, 1.2).thresholds == {"sr": True, "intdim": False}
    assert gallery.deletion_family(5, 1.4).thresholds == {"sr": True, "intdim": True}
    # n=3, alpha=10: intdim threshold is (n-1)/(n-2) = 2
    assert gallery.deletion_family(3, 10.0).thresholds["intdim"] is True


def test_sum_violation_family_cited_params():
    inst = gallery.sum_violation_family(5, 4.0)
    assert inst.predicted["sr_A"] == pytest.approx(2.0)
    assert inst.predicted["sr_B"] == pytest.approx(1.25)
    assert inst.predicted["sr_A_plus_B"] == 4.0
    assert inst.threshold_met is True
    assert inst.predicted["sr_A_plus_B"] > inst.predicted["sr_A"] + inst.predicted["sr_B"]
    assert_instance_accurate(inst)
    assert not is_psd(inst.matrices["B"])


def test_sum_violation_threshold_boundary():
    # threshold alpha^2 = 5(n-1)/(n-3) = 10 at n=5
    assert gallery.sum_violation_family(5, 2.1).threshold_met is False
    assert gallery.sum_violation_family(5, math.sqrt(10) + 1e-3).threshold_met is True
    assert gallery.sum_violation_family(5, math.sqrt(10) - 1e-3).threshold_met is False


def test_rank1_drop_family_cited_params():
    inst = gallery.rank1_drop_family(5, 3.0)
    assert inst.predicted["intdim_A"] == 4.0
    assert inst.predicted["intdim_A_plus_B"] == pytest.approx(1.0 + 4.0 / 3.0)
    drop = inst.predicted["intdim_A"] - inst.predicted["intdim_A_plus_B"]
    assert drop == pytest.approx(5.0 / 3.0)
    assert drop > 1.0
    assert inst.threshold_met is True
    assert_instance_accurate(inst)


def test_rank1_drop_threshold():
    # (n-1)/(n-3) = 2 at n=5
    assert gallery.rank1_drop_family(5, 1.5).threshold_met is False
    assert gallery.rank1_drop_family(5, 2.5).threshold_met is True


def test_product_violation_family_cited_params():
    inst = gallery.product_violation_family(3, 2.0)
    assert inst.predicted["sr_A"] == pytest.approx(1.5)
    assert inst.predicted["sr_B"] == pytest.approx(2.25)
    assert inst.predicted["sr_AB"] == 3.0
    assert inst.predicted["intdim_A"] == pytest.approx(2.0)
    assert inst.predicted["intdim_B"] == pytest.approx(2.5)
    assert inst.predicted["intdim_AB"] == 3.0
    assert inst.predicted["sr_AB"] > max(inst.predicted["sr_A"], inst.predicted["sr_B"])
    assert inst.threshold_met is True
    assert_instance_accurate(inst)


def test_product_violation_identity_edge():
    inst = gallery.product_violation_family(3, 1.0)
    assert inst.threshold_met is False
    assert inst.predicted["sr_A"] == inst.predicted["sr_AB"] == inst.predicted["sr_B"]
    assert_instance_accurate(inst)


def test_cross_gap_family_cited_params():
    inst = gallery.cross_gap_family(3, 0.5)
    assert inst.predicted["sr_A"] == pytest.approx(1.5)
    assert inst.predicted["sr_AtA"] == pytest.approx(1.125)
    assert inst.predicted["intdim_A"] == pytest.approx(2.0)
    assert inst.predicted["intdim_AtA"] == pytest.approx(1.5)
    assert inst.threshold_met is True
    assert_instance_accurate(inst)


def test_cross_gap_boundary_alpha_one():
    inst = gallery.cross_gap_family(4, 1.0)
    assert inst.threshold_met is False
    assert inst.predicted["sr_A"] == inst.predicted["sr_AtA"]
    assert_instance_accurate(inst)


def test_maximizer_multiplier_identity():
    inst = gallery.maximizer_multiplier(np.eye(4))
    assert inst.predicted["sr_AB"] == 4.0
    assert_instance_accurate(inst)


def test_maximizer_multiplier_rank_deficient():
    inst = gallery.maximizer_multiplier(np.diag([2.0, 1.0, 0.0]))
    assert inst.params["r"] == 2
    assert inst.predicted["sr_AB"] == 2.0
    assert_instance_accurate(inst)
    # the multiplier cannot lower the stable rank below the input's
    assert stable_rank(inst.matrices["A"]) <= inst.predicted["sr_AB"] + 1e-10


def test_maximizer_multiplier_random_spectrum():
    rng = np.random.default_rng(3)
    a = prescribed_spectrum_matrix(rng, 6, 6, [3.0, 2.0, 1.0, 0.5])
    inst = gallery.maximizer_multiplier(a)
    assert inst.params["r"] == 4
    assert_instance_accurate(inst)


def test_minimizer_multiplier_formula():
    rng = np.random.default_rng(4)
    a = prescribed_spectrum_matrix(rng, 5, 5, [2.0, 1.5, 1.0, 0.7, 0.4])
    inst = gallery.minimizer_multiplier(a, 0.1)
    assert inst.predicted["sr_AB"] == pytest.approx(1.04)
    assert_instance_accurate(inst)
    flat = gallery.minimizer_multiplier(a, 1.0)
    assert flat.predicted["sr_AB"] == pytest.approx(5.0)
    assert_instance_accurate(flat)


def _huge_gram() -> np.ndarray:
    """A full-rank 5 x 5 PSD Gram whose largest entry is 1.5e308.

    Its largest eigenvalue, about 1.67e308, is still finite, but ``A + A*``
    overflows.
    """
    x = gaussian_matrix(np.random.default_rng(0), 5, 5)
    gram = x.T @ x
    gram *= 1.5e308 / np.abs(gram).max()
    assert is_psd(gram)
    return gram


def _built_with_one_eigh(lapack_calls, build, *args):
    """``build(*args)``, asserting that it decomposed its input once, by eigh."""
    lapack_calls.clear()
    inst = build(*args)
    n = args[0].shape[0]
    assert lapack_calls == [("eigh", (n, n))]
    return inst


def test_congruence_maximizer_identity_and_gram(lapack_calls):
    inst = _built_with_one_eigh(lapack_calls, gallery.congruence_maximizer, np.eye(5))
    assert inst.predicted["intdim_BAB"] == 5.0
    assert_instance_accurate(inst)
    rng = np.random.default_rng(5)
    x = gaussian_matrix(rng, 3, 6)
    gram = x.T @ x  # rank 3 PSD
    inst = _built_with_one_eigh(lapack_calls, gallery.congruence_maximizer, gram)
    assert inst.params["r"] == 3
    assert_instance_accurate(inst, bound=1e-9)
    inst = _built_with_one_eigh(lapack_calls, gallery.congruence_maximizer, _huge_gram())
    assert inst.params["r"] == 5
    assert_instance_accurate(inst)


def test_congruence_minimizer_formula(lapack_calls):
    rng = np.random.default_rng(6)
    x = gaussian_matrix(rng, 7, 5)
    inst = _built_with_one_eigh(lapack_calls, gallery.congruence_minimizer, x.T @ x, 0.25)
    assert inst.params["r"] == 5
    assert inst.predicted["intdim_BAB"] == pytest.approx(2.0)
    assert_instance_accurate(inst)
    inst = _built_with_one_eigh(lapack_calls, gallery.congruence_minimizer, _huge_gram(), 0.5)
    assert inst.params["r"] == 5
    assert inst.predicted["intdim_BAB"] == pytest.approx(3.0)
    assert_instance_accurate(inst)


def test_congruence_requires_psd():
    with pytest.raises(PreconditionError):
        gallery.congruence_maximizer(np.diag([1.0, -1.0]))


def test_minimizer_requires_rank_two():
    with pytest.raises(PreconditionError):
        gallery.minimizer_multiplier(np.diag([1.0, 0.0]), 0.5)


def test_equality_cases_all_kinds():
    inst = gallery.equality_cases("projector", 6, 2.0, rank=3, seed=1)
    assert inst.predicted["srp_A"] == 3.0
    assert inst.predicted["intdim_A"] == 3.0
    assert_instance_accurate(inst)

    inst = gallery.equality_cases("scaled_unitary", 5, 7.0, seed=2)
    assert inst.predicted["srp_A"] == 5.0
    assert_instance_accurate(inst)

    inst = gallery.equality_cases("flat_spectrum", 6, 10.0, rank=2, seed=3)
    assert inst.predicted["srp_A"] == 2.0
    assert_instance_accurate(inst)

    inst = gallery.equality_cases("rank1", 4, math.inf, seed=4)
    assert inst.predicted["srp_A"] == 1.0
    assert_instance_accurate(inst)


def exactly(message):
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return f"^{re.escape(message)}$"


def test_equality_cases_validation():
    at_inf = "sr_p equals the rank at p = inf only in the rank-1 case"
    with pytest.raises(ValueError, match=exactly(at_inf)):
        gallery.equality_cases("projector", 6, math.inf, rank=3)
    with pytest.raises(ValueError, match=exactly("flat_spectrum requires 1 <= rank <= n")):
        gallery.equality_cases("flat_spectrum", 4, 2.0, rank=9)
    with pytest.raises(ValueError, match=exactly("projector requires 1 <= rank <= n")):
        gallery.equality_cases("projector", 4, 2.0)
    known = "rank1, scaled_unitary, flat_spectrum, projector"
    with pytest.raises(ValueError, match=exactly(f"unknown kind 'nope'; known: {known}")):
        gallery.equality_cases("nope", 4, 2.0)
    with pytest.raises(ValueError, match=exactly("n must be >= 1, got 0")):
        gallery.equality_cases("rank1", 0)
    # rank1 and scaled_unitary fix the rank: another one is an error, not ignored.
    with pytest.raises(ValueError, match=exactly("rank1 has rank 1, got rank 3")):
        gallery.equality_cases("rank1", 4, rank=3)
    with pytest.raises(ValueError, match=exactly("scaled_unitary has rank 5, got rank 2")):
        gallery.equality_cases("scaled_unitary", 5, rank=2)
    assert gallery.equality_cases("rank1", 4, rank=1).params["rank"] == 1
    assert gallery.equality_cases("scaled_unitary", 5, rank=5).params["rank"] == 5


@pytest.mark.parametrize(
    "build",
    [
        lambda s: gallery.geometric_decay(8, 0.5, rotate_seed=s),
        lambda s: gallery.deletion_family(5, 2.0, rotate_seed=s),
        lambda s: gallery.sum_violation_family(5, 4.0, rotate_seed=s),
        lambda s: gallery.rank1_drop_family(5, 3.0, rotate_seed=s),
        lambda s: gallery.product_violation_family(3, 2.0, rotate_seed=s),
        lambda s: gallery.cross_gap_family(3, 0.5, rotate_seed=s),
        lambda s: gallery.geometric_decay(40, 0.5, rotate_seed=s),
    ],
)
def test_rotation_preserves_predictions(build):
    inst = build(99)
    assert_instance_accurate(inst)
    # the rotation really moved things off the diagonal
    a = inst.matrices["A"]
    off = a - np.diag(np.diagonal(a))
    assert np.max(np.abs(off)) > 1e-3


def test_rotation_deterministic():
    a1 = gallery.deletion_family(5, 2.0, rotate_seed=7).matrices["A"]
    a2 = gallery.deletion_family(5, 2.0, rotate_seed=7).matrices["A"]
    assert a1.tobytes() == a2.tobytes()


def test_param_validation_errors():
    # Each builder checks its parameters in signature order, so the first
    # invalid one names the error.
    cases = [
        (lambda: gallery.geometric_decay(0, 0.5), "n must be >= 1, got 0"),
        (lambda: gallery.geometric_decay(3, 0.0), "ratio must lie in (0, 1], got 0.0"),
        (lambda: gallery.geometric_decay(3, 1.5), "ratio must lie in (0, 1], got 1.5"),
        (lambda: gallery.deletion_family(2, 2.0), "n must be >= 3, got 2"),
        (lambda: gallery.deletion_family(2, 0.5), "n must be >= 3, got 2"),
        (lambda: gallery.deletion_family(5, 0.5), "alpha must be >= 1, got 0.5"),
        (lambda: gallery.sum_violation_family(3, 4.0), "n must be >= 4, got 3"),
        (lambda: gallery.sum_violation_family(5, 1.0), "|alpha| must be >= 2, got 1.0"),
        (lambda: gallery.sum_violation_family(5, -1.5), "|alpha| must be >= 2, got -1.5"),
        (lambda: gallery.rank1_drop_family(3, 3.0), "n must be >= 4, got 3"),
        (lambda: gallery.rank1_drop_family(5, 0.5), "beta must be >= 1, got 0.5"),
        (lambda: gallery.product_violation_family(1, 2.0), "n must be >= 2, got 1"),
        (lambda: gallery.product_violation_family(3, 0.9), "alpha must be >= 1, got 0.9"),
        (lambda: gallery.cross_gap_family(1, 0.5), "n must be >= 2, got 1"),
        (lambda: gallery.cross_gap_family(3, 1.5), "alpha must lie in (0, 1], got 1.5"),
        (lambda: gallery.cross_gap_family(3, 0.0), "alpha must lie in (0, 1], got 0.0"),
        (
            lambda: gallery.maximizer_multiplier(np.ones((2, 3))),
            "requires a square matrix, got shape (2, 3)",
        ),
        (
            lambda: gallery.minimizer_multiplier(np.eye(3), 0.0),
            "alpha must lie in (0, 1], got 0.0",
        ),
        (
            lambda: gallery.minimizer_multiplier(np.ones(3), 1.5),
            "alpha must lie in (0, 1], got 1.5",
        ),
        (
            lambda: gallery.minimizer_multiplier(np.ones(3), 0.5),
            "requires a square matrix, got shape (3,)",
        ),
        (
            lambda: gallery.congruence_minimizer(np.eye(3), 2.0),
            "alpha must lie in (0, 1], got 2.0",
        ),
        (
            lambda: gallery.congruence_maximizer(np.ones((2, 3))),
            "requires a square matrix, got shape (2, 3)",
        ),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=exactly(message)):
            build()


def test_threshold_predicates_are_exact():
    # comparisons go through Fraction, so ties at the exact boundary are
    # decided by the true rational value of the float parameter
    n = 5
    boundary = Fraction(n - 1, n - 2)
    above = float(boundary) + 1e-9
    below = float(boundary) - 1e-9
    assert gallery.deletion_family(n, above).thresholds["intdim"] is True
    assert gallery.deletion_family(n, below).thresholds["intdim"] is False


def test_matrices_are_read_only():
    inst = gallery.deletion_family(5, 2.0)
    with pytest.raises(ValueError):
        inst.matrices["A"][0, 0] = 9.0


def test_boundary_params_are_graceful():
    # alpha = 1 / beta = 1 are allowed and produce no violation
    inst = gallery.deletion_family(5, 1.0)
    assert inst.threshold_met is False and inst.predicted["sr_A"] == 5.0
    assert_instance_accurate(inst)
    inst = gallery.rank1_drop_family(5, 1.0)
    assert inst.threshold_met is False and inst.predicted["intdim_A_plus_B"] == 5.0
    assert_instance_accurate(inst)
    inst = gallery.sum_violation_family(5, 2.0)
    assert inst.threshold_met is False
    assert_instance_accurate(inst)


def test_sum_violation_negative_alpha():
    inst = gallery.sum_violation_family(5, -4.0)
    assert inst.predicted["sr_A"] == pytest.approx(2.0)
    assert inst.threshold_met is True
    assert_instance_accurate(inst)


@pytest.mark.parametrize(
    "build",
    [
        lambda: gallery.deletion_family(5, 2.0, rotate_seed=3),
        lambda: gallery.sum_violation_family(5, 2.0, rotate_seed=3),
        lambda: gallery.cross_gap_family(4, 0.5, rotate_seed=3),
        lambda: gallery.product_violation_family(4, 2.0, rotate_seed=3),
    ],
)
def test_evaluate_decomposes_each_matrix_once(build, lapack_calls):
    inst = build()
    matrix_keys = {key.partition("_")[2] for key in inst.predicted}
    gallery.evaluate(inst)
    assert len(lapack_calls) == len(matrix_keys), lapack_calls


def _embed_wide(a, rng):
    """``[a, 0]`` times a random orthogonal matrix: wide, with the singular values of ``a``."""
    m, n = a.shape
    return np.hstack([a, np.zeros((m, 3 * m))]) @ haar_unitary(rng, n + 3 * m).T


@pytest.mark.parametrize(
    "build",
    [
        lambda: gallery.geometric_decay(40, 0.9, rotate_seed=1),
        lambda: gallery.deletion_family(40, 2.0, rotate_seed=2),
        lambda: gallery.sum_violation_family(40, 3.0, rotate_seed=3),
        lambda: gallery.rank1_drop_family(40, 2.0, rotate_seed=4),
        lambda: gallery.product_violation_family(40, 2.0, rotate_seed=5),
        lambda: gallery.cross_gap_family(40, 0.5, rotate_seed=6),
        lambda: gallery.equality_cases("scaled_unitary", 40, 3.0, seed=7),
        lambda: gallery.equality_cases("flat_spectrum", 40, 1.5, rank=40, seed=8),
    ],
)
def test_exact_families_meet_the_sigma_contract_above_the_crossover(lapack_calls, build):
    """Embedded in 40 x 160 matrices, the families' sr, sr_p and rank stay
    within what a relative error of SIGMA_RTOL on each singular value allows:
    (1+e)/(1-e) to the power p for sr_p (p = 2 for sr), none for the rank.
    Well-conditioned matrices take the Gram route, rank-deficient ones the SVD.
    """
    instance = build()
    rng = np.random.default_rng(9)
    rho = (1 + SIGMA_RTOL) / (1 - SIGMA_RTOL)
    for key, predicted in instance.predicted.items():
        quantity, _, mat_key = key.partition("_")
        if quantity == "intdim":  # needs a square input
            continue
        a = instance.matrices[mat_key]
        s = np.linalg.svd(a, compute_uv=False)
        wide = _embed_wide(a, rng)
        lapack_calls.clear()
        one = dataclasses.replace(instance, matrices={mat_key: wide}, predicted={key: predicted})
        computed = gallery.evaluate(one)[key]["computed"]
        took_svd = any(name == "svd" for name, _ in lapack_calls)
        if min(a.shape) < a.shape[0] or s[-1] < 1e-12 * s[0]:
            assert took_svd, key
        elif s[-1] >= s[0] / 30:
            assert not took_svd, key
        p = {"sr": 2.0, "srp": instance.params.get("p"), "rank": 0.0}[quantity]
        bound = rho**p - 1 + 1e-12
        assert abs(computed - predicted) <= bound * predicted, (instance.name, key, computed)
