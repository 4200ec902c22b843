"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager
from itertools import cycle

import numpy as np
import pytest

from srlab import gallery
from srlab.checks import check_perturbation, check_product_kappa
from srlab.fuzz import FuzzConfig, run_fuzz
from srlab.matrices import (
    gaussian_matrix,
    haar_unitary,
    prescribed_spectrum_matrix,
    projector_matrix,
    psd_gram_matrix,
    rank1_psd_matrix,
)
from srlab.ranks import numerical_rank, p_stable_rank, stable_rank


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def rel_err(computed, predicted):
    return abs(computed - predicted) / max(1.0, abs(predicted))


def direct_sr(values):
    top = max(values)
    return math.fsum((v / top) ** 2 for v in values)


def assert_family(instance, frozen, bound=1e-10):
    """Predicted values equal hand-frozen constants; computed match them."""
    evaluation = gallery.evaluate(instance)
    for key, expected in frozen.items():
        assert instance.predicted[key] == pytest.approx(expected, rel=1e-14), key
        assert evaluation[key]["rel_err"] <= bound, (key, evaluation[key])


def test_criterion_1_formula_reproduction():
    with criterion(1, "formula reproduction"):
        # deletion, n=5 alpha=2: spectrum of A is (2,1,1,1,1)
        assert direct_sr([2.0, 1.0, 1.0, 1.0, 1.0]) == 2.0
        assert_family(
            gallery.deletion_family(5, 2.0),
            {"sr_A": 2.0, "sr_A_hat_col": 4.0, "intdim_A": 3.0, "intdim_A_hat_rowcol": 4.0},
        )

        # sum violation, n=5 alpha=4: sigma(A) = (4,2,2,2,2)
        assert direct_sr([4.0, 2.0, 2.0, 2.0, 2.0]) == 2.0
        inst = gallery.sum_violation_family(5, 4.0)
        assert_family(inst, {"sr_A": 2.0, "sr_B": 1.25, "sr_A_plus_B": 4.0})
        assert inst.predicted["sr_A_plus_B"] > 3.25
        assert inst.threshold_met

        # rank-1 drop, n=5 beta=3: intdim falls from 4 to 7/3
        inst = gallery.rank1_drop_family(5, 3.0)
        assert_family(inst, {"intdim_A": 4.0, "intdim_A_plus_B": 1.0 + 4.0 / 3.0})
        drop = inst.predicted["intdim_A"] - inst.predicted["intdim_A_plus_B"]
        assert drop == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert drop > 1.0

        # product violation, n=3 alpha=2
        assert_family(
            gallery.product_violation_family(3, 2.0),
            {"sr_A": 1.5, "sr_B": 2.25, "sr_AB": 3.0},
        )

        # cross gap, n=3 alpha=0.5
        assert_family(
            gallery.cross_gap_family(3, 0.5),
            {"sr_A": 1.5, "sr_AtA": 1.125, "intdim_A": 2.0, "intdim_AtA": 1.5},
        )

        # minimizer on a rank-5 matrix, alpha=0.1: 1 + 4 * 0.01
        rng = np.random.default_rng(10)
        a = prescribed_spectrum_matrix(rng, 5, 5, [2.0, 1.7, 1.2, 0.9, 0.5])
        assert_family(gallery.minimizer_multiplier(a, 0.1), {"sr_AB": 1.04})

        # congruence minimizer on a rank-5 PSD matrix, alpha=0.25: 1 + 4 * 0.25
        x = gaussian_matrix(rng, 8, 5)
        assert_family(gallery.congruence_minimizer(x.T @ x, 0.25), {"intdim_BAB": 2.0})


def test_criterion_2_geometric_decay():
    with criterion(2, "geometric decay intro example"):
        inst = gallery.geometric_decay(10, 0.5)
        computed = gallery.evaluate(inst)["sr_A"]["computed"]
        series = (4.0 / 3.0) * (1.0 - 4.0**-10)
        assert computed <= 4.0 / 3.0
        assert abs(computed - series) <= 1e-12 * series
        # the discrepancy with the simpler closed form is recorded
        assert "(4/3)*(1 - 1/n)" in inst.notes
        assert series != pytest.approx((4.0 / 3.0) * (1.0 - 1.0 / 10), rel=1e-6)


def test_criterion_3_fuzz_campaign():
    with criterion(3, "inequality fuzz suite 10k trials"):
        cfg = FuzzConfig(trials=10_000, seed=42, dims_max=20, parallelism=0)
        report = run_fuzz(cfg)
        assert report.failure_count == 0, report.failures[:3]
        for name in (
            "weyl",
            "intdim_subadditive",
            "sum_subadditivity_proot",
            "rank1_addition",
            "product_kappa",
            "cross_product",
            "perturbation",
            "block_diag_sr",
            "block_intdim",
            "cholesky_intdim",
        ):
            agg = report.checks[name]
            assert agg["applicable_count"] > 0
            assert agg["pass_count"] == agg["applicable_count"]
        assert report.wall_time < 60.0, f"fuzz took {report.wall_time:.1f}s"


def test_criterion_4_equality_tightness():
    with criterion(4, "equality-case tightness"):
        inst = gallery.equality_cases("projector", 6, 2.0, rank=3, seed=1)
        assert rel_err(gallery.evaluate(inst)["srp_A"]["computed"], 3.0) <= 1e-10

        inst = gallery.equality_cases("scaled_unitary", 5, 3.0, seed=2)
        assert rel_err(gallery.evaluate(inst)["srp_A"]["computed"], 5.0) <= 1e-10

        inst = gallery.equality_cases("flat_spectrum", 6, 10.0, rank=2, seed=3)
        assert rel_err(gallery.evaluate(inst)["srp_A"]["computed"], 2.0) <= 1e-10

        # product bounds collapse to equality for unitary A
        rng = np.random.default_rng(4)
        for p in (1.0, 2.0, 3.0):
            u = haar_unitary(rng, 6)
            b = gaussian_matrix(rng, 6, 4)
            r = check_product_kappa(u, b, p)
            scale = max(1.0, abs(r.lhs), abs(r.rhs))
            assert abs(r.details["slack_upper"]) <= 1e-10 * scale
            assert abs(r.details["slack_lower"]) <= 1e-10 * scale


def test_criterion_5_identity_suite():
    with criterion(5, "cross-product and degenerate-p identities"):
        rng = np.random.default_rng(77)
        p_cycle = cycle([1.0, 1.5, 2.0, 3.0])
        for i in range(1000):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            field = "complex" if i % 2 else "real"
            kind = i % 5
            if kind == 0:
                a = gaussian_matrix(rng, m, n, field)
                construction_rank = min(m, n)
            elif kind == 1:
                r = int(rng.integers(1, min(m, n) + 1))
                sigma = np.sort(rng.uniform(0.05, 2.0, r))[::-1]
                a = prescribed_spectrum_matrix(rng, m, n, sigma, field)
                construction_rank = r
            elif kind == 2:
                a = rank1_psd_matrix(rng, n, field)
                construction_rank = 1
            elif kind == 3:
                r = int(rng.integers(1, n + 1))
                a = projector_matrix(rng, n, r, field)
                construction_rank = r
            else:
                a = psd_gram_matrix(rng, m, n, field)
                construction_rank = min(m, n)
            p = next(p_cycle)

            left = p_stable_rank(a.conj().T @ a, p)
            right = p_stable_rank(a @ a.conj().T, p)
            both = p_stable_rank(a, 2 * p)
            tol = 1e-10 * max(1.0, both)
            assert abs(left - both) <= tol
            assert abs(right - both) <= tol

            assert p_stable_rank(a, math.inf) == 1.0
            assert p_stable_rank(a, 0.0) == float(construction_rank)
            assert numerical_rank(a) == construction_rank

            if kind in (2, 3, 4):  # PSD members: sr_p(A) = sr_2p(A^(1/2))
                w, v = np.linalg.eigh((a + a.conj().T) / 2)
                root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
                half = p_stable_rank(root, 2 * p)
                full = p_stable_rank(a, p)
                assert abs(half - full) <= 1e-10 * max(1.0, full)


def test_criterion_6_conditioning_sweep():
    with criterion(6, "conditioning bounds with PSD sharpening"):
        rng = np.random.default_rng(123)
        for eps in (0.01, 0.05, 0.1, 0.3, 0.5):
            for i in range(100):
                n = int(rng.integers(2, 13))
                a = psd_gram_matrix(rng, int(rng.integers(2, 13)), n)
                e = psd_gram_matrix(rng, int(rng.integers(2, 13)), n)
                e = e * (eps * np.linalg.norm(a, 2) / np.linalg.norm(e, 2))
                p = 1.0 if i % 2 else 2.0
                r = check_perturbation(a, e, p)
                assert r.preconditions_met
                assert r.holds, r.to_json_dict()
                assert r.details["psd_pair"] is True
                scale = max(1.0, abs(r.details["gen_upper"]))
                assert r.details["psd_lower"] >= r.details["gen_lower"] - 1e-12 * scale
                assert r.details["psd_upper"] <= r.details["gen_upper"] + 1e-12 * scale


def sweep_points(threshold):
    return [threshold + j * 1e-3 for j in range(-10, 11) if j != 0]


def test_criterion_7_threshold_sharpness():
    with criterion(7, "violation thresholds are sharp"):
        n = 5

        # stable-rank deletion threshold: sqrt((n-1)/(n-2))
        for alpha in sweep_points(math.sqrt(4.0 / 3.0)):
            inst = gallery.deletion_family(n, alpha)
            ev = gallery.evaluate(inst)
            violated = ev["sr_A_hat_col"]["computed"] > ev["sr_A"]["computed"]
            assert violated == inst.thresholds["sr"], alpha

        # intdim deletion threshold: (n-1)/(n-2)
        for alpha in sweep_points(4.0 / 3.0):
            inst = gallery.deletion_family(n, alpha)
            ev = gallery.evaluate(inst)
            violated = (
                ev["intdim_A_hat_rowcol"]["computed"] > ev["intdim_A"]["computed"]
            )
            assert violated == inst.thresholds["intdim"], alpha

        # rank-sum threshold: alpha^2 = 5(n-1)/(n-3)
        for alpha in sweep_points(math.sqrt(10.0)):
            inst = gallery.sum_violation_family(n, alpha)
            ev = gallery.evaluate(inst)
            violated = ev["sr_A_plus_B"]["computed"] > (
                ev["sr_A"]["computed"] + ev["sr_B"]["computed"]
            )
            assert violated == inst.threshold_met, alpha

        # rank-1 drop threshold: beta = (n-1)/(n-3)
        for beta in sweep_points(2.0):
            inst = gallery.rank1_drop_family(n, beta)
            ev = gallery.evaluate(inst)
            drop = ev["intdim_A"]["computed"] - ev["intdim_A_plus_B"]["computed"]
            assert (drop > 1.0) == inst.threshold_met, beta

        # product threshold: alpha = 1 (family defined for alpha >= 1)
        for alpha in [1.0 + j * 1e-3 for j in range(1, 21)]:
            inst = gallery.product_violation_family(3, alpha)
            ev = gallery.evaluate(inst)
            violated = ev["sr_AB"]["computed"] > max(
                ev["sr_A"]["computed"], ev["sr_B"]["computed"]
            )
            assert violated == inst.threshold_met, alpha


def test_criterion_8_fuzz_determinism_across_parallelism(tmp_path):
    with criterion(8, "fuzz determinism at parallelism 1 vs 8"):
        outputs = []
        for workers in (1, 8):
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "srlab",
                    "fuzz",
                    "--trials",
                    "1000",
                    "--seed",
                    "7",
                    "--parallelism",
                    str(workers),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            payload = json.loads(result.stdout)
            payload.pop("wall_time")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]
