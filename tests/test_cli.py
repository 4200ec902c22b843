"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from srlab.mmio import read_matrix, write_matrix_market


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "srlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def files(tmp_path):
    write_matrix_market(tmp_path / "identity5.mtx", np.eye(5))
    write_matrix_market(tmp_path / "zero.mtx", np.zeros((3, 3)))
    write_matrix_market(tmp_path / "rank1.mtx", np.diag([2.0, 0.0, 0.0]))
    write_matrix_market(tmp_path / "indefinite.mtx", np.diag([1.0, -1.0]))
    write_matrix_market(tmp_path / "spiked.mtx", np.diag([1.0, 1.0, 1.0, 1.0, 2.0]))
    write_matrix_market(tmp_path / "sumA.mtx", np.diag([4.0, 2.0, 2.0, 2.0, 2.0]))
    write_matrix_market(tmp_path / "sumB.mtx", np.diag([-4.0, -1.0, -1.0, -1.0, -1.0]))
    write_matrix_market(tmp_path / "wide.mtx", np.ones((2, 3)))
    (tmp_path / "bad.csv").write_text("not,a\nmatrix\n")
    return tmp_path


def test_compute_sr_identity(files):
    out = run_cli("compute", str(files / "identity5.mtx"), "-q", "sr")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == 1
    assert payload["value"] == 5.0


def test_compute_sr_spiked_matches_formula(files):
    out = run_cli("compute", str(files / "spiked.mtx"), "-q", "sr", "--format", "text")
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(2.0)


def test_compute_zero_matrix(files):
    out = run_cli("compute", str(files / "zero.mtx"), "-q", "sr", "--format", "text")
    assert float(out.stdout.strip()) == 0.0


def test_compute_parse_failure_exit_2(files):
    out = run_cli("compute", str(files / "bad.csv"), "-q", "sr")
    assert out.returncode == 2
    assert "error" in out.stderr
    # A coordinate file, which compute keeps sparse, is checked for nan too.
    path = files / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n40 100 2\n1 1 nan\n2 3 1.0\n")
    out = run_cli("compute", str(path), "-q", "sr")
    assert out.returncode == 2
    assert "finite" in out.stderr


def test_compute_intdim_non_psd_exit_3(files):
    out = run_cli("compute", str(files / "indefinite.mtx"), "-q", "intdim")
    assert out.returncode == 3
    assert "lambda_min" in out.stderr


def test_compute_schatten_and_rank(files):
    out = run_cli("compute", str(files / "spiked.mtx"), "-q", "schatten", "-p", "inf")
    assert json.loads(out.stdout)["value"] == 2.0
    out = run_cli("compute", str(files / "spiked.mtx"), "-q", "rank")
    assert json.loads(out.stdout)["value"] == 5.0


@pytest.mark.parametrize("quantity", ["sr", "intdim", "rank", "srp", "schatten"])
def test_compute_accepts_p_for_every_quantity(quantity, files, capsys):
    # A quantity without an exponent ignores -p rather than rejecting it; one
    # with an exponent records it.
    from srlab.cli import main

    assert main(["compute", str(files / "spiked.mtx"), "-q", quantity, "-p", "3"]) == 0
    expected = 3.0 if quantity in ("srp", "schatten") else None
    assert json.loads(capsys.readouterr().out)["p"] == expected


def test_verify_weyl_pass_exit_0(files):
    out = run_cli(
        "verify", "check_weyl", str(files / "identity5.mtx"), str(files / "identity5.mtx")
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["status"] == "pass"
    assert payload["holds"] is True


def test_verify_not_applicable_exits_0(files):
    # B from the sum-violation family is indefinite: not-applicable, not failure
    out = run_cli(
        "verify",
        "sum_subadditivity_proot",
        str(files / "sumA.mtx"),
        str(files / "sumB.mtx"),
        "-p",
        "2",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["status"] == "not-applicable"
    assert payload["holds"] is None


def test_verify_product_kappa_unequal_orders_not_applicable(files):
    # B's 3 rows do not match A's order 5: not applicable, not a usage error.
    out = run_cli(
        "verify", "product_kappa", str(files / "identity5.mtx"), str(files / "zero.mtx")
    )
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["status"] == "not-applicable"
    assert payload["details"]["reason"] == "requires B with as many rows as A"


def test_verify_cross_product_single_input(files):
    out = run_cli("verify", "cross_product", str(files / "spiked.mtx"), "-p", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["status"] == "pass"


def test_verify_deletion_with_flag(files):
    out = run_cli("verify", "deletion", str(files / "spiked.mtx"), "--drop-col", "4")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["details"]["sr_increased"] is True


def test_verify_block_intdim_with_k(files):
    out = run_cli("verify", "block_intdim", str(files / "identity5.mtx"), "--k", "2")
    assert out.returncode == 0


def test_verify_block_intdim_on_1x1_is_not_applicable(files):
    # No split exists, so the default k is not an error; a bad k on a 4x4 still is.
    write_matrix_market(files / "one.mtx", np.array([[2.0]]))
    out = run_cli("verify", "block_intdim", str(files / "one.mtx"))
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["status"] == "not-applicable"
    assert payload["details"]["reason"] == "requires at least 2 rows and columns"
    write_matrix_market(files / "eye4.mtx", np.eye(4))
    out = run_cli("verify", "block_intdim", str(files / "eye4.mtx"), "--k", "0")
    assert_usage_error(out, "error: block split k must satisfy 1 <= k < n, got k=0, n=4")


def test_verify_wrong_arity_exit_2(files):
    out = run_cli("verify", "check_weyl", str(files / "identity5.mtx"))
    assert out.returncode == 2


# The matrix files each check takes, in order, as verify names them.
VERIFY_SLOTS = {
    "weyl": "A, B",
    "intdim_subadditive": "A, B",
    "sum_subadditivity_proot": "A, B",
    "rank1_addition": "A, B",
    "product_kappa": "A, B",
    "cross_product": "A",
    "perturbation": "A, E",
    "block_diag_sr": "A11, A22",
    "block_intdim": "A",
    "cholesky_intdim": "A",
    "deletion": "A",
}


@pytest.mark.parametrize("check", sorted(VERIFY_SLOTS))
def test_verify_wrong_arity_names_the_slots(check, files, capsys):
    from srlab.checks import CHECKS
    from srlab.cli import main

    assert set(CHECKS) == set(VERIFY_SLOTS)
    slots = VERIFY_SLOTS[check]
    count = slots.count(",") + 1
    path = str(files / "identity5.mtx")
    for inputs in ([], [path] * (count + 1)):
        assert main(["verify", check, *inputs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {check} needs {count} matrix file(s): {slots}\n"


# Each verify flag, as a check parameter: its option, a value to set it to,
# and the value a check takes when the flag is left out.
VERIFY_FLAGS = {"p": ("-p", "3", "2"), "k": ("--k", "3", "1"), "drop_col": ("--drop-col", "1", "0")}


@pytest.mark.parametrize("check", sorted(VERIFY_SLOTS))
def test_verify_rejects_flags_the_check_does_not_take(check, files, capsys):
    import inspect

    from srlab.checks import CHECKS
    from srlab.cli import main

    taken = inspect.signature(CHECKS[check]).parameters
    inputs = [str(files / "spiked.mtx")] * (VERIFY_SLOTS[check].count(",") + 1)
    for key, (option, value, _) in VERIFY_FLAGS.items():
        if key not in taken:
            assert main(["verify", check, *inputs, option, value]) == 2, option
            assert capsys.readouterr().err == f"error: {check} does not take {option}\n"


@pytest.mark.parametrize("check", sorted(VERIFY_SLOTS))
def test_verify_flag_defaults_match_the_cli_defaults(check, files, capsys):
    """A flag left out gives the report of p = 2, k = 1 or drop_col = 0."""
    import inspect

    from srlab.checks import CHECKS
    from srlab.cli import main

    taken = inspect.signature(CHECKS[check]).parameters
    inputs = [str(files / "spiked.mtx")] * (VERIFY_SLOTS[check].count(",") + 1)
    code = main(["verify", check, *inputs])
    default = capsys.readouterr()
    assert default.err == ""
    for key, (option, _, value) in VERIFY_FLAGS.items():
        if key in taken:
            assert main(["verify", check, *inputs, option, value]) == code, option
            assert capsys.readouterr() == default, option


def test_verify_decomposition_failure_exits_2(files, capsys, monkeypatch):
    """A decomposition that fails is one error line and exit 2, not a
    traceback and the exit 1 of a failed inequality."""
    from srlab import checks
    from srlab.cli import main
    from srlab.matrices import DecompositionError

    def diverges(a, b):
        raise DecompositionError("eigendecomposition did not converge")

    monkeypatch.setitem(checks.CHECKS, "weyl", diverges)
    path = str(files / "spiked.mtx")
    assert main(["verify", "weyl", path, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigendecomposition did not converge\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "check_weyl", "{d}/identity5.mtx", "{d}/identity5.mtx"],
        ["condition", "{d}/identity5.mtx", "--epsilons", "0.1"],
        ["fuzz", "--trials", "2", "--dims-max", "4", "--checks", "weyl", "--parallelism", "1"],
    ],
    ids=["verify", "condition", "fuzz"],
)
def test_a_failed_report_exits_1(argv, files, capsys, monkeypatch):
    # Every verdict reads "fail", so each command reports a failure and exits 1.
    from srlab import checks
    from srlab.cli import main

    real = checks._verdict

    def always_fails(lhs, rhs, margins):
        return real(lhs, rhs, margins)[0], False

    monkeypatch.setattr(checks, "_verdict", always_fails)
    assert main([arg.format(d=files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"holds": false' in captured.out


def test_verify_unknown_check_errors(files):
    # A usage error (exit 2) with one error line, not a traceback and exit 1.
    out = run_cli("verify", "nosuch", str(files / "identity5.mtx"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: unknown check 'nosuch'; known: ")
    assert out.stderr.count("\n") == 1


def test_gallery_deletion_writes_files_and_json(files, tmp_path):
    out_dir = tmp_path / "fam"
    out = run_cli(
        "gallery",
        "deletion_family",
        "--n",
        "5",
        "--alpha",
        "2",
        "--out",
        str(out_dir),
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["threshold_met"] is True
    assert payload["evaluation"]["sr_A_hat_col"]["computed"] == pytest.approx(4.0)
    for key, path in payload["files"].items():
        assert (out_dir / f"deletion_family_{key}.mtx").exists()
    # the emitted A reproduces sr = 2 through the compute path
    out2 = run_cli("compute", payload["files"]["A"], "-q", "sr", "--format", "text")
    assert float(out2.stdout.strip()) == pytest.approx(2.0)


def test_gallery_product_alpha_one_no_violation(files, tmp_path):
    out = run_cli(
        "gallery",
        "product_violation_family",
        "--n",
        "3",
        "--alpha",
        "1",
        "--out",
        str(tmp_path / "pv"),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["threshold_met"] is False


def test_gallery_geometric_bound(files, tmp_path):
    out = run_cli(
        "gallery",
        "geometric_decay",
        "--n",
        "10",
        "--ratio",
        "0.5",
        "--out",
        str(tmp_path / "geo"),
    )
    payload = json.loads(out.stdout)
    assert payload["evaluation"]["sr_A"]["computed"] <= 4.0 / 3.0
    assert payload["notes"]


def test_gallery_invalid_params_exit_2(files, tmp_path):
    out = run_cli(
        "gallery",
        "sum_violation_family",
        "--n",
        "3",
        "--alpha",
        "4",
        "--out",
        str(tmp_path / "x"),
    )
    assert out.returncode == 2


def test_gallery_matrix_input_family(files, tmp_path):
    out = run_cli(
        "gallery",
        "congruence_minimizer",
        "--input",
        str(files / "identity5.mtx"),
        "--alpha",
        "0.25",
        "--out",
        str(tmp_path / "cm"),
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["evaluation"]["intdim_BAB"]["computed"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "family, extra", [("congruence_maximizer", []), ("congruence_minimizer", ["--alpha", "0.5"])]
)
def test_gallery_congruence_of_a_near_hermitian_psd_input(family, extra, tmp_path, capsys):
    """A PSD input Hermitian only within the threshold: B*AB is formed from its
    Hermitian part, so the instance is not rejected as not Hermitian, and the
    A file holds the input as given."""
    from srlab.cli import main
    from srlab.matrices import is_psd

    rng = np.random.default_rng(2024)
    x = rng.standard_normal((6, 5))
    gram = x.T @ x
    a = gram + 1e-13 * np.abs(gram).max() * rng.standard_normal(gram.shape)
    assert is_psd(a) and not np.array_equal(a, a.T)
    path = tmp_path / "noisy.mtx"
    write_matrix_market(path, a)
    assert main(["gallery", family, "--input", str(path), *extra, "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluation"]["intdim_BAB"]["rel_err"] <= 1e-10
    assert read_matrix(payload["files"]["A"]).tobytes() == a.tobytes()


@pytest.mark.parametrize(
    "family, extra",
    [
        ("maximizer_multiplier", []),
        ("minimizer_multiplier", ["--alpha", "0.25"]),
        ("congruence_maximizer", []),
        ("congruence_minimizer", ["--alpha", "0.25"]),
    ],
)
def test_gallery_input_family_rejects_rtol_zero(family, extra, files, tmp_path, capsys):
    from srlab.cli import main

    path = str(files / "identity5.mtx")
    argv = ["--rtol", "0", "gallery", family, "--input", path, *extra, "--out", str(tmp_path / "g")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rtol must lie in (0, 1)")
    assert len(err.splitlines()) == 1


# One case per gallery family, in FAMILIES order: the builder's keyword
# arguments, with "a" standing for the matrix file passed as --input.
GALLERY_CASES = {
    "geometric_decay": {"n": 20, "ratio": 0.5, "rotate_seed": 3},
    "deletion_family": {"n": 5, "alpha": 2.0},
    "sum_violation_family": {"n": 6, "alpha": 4.0, "rotate_seed": 1},
    "rank1_drop_family": {"n": 5, "beta": 3.0},
    "product_violation_family": {"n": 4, "alpha": 2.0, "rotate_seed": 2},
    "cross_gap_family": {"n": 4, "alpha": 0.5},
    "maximizer_multiplier": {"a": "spiked.mtx"},
    "minimizer_multiplier": {"a": "spiked.mtx", "alpha": 0.25},
    "congruence_maximizer": {"a": "spiked.mtx"},
    "congruence_minimizer": {"a": "spiked.mtx", "alpha": 0.25},
    "equality_cases": {"kind": "projector", "n": 5, "p": 3.0, "rank": 3, "seed": 4},
}


def _gallery_argv(family, kwargs, files, out_dir):
    argv = ["gallery", family, "--out", str(out_dir)]
    for key, value in kwargs.items():
        flag = {"a": "--input", "p": "-p"}.get(key, "--" + key.replace("_", "-"))
        argv += [flag, str(files / value) if key == "a" else str(value)]
    return argv


def test_gallery_cases_cover_every_family():
    from srlab import gallery

    assert list(GALLERY_CASES) == list(gallery.FAMILIES)
    assert all(gallery.FAMILIES[name] is getattr(gallery, name) for name in GALLERY_CASES)


@pytest.mark.parametrize("family", list(GALLERY_CASES))
def test_gallery_cli_matches_builder(family, files, tmp_path, capsys):
    from srlab import gallery
    from srlab.checks import encode_json
    from srlab.cli import main
    from srlab.mmio import read_matrix

    kwargs = GALLERY_CASES[family]
    assert main(_gallery_argv(family, kwargs, files, tmp_path / "g")) == 0
    payload = json.loads(capsys.readouterr().out)
    direct = {k: read_matrix(files / v) if k == "a" else v for k, v in kwargs.items()}
    instance = getattr(gallery, family)(**direct)
    assert payload["params"] == json.loads(json.dumps(encode_json(instance.params)))
    assert payload["predicted"] == instance.predicted


@pytest.mark.parametrize(
    "family, flag",
    [
        ("geometric_decay", "n"),
        ("geometric_decay", "ratio"),
        ("deletion_family", "n"),
        ("deletion_family", "alpha"),
        ("sum_violation_family", "n"),
        ("sum_violation_family", "alpha"),
        ("rank1_drop_family", "n"),
        ("rank1_drop_family", "beta"),
        ("product_violation_family", "n"),
        ("product_violation_family", "alpha"),
        ("cross_gap_family", "n"),
        ("cross_gap_family", "alpha"),
        ("maximizer_multiplier", "input"),
        ("minimizer_multiplier", "input"),
        ("minimizer_multiplier", "alpha"),
        ("congruence_maximizer", "input"),
        ("congruence_minimizer", "input"),
        ("congruence_minimizer", "alpha"),
        ("equality_cases", "kind"),
        ("equality_cases", "n"),
    ],
)
def test_gallery_missing_flag_exit_2(family, flag, files, tmp_path, capsys):
    from srlab.cli import main

    key = "a" if flag == "input" else flag
    kwargs = {k: v for k, v in GALLERY_CASES[family].items() if k != key}
    assert main(_gallery_argv(family, kwargs, files, tmp_path / "g")) == 2
    err = capsys.readouterr().err
    assert f"error: {family} requires --{flag}" in err
    assert len(err.splitlines()) == 1


# A value each gallery flag parses, to set it for a family that does not take it.
_GALLERY_FLAG_VALUES = {
    "n": "3", "alpha": "0.5", "beta": "2", "ratio": "0.5", "p": "2",
    "rank": "2", "kind": "rank1", "rotate_seed": "3", "a": "spiked.mtx",
}


@pytest.mark.parametrize("family", list(GALLERY_CASES))
def test_gallery_rejects_flags_the_family_does_not_take(family, files, tmp_path, capsys):
    import inspect

    from srlab import gallery
    from srlab.cli import main

    taken = inspect.signature(gallery.FAMILIES[family]).parameters
    unused = [key for key in _GALLERY_FLAG_VALUES if key not in taken]
    assert unused
    for key in unused:
        kwargs = {**GALLERY_CASES[family], key: _GALLERY_FLAG_VALUES[key]}
        assert main(_gallery_argv(family, kwargs, files, tmp_path / "g")) == 2, key
        option = {"a": "--input", "p": "-p"}.get(key, "--" + key.replace("_", "-"))
        err = capsys.readouterr().err
        assert err == f"error: {family} does not take {option}\n"


def test_gallery_equality_cases_defaults_p_to_2(files, tmp_path, capsys):
    from srlab.cli import main

    argv = ["gallery", "equality_cases", "--kind", "rank1", "--n", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "-p", "2"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["params"]["p"] == 2.0


def _geometric_file(tmp_path):
    from srlab.gallery import geometric_decay

    path = tmp_path / "geometric.mtx"
    write_matrix_market(path, geometric_decay(20, 0.5).matrices["A"])
    return str(path)


def test_verify_deletion_counts_rank_at_rtol(tmp_path, capsys):
    from srlab.cli import main

    path = _geometric_file(tmp_path)
    assert main(["--rtol", "0.3", "compute", path, "-q", "rank"]) == 0
    rank = json.loads(capsys.readouterr().out)["value"]
    assert main(["--rtol", "0.3", "verify", "deletion", path, "--drop-col", "19"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert rank == 2.0
    assert details["rank_a"] == rank


def test_gallery_geometric_predicts_rank_at_rtol(tmp_path, capsys):
    from srlab.cli import main

    argv = ["--rtol", "1e-3", "gallery", "geometric_decay", "--n", "20", "--ratio", "0.5"]
    assert main([*argv, "--out", str(tmp_path / "g")]) == 0
    evaluation = json.loads(capsys.readouterr().out)["evaluation"]
    assert evaluation["rank_A"]["predicted"] == 10.0
    assert max(v["rel_err"] for v in evaluation.values()) <= 1e-8


def test_overflowing_powers_exit_0_with_inf(tmp_path, capsys):
    # kappa^p, a Schatten norm at small p and the gallery's alpha^2 saturate
    # to inf; an OverflowError would exit 1, which reads as a failed inequality.
    from srlab.cli import main
    from srlab.schatten import QuasiNormWarning

    write_matrix_market(tmp_path / "A.mtx", np.diag([10.0, 1.0]))
    write_matrix_market(tmp_path / "B.mtx", np.eye(2))
    write_matrix_market(tmp_path / "G.mtx", np.random.default_rng(0).standard_normal((20, 20)))
    a, b, g = (str(tmp_path / name) for name in ("A.mtx", "B.mtx", "G.mtx"))
    assert main(["verify", "product_kappa", a, b, "-p", "400"]) == 0
    assert json.loads(capsys.readouterr().out)["rhs"] == "inf"
    argv = ["fuzz", "--trials", "5", "--p-grid", "400", "--checks", "product_kappa"]
    assert main([*argv, "--parallelism", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []
    with pytest.warns(QuasiNormWarning):
        assert main(["compute", g, "-q", "schatten", "-p", "0.001"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "inf"
    for family in ("deletion_family", "sum_violation_family", "product_violation_family"):
        argv = ["gallery", family, "--n", "5", "--alpha", "1e200"]
        assert main([*argv, "--out", str(tmp_path / family)]) == 0
        assert json.loads(capsys.readouterr().out)["predicted"]["sr_A"] == 1.0


def test_matrix_too_large_to_densify_exits_2(tmp_path, capsys):
    # A 1e8 x 1e8 coordinate file with one entry: densifying it asks numpy
    # for 71 PiB, beyond any address space, so numpy refuses without
    # allocating. That is an input error, not a failed inequality (exit 1).
    from srlab.cli import main

    path = tmp_path / "huge.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n100000000 100000000 1\n1 1 1.0\n"
    )
    f = str(path)
    for argv in (
        ["compute", f, "-q", "sr"],
        ["compute", f, "-q", "intdim"],
        ["verify", "weyl", f, f],
        ["gallery", "congruence_maximizer", "--input", f],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: Unable to allocate .*\n", captured.err), argv


def test_condition_counts_rank_e_at_rtol(tmp_path, capsys):
    from srlab.cli import main
    from srlab.fuzz import scaled_perturbation
    from srlab.mmio import read_matrix
    from srlab.ranks import numerical_rank

    path = _geometric_file(tmp_path)
    assert main(["--rtol", "0.3", "--seed", "5", "condition", path, "--epsilons", "0.1"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    # The sweep's perturbation, drawn as cmd_condition draws it.
    rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0,)))
    e = scaled_perturbation(rng, read_matrix(path), 0.1, "gaussian")
    assert row["rank_e"] == numerical_rank(e, 0.3) < numerical_rank(e)
    assert main(["--rtol", "0", "condition", path, "--epsilons", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rtol must lie in (0, 1), got 0.0\n"


def test_condition_sweep(files):
    out = run_cli(
        "condition",
        str(files / "identity5.mtx"),
        "--perturbation",
        "psd",
        "--epsilons",
        "0,0.1,0.5,1.5,nan",
        "-p",
        "1",
        "--seed",
        "3",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    rows = payload["rows"]
    assert rows[0]["lower"] == pytest.approx(rows[0]["actual"])
    assert rows[0]["upper"] == pytest.approx(rows[0]["actual"])
    assert all(r["holds"] for r in rows if r["applicable"])
    assert rows[3]["applicable"] is False
    assert rows[4]["applicable"] is False
    assert rows[4]["reason"] == "requires 0 <= eps < 1"
    # PSD input and perturbation: the sharper bounds appear, and hold
    assert rows[1]["psd_pair"] is True
    psd_rows = [r for r in rows if r["applicable"] and r["psd_pair"]]
    assert len(psd_rows) == 3
    assert all(r["psd_lower"] <= r["actual"] <= r["psd_upper"] for r in psd_rows)
    # bound columns are monotone in eps
    applicable = [r for r in rows if r["applicable"]]
    lowers = [r["lower"] for r in applicable]
    uppers = [r["upper"] for r in applicable]
    assert lowers == sorted(lowers, reverse=True)
    assert uppers == sorted(uppers)


@pytest.mark.parametrize("kind", ["gaussian", "psd"])
def test_condition_on_the_zero_matrix_is_not_applicable(kind, files, capsys):
    from srlab.cli import main

    assert main(["condition", str(files / "zero.mtx"), "--perturbation", kind]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 5
    assert all(not r["applicable"] and r["reason"] == "A is the zero matrix" for r in rows)


@pytest.mark.parametrize("kind", ["gaussian", "psd"])
def test_condition_sweep_decomposes_input_once(kind, tmp_path, lapack_calls, capsys):
    from srlab.cli import main

    rng = np.random.default_rng(4)
    if kind == "psd":
        x = rng.standard_normal((30, 30))
        a = x @ x.T
    else:
        a = rng.standard_normal((40, 30))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    assert main(["condition", str(path), "--perturbation", kind]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 5
    # Per epsilon: the perturbation's norm, then E and A + E in the check.
    # The input itself is decomposed once for the whole sweep.
    assert len(lapack_calls) == 1 + 3 * 5


def test_main_calls_share_one_parser(files, capsys):
    from srlab.cli import build_parser, main

    assert build_parser() is build_parser()
    ident = str(files / "identity5.mtx")
    assert main(["compute", ident, "-q", "sr", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "quantity,p,value"
    assert main(["compute", ident, "-q", "sr"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(5.0)

    assert main(["condition", ident, "--epsilons", "0.1"]) == 0
    assert [r["epsilon"] for r in json.loads(capsys.readouterr().out)["rows"]] == [0.1]
    assert main(["condition", ident]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["epsilon"] for r in rows] == [0.01, 0.05, 0.1, 0.3, 0.5]

    with pytest.raises(SystemExit) as exc:
        main(["compute", ident, "-q", "volume"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["compute", ident, "-q", "rank", "--format", "text"]) == 0
    assert capsys.readouterr().out == "5.0\n"


def test_fuzz_cli_exit_and_output(files, tmp_path):
    out_file = tmp_path / "report.json"
    out = run_cli(
        "fuzz",
        "--trials",
        "25",
        "--seed",
        "5",
        "--dims-max",
        "6",
        "--parallelism",
        "1",
        "--out",
        str(out_file),
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["failures"] == []
    assert json.loads(out_file.read_text()) == payload


def test_fuzz_cli_subsets(files):
    out = run_cli(
        "fuzz",
        "--trials",
        "10",
        "--seed",
        "2",
        "--dims-max",
        "5",
        "--checks",
        "weyl,cross_product",
        "--p-grid",
        "1,2,inf",
        "--distributions",
        "gaussian,rank1_psd",
        "--parallelism",
        "1",
        "--format",
        "csv",
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("check,")


def test_fuzz_cli_bad_config_exit_2(files):
    out = run_cli("fuzz", "--trials", "0")
    assert out.returncode == 2


def assert_usage_error(out, message):
    """Exit 2 with ``message`` in the last stderr line, and no traceback."""
    assert out.returncode == 2, out.stderr
    assert message in out.stderr.splitlines()[-1]
    assert "Traceback" not in out.stderr
    assert "_parse_float_list" not in out.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p-grid", "abc"], "error: argument --p-grid: invalid"),
        (["--p-grid", ""], "error: p_grid must be nonempty"),
        (["--p-grid", "1,x"], "error: argument --p-grid: invalid value '1,x': expected comma"),
        (["--checks", ""], "error: checks must be nonempty"),
        (["--distributions", ""], "error: distributions must be nonempty"),
        (["--out", "{d}/missing/r.json"], "{d}/missing/r.json"),
    ],
    ids=["abc", "empty", "one_bad", "checks_empty", "distributions_empty", "out_unwritable"],
)
def test_fuzz_cli_bad_p_grid_exit_2(flags, message, tmp_path):
    # A grid that is not a list of numbers is a usage error, not a failure found
    # (exit 1); so are an empty list flag and an --out that cannot be written.
    flags = [flag.format(d=tmp_path) for flag in flags]
    out = run_cli("fuzz", "--trials", "1", "--parallelism", "1", *flags)
    assert_usage_error(out, message.format(d=tmp_path))


def test_fuzz_cli_unwritable_out_fails_before_the_campaign(tmp_path, capsys, monkeypatch):
    from srlab import cli

    def no_campaign(cfg):
        raise AssertionError("the campaign ran before --out was opened")

    monkeypatch.setattr(cli, "run_fuzz", no_campaign)
    path = tmp_path / "missing" / "r.json"
    assert cli.main(["fuzz", "--trials", "1", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


# "{d}" stands for the directory of the files fixture.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "{d}/adir", "-q", "sr"], "error: {d}/adir: "),
        (["compute", "{d}/missing.mtx", "-q", "sr"], "error: {d}/missing.mtx: "),
        (["--seed", "-1", "condition", "{d}/identity5.mtx"], "argument --seed: invalid value '-1'"),
        (["condition", "{d}/identity5.mtx", "--epsilons", ""], "error: epsilons must be nonempty"),
        (["condition", "{d}/identity5.mtx", "--epsilons", "abc"], "argument --epsilons: invalid"),
        (
            ["gallery", "deletion_family", "--n", "5", "--alpha", "2", "--out", "{d}/zero.mtx"],
            "{d}/zero.mtx",
        ),
        (
            ["gallery", "maximizer_multiplier", "--input", "{d}/zero.mtx"],
            "error: requires a nonzero matrix",
        ),
        (
            ["gallery", "congruence_maximizer", "--input", "{d}/zero.mtx"],
            "error: requires a nonzero matrix",
        ),
        (
            ["gallery", "congruence_minimizer", "--input", "{d}/rank1.mtx", "--alpha", "0.5"],
            "error: requires rank >= 2, got 1",
        ),
        (
            ["gallery", "congruence_maximizer", "--input", "{d}/indefinite.mtx"],
            "error: requires a positive semi-definite matrix",
        ),
        (
            ["gallery", "deletion_family", "--n", "5", "--alpha", "inf"],
            "error: alpha must be finite, got inf",
        ),
        (
            ["gallery", "sum_violation_family", "--n", "5", "--alpha", "nan"],
            "error: alpha must be finite, got nan",
        ),
        (
            ["gallery", "equality_cases", "--kind", "rank1", "--n", "4", "--rank", "3"]
            + ["--out", "{d}/g"],
            "error: rank1 has rank 1, got rank 3",
        ),
        (
            ["gallery", "equality_cases", "--kind", "scaled_unitary", "--n", "5", "--rank", "2"]
            + ["--out", "{d}/g"],
            "error: scaled_unitary has rank 5, got rank 2",
        ),
        (["gallery", "nosuch"], "error: unknown family 'nosuch'; known: geometric_decay, "),
        (
            ["condition", "{d}/wide.mtx", "--perturbation", "psd"],
            "error: PSD perturbations need a square input matrix",
        ),
    ],
    ids=[
        "compute_directory",
        "compute_missing",
        "negative_seed",
        "epsilons_empty",
        "epsilons_abc",
        "gallery_out_is_a_file",
        "maximizer_multiplier_zero",
        "congruence_maximizer_zero",
        "congruence_minimizer_rank1",
        "congruence_maximizer_indefinite",
        "deletion_alpha_inf",
        "sum_violation_alpha_nan",
        "equality_rank1_other_rank",
        "equality_scaled_unitary_other_rank",
        "gallery_unknown_family",
        "condition_psd_not_square",
    ],
)
def test_input_errors_exit_2(argv, message, files):
    # None of these reaches a verdict, so none prints a report.
    (files / "adir").mkdir()
    out = run_cli(*[arg.format(d=files) for arg in argv])
    assert_usage_error(out, message.format(d=files))
    assert out.stdout == ""


def test_text_and_csv_formats_do_not_crash(files, capsys):
    from srlab.cli import main

    eye = str(files / "identity5.mtx")
    # argv -> (CSV header row, pattern of the first text line)
    cases = {
        ("compute", eye, "-q", "sr"): ("quantity,p,value", r"5\.0"),
        ("verify", "check_weyl", eye, eye): (
            "name,status,lhs,rhs,slack",
            r"weyl: pass \(slack=0\.0\)",
        ),
        ("gallery", "deletion_family", "--n", "5", "--alpha", "2", "--out", str(files / "g")): (
            "key,predicted,computed,rel_err",
            "deletion_family: threshold_met=True",
        ),
        ("condition", eye, "--epsilons", "0.1,2,nan"): (
            "epsilon,applicable,p,rank_e,lower,actual,upper,"
            "slack_lower,slack_upper,psd_pair,holds,reason",
            r"eps=0\.1: [\d.]+ <= [\d.]+ <= [\d.]+",
        ),
        ("fuzz", "--trials", "20", "--seed", "1", "--parallelism", "2"): (
            "check,applicable_count,pass_count,min_slack",
            r"weyl: 20/20 passed, min_slack=\S+",
        ),
    }
    printed = {}
    for argv, (header, text) in cases.items():
        for fmt in ("csv", "text"):
            assert main([*argv, "--format", fmt]) == 0, (argv, fmt)
            captured = capsys.readouterr()
            assert captured.err == "", (argv, fmt)
            printed[argv[0], fmt] = captured.out.splitlines()
        assert printed[argv[0], "csv"][0] == header, argv
        assert re.fullmatch(text, printed[argv[0], "text"][0]), argv
    # An epsilon outside [0, 1), nan included, is a not-applicable row.
    for line, eps in ((2, "2.0"), (3, "nan")):
        assert printed["condition", "csv"][line] == f"{eps},False,,,,,,,,,,requires 0 <= eps < 1"
        assert printed["condition", "text"][line - 1] == (
            f"eps={eps}: not applicable (requires 0 <= eps < 1)"
        )


def test_csv_header_holds_the_keys_of_every_row(files, capsys):
    """A not-applicable first row does not drop the columns of later rows."""
    from srlab.cli import main

    argv = ["condition", str(files / "identity5.mtx"), "--epsilons", "2,0.1", "--format", "csv"]
    assert main(argv) == 0
    header, skipped, applied = capsys.readouterr().out.splitlines()
    keys = header.split(",")
    assert keys == [
        "epsilon", "applicable", "reason", "p", "rank_e", "lower", "actual", "upper",
        "slack_lower", "slack_upper", "psd_pair", "holds",
    ]
    assert skipped == "2.0,False,requires 0 <= eps < 1,,,,,,,,,"
    row = dict(zip(keys, applied.split(",")))
    assert row["epsilon"] == "0.1" and row["applicable"] == "True" and row["reason"] == ""
    assert float(row["lower"]) <= float(row["actual"]) <= float(row["upper"])
    assert row["holds"] == "True"


def test_csv_writes_a_none_field_empty(files, capsys):
    from srlab.cli import main

    assert main(["compute", str(files / "identity5.mtx"), "-q", "sr", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["quantity,p,value", "sr,,5.0"]
    # A check with no applicable instance has no least slack.
    argv = ["fuzz", "--trials", "2", "--seed", "1", "--checks", "cross_product", "--p-grid", "0.5"]
    assert main([*argv, "--parallelism", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "check,applicable_count,pass_count,min_slack",
        "cross_product,0,0,",
    ]


def test_csv_quotes_a_field_that_holds_a_comma(files, capsys):
    import csv

    from srlab.cli import main

    argv = ["--format", "csv", "condition", str(files / "identity5.mtx"), "-p", "0.5"]
    assert main([*argv, "--epsilons", "0.1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    reason = "requires p >= 1, got p=0.5"
    assert rows == [["epsilon", "applicable", "reason"], ["0.1", "False", reason]]
    assert all(len(row) == len(rows[0]) for row in rows)


# A 300 x 300 input is wider than the 64-column block of LAPACK's ?pstrf.
@pytest.mark.parametrize(
    "check, n",
    [
        ("cholesky_intdim", 6),
        ("intdim_subadditive", 6),
        ("block_intdim", 6),
        ("cholesky_intdim", 300),
    ],
    ids=["cholesky_intdim", "intdim_subadditive", "block_intdim", "cholesky_intdim_300"],
)
def test_verify_decomposes_each_input_once(check, n, tmp_path, lapack_calls, capsys):
    from srlab.cli import main

    x = np.random.default_rng(3).standard_normal((n, n))
    g = x @ x.T
    path = tmp_path / "g.mtx"
    write_matrix_market(path, g / 2 + g.T / 2)
    inputs = [str(path)] * (2 if check == "intdim_subadditive" else 1)
    extra = ["--k", "3"] if check == "block_intdim" else []
    assert main(["verify", check, *inputs, *extra]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert lapack_calls.count(("eigvalsh", (n, n))) == 1 + (check == "intdim_subadditive")


def test_compute_reads_a_coordinate_file_sparse(tmp_path, lapack_calls, capsys, monkeypatch):
    """A wide coordinate file takes the sparse Gram route: one eigvalsh of
    the small Gram, the same rank as its array-format copy and sr and sr_1
    within 1e-8. intdim reads a coordinate file sparse as well, and prints the
    value of its array-format copy."""
    import scipy.io
    import scipy.sparse

    import srlab.cli
    from srlab.cli import main

    read = []
    read_matrix = srlab.cli.read_matrix
    monkeypatch.setattr(
        srlab.cli, "read_matrix", lambda *a, **k: read.append(read_matrix(*a, **k)) or read[-1]
    )

    rng = np.random.default_rng(5)
    a = scipy.sparse.random(64, 4096, density=0.05, format="coo", random_state=rng)
    scipy.io.mmwrite(str(tmp_path / "coo.mtx"), a, precision=17)
    write_matrix_market(tmp_path / "array.mtx", a.toarray())
    values = {}
    for name in ("coo", "array"):
        for quantity in ("rank", "sr", "srp"):
            lapack_calls.clear()
            argv = ["compute", str(tmp_path / f"{name}.mtx"), "-q", quantity, "-p", "1"]
            assert main(argv) == 0
            values[name, quantity] = json.loads(capsys.readouterr().out)["value"]
            assert lapack_calls == [("eigvalsh", (64, 64))]
    assert values["coo", "rank"] == values["array", "rank"] == 64.0
    assert [scipy.sparse.issparse(a) for a in read] == [True] * 3 + [False] * 3
    for quantity in ("sr", "srp"):
        assert values["coo", quantity] == pytest.approx(values["array", quantity], rel=1e-8)

    x = scipy.sparse.random(40, 40, density=0.2, format="coo", random_state=rng)
    g = scipy.sparse.coo_matrix(x @ x.T)
    scipy.io.mmwrite(str(tmp_path / "psd.mtx"), g, precision=17)
    write_matrix_market(tmp_path / "psd_array.mtx", g.toarray())
    out = []
    for name in ("psd", "psd_array"):
        assert main(["compute", str(tmp_path / f"{name}.mtx"), "-q", "intdim"]) == 0
        out.append(capsys.readouterr().out.replace(name, ""))
    assert out[0] == out[1]
    assert [scipy.sparse.issparse(a) for a in read[6:]] == [True, False]
