"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from srlab.mmio import write_matrix_market


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
    write_matrix_market(tmp_path / "indefinite.mtx", np.diag([1.0, -1.0]))
    write_matrix_market(tmp_path / "spiked.mtx", np.diag([1.0, 1.0, 1.0, 1.0, 2.0]))
    write_matrix_market(tmp_path / "sumA.mtx", np.diag([4.0, 2.0, 2.0, 2.0, 2.0]))
    write_matrix_market(tmp_path / "sumB.mtx", np.diag([-4.0, -1.0, -1.0, -1.0, -1.0]))
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


def test_compute_intdim_non_psd_exit_3(files):
    out = run_cli("compute", str(files / "indefinite.mtx"), "-q", "intdim")
    assert out.returncode == 3
    assert "lambda_min" in out.stderr


def test_compute_schatten_and_rank(files):
    out = run_cli("compute", str(files / "spiked.mtx"), "-q", "schatten", "-p", "inf")
    assert json.loads(out.stdout)["value"] == 2.0
    out = run_cli("compute", str(files / "spiked.mtx"), "-q", "rank")
    assert json.loads(out.stdout)["value"] == 5.0


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


def test_verify_unknown_check_errors(files):
    out = run_cli("verify", "nope", str(files / "identity5.mtx"))
    assert out.returncode != 0


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


def test_condition_sweep(files):
    out = run_cli(
        "condition",
        str(files / "identity5.mtx"),
        "--perturbation",
        "psd",
        "--epsilons",
        "0,0.1,0.5,1.5",
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
    # PSD input and perturbation: the sharper bounds appear
    assert rows[1]["psd_pair"] is True
    # bound columns are monotone in eps
    applicable = [r for r in rows if r["applicable"]]
    lowers = [r["lower"] for r in applicable]
    uppers = [r["upper"] for r in applicable]
    assert lowers == sorted(lowers, reverse=True)
    assert uppers == sorted(uppers)


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


def test_text_and_csv_formats_do_not_crash(files):
    for fmt in ("text", "csv"):
        out = run_cli("compute", str(files / "identity5.mtx"), "-q", "sr", "--format", fmt)
        assert out.returncode == 0
        out = run_cli(
            "verify",
            "check_weyl",
            str(files / "identity5.mtx"),
            str(files / "identity5.mtx"),
            "--format",
            fmt,
        )
        assert out.returncode == 0


@pytest.mark.parametrize("check", ["cholesky_intdim", "intdim_subadditive", "block_intdim"])
def test_verify_decomposes_each_input_once(check, tmp_path, lapack_calls, capsys):
    from srlab.cli import main

    x = np.random.default_rng(3).standard_normal((6, 6))
    g = x @ x.T
    path = tmp_path / "g.mtx"
    write_matrix_market(path, g / 2 + g.T / 2)
    inputs = [str(path)] * (2 if check == "intdim_subadditive" else 1)
    extra = ["--k", "3"] if check == "block_intdim" else []
    assert main(["verify", check, *inputs, *extra]) == 0
    capsys.readouterr()
    assert lapack_calls.count(("eigvalsh", (6, 6))) == 1 + (check == "intdim_subadditive")
