"""Seeded inputs, ops and correctness checks for each workload.

srlab receives only what is generated here. Reference values for the
``compute`` ops come from plain numpy at set-up, not from srlab.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import scipy.io
import scipy.sparse

import srlab.cli
import srlab.fuzz

FUZZ_DIMS_MAX = 20
# Trials per pass. Trial cost varies widely with the drawn shapes, so many
# trials keep a seed's mean cost close to every other seed's.
SERIAL_TRIALS = 1000
CAMPAIGN_TRIALS = 512  # four chunks of srlab.fuzz.CHUNK_SIZE, two per worker on 2 cores
# Ops per cli_mix pass: two thirds compute (half of those on the 20-column
# file), one sixth verify, one sixth gallery. Fixed counts keep the mix's
# cost the same for every seed.
CLI_MIX = {"psd20a": 48, "psd500": 16, "wide2000": 16, "sparse2000": 16, "verify": 24, "gallery": 24}
COMPUTE_RTOL = 1e-8
GALLERY_RTOL = 1e-8


class Op(NamedTuple):
    """One timed call. ``check`` runs after timing and judges ``run``'s output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    weight: int = 1  # ops the call counts as (trials, for a whole campaign)


def fuzz_seed(seed: int) -> int:
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _report_has_no_failures(results) -> bool:
    return bool(results) and all(
        r.report.holds or not r.report.preconditions_met for r in results
    )


def serial_config(seed: int, trials: int = SERIAL_TRIALS) -> srlab.fuzz.FuzzConfig:
    return srlab.fuzz.FuzzConfig(
        trials=trials, seed=fuzz_seed(seed), dims_max=FUZZ_DIMS_MAX, parallelism=1
    )


def trial_ops(cfg: srlab.fuzz.FuzzConfig) -> list[Op]:
    """One op per trial of ``cfg``, each a ``run_trial`` call."""

    def make(index):
        return Op("trial", lambda: srlab.fuzz.run_trial(cfg.seed, index, cfg), _report_has_no_failures)

    return [make(i) for i in range(cfg.trials)]


def campaign_config(seed: int) -> srlab.fuzz.FuzzConfig:
    """The acceptance campaign's settings (nproc workers), seeded from ``seed``."""
    return srlab.fuzz.FuzzConfig(
        trials=CAMPAIGN_TRIALS, seed=fuzz_seed(seed), dims_max=FUZZ_DIMS_MAX, parallelism=0
    )


def report_without_wall_time(report) -> dict:
    payload = json.loads(encode_report(report))
    payload.pop("wall_time")
    return payload


def encode_report(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def campaign_op(cfg: srlab.fuzz.FuzzConfig, expected: dict) -> Op:
    """A whole campaign plus JSON encoding of its report.

    Correct when the report has no failures and equals ``expected`` (the
    same campaign run at parallelism 1) apart from ``wall_time``.
    """

    def run():
        report = srlab.fuzz.run_fuzz(cfg)
        return report, encode_report(report)

    def check(out):
        report, text = out
        payload = json.loads(text)
        payload.pop("wall_time")
        return report.failure_count == 0 and payload == expected

    return Op("campaign", run, check, weight=cfg.trials)


# ---------------------------------------------------------------------------
# cli_mix


def _gram(rng, rows, n):
    x = rng.standard_normal((rows, n))
    g = x.T @ x / rows
    return (g + g.T) / 2


def _two_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def cli_matrices(rng) -> dict[str, np.ndarray | scipy.sparse.coo_matrix]:
    """Inputs of about 20, 500 and 2000 columns; ``sparse2000`` is coordinate format."""
    gen20 = rng.standard_normal((20, 20))
    noise = rng.standard_normal((20, 20))
    rows, cols, nnz = 400, 2000, 8000
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    sparse = scipy.sparse.coo_matrix(
        (rng.standard_normal(nnz), (flat // cols, flat % cols)), shape=(rows, cols)
    )
    return {
        "psd20a": _gram(rng, 30, 20),
        "psd20b": _gram(rng, 25, 20),
        "gen20": gen20,
        "pert20": noise * (0.3 * _two_norm(gen20) / _two_norm(noise)),
        "psd500": _gram(rng, 600, 500),
        "wide2000": rng.standard_normal((200, 2000)),
        "sparse2000": sparse,
    }


def reference_value(a: np.ndarray, quantity: str, p: float) -> float:
    """The value ``srlab compute`` should print, from numpy alone."""
    if quantity == "intdim":
        return float(np.trace(a)) / float(np.linalg.eigvalsh(a)[-1])
    s = np.linalg.svd(a, compute_uv=False)
    if quantity == "sr":
        return float(np.sum(s**2) / s[0] ** 2)
    if quantity == "rank":
        return float(np.count_nonzero(s > 1e-10 * s[0]))
    if quantity == "srp":
        return 1.0 if math.isinf(p) else float(np.sum((s / s[0]) ** p))
    return float(s[0]) if math.isinf(p) else float(np.sum(s**p) ** (1.0 / p))


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = srlab.cli.main(argv)
    return code, out.getvalue()


def _parse_ok(out) -> dict | None:
    code, text = out
    if code != 0:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def compute_check(expected: float) -> Callable[[Any], bool]:
    def check(out):
        payload = _parse_ok(out)
        if payload is None or not isinstance(payload.get("value"), float):
            return False
        return abs(payload["value"] - expected) <= COMPUTE_RTOL * abs(expected)

    return check


def verify_check(expected_status: str) -> Callable[[Any], bool]:
    def check(out):
        payload = _parse_ok(out)
        return payload is not None and payload.get("status") == expected_status

    return check


def gallery_check(expected_threshold: bool | None) -> Callable[[Any], bool]:
    def check(out):
        payload = _parse_ok(out)
        if payload is None or payload.get("threshold_met") != expected_threshold:
            return False
        errors = [v["rel_err"] for v in payload["evaluation"].values()]
        files = payload["files"].values()
        return bool(errors) and max(errors) <= GALLERY_RTOL and all(Path(f).is_file() for f in files)

    return check


def _cli_op(kind, argv, check) -> Op:
    return Op(kind, lambda: call_cli(argv), check)


def _p_text(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


def cli_ops(seed: int, workdir: Path, mix: dict[str, int] = CLI_MIX) -> list[Op]:
    """Write the seeded input files under ``workdir`` and return the op mix.

    ``mix`` fixes how many ops of each kind there are (``compute`` ops are
    named by their input file); within a kind the variants take turns. The
    seed sets the inputs, the parameters and the order.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    mats = cli_matrices(rng)
    paths, dense = {}, {}
    for name, a in mats.items():
        path = workdir / f"{name}.mtx"
        scipy.io.mmwrite(str(path), a, precision=17)
        paths[name] = str(path)
        dense[name] = a.toarray() if scipy.sparse.issparse(a) else a
    out_dir = str(workdir / "gallery")
    ps = (1.0, 1.5, 3.0, math.inf)
    references: dict[tuple, float] = {}

    def compute(name, turn):
        quantities = ["sr", "srp", "rank", "schatten"] + (["intdim"] if name.startswith("psd") else [])
        quantity = quantities[turn % len(quantities)]
        p = float(rng.choice(ps)) if quantity in ("srp", "schatten") else 2.0
        key = (name, quantity, p)
        if key not in references:
            references[key] = reference_value(dense[name], quantity, p)
        argv = ["compute", paths[name], "-q", quantity, "-p", _p_text(p)]
        return _cli_op("compute", argv, compute_check(references[key]))

    def verify(turn):
        p = _p_text(float(rng.choice(ps)))
        argv = [
            ["verify", "weyl", paths["psd20a"], paths["psd20b"]],
            ["verify", "intdim_subadditive", paths["psd20a"], paths["psd20b"]],
            ["verify", "perturbation", paths["gen20"], paths["pert20"], "-p", p],
            ["verify", "cross_product", paths["gen20"], "-p", p],
            ["verify", "deletion", paths["gen20"], "--drop-col", str(int(rng.integers(0, 20)))],
            ["verify", "cholesky_intdim", paths["psd20a"]],
            ["verify", "block_intdim", paths["psd20a"], "--k", str(int(rng.integers(1, 20)))],
        ][turn % 7]
        return _cli_op("verify", argv, verify_check("pass"))

    def gallery(turn):
        n = int(rng.integers(5, 61))
        alpha = float(rng.choice([1.5, 2.0, 3.0]))
        rotate = ["--rotate-seed", str(int(rng.integers(0, 2**31)))]
        variant = turn % 5
        if variant == 0:
            argv = ["gallery", "deletion_family", "--n", str(n), "--alpha", repr(alpha), *rotate]
            expected = Fraction(alpha) ** 2 > Fraction(n - 1, n - 2)
        elif variant == 1:
            ratio = float(rng.choice([0.5, 0.75, 0.9]))
            # The family predicts the exact rank n; evaluate() computes the
            # numerical rank at rtol 1e-10, so keep ratio**(n-1) well above it.
            n = min(n, 1 + int(math.log(1e-8) / math.log(ratio)))
            argv = ["gallery", "geometric_decay", "--n", str(n), "--ratio", repr(ratio), *rotate]
            expected = None
        elif variant == 2:
            argv = ["gallery", "cross_gap_family", "--n", str(n), "--alpha", repr(1.0 / alpha), *rotate]
            expected = True
        elif variant == 3:
            argv = ["gallery", "minimizer_multiplier", "--input", paths["psd20a"], "--alpha", "0.25"]
            expected = None
        else:
            argv = ["gallery", "congruence_maximizer", "--input", paths["psd20a"]]
            expected = None
        return _cli_op("gallery", [*argv, "--out", out_dir], gallery_check(expected))

    ops = []
    for kind, count in mix.items():
        for turn in range(count):
            if kind == "verify":
                ops.append(verify(turn))
            elif kind == "gallery":
                ops.append(gallery(turn))
            else:
                ops.append(compute(kind, turn))
    return [ops[i] for i in rng.permutation(len(ops))]
