#!/usr/bin/env python3
"""Compare what two checkouts of srlab compute, field by field.

    python3 scripts/compare_outputs.py --parent ../srlab-parent --change . \\
        [--out compare.json]

``--parent`` and ``--change`` are two checkouts (a ``git archive`` of the
parent commit, say). Each one's ``srlab`` runs in its own subprocess with
``OPENBLAS_NUM_THREADS=1`` on one corpus, which this checkout defines:

* the 10k-trial, seed-42 fuzz campaign at parallelism 1 and 2, without
  ``wall_time``;
* every ``run_trial`` report of 1,000 trials at seeds 7 and 42, details in
  key order;
* the ``cli_mix`` ops of ``perfbench.workloads.cli_ops`` at two seeds:
  exit code, stdout, the first line of stderr and the bytes (as a SHA-256)
  of each file an op writes, with the temporary directory replaced by
  ``<tmp>``;
* every gallery family at the parameters ``scripts/reproduce_families.py``
  builds it with;
* an edge corpus of ``srlab`` CLI calls on matrices written to a temporary
  directory: 1xn, nx1 and 1x1; zero; exactly rank-deficient, real and PSD;
  a Gram scaled by 2^600, by 2^-600 and to a largest entry of 1.5e308; a
  Gram plus 1e-13 relative noise; a non-Hermitian 5x5 Gaussian scaled by
  1e-13; an indefinite diagonal; a complex PSD Gram; a coordinate-format
  sparse file; and an empty 0x3 array file, which every call rejects as it
  reads it. On each it runs every
  ``compute`` quantity at p = 1.5, 400 and inf, every ``verify`` check bare
  and with each flag it takes (``-p`` at each of those exponents, ``--k``,
  ``--drop-col``), a check of two inputs getting the file twice, and
  ``condition`` with both perturbation kinds. p = 400 is there because
  kappa^p overflows float64 at such an exponent.
  It records the exit code, stdout, the ``error:`` line and each warning's
  category and message, with the temporary directory replaced by ``<tmp>``
  and the checkout by ``<checkout>``. No exponent is below 1, so no
  ``QuasiNormWarning`` is raised.

It prints one line per field: ``identical``, ``moved`` with the largest
relative move of a float, or ``status changed`` with the instances where
anything else differs (a bool, a string, an int, nan against a number, a
missing entry, the order of keys). It exits 0 when every field is
identical. ``--out`` also writes the per-field verdicts as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN = {"trials": 10_000, "seed": 42}
TRIAL_SEEDS = (7, 42)
TRIALS = 1000
CLI_SEEDS = (1, 2)
PLACEHOLDER = "<tmp>"
SHOWN = 5  # instances listed per field whose status changed


# ---------------------------------------------------------------------------
# Collecting one checkout's outputs (runs in a subprocess per checkout)
#
# A corpus maps section -> instance -> field -> value, every value plain JSON.


def campaign_section(trials: int, seed: int) -> dict:
    from srlab.fuzz import FuzzConfig, run_fuzz

    section = {}
    for parallelism in (1, 2):
        cfg = FuzzConfig(trials=trials, seed=seed, parallelism=parallelism)
        payload = run_fuzz(cfg).to_json_dict()
        payload.pop("wall_time")
        at = f"parallelism={parallelism}"
        for check, stats in payload.pop("checks").items():
            section[f"{at} {check}"] = stats
        section[at] = payload
    return section


def trial_section(seeds, trials: int) -> dict:
    from srlab.fuzz import FuzzConfig, run_trial

    return {
        f"seed={seed} trial={trial} {r.check}/{r.variant} p={r.p}": r.report.to_json_dict()
        for seed in seeds
        for cfg in [FuzzConfig(trials=trials, seed=seed)]
        for trial in range(trials)
        for r in run_trial(seed, trial, cfg)
    }


def _mtimes(directory: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in directory.rglob("*") if p.is_file()}


def cli_section(seeds, workdir: Path) -> dict:
    """Every op of the ``cli_mix`` workload, run in-process through ``srlab.cli.main``."""
    import srlab.cli
    from perfbench import workloads

    section = {}
    ran = []

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = srlab.cli.main(argv)
        ran.append((argv, code, out.getvalue(), err.getvalue()))
        return code, out.getvalue()

    # An op looks workloads.call_cli up when it runs, so this sees every argv.
    real_call, workloads.call_cli = workloads.call_cli, call
    try:
        for seed in seeds:
            run_dir = workdir / f"seed{seed}"
            run_dir.mkdir()

            def hide(text):
                return text.replace(str(run_dir), PLACEHOLDER)

            for index, op in enumerate(workloads.cli_ops(seed, run_dir)):
                before = _mtimes(run_dir)
                op.run()
                argv, code, out, err = ran[-1]
                section[f"seed={seed} op={index} {hide(' '.join(argv))}"] = {
                    "exit_code": code,
                    "stdout": _json_or_text(hide(out)),
                    "stderr_first_line": hide(err.partition("\n")[0]),
                    "files": {
                        p.relative_to(run_dir).as_posix(): _sha256(p.read_bytes())
                        for p, mtime in sorted(_mtimes(run_dir).items())
                        if before.get(p) != mtime
                    },
                }
    finally:
        workloads.call_cli = real_call
    return section


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return f"{a.dtype}{a.shape}:" + _sha256(a.tobytes())


def gallery_section() -> dict:
    """Every family ``scripts/reproduce_families.py`` builds, at its parameters."""
    from srlab import gallery
    from srlab.checks import encode_json

    path = ROOT / "scripts" / "reproduce_families.py"
    spec = importlib.util.spec_from_file_location("reproduce_families", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = []
    script.show = built.append
    script.main()
    missing = set(gallery.FAMILIES) - {instance.name for instance in built}
    if missing:
        raise RuntimeError(f"reproduce_families.py builds no {sorted(missing)}")
    return {
        f"{index} {instance.name}": encode_json(
            {
                "params": instance.params,
                "predicted": instance.predicted,
                "threshold_met": instance.threshold_met,
                "thresholds": instance.thresholds,
                "notes": instance.notes,
                "evaluation": gallery.evaluate(instance),
                "matrices": {k: _digest(m) for k, m in instance.matrices.items()},
            }
        )
        for index, instance in enumerate(built)
    }


# Flag values of the edge calls, by the check parameter each flag sets.
EDGE_FLAGS = {"p": ("1.5", "400", "inf"), "k": ("1",), "drop_col": ("1",)}
EDGE_QUANTITIES = ("sr", "srp", "intdim", "rank", "schatten")


def edge_matrices() -> dict:
    """The edge inputs by file stem; the SciPy sparse one is written as a coordinate file."""
    import numpy as np
    import scipy.sparse

    rng = np.random.default_rng(2024)
    x = rng.standard_normal((6, 5))
    gram = x.T @ x
    top = np.abs(gram).max()
    u = rng.integers(-3, 4, size=(5, 2)).astype(float)
    z = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    sparse = rng.standard_normal((6, 8)) * (rng.random((6, 8)) < 0.3)
    return {
        "row_1x5": rng.standard_normal((1, 5)),
        "column_5x1": rng.standard_normal((5, 1)),
        "scalar_1x1": np.array([[2.5]]),
        "zero_4x4": np.zeros((4, 4)),
        "rank2_real_5x6": u @ rng.integers(-3, 4, size=(2, 6)),
        "rank2_psd_5x5": u @ u.T,
        "gram_times_2^600": gram * 2.0**600,
        "gram_times_2^-600": gram * 2.0**-600,
        "gram_max_1.5e308": gram * (1.5e308 / top),
        "gram_noise_1e-13": gram + 1e-13 * top * rng.standard_normal(gram.shape),
        "gaussian_5x5_times_1e-13": rng.standard_normal((5, 5)) * 1e-13,
        "indefinite_diagonal": np.diag([3.0, 1.0, -2.0, 0.5]),
        "complex_psd_gram": z.conj().T @ z,
        "coordinate_6x8": scipy.sparse.coo_matrix(sparse),
        "empty_0x3": np.zeros((0, 3)),
    }


def edge_argvs(path: str) -> list[list[str]]:
    """Every edge call on the matrix file ``path``."""
    import inspect

    from srlab.checks import CHECKS
    from srlab.cli import _option

    argvs = [
        ["compute", path, "-q", quantity, "-p", p]
        for quantity in EDGE_QUANTITIES
        for p in EDGE_FLAGS["p"]
    ]
    for name, check in CHECKS.items():
        params = inspect.signature(check).parameters
        inputs = [path for param in params.values() if param.default is param.empty]
        argvs.append(["verify", name, *inputs])
        for key, values in EDGE_FLAGS.items():
            if key in params:
                argvs += [["verify", name, *inputs, _option(key), value] for value in values]
    argvs += [["condition", path, "--perturbation", kind] for kind in ("gaussian", "psd")]
    return argvs


def edge_section(workdir: Path) -> dict:
    """Every edge call, run in-process through ``srlab.cli.main``."""
    import warnings

    import scipy.io

    import srlab
    import srlab.cli

    workdir = workdir.resolve()
    workdir.mkdir()
    checkout = str(Path(srlab.__file__).resolve().parent.parent.parent)

    def hide(text):
        return text.replace(str(workdir), PLACEHOLDER).replace(checkout, "<checkout>")

    section = {}
    for stem, matrix in edge_matrices().items():
        path = workdir / f"{stem}.mtx"
        scipy.io.mmwrite(str(path), matrix, symmetry="general", precision=17)
        for argv in edge_argvs(str(path)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = srlab.cli.main(argv)
                    except Exception as exc:  # recorded, so one tree's crash is a field
                        code = f"raised {type(exc).__name__}: {hide(str(exc))}"
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            section[hide(" ".join(argv))] = {
                "exit_code": code,
                "stdout": _json_or_text(hide(out.getvalue())),
                "error_line": hide(errors[0]) if errors else None,
                "warnings": [[w.category.__name__, hide(str(w.message))] for w in caught],
            }
    return section


def collect(out_path: str) -> None:
    """Write the srlab this process imports and its outputs on the corpus to ``out_path``."""
    import srlab

    with tempfile.TemporaryDirectory() as workdir:
        corpus = {
            "campaign": campaign_section(**CAMPAIGN),
            "run_trial": trial_section(TRIAL_SEEDS, TRIALS),
            "cli_mix": cli_section(CLI_SEEDS, Path(workdir)),
            "gallery": gallery_section(),
            "edge": edge_section(Path(workdir) / "edge"),
        }
    Path(out_path).write_text(json.dumps({"srlab": srlab.__file__, "corpus": corpus}))


def run_checkout(checkout: Path, out_path: Path) -> dict:
    """The corpus of ``checkout``'s srlab, collected in a subprocess on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (checkout / "src", ROOT, ROOT / "scripts"))
    code = "import sys, compare_outputs; compare_outputs.collect(sys.argv[1])"
    # The corpus goes to out_path. stdout holds only what LAPACK prints on the
    # edge inputs ("On entry to DLASCL ..."), which would break up the summary.
    subprocess.run(
        [sys.executable, "-c", code, str(out_path)],
        cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    collected = json.loads(out_path.read_text())
    if not Path(collected["srlab"]).resolve().is_relative_to(checkout / "src"):
        raise RuntimeError(f"{checkout} ran the srlab at {collected['srlab']}")
    return collected["corpus"]


# ---------------------------------------------------------------------------
# Comparing two corpora

MISSING = object()


def difference(parent, change):
    """None when identical, the largest relative move when only floats moved,
    else ``"status"``.

    Identical means the same JSON text: equal bits for floats (nan equals
    nan, -0.0 differs from 0.0) and dict keys in the same order. Lists of
    one length and dicts with one key order are compared item by item.
    """
    if parent is MISSING or change is MISSING:
        return "status"
    if json.dumps(parent) == json.dumps(change):
        return None
    if type(parent) is float and type(change) is float:
        scale = max(abs(parent), abs(change))
        if not (math.isfinite(parent) and math.isfinite(change)) or scale == 0.0:
            return "status"  # nan, an infinity or the sign of a zero
        return abs(change - parent) / scale
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        items = list(zip(parent, change))
    elif isinstance(parent, dict) and isinstance(change, dict) and list(parent) == list(change):
        items = [(parent[k], change[k]) for k in parent]
    else:
        return "status"
    moves = [difference(p, c) for p, c in items]
    if "status" in moves:
        return "status"
    return max(m for m in moves if m is not None)


def compare(parent: dict, change: dict) -> dict:
    """Per ``section.field``: its verdict, and where it moved most or changed status.

    Both corpora map section -> instance -> field -> value. An instance or
    a field that only one side has is a change of status.
    """
    fields = {}
    for section in dict.fromkeys([*parent, *change]):
        sides = parent.get(section, {}), change.get(section, {})
        for instance in dict.fromkeys([*sides[0], *sides[1]]):
            records = sides[0].get(instance, {}), sides[1].get(instance, {})
            for field in dict.fromkeys([*records[0], *records[1]]):
                entry = fields.setdefault(
                    f"{section}.{field}",
                    {"verdict": "identical", "max_rel_move": 0.0, "at": None, "changed": []},
                )
                diff = difference(records[0].get(field, MISSING), records[1].get(field, MISSING))
                if diff == "status":
                    entry["verdict"] = "status changed"
                    entry["changed"].append(instance)
                elif diff is not None:
                    if entry["verdict"] == "identical":
                        entry["verdict"] = "moved"
                    if diff > entry["max_rel_move"]:
                        entry["max_rel_move"] = diff
                        entry["at"] = instance
    return fields


def summary_line(field: str, entry: dict) -> str:
    verdict = entry["verdict"]
    if verdict == "moved":
        verdict += f" (largest relative move {entry['max_rel_move']:.3g} at {entry['at']})"
    elif verdict == "status changed":
        changed = entry["changed"]
        more = f" and {len(changed) - SHOWN} more" if len(changed) > SHOWN else ""
        verdict += f" in {len(changed)}: {'; '.join(changed[:SHOWN])}{more}"
    return f"{field}: {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, help="write the per-field verdicts here as JSON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        corpora = {
            side: run_checkout(getattr(args, side).resolve(), Path(scratch) / f"{side}.json")
            for side in ("parent", "change")
        }
    fields = compare(corpora["parent"], corpora["change"])
    for field, entry in fields.items():
        print(summary_line(field, entry))
    if args.out:
        args.out.write_text(json.dumps(fields, indent=1) + "\n")
    return 0 if all(entry["verdict"] == "identical" for entry in fields.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
