"""Command-line front end.

Subcommands: ``compute`` (single quantities), ``verify`` (one inequality
check on files), ``gallery`` (emit an example family; ``--input`` gives
the builder's matrix ``a``), ``condition`` (perturbation-bound sweep),
``fuzz`` (randomized campaign). All but ``condition`` call their function
through :func:`_call`: each parameter takes the flag of its name, and a
command's own flag that the function does not take is an error. Reports
are JSON (schema 1) by default; ``--format csv|text`` flattens them. Every
subcommand prints its report through one printer, :func:`_print_report`.

``--rtol`` is the one numerical-rank tolerance of ``compute``, ``verify``,
``gallery`` and ``condition``, by default
:data:`srlab.ranks.DEFAULT_RANK_RTOL` (1e-10); ``fuzz`` counts ranks at
that fixed value.

Exit codes: 0 success or not-applicable, 1 a verified inequality failed,
2 unreadable input, invalid parameters or a failed decomposition, 3
intrinsic dimension requested for a non-PSD matrix. Errors map to exit
codes in :func:`main`, not in each command: a ``ValueError``, ``OSError``
(a path that cannot be read or written) or ``DecompositionError`` prints
``error: ...`` to stderr and exits 2; ``compute`` alone maps its
quantity's ``PreconditionError`` to 3.

The argument parser is built once per process and shared by every
:func:`main` call, so repeated in-process calls skip argparse's set-up.
Its defaults are immutable, so no call can change what the next one sees.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import gallery as gal
from .checks import CHECKS, canonical_check_name, check_perturbation, encode_json
from .fuzz import FuzzConfig, run_fuzz, scaled_perturbation
from .matrices import DecompositionError, PreconditionError, trial_scope
from .mmio import read_matrix, write_matrix_market
from .ranks import (
    DEFAULT_RANK_RTOL,
    intrinsic_dimension,
    numerical_rank,
    p_stable_rank,
    stable_rank,
)
from .schatten import schatten_norm

SCHEMA_VERSION = 1


def _print_report(fmt: str, payload: dict, rows: list[dict], lines: list[str]) -> None:
    """Print ``payload`` as JSON, ``rows`` as CSV under the keys of all rows
    in first-seen order, or ``lines`` as text, as ``fmt`` (``--format``) says."""
    if fmt == "json":
        print(json.dumps(encode_json(payload), indent=2, sort_keys=True))
    elif fmt == "csv":
        keys = list(dict.fromkeys(key for row in rows for key in row))
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([encode_json(row.get(k)) for k in keys] for row in rows)
    else:
        for line in lines:
            print(line)


def _error(message, code: int) -> int:
    """Print ``error: message`` to stderr and return the exit code ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _list_of(convert, what: str):
    """An argparse ``type``: the nonblank comma-separated items through
    ``convert``, as a tuple; a rejected item reads ``invalid value 'TEXT'``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(item) for item in text.split(",") if item.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: expected comma-separated {what}"
            ) from None

    return parse


def _seed(text: str) -> int:
    """The argparse ``type`` of ``--seed``: numpy seeds from nonnegative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: expected a nonnegative integer")
    return int(text)


def _option(key: str) -> str:
    """The option that sets parameter ``key``, as in ``-p`` or ``--drop-col``."""
    return "-p" if key == "p" else "--" + key.replace("_", "-")


def _call(fn, params, name: str, args, flags: tuple, matrices=()):
    """``fn(*matrices, **kwargs)``, each later parameter of ``params`` (``fn``'s)
    set from the flag of its name if that is not None, else left at its default.
    One with neither, or a set flag of ``flags`` that ``fn`` lacks, is a ``ValueError``."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in params:
            raise ValueError(f"{name} does not take {_option(flag)}")
    kwargs = {}
    for key in list(params)[len(matrices):]:
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = value
        elif params[key].default is params[key].empty:
            raise ValueError(f"{name} requires {_option(key)}")
    return fn(*matrices, **kwargs)


def cmd_compute(args) -> int:
    # A coordinate file stays sparse, so a large wide one forms its Gram
    # with a sparse product.
    a = read_matrix(args.input, sparse=True)
    # Built per call, so a quantity function replaced in this module is called.
    quantity = {
        "sr": stable_rank, "srp": p_stable_rank, "intdim": intrinsic_dimension,
        "rank": numerical_rank, "schatten": schatten_norm,
    }[args.quantity]
    params = inspect.signature(quantity).parameters
    try:
        value = float(_call(quantity, params, args.quantity, args, (), [a]))
    except PreconditionError as exc:
        return _error(exc, 3)
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "compute",
        "input": str(args.input),
        "quantity": args.quantity,
        "p": args.p if "p" in params else None,
        "value": value,
    }
    rows = [{k: record[k] for k in ("quantity", "p", "value")}]
    _print_report(args.format, record, rows, [str(value)])
    return 0


def cmd_verify(args) -> int:
    name = canonical_check_name(args.check)
    check = CHECKS[name]
    params = inspect.signature(check).parameters
    slots = [key.upper() for key, param in params.items() if param.default is param.empty]
    if len(args.inputs) != len(slots):
        raise ValueError(f"{name} needs {len(slots)} matrix file(s): {', '.join(slots)}")
    matrices = [read_matrix(path) for path in args.inputs]
    with trial_scope():
        report = _call(check, params, name, args, ("p", "k", "drop_col"), matrices)
    payload = {"schema": SCHEMA_VERSION, "kind": "verify", **report.to_json_dict()}
    row = {key: getattr(report, key) for key in ("name", "status", "lhs", "rhs", "slack")}
    _print_report(
        args.format, payload, [row], [f"{report.name}: {report.status} (slack={report.slack})"]
    )
    return 1 if report.holds is False else 0


# The builder flags of ``gallery``, apart from ``--input``, which gives ``a``.
_GALLERY_FLAGS = ("n", "alpha", "beta", "ratio", "p", "rank", "kind", "rotate_seed")


def _build_family(args) -> gal.FamilyInstance:
    """Call the family's builder through :func:`_call`, ``a`` read from ``--input``."""
    name = args.family
    builder = gal.FAMILIES.get(name)
    if builder is None:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(gal.FAMILIES)}")
    params = inspect.signature(builder).parameters
    takes_a = "a" in params
    if takes_a != (args.input is not None):
        raise ValueError(f"{name} {'requires' if takes_a else 'does not take'} --input")
    matrices = [read_matrix(args.input)] if takes_a else []
    return _call(builder, params, name, args, _GALLERY_FLAGS, matrices)


def cmd_gallery(args) -> int:
    instance = _build_family(args)
    evaluation = gal.evaluate(instance, rtol=args.rtol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, matrix in instance.matrices.items():
        path = out_dir / f"{instance.name}_{key}.mtx"
        write_matrix_market(path, matrix)
        files[key] = str(path)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "family",
        "name": instance.name,
        "params": instance.params,
        "predicted": instance.predicted,
        "evaluation": evaluation,
        "threshold_met": instance.threshold_met,
        "thresholds": instance.thresholds,
        "notes": instance.notes,
        "files": files,
    }
    rows = [{"key": key, **v} for key, v in evaluation.items()]
    lines = [f"{instance.name}: threshold_met={instance.threshold_met}"] + [
        f"  {key}: predicted={v['predicted']} computed={v['computed']}"
        for key, v in evaluation.items()
    ]
    _print_report(args.format, payload, rows, lines)
    return 0


def cmd_condition(args) -> int:
    if not args.epsilons:
        raise ValueError("epsilons must be nonempty")
    a = read_matrix(args.input)
    if args.perturbation == "psd" and a.shape[0] != a.shape[1]:
        raise ValueError("PSD perturbations need a square input matrix")
    rows = []
    any_failure = False
    # One scope for the sweep: the input is decomposed once, not per epsilon.
    with trial_scope():
        for i, eps in enumerate(args.epsilons):
            row = {"epsilon": eps, "applicable": False}
            if not 0.0 <= eps < 1.0:
                row["reason"] = "requires 0 <= eps < 1"
                rows.append(row)
                continue
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
            e = scaled_perturbation(rng, a, eps, args.perturbation)
            report = check_perturbation(a, e, args.p, rtol=args.rtol)
            if not report.preconditions_met:
                row["reason"] = report.details["reason"]
                rows.append(row)
                continue
            d = report.details
            row.update(
                applicable=True,
                p=d["p"],
                rank_e=d["rank_e"],
                lower=d["gen_lower"],
                actual=d["actual_proot"],
                upper=d["gen_upper"],
                slack_lower=d["actual_proot"] - d["gen_lower"],
                slack_upper=d["gen_upper"] - d["actual_proot"],
                psd_pair=d["psd_pair"],
                holds=report.holds,
            )
            if d["psd_pair"]:
                row.update(psd_lower=d["psd_lower"], psd_upper=d["psd_upper"])
            if report.holds is False:
                any_failure = True
            rows.append(row)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "condition",
        "input": str(args.input),
        "perturbation": args.perturbation,
        "p": args.p,
        "seed": args.seed,
        "rows": rows,
    }
    lines = [
        f"eps={row['epsilon']}: {row['lower']:.6g} <= {row['actual']:.6g} <= {row['upper']:.6g}"
        if row["applicable"]
        else f"eps={row['epsilon']}: not applicable ({row.get('reason')})"
        for row in rows
    ]
    _print_report(args.format, payload, rows, lines)
    return 1 if any_failure else 0


def cmd_fuzz(args) -> int:
    # FuzzConfig's fields are the flags of the same names; a list flag left
    # out keeps its default.
    cfg = _call(FuzzConfig, inspect.signature(FuzzConfig).parameters, "fuzz", args, ())
    if args.out:  # created before any trial runs, so a path that cannot be written fails at once
        Path(args.out).write_text("")
    report = run_fuzz(cfg)
    payload = report.to_json_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(encode_json(payload), indent=2, sort_keys=True))
    checks = payload["checks"]
    rows = [
        {"check": name, **{k: agg[k] for k in ("applicable_count", "pass_count", "min_slack")}}
        for name, agg in checks.items()
    ]
    lines = [
        f"{name}: {agg['pass_count']}/{agg['applicable_count']} passed, "
        f"min_slack={agg['min_slack']}"
        for name, agg in checks.items()
    ]
    lines.append(f"failures: {len(payload['failures'])}")
    _print_report(args.format, payload, rows, lines)
    return 1 if report.failure_count else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process-wide ``srlab`` parser, built on the first call.

    Every call returns the same instance, so callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Stable rank, intrinsic dimension, and Schatten p-norm toolkit",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument(
        "--rtol", type=float, default=DEFAULT_RANK_RTOL, help="numerical rank tolerance"
    )
    parser.add_argument("--seed", type=_seed, default=0, help="base seed for randomized commands")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--rtol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    numbers, names = _list_of(float, "numbers"), _list_of(str, "names")

    compute = sub.add_parser(
        "compute", help="compute one scalar quantity for a matrix file", parents=[common]
    )
    compute.add_argument("input")
    compute.add_argument(
        "--quantity", "-q", choices=("srp", "sr", "intdim", "rank", "schatten"), required=True
    )
    compute.add_argument("-p", type=float, default=2.0, help="exponent (inf allowed)")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser(
        "verify", help="run one inequality check on matrix files", parents=[common]
    )
    verify.add_argument("check", help=f"one of: {', '.join(CHECKS)}")
    verify.add_argument("inputs", nargs="*")
    verify.add_argument("-p", type=float)
    verify.add_argument("--k", type=int, help="block split for block_intdim")
    verify.add_argument("--drop-col", type=int, dest="drop_col")
    verify.set_defaults(func=cmd_verify)

    gallery = sub.add_parser(
        "gallery", help="emit an example family with predictions", parents=[common]
    )
    gallery.add_argument("family", help=f"one of: {', '.join(gal.FAMILIES)}")
    gallery.add_argument("--n", type=int)
    gallery.add_argument("--alpha", type=float)
    gallery.add_argument("--beta", type=float)
    gallery.add_argument("--ratio", type=float)
    gallery.add_argument("-p", type=float)
    gallery.add_argument("--rank", type=int)
    gallery.add_argument("--kind", choices=gal.EQUALITY_KINDS)
    gallery.add_argument("--rotate-seed", type=int, default=None, dest="rotate_seed")
    gallery.add_argument("--input", help="matrix file for the multiplier/congruence families")
    gallery.add_argument("--out", default=".", help="directory for emitted .mtx files")
    gallery.set_defaults(func=cmd_gallery)

    condition = sub.add_parser(
        "condition", help="perturbation bound sweep for one matrix", parents=[common]
    )
    condition.add_argument("input")
    condition.add_argument("--perturbation", choices=("gaussian", "psd"), default="gaussian")
    condition.add_argument("--epsilons", type=numbers, default=(0.01, 0.05, 0.1, 0.3, 0.5))
    condition.add_argument("-p", type=float, default=2.0)
    condition.set_defaults(func=cmd_condition)

    fuzz = sub.add_parser(
        "fuzz", help="randomized verification campaign", parents=[common]
    )
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--dims-max", type=int, dest="dims_max")
    fuzz.add_argument("--distributions", type=names, help="comma-separated sample kinds")
    fuzz.add_argument("--p-grid", type=numbers, dest="p_grid", help="comma-separated exponents")
    fuzz.add_argument("--checks", type=names, help="comma-separated check names")
    fuzz.add_argument("--parallelism", type=int, help="0 = auto")
    fuzz.add_argument("--out", default=None, help="also write the JSON report here")
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DecompositionError, MemoryError) as exc:
        return _error(str(exc) or "out of memory", 2)

