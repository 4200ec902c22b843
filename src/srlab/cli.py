"""Command-line front end.

Subcommands: ``compute`` (single quantities), ``verify`` (one inequality
check on files; the check's signature names its matrix files, and the
flags ``-p``, ``--k`` and ``--drop-col`` fill the parameters of those
names), ``gallery`` (emit an example family), ``condition``
(perturbation-bound sweep), ``fuzz`` (randomized campaign). Reports are
JSON (schema 1) by default; ``--format csv|text`` flattens them.

Exit codes: 0 success or not-applicable, 1 a verified inequality failed,
2 unreadable input or invalid parameters, 3 intrinsic dimension requested
for a non-PSD matrix.

The argument parser is built once per process and shared by every
:func:`main` call, so repeated in-process calls skip argparse's set-up.
Its defaults are immutable, so no call can change what the next one sees.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import gallery as gal
from .checks import CHECKS, canonical_check_name, check_perturbation, encode_json
from .fuzz import FuzzConfig, run_fuzz, scaled_perturbation
from .matrices import PreconditionError, trial_scope
from .mmio import MatrixParseError, read_matrix, write_matrix_market
from .ranks import intrinsic_dimension, numerical_rank, p_stable_rank, stable_rank
from .schatten import schatten_norm

SCHEMA_VERSION = 1

# Check parameters that ``verify`` fills from its flags, not from files.
_VERIFY_FLAGS = ("p", "k", "drop_col")


def _print_json(payload) -> None:
    print(json.dumps(encode_json(payload), indent=2, sort_keys=True))


def _print_csv(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0])
    print(",".join(keys))
    for row in rows:
        print(",".join(str(encode_json(row.get(k, ""))) for k in keys))


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _quantity_value(a, quantity: str, p: float, rtol: float) -> float:
    if quantity == "sr":
        return stable_rank(a).value
    if quantity == "srp":
        return p_stable_rank(a, p, rtol).value
    if quantity == "intdim":
        return intrinsic_dimension(a).value
    if quantity == "rank":
        return float(numerical_rank(a, rtol))
    return schatten_norm(a, p)


def cmd_compute(args) -> int:
    try:
        a = read_matrix(args.input)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        value = _quantity_value(a, args.quantity, args.p, args.rtol)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "compute",
        "input": str(args.input),
        "quantity": args.quantity,
        "p": args.p if args.quantity in ("srp", "schatten") else None,
        "value": value,
    }
    if args.format == "json":
        _print_json(record)
    elif args.format == "csv":
        _print_csv([{k: record[k] for k in ("quantity", "p", "value")}])
    else:
        print(value)
    return 0


def cmd_verify(args) -> int:
    name = canonical_check_name(args.check)
    check = CHECKS[name]
    params = inspect.signature(check).parameters
    matrix_slots = [
        key.upper()
        for key, param in params.items()
        if param.default is param.empty and key not in _VERIFY_FLAGS
    ]
    if len(args.inputs) != len(matrix_slots):
        print(
            f"error: {name} needs {len(matrix_slots)} matrix file(s): "
            f"{', '.join(matrix_slots)}",
            file=sys.stderr,
        )
        return 2
    try:
        matrices = [read_matrix(path) for path in args.inputs]
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flags = {key: getattr(args, key) for key in _VERIFY_FLAGS if key in params}
    try:
        with trial_scope():
            report = check(*matrices, **flags)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"schema": SCHEMA_VERSION, "kind": "verify", **report.to_json_dict()}
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(
            [
                {
                    "name": report.name,
                    "status": report.status,
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "slack": report.slack,
                }
            ]
        )
    else:
        print(f"{report.name}: {report.status} (slack={report.slack})")
    return 1 if report.holds is False else 0


def _build_family(args) -> gal.FamilyInstance:
    name = args.family
    if name in gal.PARAMETRIC_FAMILIES:
        builder, param_names = gal.PARAMETRIC_FAMILIES[name]
        params = {key: getattr(args, key) for key in param_names}
        for key, value in params.items():
            if value is None:
                raise ValueError(f"{name} requires --{key}")
        return builder(**params, rotate_seed=args.rotate_seed)
    if name in gal.MATRIX_INPUT_FAMILIES:
        builder, param_names = gal.MATRIX_INPUT_FAMILIES[name]
        if args.input is None:
            raise ValueError(f"{name} requires --input MATRIX_FILE")
        a = read_matrix(args.input)
        extra = {}
        for key in param_names:
            value = getattr(args, key)
            if value is None:
                raise ValueError(f"{name} requires --{key}")
            extra[key] = value
        return builder(a, **extra, rtol=args.rtol)
    if name == "equality_cases":
        if args.kind is None or args.n is None:
            raise ValueError("equality_cases requires --kind and --n")
        return gal.equality_cases(args.kind, args.n, args.p, rank=args.rank, seed=args.seed)
    raise ValueError(f"unknown family {name!r}; known: {', '.join(gal.ALL_FAMILIES)}")


def cmd_gallery(args) -> int:
    try:
        instance = _build_family(args)
    except (ValueError, PreconditionError, MatrixParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            {"key": k, "predicted": v["predicted"], "computed": v["computed"], "rel_err": v["rel_err"]}
            for k, v in evaluation.items()
        ]
        _print_csv(rows)
    else:
        print(f"{instance.name}: threshold_met={instance.threshold_met}")
        for key, v in evaluation.items():
            print(f"  {key}: predicted={v['predicted']} computed={v['computed']}")
    return 0


def cmd_condition(args) -> int:
    try:
        a = read_matrix(args.input)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.perturbation == "psd" and a.shape[0] != a.shape[1]:
        print("error: PSD perturbations need a square input matrix", file=sys.stderr)
        return 2
    rows = []
    any_failure = False
    # One scope for the sweep: the input is decomposed once, not per epsilon.
    with trial_scope():
        for i, eps in enumerate(args.epsilons):
            row = {"epsilon": eps, "applicable": False}
            if eps >= 1.0 or eps < 0.0:
                row["reason"] = "requires 0 <= eps < 1"
                rows.append(row)
                continue
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
            field = "complex" if np.iscomplexobj(a) else "real"
            e = scaled_perturbation(rng, a, eps, args.perturbation, field)
            report = check_perturbation(a, e, args.p)
            if not report.preconditions_met:
                row["reason"] = report.details.get("reason", "not applicable")
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
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(rows)
    else:
        for row in rows:
            if row["applicable"]:
                print(
                    f"eps={row['epsilon']}: {row['lower']:.6g} <= "
                    f"{row['actual']:.6g} <= {row['upper']:.6g}"
                )
            else:
                print(f"eps={row['epsilon']}: not applicable ({row.get('reason')})")
    return 1 if any_failure else 0


def cmd_fuzz(args) -> int:
    overrides = {}
    if args.distributions:
        overrides["distributions"] = tuple(args.distributions.split(","))
    if args.p_grid:
        overrides["p_grid"] = tuple(_parse_float_list(args.p_grid))
    if args.checks:
        overrides["checks"] = tuple(args.checks.split(","))
    try:
        cfg = FuzzConfig(
            trials=args.trials,
            seed=args.seed,
            dims_max=args.dims_max,
            parallelism=args.parallelism,
            **overrides,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_fuzz(cfg)
    payload = report.to_json_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(encode_json(payload), indent=2, sort_keys=True))
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            {
                "check": name,
                "applicable_count": agg["applicable_count"],
                "pass_count": agg["pass_count"],
                "min_slack": agg["min_slack"],
            }
            for name, agg in payload["checks"].items()
        ]
        _print_csv(rows)
    else:
        for name, agg in payload["checks"].items():
            print(
                f"{name}: {agg['pass_count']}/{agg['applicable_count']} passed, "
                f"min_slack={agg['min_slack']}"
            )
        print(f"failures: {len(payload['failures'])}")
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
    parser.add_argument("--rtol", type=float, default=1e-10, help="numerical rank tolerance")
    parser.add_argument("--seed", type=int, default=0, help="base seed for randomized commands")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--rtol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

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
    verify.add_argument("-p", type=float, default=2.0)
    verify.add_argument("--k", type=int, default=1, help="block split for block_intdim")
    verify.add_argument("--drop-col", type=int, default=0, dest="drop_col")
    verify.set_defaults(func=cmd_verify)

    gallery = sub.add_parser(
        "gallery", help="emit an example family with predictions", parents=[common]
    )
    gallery.add_argument("family", help=f"one of: {', '.join(gal.ALL_FAMILIES)}")
    gallery.add_argument("--n", type=int)
    gallery.add_argument("--alpha", type=float)
    gallery.add_argument("--beta", type=float)
    gallery.add_argument("--ratio", type=float)
    gallery.add_argument("-p", type=float, default=2.0)
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
    condition.add_argument(
        "--epsilons", type=_parse_float_list, default=(0.01, 0.05, 0.1, 0.3, 0.5)
    )
    condition.add_argument("-p", type=float, default=2.0)
    condition.set_defaults(func=cmd_condition)

    fuzz = sub.add_parser(
        "fuzz", help="randomized verification campaign", parents=[common]
    )
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--dims-max", type=int, default=20, dest="dims_max")
    fuzz.add_argument("--distributions", default=None, help="comma-separated sample kinds")
    fuzz.add_argument("--p-grid", default=None, dest="p_grid", help="comma-separated exponents")
    fuzz.add_argument("--checks", default=None, help="comma-separated check names")
    fuzz.add_argument("--parallelism", type=int, default=0, help="0 = auto")
    fuzz.add_argument("--out", default=None, help="also write the JSON report here")
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
