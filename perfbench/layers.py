"""Which srlab functions the traced run wraps, and the per-layer metrics it derives."""

from __future__ import annotations

import statistics
from collections import defaultdict

import srlab.checks
import srlab.cli
import srlab.fuzz
import srlab.gallery
import srlab.ranks
import srlab.schatten

import workloads
from measure import Pass, run_pass
from spec import CHECK_NAMES, PER_LAYER
from tracer import DECOMPOSITIONS, Tracer

# The function run_trial calls for each check, as named in srlab.fuzz.
FUZZ_CHECK_FUNCTIONS = {
    "weyl": "check_weyl",
    "intdim_subadditive": "check_intdim_subadditive",
    "sum_subadditivity_proot": "grid_sum_subadditivity_proot",
    "rank1_addition": "grid_rank1_addition",
    "product_kappa": "grid_product_kappa",
    "cross_product": "grid_cross_product",
    "perturbation": "grid_perturbation",
    "block_diag_sr": "check_block_diag_sr",
    "block_intdim": "check_block_intdim",
    "cholesky_intdim": "check_cholesky_intdim",
    "deletion": "check_deletion",
}
RANK_QUANTITIES = ("stable_rank", "p_stable_rank", "intrinsic_dimension", "numerical_rank", "schatten_norm")


def _install_numeric(tr: Tracer) -> None:
    tr.wrap(srlab.checks, "pivoted_cholesky", "matrices.pivoted_cholesky")
    tr.wrap_decompositions()
    for module in (srlab.checks, srlab.ranks, srlab.schatten):
        tr.wrap_count(module, "normalized_power_sum", "power_sum_calls")


def install_trial(tr: Tracer) -> None:
    tr.wrap(srlab.fuzz, "trial_inputs", "fuzz.trial_inputs")
    for check, function in FUZZ_CHECK_FUNCTIONS.items():
        tr.wrap(srlab.fuzz, function, f"checks.{check}")
    _install_numeric(tr)


def install_cli(tr: Tracer) -> None:
    tr.wrap_file(srlab.cli, "read_matrix", "mmio.read", "bytes_read")
    tr.wrap_file(srlab.cli, "write_matrix_market", "mmio.write", "bytes_written")
    for quantity in RANK_QUANTITIES:
        tr.wrap(srlab.cli, quantity, "ranks.quantity")
    for check in srlab.checks.CHECKS:
        tr.wrap(srlab.checks.CHECKS, check, f"checks.{check}")
    tr.wrap(srlab.cli, "_build_family", "gallery.build")
    tr.wrap(srlab.gallery, "evaluate", "gallery.evaluate")
    _install_numeric(tr)


def install_campaign(tr: Tracer) -> None:
    """Parent-side only: merging chunk aggregates, then report encoding."""
    tr.wrap(srlab.fuzz._Aggregate, "merge", "fuzz.aggregate")
    tr.wrap(workloads, "encode_report", "fuzz.encode_report")


def traced_pass(ops, calibrator, install) -> tuple[Pass, dict[str, float], dict[str, int], Tracer]:
    """One pass with ``install``'s wrappers in place.

    Returns the pass, seconds per layer at reference speed summed over
    ops, the counts, and the tracer holding the spans.
    """
    tr = Tracer()
    install(tr)
    try:
        result = run_pass(ops, calibrator, tr)
    finally:
        tr.uninstall()
    totals: dict[str, float] = defaultdict(float)
    for layers, factor in zip(tr.op_layers(), result.factor):
        for name, seconds in layers.items():
            totals[name] += seconds * factor
    return result, totals, dict(tr.counts), tr


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def op_layer_metrics(totals, counts, n_ops: int, root_metric: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``n_ops`` trials or CLI calls."""

    def per_op_ms(name):
        return 1e3 * totals.get(name, 0.0) / n_ops

    def ms_per_mb(name, n_bytes):
        return 1e3 * totals.get(name, 0.0) / (n_bytes / 1e6) if n_bytes else 0.0

    decomp = sum(totals.get(f"decomp.{kind}", 0.0) for kind in DECOMPOSITIONS)
    calls = sum(counts.get(f"{kind}_calls", 0) for kind in ("svd", "eigvalsh"))
    distinct = sum(counts.get(f"{kind}_distinct", 0) for kind in ("svd", "eigvalsh"))
    read_bytes = counts.get("bytes_read", 0)
    written_bytes = counts.get("bytes_written", 0)
    metrics = {
        "fuzz.trial_inputs_ms": per_op_ms("fuzz.trial_inputs"),
        **{f"checks.{c}_ms": per_op_ms(f"checks.{c}") for c in CHECK_NAMES},
        "matrices.svd_calls": counts.get("svd_calls", 0),
        "matrices.svd_distinct": counts.get("svd_distinct", 0),
        "matrices.eigvalsh_calls": counts.get("eigvalsh_calls", 0),
        "matrices.eigvalsh_distinct": counts.get("eigvalsh_distinct", 0),
        "matrices.redundant_decomp_frac": 1.0 - distinct / calls if calls else 0.0,
        "schatten.power_sum_calls": counts.get("power_sum_calls", 0),
        "matrices.decomp_ms": 1e3 * decomp / n_ops,
        "matrices.decomp_share": decomp / totals["op"],
        "matrices.pivoted_cholesky_ms": per_op_ms("matrices.pivoted_cholesky"),
        "mmio.read_ms_per_mb": ms_per_mb("mmio.read", read_bytes),
        "mmio.write_ms_per_mb": ms_per_mb("mmio.write", written_bytes),
        "mmio.bytes_read": read_bytes,
        "mmio.bytes_written": written_bytes,
        "mmio.read_share": totals.get("mmio.read", 0.0) / totals["op"],
        "ranks.quantity_ms": per_op_ms("ranks.quantity"),
        "gallery.build_ms": per_op_ms("gallery.build.self"),
        "gallery.evaluate_ms": per_op_ms("gallery.evaluate"),
    }
    metrics[root_metric] = per_op_ms("op.self" if root_metric == "cli.overhead_ms" else "op")
    return metrics


COUNT_METRICS = tuple(name for name, (unit, _, _) in PER_LAYER.items() if unit in ("count", "B"))


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def counts_repeat(per_pass: list[dict[str, float]]) -> bool:
    """The counts must be identical in every traced pass of the same ops."""
    return all(
        len({m.get(name) for m in per_pass}) == 1 for name in COUNT_METRICS
    )
