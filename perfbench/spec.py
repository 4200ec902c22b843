"""Names the benchmark reports: workloads, metrics and the layer map.

BENCHMARK.json at the repository root repeats the workloads and metrics;
test_perfbench.py checks that the two agree.
"""

from calib import PARALLEL, SERIAL

# How each workload's timings are converted to reference speed. Fixed here
# after ten-run comparisons of calibrated and raw figures (see README.md);
# there is no flag to change it.
CALIBRATION = {
    "fuzz_serial": SERIAL,
    "fuzz_campaign": PARALLEL,
    "cli_mix": SERIAL,
}

# name -> (unit, better, bound). In four sets of ten runs with distinct
# seeds on the reference host, latencies spread (quartile distance over
# median) by up to 0.074 and ops_per_s by up to 0.086 (fuzz_campaign); the
# bounds are about three times that, below setup_s's, the largest allowed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.24),
    "latency_p50_ms": ("ms", "lower", 0.23),
    "latency_p90_ms": ("ms", "lower", 0.23),
    "success_frac": ("frac", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

CHECK_NAMES = (
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
    "deletion",
)

# Per-layer metric -> (unit, better, [(workload, end-to-end metric it should move)]).
# "_ms" metrics are per op: per trial on the fuzz workloads, per CLI call on
# cli_mix. A layer that does no work on a workload reports 0 there.
_SERIAL_RATE = [("fuzz_serial", "ops_per_s")]
PER_LAYER = {
    "fuzz.trial_inputs_ms": ("ms", "lower", [*_SERIAL_RATE, ("fuzz_serial", "latency_p50_ms")]),
    "fuzz.run_trial_ms": ("ms", "lower", [*_SERIAL_RATE, ("fuzz_serial", "latency_p50_ms")]),
    "fuzz.report_ms": ("ms", "lower", [("fuzz_campaign", "ops_per_s")]),
    "fuzz.parallel_efficiency": ("frac", "higher", [("fuzz_campaign", "ops_per_s")]),
    **{f"checks.{name}_ms": ("ms", "lower", _SERIAL_RATE) for name in CHECK_NAMES},
    "matrices.svd_calls": ("count", "lower", _SERIAL_RATE),
    "matrices.svd_distinct": ("count", "lower", _SERIAL_RATE),
    "matrices.eigvalsh_calls": ("count", "lower", _SERIAL_RATE),
    "matrices.eigvalsh_distinct": ("count", "lower", _SERIAL_RATE),
    "matrices.redundant_decomp_frac": ("frac", "lower", _SERIAL_RATE),
    "schatten.power_sum_calls": ("count", "lower", _SERIAL_RATE),
    **{
        name: (unit, "lower", [("fuzz_serial", "latency_p90_ms"), ("cli_mix", "ops_per_s")])
        for name, unit in (
            ("matrices.decomp_ms", "ms"),
            ("matrices.decomp_share", "frac"),
            ("matrices.pivoted_cholesky_ms", "ms"),
        )
    },
    **{
        name: (unit, "lower", [("cli_mix", "latency_p90_ms"), ("cli_mix", "peak_rss_mb")])
        for name, unit in (
            ("mmio.read_ms_per_mb", "ms/MB"),
            ("mmio.write_ms_per_mb", "ms/MB"),
            ("mmio.bytes_read", "B"),
            ("mmio.bytes_written", "B"),
            ("mmio.read_share", "frac"),
        )
    },
    "ranks.quantity_ms": ("ms", "lower", [("cli_mix", "ops_per_s")]),
    "cli.overhead_ms": ("ms", "lower", [("cli_mix", "latency_p50_ms")]),
    "gallery.build_ms": ("ms", "lower", [("cli_mix", "latency_p50_ms")]),
    "gallery.evaluate_ms": ("ms", "lower", [("cli_mix", "latency_p50_ms")]),
    # Diagnostics of the measurement itself.
    "bench.calib_factor": ("frac", "higher", []),
    "bench.steal_frac": ("frac", "lower", []),
    "bench.trace_overhead_frac": ("frac", "lower", []),
}
