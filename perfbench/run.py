"""srlab benchmark: one workload, end-to-end metrics (--trace 0) or per-layer (--trace 1).

    python3 perfbench/run.py --workload fuzz_serial --seed 1 --seconds 20 --trace 0

Measures the srlab tree under ``src/`` next to this directory; srlab need
not be installed. Prints machine facts, then raw figures beside their
calibration, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is first imported, so the campaign's workers do not
# oversubscribe the cores; children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"
WORKLOADS = ("fuzz_serial", "fuzz_campaign", "cli_mix")

SETUP_REPS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import srlab.cli, srlab.fuzz\n"
    "srlab.fuzz.run_trial(0, 0, srlab.fuzz.FuzzConfig(trials=1, seed=0, parallelism=1))\n"
    "srlab.cli.build_parser()\n"
)
CAMPAIGN_TRACED_TRIALS = 128  # trials per traced serial pass on fuzz_campaign


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_srlab():
    """Import srlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "srlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no srlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srlab

    if Path(srlab.__file__).resolve().parent != SRC / "srlab":
        raise SystemExit(f"error: imported srlab from {srlab.__file__}, not {SRC}")


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies from /proc/stat, or zeros where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(children: int = 0) -> float:
    """This process's peak RSS, plus ``children`` times the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def measure_setup(calibrator) -> tuple[list[float], list[float]]:
    """Fresh-process import of srlab plus a warm-up call, SETUP_REPS times.

    Returns (reference-speed seconds, raw seconds). A first, unmeasured
    start compiles the bytecode.
    """
    from calib import reference_seconds

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    ref, raw = [], []
    before = calibrator.measure()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = calibrator.measure()
        raw.append(elapsed)
        ref.append(reference_seconds(elapsed, (before * after) ** 0.5))
        before = after
    return ref, raw


def write_spans(tracers, stem) -> list[str]:
    """Write each tracer's spans (its last traced pass) under .bench_build/perfbench-trace.

    A later traced run of the same workload overwrites them.
    """
    out_dir = WORK_ROOT / "perfbench-trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, tracer in tracers.items():
        path = out_dir / f"{stem}-{kind}.jsonl"
        tracer.write(path)
        paths.append(str(path.relative_to(ROOT)))
    return paths


# ---------------------------------------------------------------------------
# Measuring a workload


def warm_up(ops) -> None:
    """Run the first tenth of the ops untimed, so caches and lazy imports settle."""
    for op in ops[: max(1, len(ops) // 10)]:
        op.run()


def end_to_end(ops, calibrator, seconds):
    """Throughput and latencies; latencies per op, or per pass where a pass is one op."""
    import measure

    warm_up(ops)
    if len(ops) == 1:
        passes = measure.run_passes(ops, calibrator, seconds, measure.PASS_LATENCY_MIN_PASSES)
        latency = measure.pass_latency_metrics
    else:
        passes = measure.run_passes(ops, calibrator, seconds)
        latency = measure.latency_metrics
    metrics, raw = {}, {}
    for out, reference in ((metrics, True), (raw, False)):
        out["ops_per_s"] = measure.throughput(passes, reference)
        out.update(latency(passes, reference))
    return metrics, raw, passes


def traced(ops, calibrator, seconds, install, root_metric):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import layers
    import measure

    warm_up(ops)
    deadline = time.perf_counter() + seconds
    untraced_s, traced_s, passes, per_pass = [], [], [], []
    while len(per_pass) < 2 or time.perf_counter() < deadline:
        plain = measure.run_pass(ops, calibrator)
        result, totals, counts, tracer = layers.traced_pass(ops, calibrator, install)
        passes += [plain, result]
        untraced_s.append(sum(plain.ref))
        traced_s.append(sum(result.ref))
        per_pass.append(layers.op_layer_metrics(totals, counts, len(ops), root_metric))
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return per_pass, passes, overhead, tracer


def run_workload(args, workdir):
    import calib
    import layers
    import measure
    import srlab.fuzz
    import workloads
    from spec import CALIBRATION

    mode = CALIBRATION[args.workload]
    if args.workload == "cli_mix":
        ops = workloads.cli_ops(args.seed, workdir)
        processes = 1
    elif args.workload == "fuzz_serial":
        ops = workloads.trial_ops(workloads.serial_config(args.seed))
        processes = 1
    else:
        cfg = workloads.campaign_config(args.seed)
        serial_cfg = workloads.serial_config(args.seed, cfg.trials)
        expected = workloads.report_without_wall_time(srlab.fuzz.run_fuzz(serial_cfg))
        ops = [workloads.campaign_op(cfg, expected)]
        chunks = -(-cfg.trials // srlab.fuzz.CHUNK_SIZE)
        processes = min(srlab.fuzz.resolve_parallelism(cfg.parallelism), chunks)

    detail = {"calibration": mode, "processes": processes}
    verdict = True
    with calib.Calibrator(mode, processes) as cal:
        if not args.trace:
            metrics, raw, passes = end_to_end(ops, cal, args.seconds)
            metrics["peak_rss_mb"] = peak_rss_mb(processes if processes > 1 else 0)
        elif args.workload == "fuzz_campaign":
            metrics, passes, verdict, tracers = traced_campaign(args, ops, cal, serial_cfg, processes)
            raw = {}
        else:
            install = layers.install_cli if args.workload == "cli_mix" else layers.install_trial
            root = "cli.overhead_ms" if args.workload == "cli_mix" else "fuzz.run_trial_ms"
            per_pass, passes, overhead, tracer = traced(ops, cal, args.seconds, install, root)
            tracers = {"ops": tracer}
            metrics = {**layers.zero_metrics(), **layers.median_metrics(per_pass)}
            metrics["bench.trace_overhead_frac"] = overhead
            verdict = layers.counts_repeat(per_pass)
            raw = {}
        factors = [f for p in passes for f in p.factor]
        detail.update(passes=len(passes), ops_per_pass=len(ops), calib_factor=statistics.median(factors))
    with calib.Calibrator(calib.RAW if mode == calib.RAW else calib.SERIAL) as setup_cal:
        setup_ref, setup_raw = measure_setup(setup_cal)
    attempted, failed = measure.success(passes)
    if args.trace:
        metrics["bench.calib_factor"] = detail["calib_factor"]
        detail["spans"] = write_spans(tracers, args.workload)
    else:
        metrics["setup_s"] = statistics.median(setup_ref)
        metrics["success_frac"] = (attempted - failed) / attempted
        raw["setup_s"] = statistics.median(setup_raw)
        detail["raw"] = raw
        detail["setup_samples"] = len(setup_ref)
        detail["latency_samples"] = len(ops) if len(ops) > 1 else len(passes)
    return metrics, detail, attempted, failed, verdict


def traced_campaign(args, ops, pcal, serial_cfg, workers):
    """Per-layer figures for the campaign, from four kinds of pass per cycle.

    An untraced and a traced campaign give the report cost and the tracing
    overhead; an untraced serial pass over the same trials gives the
    parallel efficiency (raw times of adjacent passes); a traced serial
    pass over the first trials gives the per-trial layers.
    """
    import calib
    import layers
    import measure
    import workloads

    serial_ops = workloads.trial_ops(serial_cfg)
    subset = serial_ops[:CAMPAIGN_TRACED_TRIALS]
    deadline = time.perf_counter() + args.seconds
    campaign_passes, serial_passes = [], []
    plain_s, traced_s, report_ms, efficiency, per_trial = [], [], [], [], []
    with calib.Calibrator(calib.SERIAL) as scal:
        warm_up(subset)
        while len(traced_s) < 2 or time.perf_counter() < deadline:
            plain = measure.run_pass(ops, pcal)
            result, totals, _, campaign_tracer = layers.traced_pass(ops, pcal, layers.install_campaign)
            serial = measure.run_pass(serial_ops, scal)
            sub, sub_totals, sub_counts, trial_tracer = layers.traced_pass(subset, scal, layers.install_trial)
            campaign_passes += [plain, result]
            serial_passes += [serial, sub]
            plain_s.append(sum(plain.ref))
            traced_s.append(sum(result.ref))
            report_ms.append(1e3 * (totals["fuzz.aggregate"] + totals["fuzz.encode_report"]))
            efficiency.append(sum(serial.raw) / (workers * sum(plain.raw)))
            per_trial.append(
                layers.op_layer_metrics(sub_totals, sub_counts, len(subset), "fuzz.run_trial_ms")
            )
    metrics = {**layers.zero_metrics(), **layers.median_metrics(per_trial)}
    metrics["fuzz.report_ms"] = statistics.median(report_ms)
    metrics["fuzz.parallel_efficiency"] = statistics.median(efficiency)
    metrics["bench.trace_overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    verdict = layers.counts_repeat(per_trial)
    tracers = {"campaign": campaign_tracer, "trials": trial_tracer}
    return metrics, campaign_passes + serial_passes, verdict, tracers


def main(argv=None) -> int:
    args = parse_args(argv)
    import_srlab()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spec import END_TO_END, PER_LAYER

    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed, **machine_facts()}}))
    workdir = WORK_ROOT / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    steal0, total0 = cpu_times()
    try:
        metrics, detail, attempted, failed, verdict = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, total1 = cpu_times()
    if args.trace:
        metrics["bench.steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
        names = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        names = {name: END_TO_END[name][0] for name in END_TO_END}
    print(json.dumps({"detail": detail}))
    result = {
        "correct": bool(verdict and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
