"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import srlab.fuzz  # noqa: E402
import workloads  # noqa: E402
from spec import CALIBRATION, END_TO_END, PER_LAYER  # noqa: E402
from stats import percentile  # noqa: E402
from tracer import Tracer  # noqa: E402


class FixedCalibrator:
    """Stands in for calib.Calibrator with scripted kernel times."""

    def __init__(self, times):
        self.times = list(times)

    def measure(self):
        return self.times.pop(0)


def test_reference_seconds_scales_by_kernel_speed():
    assert calib.reference_seconds(2.0, 0.04, reference_kernel_s=0.02) == pytest.approx(1.0)
    assert calib.reference_seconds(1.0, 0.01, reference_kernel_s=0.02) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.reference_seconds(1.0, 0.0)


def test_run_pass_uses_geometric_mean_of_bracketing_kernels():
    ops = [workloads.Op("x", lambda: None, lambda out: True)]
    k = calib.REFERENCE_KERNEL_S
    result = measure.run_pass(ops, FixedCalibrator([k, 4 * k]))
    assert result.factor == [pytest.approx(0.5)]
    assert result.ref[0] == pytest.approx(result.raw[0] / 2)


def test_raw_calibrator_leaves_times_unchanged():
    ops = [workloads.Op("x", lambda: None, lambda out: True)] * 3
    with calib.Calibrator(calib.RAW) as cal:
        result = measure.run_pass(ops, cal)
    assert result.ref == result.raw


def test_parallel_calibrator_stops_its_workers():
    with calib.Calibrator(calib.PARALLEL, processes=2) as cal:
        assert cal.measure() > 0
        workers = list(cal._workers)
    assert [proc.returncode for proc in workers] == [0, 0]


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    assert percentile(values[:20], 50) == 10
    with pytest.raises(ValueError):
        percentile(values[:19], 50)


def test_pass_latency_takes_whole_passes():
    ops = [workloads.Op("x", lambda: None, lambda out: True)]
    passes = [measure.Pass(raw=[0.001 * i], factor=[1.0], ok=[True], weight=[1]) for i in range(1, 21)]
    assert measure.pass_latency_metrics(passes) == {
        "latency_p50_ms": pytest.approx(10.0),
        "latency_p90_ms": pytest.approx(18.0),
    }
    with pytest.raises(ValueError):
        measure.pass_latency_metrics(passes[:19])
    with calib.Calibrator(calib.RAW) as cal:
        ran = measure.run_passes(ops, cal, 0.0, measure.PASS_LATENCY_MIN_PASSES)
    assert len(ran) == measure.PASS_LATENCY_MIN_PASSES


@pytest.fixture()
def small_matrix_file(tmp_path):
    a = np.diag([3.0, 2.0, 1.0, 0.5])
    path = tmp_path / "a.mtx"
    scipy.io.mmwrite(str(path), a, precision=17)
    return str(path), a


def test_wrong_op_result_lowers_success_frac(small_matrix_file):
    path, a = small_matrix_file
    right = workloads.reference_value(a, "sr", 2.0)
    argv = ["compute", path, "-q", "sr"]
    ops = [
        workloads.Op("compute", lambda: workloads.call_cli(argv), workloads.compute_check(right)),
        workloads.Op("compute", lambda: workloads.call_cli(argv), workloads.compute_check(right * 1.001)),
    ]
    with calib.Calibrator(calib.RAW) as cal:
        passes = [measure.run_pass(ops, cal)]
    assert passes[0].ok == [True, False]
    assert measure.success(passes) == (2, 1)


def test_reference_values_match_definitions(small_matrix_file):
    _, a = small_matrix_file
    s = np.array([3.0, 2.0, 1.0, 0.5])
    assert workloads.reference_value(a, "sr", 2.0) == pytest.approx(np.sum(s**2) / 9)
    assert workloads.reference_value(a, "srp", math.inf) == 1.0
    assert workloads.reference_value(a, "rank", 2.0) == 4.0
    assert workloads.reference_value(a, "schatten", 1.0) == pytest.approx(6.5)
    assert workloads.reference_value(a, "intdim", 2.0) == pytest.approx(6.5 / 3)


def _reports(results):
    return [(r.check, r.variant, r.p, json.dumps(r.report.to_json_dict(), sort_keys=True)) for r in results]


def test_traced_run_leaves_fuzz_results_unchanged():
    ops = workloads.trial_ops(workloads.serial_config(seed=3, trials=6))
    plain = [_reports(op.run()) for op in ops]
    originals = (srlab.fuzz.check_weyl, srlab.fuzz.trial_inputs, np.linalg.svd)
    tr = Tracer()
    layers.install_trial(tr)
    try:
        traced = []
        for op in ops:
            root = tr.begin_op(op.kind)
            traced.append(_reports(op.run()))
            tr.end_op(root)
    finally:
        tr.uninstall()
    assert traced == plain
    assert (srlab.fuzz.check_weyl, srlab.fuzz.trial_inputs, np.linalg.svd) == originals
    assert tr.counts["svd_calls"] > 0 and tr.counts["power_sum_calls"] > 0


def test_spans_written_at_the_end(tmp_path):
    tr = Tracer()
    root = tr.begin_op("op")
    tr.close(tr.open("checks.weyl"))
    tr.end_op(root)
    tr.write(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(name, parent) for name, parent, _, _ in lines] == [("op", None), ("checks.weyl", 0)]
    assert lines[0][2] == 0.0 and lines[0][3] >= lines[1][3] >= lines[1][2] >= 0.0


def test_traced_run_leaves_cli_results_unchanged(tmp_path):
    ops = workloads.cli_ops(5, tmp_path, {"psd20a": 5, "sparse2000": 1, "verify": 7, "gallery": 5})
    with calib.Calibrator(calib.RAW) as cal:
        plain = measure.run_pass(ops, cal)
        traced, totals, counts, _ = layers.traced_pass(ops, cal, layers.install_cli)
    assert plain.ok == traced.ok == [True] * len(ops)
    outputs = [op.run() for op in ops]
    assert outputs == [op.run() for op in ops]
    assert counts["bytes_read"] > 0 and totals["op"] > 0


def test_counts_repeat_across_traced_passes():
    ops = workloads.trial_ops(workloads.serial_config(seed=4, trials=5))
    per_pass = []
    with calib.Calibrator(calib.RAW) as cal:
        for _ in range(2):
            _, totals, counts, _ = layers.traced_pass(ops, cal, layers.install_trial)
            per_pass.append(layers.op_layer_metrics(totals, counts, len(ops), "fuzz.run_trial_ms"))
    assert layers.counts_repeat(per_pass)
    assert per_pass[0]["matrices.svd_calls"] >= per_pass[0]["matrices.svd_distinct"] > 0


def test_op_layers_self_time_and_nesting():
    tr = Tracer()
    tr.spans = [
        ["op", None, 0.0, 10.0],
        ["gallery.build", 0, 1.0, 5.0],
        ["mmio.read", 1, 2.0, 3.0],
        ["checks.weyl", 0, 6.0, 9.0],
        ["checks.weyl", 3, 7.0, 8.0],
    ]
    (layers_of_op,) = tr.op_layers()
    assert layers_of_op["op"] == 10.0
    assert layers_of_op["op.self"] == 3.0
    assert layers_of_op["gallery.build.self"] == 3.0
    assert layers_of_op["checks.weyl"] == 3.0


def test_inputs_depend_only_on_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        workloads.cli_ops(seed, d, {"psd20a": 1})
    files = sorted(p.name for p in dirs[0].glob("*.mtx"))
    assert all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
    assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes() for f in files)
    assert workloads.fuzz_seed(7) == workloads.fuzz_seed(7) != workloads.fuzz_seed(8)


def test_benchmark_json_matches_spec():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(CALIBRATION)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    for workload in bench["workloads"]:
        assert CALIBRATION[workload["name"]] in workload["why"]
