"""Timed passes over a workload's ops, with calibration between segments."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from calib import Calibrator, reference_seconds
from stats import percentile
from workloads import Op

SEGMENT_S = 0.15  # calibrate after at least this much timed work
MIN_PASSES = 3
# A workload whose pass is a single op (the campaign) takes its latencies
# over passes, about twenty in a run. Ten samples beyond p90 would need a
# hundred passes, so there p90 rests on PASS_MIN_BEYOND samples beyond it.
PASS_LATENCY_MIN_PASSES = 20
PASS_MIN_BEYOND = 2


@dataclass
class Pass:
    """One run over every op: raw seconds, calibration factor and verdict per op."""

    raw: list[float] = field(default_factory=list)
    factor: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    weight: list[int] = field(default_factory=list)

    @property
    def ref(self) -> list[float]:
        return [r * f for r, f in zip(self.raw, self.factor)]

    def rate(self, reference: bool = True) -> float:
        return sum(self.weight) / sum(self.ref if reference else self.raw)


def run_pass(ops: list[Op], calibrator: Calibrator, tracer=None) -> Pass:
    """Time each op; run the kernel before the pass and after each segment.

    An op's factor is REFERENCE_KERNEL_S over the geometric mean of the
    kernel times that bracket its segment. Checks run after all timing.
    """
    result = Pass()
    outputs = []
    before = calibrator.measure()
    pending = 0.0
    for i, op in enumerate(ops):
        root = tracer.begin_op(op.kind) if tracer is not None else None
        t0 = time.perf_counter()
        out = op.run()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(root)
        outputs.append(out)
        result.raw.append(elapsed)
        result.weight.append(op.weight)
        pending += elapsed
        if pending >= SEGMENT_S or i == len(ops) - 1:
            after = calibrator.measure()
            factor = reference_seconds(1.0, math.sqrt(before * after))
            result.factor.extend([factor] * (len(result.raw) - len(result.factor)))
            before, pending = after, 0.0
    result.ok = [op.check(out) for op, out in zip(ops, outputs)]
    return result


def run_passes(ops, calibrator, seconds: float, min_passes: int = MIN_PASSES) -> list[Pass]:
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops, calibrator))
    return passes


def success(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed), counting each op by its weight."""
    attempted = sum(sum(p.weight) for p in passes)
    failed = sum(w for p in passes for w, ok in zip(p.weight, p.ok) if not ok)
    return attempted, failed


def throughput(passes: list[Pass], reference: bool = True) -> float:
    """Median over passes of ops per second."""
    return statistics.median(p.rate(reference) for p in passes)


def op_latencies_ms(passes: list[Pass], reference: bool = True) -> list[float]:
    """Each op's time as its median over passes, in ms."""
    per_op = zip(*(p.ref if reference else p.raw for p in passes))
    return [1e3 * statistics.median(times) for times in per_op]


def latency_metrics(passes: list[Pass], reference: bool = True) -> dict[str, float]:
    lat = op_latencies_ms(passes, reference)
    return {"latency_p50_ms": percentile(lat, 50), "latency_p90_ms": percentile(lat, 90)}


def pass_latency_metrics(passes: list[Pass], reference: bool = True) -> dict[str, float]:
    """Latencies of whole passes, in ms, for a workload whose pass is one op."""
    lat = [1e3 * sum(p.ref if reference else p.raw) for p in passes]
    return {
        "latency_p50_ms": percentile(lat, 50, PASS_MIN_BEYOND),
        "latency_p90_ms": percentile(lat, 90, PASS_MIN_BEYOND),
    }
