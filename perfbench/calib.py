"""Speed calibration: a fixed numpy/Python kernel timed next to each pass.

The host this benchmark was written on changes speed by up to 1.8x over a
few seconds, while the ratio of a workload to this kernel stays within about
5%. So every timing is converted to *reference-speed seconds*:

    reference = raw * (REFERENCE_KERNEL_S / kernel time measured next to it)

The kernel imports nothing from srlab. Its decomposition routines are bound
here at import time, so the traced run (which replaces the ``numpy.linalg``
attributes) neither counts nor slows them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

_svd = np.linalg.svd
_eigvalsh = np.linalg.eigvalsh
_qr = np.linalg.qr

# Kernel time in seconds on the reference host (2-core Intel Xeon VM,
# OpenBLAS pinned to one thread). Fixed: changing it rescales every
# reference-speed figure.
REFERENCE_KERNEL_S = 0.02
KERNEL_REPS = 18

# How a workload's timings are converted; fixed per workload in spec.py.
SERIAL = "serial"  # kernel in this process
PARALLEL = "parallel"  # kernel in as many processes as the workload uses
RAW = "raw"  # no conversion


def kernel_inputs():
    rng = np.random.default_rng(20240731)
    small = [rng.standard_normal((n, n)) for n in (3, 5, 8, 12, 16, 20)]
    return small, rng.standard_normal((96, 96))


def run_kernel(inputs, reps: int = KERNEL_REPS) -> float:
    """Run the fixed kernel and return its wall time in seconds.

    It mixes what srlab spends time on: interpreter work around many small
    numpy calls, small LAPACK decompositions and one medium SVD.
    """
    small, medium = inputs
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(reps):
        for a in small:
            s = _svd(a, compute_uv=False)
            w = _eigvalsh((a + a.T) / 2)
            _, r = _qr(a)
            ratios = s / s[0]
            acc += float(np.sum(ratios**1.5)) + float(w[-1] - w[0]) + abs(float(r[0, 0]))
            acc += sum(float(x) for x in ratios[:4])
        acc += float(_svd(medium, compute_uv=False)[0])
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def reference_seconds(
    raw_s: float, kernel_s: float, reference_kernel_s: float = REFERENCE_KERNEL_S
) -> float:
    """Convert a raw time to reference-speed seconds."""
    if kernel_s <= 0.0:
        raise ValueError(f"kernel time must be positive, got {kernel_s!r}")
    return raw_s * (reference_kernel_s / kernel_s)


class Calibrator:
    """Times the kernel on demand.

    ``mode`` SERIAL runs the kernel here. PARALLEL runs it at once in
    ``processes`` worker processes (this file run with ``--serve``) and
    takes their mean time, so the kernel sees the same load as a
    multi-process workload. Close the calibrator to stop the workers.
    """

    def __init__(self, mode: str, processes: int = 1):
        if mode not in (SERIAL, PARALLEL, RAW):
            raise ValueError(f"unknown calibration mode {mode!r}")
        self.mode = mode
        self._inputs = kernel_inputs()
        self._workers: list[subprocess.Popen] = []
        if mode == PARALLEL:
            cmd = [sys.executable, __file__, "--serve"]
            for _ in range(processes):
                self._workers.append(
                    subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                )
        self.measure()  # warm-up

    def measure(self) -> float:
        """Time the kernel once; RAW mode returns the reference time."""
        if self.mode == RAW:
            return REFERENCE_KERNEL_S
        if self.mode == SERIAL:
            return run_kernel(self._inputs)
        for proc in self._workers:
            proc.stdin.write("\n")
            proc.stdin.flush()
        return statistics.fmean(float(proc.stdout.readline()) for proc in self._workers)

    def close(self) -> None:
        for proc in self._workers:
            proc.stdin.close()
        for proc in self._workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    """Worker loop: one kernel measurement per line read from stdin."""
    inputs = kernel_inputs()
    for _ in sys.stdin:
        print(run_kernel(inputs), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
