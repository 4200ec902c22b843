"""Seeded fuzzing of every inequality checker over random matrices.

Per-trial sub-seeds come from ``numpy.random.SeedSequence(seed,
spawn_key=(trial,))``, a splittable counter scheme, so trials are
independent of execution order and the report is bit-identical for any
parallelism level. Each trial draws its full input set in a fixed order
before any check runs, which makes every instance reproducible from
``(seed, trial)`` alone.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrices as mat
from .checks import (
    CHECKS,
    CheckReport,
    canonical_check_name,
    check_block_diag_sr,
    check_block_intdim,
    check_cholesky_intdim,
    check_deletion,
    check_intdim_subadditive,
    check_weyl,
    encode_json,
    grid_cross_product,
    grid_perturbation,
    grid_product_kappa,
    grid_rank1_addition,
    grid_sum_subadditivity_proot,
)
from .schatten import validate_exponent

DEFAULT_P_GRID = (1.0, 1.5, 2.0, 3.0, 10.0, math.inf)
CHUNK_SIZE = 128


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible description of one fuzzing campaign.

    ``parallelism`` (0 = auto, overridable via the SRLAB_THREADS env var)
    affects execution only, never results, and is therefore left out of
    report echoes.
    """

    trials: int
    seed: int
    dims_max: int = 20
    distributions: tuple[str, ...] = mat.SAMPLE_KINDS
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    checks: tuple[str, ...] = tuple(CHECKS)
    parallelism: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.dims_max < 1:
            raise ValueError(f"dims_max must be >= 1, got {self.dims_max}")
        if self.parallelism < 0:
            raise ValueError(f"parallelism must be >= 0, got {self.parallelism}")
        dists = tuple(sorted(set(self.distributions)))
        if not dists:
            raise ValueError("distributions must be nonempty")
        for kind in dists:
            if kind not in mat.SAMPLE_KINDS:
                raise ValueError(f"unknown distribution {kind!r}")
        object.__setattr__(self, "distributions", dists)
        grid = tuple(validate_exponent(p) for p in self.p_grid)
        if not grid:
            raise ValueError("p_grid must be nonempty")
        object.__setattr__(self, "p_grid", grid)
        names = tuple(canonical_check_name(c) for c in self.checks)
        ordered = tuple(c for c in CHECKS if c in set(names))
        if not ordered:
            raise ValueError("checks must be nonempty")
        object.__setattr__(self, "checks", ordered)

    def config_echo(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "dims_max": self.dims_max,
            "distributions": list(self.distributions),
            "p_grid": [encode_json(p) for p in self.p_grid],
            "checks": list(self.checks),
        }


class TrialResult(NamedTuple):
    check: str
    variant: str | None
    p: float | None
    report: CheckReport


def resolve_parallelism(requested: int) -> int:
    env = os.environ.get("SRLAB_THREADS", "").strip()
    if env:
        requested = int(env)
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, requested)


def _loguniform(rng, low, high, size):
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def _descending_spectrum(rng, length, low=1e-4, high=1.0):
    return np.sort(_loguniform(rng, low, high, length))[::-1]


def _general_matrix(rng, kind, m, n, field):
    if kind == "gaussian":
        return mat.gaussian_matrix(rng, m, n, field)
    if kind == "prescribed_spectrum":
        k = int(rng.integers(1, min(m, n) + 1))
        return mat.prescribed_spectrum_matrix(rng, m, n, _descending_spectrum(rng, k), field)
    if kind == "psd_gram":
        return mat.psd_gram_matrix(rng, m, n, field)
    if kind == "rank1_psd":
        return mat.rank1_psd_matrix(rng, n, field)
    return mat.projector_matrix(rng, n, int(rng.integers(1, n + 1)), field)


def _psd_matrix(rng, kind, n, dims_max, field):
    if kind in ("gaussian", "psd_gram"):
        rows = int(rng.integers(1, dims_max + 1))
        return mat.psd_gram_matrix(rng, rows, n, field)
    if kind == "prescribed_spectrum":
        k = int(rng.integers(1, n + 1))
        lam = np.zeros(n)
        lam[:k] = _descending_spectrum(rng, k)
        v = mat.haar_unitary(rng, n, field)
        g = (v * lam) @ v.conj().T
        return (g + g.conj().T) / 2
    if kind == "rank1_psd":
        return mat.rank1_psd_matrix(rng, n, field)
    return mat.projector_matrix(rng, n, int(rng.integers(1, n + 1)), field)


def scaled_perturbation(rng, base, eps, kind, field):
    """Perturbation with two-norm exactly eps times that of ``base``.

    Both two-norms come from :func:`srlab.matrices.sigma`, so inside a
    trial scope the checks reuse the decomposition of ``base``.
    """
    m, n = base.shape
    if kind == "psd":
        rows = int(rng.integers(1, max(m, n) + 1))
        g = mat.psd_gram_matrix(rng, rows, n, field)
    else:
        g = mat.gaussian_matrix(rng, m, n, field)
    norm_base = mat.sigma(base)[0]
    norm_g = mat.sigma(g)[0]
    if norm_base == 0.0 or norm_g == 0.0:
        return np.zeros_like(base)
    return g * (eps * norm_base / norm_g)


def trial_inputs(seed: int, index: int, cfg: FuzzConfig) -> dict:
    """Regenerate the full deterministic input set of one trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    dists = cfg.distributions
    dmax = cfg.dims_max
    m = int(rng.integers(1, dmax + 1))
    n = int(rng.integers(1, dmax + 1))
    field = "complex" if int(rng.integers(0, 2)) else "real"
    kind_gen = dists[int(rng.integers(0, len(dists)))]
    a_gen = _general_matrix(rng, kind_gen, m, n, field)
    kind_a = dists[int(rng.integers(0, len(dists)))]
    a_psd = _psd_matrix(rng, kind_a, n, dmax, field)
    kind_b = dists[int(rng.integers(0, len(dists)))]
    b_psd = _psd_matrix(rng, kind_b, n, dmax, field)
    b_rank1 = mat.rank1_psd_matrix(rng, n, field)
    a_nonsing = mat.prescribed_spectrum_matrix(
        rng, n, n, _descending_spectrum(rng, n, low=1e-2), field
    )
    k_prod = int(rng.integers(1, dmax + 1))
    b_prod = mat.gaussian_matrix(rng, n, k_prod, field)
    eps_gen = float(rng.uniform(0.05, 0.9))
    e_gen = scaled_perturbation(rng, a_gen, eps_gen, "gaussian", field)
    eps_psd = float(rng.uniform(0.05, 0.9))
    e_psd = scaled_perturbation(rng, a_psd, eps_psd, "psd", field)
    k1 = int(rng.integers(1, dmax + 1))
    k2 = int(rng.integers(1, dmax + 1))
    a11 = mat.gaussian_matrix(rng, k1, k1, field)
    a22 = mat.gaussian_matrix(rng, k2, k2, field)
    split_k = int(rng.integers(1, n)) if n >= 2 else 0
    drop_col = int(rng.integers(0, a_gen.shape[1]))
    return {
        "m": m,
        "n": n,
        "field": field,
        "A_gen": a_gen,
        "A_psd": a_psd,
        "B_psd": b_psd,
        "B_rank1": b_rank1,
        "A_nonsing": a_nonsing,
        "B_prod": b_prod,
        "E_gen": e_gen,
        "E_psd": e_psd,
        "A11": a11,
        "A22": a22,
        "split_k": split_k,
        "drop_col": drop_col,
    }


def run_trial(seed: int, index: int, cfg: FuzzConfig) -> list[TrialResult]:
    """Run every enabled check on the trial's inputs across the p grid.

    The trial runs in a :func:`srlab.matrices.trial_scope`, so an input
    that several checks share is classified and decomposed once.
    """
    with mat.trial_scope():
        return _run_checks(trial_inputs(seed, index, cfg), cfg)


def _run_checks(x: dict, cfg: FuzzConfig) -> list[TrialResult]:
    enabled = set(cfg.checks)
    out: list[TrialResult] = []

    def add(check, variant, p, report):
        out.append(TrialResult(check, variant, p, report))

    if "weyl" in enabled:
        add("weyl", None, None, check_weyl(x["A_psd"], x["B_psd"]))
    if "intdim_subadditive" in enabled:
        add(
            "intdim_subadditive",
            None,
            None,
            check_intdim_subadditive(x["A_psd"], x["B_psd"]),
        )
    grid = cfg.p_grid
    if "sum_subadditivity_proot" in enabled:
        for p, report in zip(grid, grid_sum_subadditivity_proot(x["A_psd"], x["B_psd"], grid)):
            add("sum_subadditivity_proot", None, p, report)
    if "rank1_addition" in enabled:
        for p, report in zip(grid, grid_rank1_addition(x["A_psd"], x["B_rank1"], grid)):
            add("rank1_addition", None, p, report)
    if "product_kappa" in enabled:
        for p, report in zip(grid, grid_product_kappa(x["A_nonsing"], x["B_prod"], grid)):
            add("product_kappa", None, p, report)
    if "cross_product" in enabled:
        for p, report in zip(grid, grid_cross_product(x["A_gen"], grid)):
            add("cross_product", None, p, report)
    if "perturbation" in enabled:
        for p, report in zip(grid, grid_perturbation(x["A_gen"], x["E_gen"], grid)):
            add("perturbation", "general", p, report)
        for p, report in zip(grid, grid_perturbation(x["A_psd"], x["E_psd"], grid)):
            add("perturbation", "psd", p, report)
    if "block_diag_sr" in enabled:
        add("block_diag_sr", None, None, check_block_diag_sr(x["A11"], x["A22"]))
    if "block_intdim" in enabled and x["n"] >= 2:
        add("block_intdim", None, None, check_block_intdim(x["A_psd"], x["split_k"]))
    if "cholesky_intdim" in enabled:
        add("cholesky_intdim", None, None, check_cholesky_intdim(x["A_psd"]))
    if "deletion" in enabled:
        add("deletion", None, None, check_deletion(x["A_gen"], x["drop_col"]))
    return out


def reproduce_check(
    cfg: FuzzConfig, trial: int, check: str, variant: str | None, p: float | None
) -> CheckReport:
    """Re-run a single recorded instance from its reproduction seed."""
    for result in run_trial(cfg.seed, trial, cfg):
        same_p = (result.p is None and p is None) or (
            result.p is not None and p is not None and result.p == p
        )
        if result.check == check and result.variant == variant and same_p:
            return result.report
    raise ValueError(f"no instance of {check} (variant={variant}, p={p}) in trial {trial}")


class _Aggregate:
    __slots__ = ("applicable", "passed", "min_slack", "argmin")

    def __init__(self):
        self.applicable = 0
        self.passed = 0
        self.min_slack = None
        self.argmin = None

    def update(self, seed, trial, result: TrialResult):
        report = result.report
        if not report.preconditions_met:
            return
        self.applicable += 1
        if report.holds:
            self.passed += 1
        if self.min_slack is None or report.slack < self.min_slack:
            self.min_slack = report.slack
            self.argmin = {"seed": seed, "trial": trial, "variant": result.variant, "p": result.p}

    def merge(self, other: "_Aggregate"):
        self.applicable += other.applicable
        self.passed += other.passed
        if other.min_slack is not None and (
            self.min_slack is None or other.min_slack < self.min_slack
        ):
            self.min_slack = other.min_slack
            self.argmin = other.argmin


def _run_chunk(cfg: FuzzConfig, start: int, stop: int):
    aggregates = {name: _Aggregate() for name in cfg.checks}
    failures = []
    for trial in range(start, stop):
        for result in run_trial(cfg.seed, trial, cfg):
            aggregates[result.check].update(cfg.seed, trial, result)
            if result.report.preconditions_met and not result.report.holds:
                failures.append(
                    {
                        "check": result.check,
                        "variant": result.variant,
                        "p": result.p,
                        "trial": trial,
                        "seed": cfg.seed,
                        "report": result.report.to_json_dict(),
                    }
                )
    return start, aggregates, failures


@dataclass(frozen=True)
class RunReport:
    """Aggregated fuzzing outcome; JSON form is stable across parallelism."""

    config: FuzzConfig
    checks: dict
    failures: list
    wall_time: float

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "fuzz_report",
            "config": self.config.config_echo(),
            "checks": encode_json(self.checks),
            "failures": encode_json(self.failures),
            "wall_time": self.wall_time,
        }


def run_fuzz(cfg: FuzzConfig) -> RunReport:
    """Execute the campaign; deterministic given the seed at any parallelism."""
    t0 = time.perf_counter()
    workers = resolve_parallelism(cfg.parallelism)
    starts = list(range(0, cfg.trials, CHUNK_SIZE))
    chunks = [(s, min(s + CHUNK_SIZE, cfg.trials)) for s in starts]
    results = []
    if workers == 1 or len(chunks) == 1:
        for start, stop in chunks:
            results.append(_run_chunk(cfg, start, stop))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = [pool.submit(_run_chunk, cfg, start, stop) for start, stop in chunks]
            results = [f.result() for f in futures]
    results.sort(key=lambda r: r[0])
    aggregates = {name: _Aggregate() for name in cfg.checks}
    failures = []
    for _, chunk_agg, chunk_failures in results:
        for name, agg in chunk_agg.items():
            aggregates[name].merge(agg)
        failures.extend(chunk_failures)
    checks_out = {}
    for name in cfg.checks:
        agg = aggregates[name]
        checks_out[name] = {
            "applicable_count": agg.applicable,
            "pass_count": agg.passed,
            "min_slack": agg.min_slack,
            "argmin_instance_seed": agg.argmin,
        }
    return RunReport(
        config=cfg,
        checks=checks_out,
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )
