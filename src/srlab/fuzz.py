"""Seeded fuzzing of every inequality checker over random matrices.

Per-trial sub-seeds come from ``numpy.random.SeedSequence(seed,
spawn_key=(trial,))``, a splittable counter scheme, so trials are
independent of execution order and the report is bit-identical for any
parallelism level. Each trial draws its full input set in a fixed order
before any check runs, which makes every instance reproducible from
``(seed, trial)`` alone.

Which trial inputs feed which check is described once, in the ``_CALLS``
table of ``(check, variant, function, slots)`` rows: a check function of
this module by name and the trial inputs it takes. One row runner calls
them for :func:`run_trial` and :func:`reproduce_check`. The draws of a trial
are written once: :func:`trial_inputs`, and one function per input slot that
calls the :mod:`srlab.matrices` builder of each of the :data:`SAMPLE_KINDS`.
A new draw goes after the existing ones, so recorded trials still replay.

:func:`run_trial` returns every instance's :class:`~srlab.checks.CheckReport`.
A campaign (:func:`run_fuzz`) folds the reports of ``run_trial``, one at a
time, into per-check aggregates, and keeps a report only for a failing,
applicable point. ``parallelism=0`` sizes the pool to the CPUs this
process may run on.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import matrices as mat
# The check_* and grid_* functions are called by their names in ``_CALLS``.
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
SAMPLE_KINDS = (
    "gaussian",
    "psd_gram",
    "prescribed_spectrum",
    "rank1_psd",
    "orthogonal_projector",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible description of one fuzzing campaign.

    ``parallelism`` (0 = one worker per CPU the process may run on) affects
    execution only, never results, and is therefore left out of report
    echoes.
    """

    trials: int
    seed: int
    dims_max: int = 20
    distributions: tuple[str, ...] = SAMPLE_KINDS
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
            if kind not in SAMPLE_KINDS:
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
        echoed = [f.name for f in fields(self) if f.name != "parallelism"]
        return encode_json({name: getattr(self, name) for name in echoed})


class TrialResult(NamedTuple):
    check: str
    variant: str | None
    p: float | None
    report: CheckReport


def resolve_parallelism(requested: int) -> int:
    """``requested`` workers; 0 means one per CPU this process may run on.

    The CPUs are those of the process's affinity mask where the platform
    has one, so a process pinned to 2 of 64 CPUs starts 2 workers.
    """
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            requested = len(os.sched_getaffinity(0))
        else:
            requested = os.cpu_count() or 1
    return max(1, requested)


def _descending_spectrum(rng, length, low=1e-4, high=1.0):
    return np.sort(np.exp(rng.uniform(np.log(low), np.log(high), length)))[::-1]


def _general_matrix(rng, kind, m, n, field):
    # A spectrum or a rank comes off the stream just before its matrix, so recorded trials replay.
    if kind == "gaussian":
        return mat.gaussian_matrix(rng, m, n, field)
    if kind == "psd_gram":
        return mat.psd_gram_matrix(rng, m, n, field)
    if kind == "prescribed_spectrum":
        spectrum = _descending_spectrum(rng, int(rng.integers(1, min(m, n) + 1)))
        return mat.prescribed_spectrum_matrix(rng, m, n, spectrum, field)
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
        return mat._hermitize((v * lam) @ v.conj().T)
    return _general_matrix(rng, kind, n, n, field)  # rank-1 PSD or a projector


def scaled_perturbation(rng, base, eps, kind):
    """Perturbation of ``base``'s field with two-norm exactly eps times that of ``base``.

    Both two-norms come from :func:`srlab.matrices.sigma`, so inside a
    trial scope the checks reuse the decomposition of ``base``.
    """
    m, n = base.shape
    field = "complex" if np.iscomplexobj(base) else "real"
    if kind == "psd":
        rows = int(rng.integers(1, max(m, n) + 1))
        g = mat.psd_gram_matrix(rng, rows, n, field)
    else:
        g = mat.gaussian_matrix(rng, m, n, field)
    return g * (eps * mat.sigma(base)[0] / mat.sigma(g)[0])


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
    e_gen = scaled_perturbation(rng, a_gen, eps_gen, "gaussian")
    eps_psd = float(rng.uniform(0.05, 0.9))
    e_psd = scaled_perturbation(rng, a_psd, eps_psd, "psd")
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


# (check, variant, function, slots) in report order: the check function of this module
# that runs on the trial inputs named by ``slots``. A ``grid_*`` function also takes the
# p grid and returns one report per grid point; a ``check_*`` function returns one report.
_CALLS = (
    ("weyl", None, "check_weyl", ("A_psd", "B_psd")),
    ("intdim_subadditive", None, "check_intdim_subadditive", ("A_psd", "B_psd")),
    ("sum_subadditivity_proot", None, "grid_sum_subadditivity_proot", ("A_psd", "B_psd")),
    ("rank1_addition", None, "grid_rank1_addition", ("A_psd", "B_rank1")),
    ("product_kappa", None, "grid_product_kappa", ("A_nonsing", "B_prod")),
    ("cross_product", None, "grid_cross_product", ("A_gen",)),
    ("perturbation", "general", "grid_perturbation", ("A_gen", "E_gen")),
    ("perturbation", "psd", "grid_perturbation", ("A_psd", "E_psd")),
    ("block_diag_sr", None, "check_block_diag_sr", ("A11", "A22")),
    ("block_intdim", None, "check_block_intdim", ("A_psd", "split_k")),
    ("cholesky_intdim", None, "check_cholesky_intdim", ("A_psd",)),
    ("deletion", None, "check_deletion", ("A_gen", "drop_col")),
)


def _row_reports(x: dict, row: tuple, grid: tuple) -> tuple:
    """``(ps, reports)`` of one ``_CALLS`` row on trial inputs ``x``, ``reports[i]`` at ``ps[i]``.

    The function is looked up in this module when the row runs, so a replaced
    ``srlab.fuzz.check_*`` or ``grid_*`` attribute is the one that runs.
    """
    function, slots = row[2:]
    args = [x[slot] for slot in slots]
    if function.startswith("grid_"):
        return grid, globals()[function](*args, grid)
    return (None,), [globals()[function](*args)]


def _run_checks(x: dict, cfg: FuzzConfig) -> list[TrialResult]:
    results = []
    for row in _CALLS:
        check, variant = row[:2]
        if check in cfg.checks:
            ps, reports = _row_reports(x, row, cfg.p_grid)
            results += [TrialResult(check, variant, p, report) for p, report in zip(ps, reports)]
    return results


def reproduce_check(
    cfg: FuzzConfig, trial: int, check: str, variant: str | None, p: float | None
) -> CheckReport:
    """Re-run one recorded instance: only its ``_CALLS`` row, a grid row at ``p`` alone."""
    for row in _CALLS:
        ps = cfg.p_grid if row[2].startswith("grid_") else (None,)
        if check in cfg.checks and row[:2] == (check, variant) and p in ps:
            with mat.trial_scope():
                x = trial_inputs(cfg.seed, trial, cfg)
                return _row_reports(x, row, (ps[ps.index(p)],))[1][0]
    raise ValueError(f"no instance of {check} (variant={variant}, p={p}) in trial {trial}")


class _Aggregate:
    __slots__ = ("applicable", "passed", "min_slack", "argmin")

    def __init__(self):
        self.applicable = 0
        self.passed = 0
        self.min_slack = None
        self.argmin = None

    def fold(self, seed, trial, variant, p, report) -> bool:
        """Add one report at ``p``; returns whether it is applicable and fails."""
        if not report.preconditions_met:
            return False
        self.applicable += 1
        if report.holds:
            self.passed += 1
        if self.min_slack is None or report.slack < self.min_slack:
            self.min_slack = report.slack
            self.argmin = {"seed": seed, "trial": trial, "variant": variant, "p": p}
        return not report.holds

    def merge(self, other: "_Aggregate"):
        self.applicable += other.applicable
        self.passed += other.passed
        if other.min_slack is not None and (
            self.min_slack is None or other.min_slack < self.min_slack
        ):
            self.min_slack = other.min_slack
            self.argmin = other.argmin


def _run_chunk(cfg: FuzzConfig, start: int, stop: int):
    """Fold ``run_trial``'s reports on trials ``[start, stop)`` into aggregates and failures."""
    aggregates = {name: _Aggregate() for name in cfg.checks}
    failures = []
    for trial in range(start, stop):
        for check, variant, p, report in run_trial(cfg.seed, trial, cfg):
            if aggregates[check].fold(cfg.seed, trial, variant, p, report):
                failures.append(
                    {
                        "check": check,
                        "variant": variant,
                        "p": p,
                        "trial": trial,
                        "seed": cfg.seed,
                        "report": report.to_json_dict(),
                    }
                )
    return aggregates, failures


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
    # Chunk results are kept in chunk order, so the report does not depend
    # on which worker finishes first.
    if workers == 1 or len(chunks) == 1:
        results = [_run_chunk(cfg, start, stop) for start, stop in chunks]
    else:
        # Imported here: it loads multiprocessing, socket and logging, which
        # a serial run and every other srlab command never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = [pool.submit(_run_chunk, cfg, start, stop) for start, stop in chunks]
            results = [f.result() for f in futures]
    aggregates = {name: _Aggregate() for name in cfg.checks}
    failures = []
    for chunk_agg, chunk_failures in results:
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
