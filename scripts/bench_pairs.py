#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and record a BENCH json.

    python3 scripts/bench_pairs.py --parent ../srlab-parent --change . \\
        --workload cli_mix --seeds 701-710 --seconds 20 --out BENCH.json

``--parent`` and ``--change`` are two checkouts (a ``git worktree`` or a
``git archive`` of the parent commit, say). Pair i runs
``perfbench/run.py --workload W --seed S --seconds T`` in both, the parent
first on even i and the change first on odd i, so drift on a shared
machine falls on both sides alike. The result line of every run is kept.

The output file gains one entry per invocation under ``sets``, named by
the workload and the seeds, so several workloads and seed sets share one
file. Each entry holds every end-to-end metric's median and quartiles per
side, the wins of the change (ties count for neither side), and whether
the gain rule holds: at least nine tenths of the pairs won, and a median
gap larger than the distance between the parent's quartiles. The file
also records the cores, the BLAS build and the thread environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"701-710"`` or ``"5,9,12"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"no valid seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info line, result line) of one perfbench run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    info = next(line["info"] for line in lines if "info" in line)
    return info, lines[-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, the change's wins, the gain rule.

    ``pairs`` holds ``{"parent": {metric: value}, "change": {metric: value}}``
    per pair; ``better`` maps each metric to "higher" or "lower".
    """
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gap = sign * (cmed - pmed)
        summary[name] = {
            "better": direction,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "change_vs_parent": (cmed - pmed) / pmed if pmed else None,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "gain_rule_met": wins >= WIN_SHARE * len(pairs) and gap > pq3 - pq1,
        }
    return summary


def git_state(checkout: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=checkout, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='for example "701-710" or "5,9,12"')
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH json to create or extend")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs, info = [], None
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            info, result = run_once(sides[side], args.workload, seed, args.seconds)
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pair[f"{side}_correct"] = result["correct"]
            pair[f"{side}_failed"] = result["failed"]
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"sets": {}}
    record["machine"] = {
        "cores": os.cpu_count(),
        **{key: info[key] for key in ("cpu_model", "blas", "blas_threads", "python", "numpy", "scipy")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    name = f"{args.workload} seeds {args.seeds}"
    record["sets"][name] = {
        "workload": args.workload,
        "seeds": seeds,
        "seconds": args.seconds,
        "parent": git_state(sides["parent"]),
        "change": git_state(sides["change"]),
        "all_correct": all(p["parent_correct"] and p["change_correct"] for p in pairs),
        "metrics": summarize(pairs, {m: better[m] for m in better if m in pairs[0]["parent"]}),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
