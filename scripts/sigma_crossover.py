#!/usr/bin/env python3
"""Time the certified Gram route for singular values against the SVD.

    python3 scripts/sigma_crossover.py [--field real|complex]

Prints, for each smaller side k and aspect ratio (larger side / k) of a
Gaussian input, the SVD's time over the Gram route's time (both the best
of several repeats, on one BLAS thread). Ratios above 1 favour the Gram
route; srlab.matrices.GRAM_MIN_SIDE and GRAM_MIN_ASPECT mark where the
ratio stays above 1.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import timeit

import numpy as np

from srlab.matrices import _certified_gram_sigma, gaussian_matrix

SIDES = (8, 16, 24, 32, 48, 64, 96, 128, 200)
ASPECTS = (1.25, 1.5, 2, 3, 4, 8)


def best_seconds(fn, flops: float) -> float:
    number = max(1, int(2e6 / flops))
    return min(timeit.repeat(fn, number=number, repeat=7)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", choices=("real", "complex"), default="real")
    field = parser.parse_args().field
    rng = np.random.default_rng(0)
    print(f"SVD time / Gram-route time, {field} Gaussian k x (aspect * k)")
    print("   k " + "".join(f"{r:>7}" for r in ASPECTS))
    for k in SIDES:
        row = []
        for aspect in ASPECTS:
            a = gaussian_matrix(rng, k, int(round(aspect * k)), field)
            flops = float(a.size * k)
            gram = best_seconds(lambda: _certified_gram_sigma(a), flops)
            svd = best_seconds(lambda: np.linalg.svd(a.T, compute_uv=False), flops)
            row.append(svd / gram)
        print(f"{k:>4} " + "".join(f"{x:7.2f}" for x in row))


if __name__ == "__main__":
    main()
