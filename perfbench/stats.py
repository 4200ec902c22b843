"""Order statistics used by the benchmark."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile, refused unless ``min_beyond`` samples lie above it.

    The k-th smallest of n values with k = ceil(q/100 * n) is the
    percentile; n - k samples lie beyond it. A tail percentile read from
    fewer samples than that is mostly noise, so it raises ValueError.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q!r}")
    ordered = sorted(values)
    n = len(ordered)
    k = max(1, math.ceil(q / 100.0 * n))
    if n - k < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - k} beyond it; need at least {min_beyond}"
        )
    return ordered[k - 1]
