"""Summary statistics shared by the runner and ``compare.py``.

Pure Python on purpose: the launcher process never imports numpy, so the
thread-pinning environment is decided before any BLAS is loaded (the
children import numpy, the launcher only pools their samples).
"""

from __future__ import annotations

import math
import statistics

#: percentile ladder for "the highest percentile with >= 10 samples beyond it"
_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``
    gives them (the rule the acceptance driver uses for its spreads); the
    extremes when there are too few values to interpolate between."""
    if len(values) < 4:
        return float(min(values)), float(max(values))
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def rel_range(values) -> float:
    """(max - min) / median: the pass-to-pass spread of a few medians."""
    m = median(values)
    return (max(values) - min(values)) / m if m else math.inf


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (k - lo))


def tail(values) -> tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile that still has at
    least ten samples beyond it (the median when the sample is that small)."""
    n = len(values)
    best = _LADDER[0]
    for p in _LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best, percentile(values, best)


def summarize(values) -> dict:
    """Median, quartiles, sample count and supported tail of one sample."""
    q1, q3 = quartiles(values)
    p, v = tail(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail_p": p,
        "tail": v,
    }
