"""Percentiles, run summaries and comparison verdicts (pure functions)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a tail is reported at, highest first.
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.90, 0.75, 0.50)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def resolvable(n: int, q: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond percentile ``q``."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` at the highest :data:`TAIL_LEVELS` percentile that
    has :data:`MIN_BEYOND` samples beyond it; ``None`` when none has."""
    for q in TAIL_LEVELS:
        if resolvable(len(values), q):
            return q, percentile(values, q)
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one metric over runs (``statistics.quantiles``
    with ``n=4``, the exclusive method; one run gives all three equal)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return abs(summary["q3"] - summary["q1"]) / abs(median)


def verdict(
    base: Sequence[float],
    cand: Sequence[float],
    better: str,
    bound: float,
    absolute: bool = False,
) -> Tuple[str, float]:
    """Compare candidate runs with baseline runs of one metric.

    Returns ``(verdict, change)`` where ``change`` is the candidate
    median's improvement over the baseline median (positive = better),
    as a share of the baseline median, or as an absolute difference for
    ``absolute`` metrics. Verdicts:

    * ``worse`` — worse by more than ``bound``;
    * ``unresolved`` — the baseline's own spread is wider than the bound,
      so a change within it cannot be told from noise — unless every
      candidate run beats every baseline run, which reads ``better``;
    * ``better`` — better by more than the baseline's spread;
    * ``unchanged`` — everything else.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, c = summarize(base), summarize(cand)
    if absolute:
        change = sign * (c["median"] - b["median"])
        if change < 0:
            return "worse", change
        return ("better" if change > 0 else "unchanged"), change
    scale = abs(b["median"]) or 1.0
    change = sign * (c["median"] - b["median"]) / scale
    dominates = min(sign * v for v in cand) > max(sign * v for v in base)
    noise = spread(b)
    if -change > bound:
        return "worse", change
    if noise > bound and not dominates:
        return "unresolved", change
    if change > noise or (dominates and change > 0):
        return "better", change
    return "unchanged", change


def fmt(value: Optional[float]) -> str:
    """Compact human rendering of a metric value."""
    if value is None:
        return "n/a"
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"
    return f"{value:.3e}"

