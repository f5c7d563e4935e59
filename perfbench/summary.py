"""Latency summaries under the sample-count rule, and run-to-run spread.

A percentile is reported only when at least :data:`TAIL_SAMPLES` samples
lie beyond it: p50 needs 20 samples, p90 needs 100 and p99 needs 1000.
Below that the percentile is omitted (``None``), never estimated.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: samples that must lie beyond a percentile for it to be reported
TAIL_SAMPLES = 10


def min_samples(q: int) -> int:
    """Fewest samples for which the integer percentile ``q`` is reported."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(100 * TAIL_SAMPLES / (100 - q))


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` below the sample rule."""
    if len(values) < min_samples(q):
        return None
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    return ordered[rank - 1]


def latency_summary(
    values: Sequence[float], pattern: str, scale: float, qs=(50, 90, 99)
) -> Dict[str, float]:
    """One entry per reportable percentile, named by ``pattern``.

    ``values`` are seconds; ``scale`` converts them (1e3 for ms, 1e6 for
    us) and ``pattern`` names the entry, e.g. ``"latency_{}_ms"`` gives
    ``latency_p50_ms``.
    """
    out: Dict[str, float] = {}
    for q in qs:
        value = percentile(values, q)
        if value is not None:
            out[pattern.format(f"p{q}")] = value * scale
    return out


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for a layer that recorded no samples."""
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    exclusive method), the same computation that judges the benchmark's
    steadiness across seeds.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(mid)
