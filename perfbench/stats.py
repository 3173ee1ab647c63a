"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile in ``PERCENTILES`` with at least ``MIN_BEYOND``
    samples above it, as ``(percentile, value)``; None when even the median
    has fewer.  Uses the nearest-rank definition: the p-th percentile of n
    sorted samples is the ``ceil(p n / 100)``-th, leaving ``n - rank`` beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(math.ceil(p * n / 100.0), 1)
        if n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def summarize(values) -> dict:
    """Median, tail percentile (see ``tail_percentile``) and sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    tail = tail_percentile(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if tail is not None:
        out["tail_percentile"], out["tail_value"] = tail
    return out


def describe(name: str, unit: str, values) -> str:
    """One human-readable line: median, tail percentile if any, sample count."""
    s = summarize(values)
    text = f"{name} = {s['median']:.6g} {unit} (median of n={s['n']}"
    if "tail_percentile" in s:
        text += f", p{s['tail_percentile']:g} = {s['tail_value']:.6g} {unit}"
    return text + ")"
